"""Sparse Laurent polynomials, prime fields, and coefficient assignments.

Exponent vectors are integer tuples in the basis coordinates of whichever
lattice the polynomial lives on.  Coefficients are exact rationals
(``domain == "QQ"``) or elements of F_p (``domain == p``); zero coefficients
are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError

MASK64 = (1 << 64) - 1
RATIONAL = "QQ"


class SplitMix64:
    """Deterministic 64-bit stream; stable across platforms and versions."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("modulus must be positive")
        return self.next_u64() % n

    def nonzero_mod(self, p: int) -> int:
        return 1 + self.below(p - 1)


# Miller-Rabin with the first 13 prime bases decides primality for every
# n below this bound (Sorenson & Webster, Math. Comp. 86, 2017).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981

# Fixed seed of the equal-degree splitting in ``fp_roots``.  The roots are
# returned sorted, so the seed affects only how fast a split is found.
ROOT_SPLIT_SEED = 0x5EED


def is_prime(n: int) -> bool:
    """Deterministic primality test; primes >= ``MR_LIMIT`` raise ``InputError``."""
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_LIMIT:
        raise InputError(
            f"cannot certify a {n.bit_length()}-bit prime; primes must be below {MR_LIMIT}"
        )
    return True


def fp_inv(x: int, p: int) -> int:
    x %= p
    if x == 0:
        raise ZeroDivisionError("inverse of zero in F_p")
    return pow(x, p - 2, p)


def fp_roots(coeffs, p):
    """Distinct roots in F_p* of ``sum coeffs[k] t**k``, ascending.

    The roots in F_p* are exactly those of g = gcd(f, t**(p-1) - 1), a product
    of distinct linear factors, which is split by Cantor-Zassenhaus
    equal-degree factorization (von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 14).  Cost is polynomial in deg f and log p.
    """
    f = _poly_trim([int(c) % p for c in coeffs])
    if not f:
        raise ValueError("the zero polynomial vanishes on all of F_p*")
    if len(f) == 1:
        return []
    f = _poly_monic(f, p)
    g = _poly_gcd(f, _poly_minus_one(_poly_powmod([0, 1], p - 1, f, p), p), p)
    roots = []
    if len(g) > 1:
        _split_linear(g, p, SplitMix64(ROOT_SPLIT_SEED), roots)
    return sorted(roots)


def _split_linear(g, p, rng, out):
    """Append the roots of a monic product of distinct linear factors to ``out``."""
    if len(g) == 2:
        out.append(-g[0] % p)
        return
    # (t + a)**((p-1)/2) is 1 at about half of the roots of g and -1 or 0 at
    # the others, so its gcd with g is a proper factor for about half of all a
    while True:
        w = _poly_powmod([rng.below(p), 1], (p - 1) // 2, g, p)
        u = _poly_gcd(g, _poly_minus_one(w, p), p)
        if 1 < len(u) < len(g):
            break
    _split_linear(u, p, rng, out)
    _split_linear(_poly_divmod(g, u, p)[0], p, rng, out)


# Univariate polynomials over F_p below are ascending coefficient lists with
# no zero leading coefficient; the zero polynomial is the empty list.


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_monic(a, p):
    inv = fp_inv(a[-1], p)
    return [c * inv % p for c in a]


def _poly_minus_one(a, p):
    a = list(a) or [0]
    a[0] = (a[0] - 1) % p
    return _poly_trim(a)


def _poly_divmod(a, f, p):
    """Quotient and remainder of ``a`` by the monic ``f``."""
    a = list(a)
    n = len(f) - 1
    quo = [0] * max(len(a) - n, 0)
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] % p
        quo[i - n] = c
        if c:
            for j in range(n):
                a[i - n + j] -= c * f[j]
    return quo, _poly_trim([c % p for c in a[:n]])


def _poly_mulmod(a, b, f, p):
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _poly_divmod(prod, f, p)[1]


def _poly_powmod(base, e, f, p):
    """``base**e`` modulo the monic ``f`` by left-to-right square-and-multiply."""
    result = [1]
    for bit in bin(e)[2:]:
        result = _poly_mulmod(result, result, f, p)
        if bit == "1":
            result = _poly_mulmod(result, base, f, p)
    return result


def _poly_gcd(a, b, p):
    """Monic gcd of the monic ``a`` and any ``b``."""
    while b:
        b = _poly_monic(b, p)
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


@dataclass(frozen=True)
class LaurentPoly:
    """Sparse Laurent polynomial over Q or F_p."""

    rank: int
    terms: tuple  # sorted tuple of (exponent tuple, coefficient)
    domain: object  # RATIONAL or a prime int

    @staticmethod
    def from_dict(rank, mapping, domain):
        items = []
        for exp, coeff in mapping.items():
            coeff = _normalize_coeff(coeff, domain)
            if coeff != 0:
                items.append((tuple(int(e) for e in exp), coeff))
        return LaurentPoly(rank, tuple(sorted(items)), domain)

    @staticmethod
    def zero(rank, domain):
        return LaurentPoly(rank, (), domain)

    @staticmethod
    def monomial(rank, exp, coeff, domain):
        return LaurentPoly.from_dict(rank, {tuple(exp): coeff}, domain)

    def is_zero(self):
        return not self.terms

    def as_dict(self):
        return dict(self.terms)

    def __add__(self, other):
        self._check_compatible(other)
        acc = dict(self.terms)
        for exp, c in other.terms:
            acc[exp] = _add(acc.get(exp, 0), c, self.domain)
        return LaurentPoly.from_dict(self.rank, acc, self.domain)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        self._check_compatible(other)
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                exp = tuple(a + b for a, b in zip(e1, e2))
                acc[exp] = _add(acc.get(exp, 0), _mul(c1, c2, self.domain), self.domain)
        return LaurentPoly.from_dict(self.rank, acc, self.domain)

    def scale(self, k):
        return LaurentPoly.from_dict(
            self.rank, {e: _mul(c, _normalize_coeff(k, self.domain), self.domain) for e, c in self.terms}, self.domain
        )

    def shift(self, exp):
        """Multiply by the monomial X^exp."""
        exp = tuple(int(e) for e in exp)
        return LaurentPoly(
            self.rank,
            tuple(sorted((tuple(a + b for a, b in zip(e, exp)), c) for e, c in self.terms)),
            self.domain,
        )

    def support(self):
        return tuple(e for e, _ in self.terms)

    def exponent_range(self, coord):
        if not self.terms:
            return (0, 0)
        vals = [e[coord] for e, _ in self.terms]
        return (min(vals), max(vals))

    def evaluate(self, point):
        """Exact evaluation at a point with all coordinates invertible."""
        if self.domain == RATIONAL:
            total = Fraction(0)
            for exp, coeff in self.terms:
                term = Fraction(coeff)
                for x, e in zip(point, exp):
                    term *= Fraction(x) ** e
                total += term
            return total
        p = self.domain
        invs = [fp_inv(x, p) for x in point]
        total = 0
        for exp, coeff in self.terms:
            term = coeff
            for x, inv, e in zip(point, invs, exp):
                if e > 0:
                    term = term * pow(x, e, p) % p
                elif e < 0:
                    term = term * pow(inv, -e, p) % p
            total = (total + term) % p
        return total

    def log_derivative_eval(self, point, coord):
        """Value of ``x_coord d/dx_coord`` of the polynomial at the point."""
        if self.domain == RATIONAL:
            total = Fraction(0)
            for exp, coeff in self.terms:
                if exp[coord] == 0:
                    continue
                term = Fraction(coeff) * exp[coord]
                for x, e in zip(point, exp):
                    term *= Fraction(x) ** e
                total += term
            return total
        p = self.domain
        weighted = {e: c * (e[coord] % p) % p for e, c in self.terms}
        return LaurentPoly.from_dict(self.rank, weighted, p).evaluate(point)

    def restrict_to_line(self, fixed, free_coord):
        """Univariate coefficients along ``x_free = t``, others fixed.

        Returns ``(offset, coeffs)`` so the restriction is
        ``t**offset * sum coeffs[k] t**k`` with all other coordinates
        substituted; requires an F_p domain.
        """
        p = self.domain
        if p == RATIONAL:
            raise InputError("line restriction implemented for prime fields only")
        acc = {}
        invs = [fp_inv(x, p) if i != free_coord else None for i, x in enumerate(fixed)]
        for exp, coeff in self.terms:
            term = coeff
            for i, e in enumerate(exp):
                if i == free_coord or e == 0:
                    continue
                if e > 0:
                    term = term * pow(fixed[i], e, p) % p
                else:
                    term = term * pow(invs[i], -e, p) % p
            k = exp[free_coord]
            acc[k] = (acc.get(k, 0) + term) % p
        acc = {k: v for k, v in acc.items() if v}
        if not acc:
            return 0, []
        lo = min(acc)
        hi = max(acc)
        return lo, [acc.get(k, 0) for k in range(lo, hi + 1)]

    def _check_compatible(self, other):
        if self.rank != other.rank or self.domain != other.domain:
            raise InputError("polynomials live in different rings")


def _normalize_coeff(c, domain):
    if domain == RATIONAL:
        return Fraction(c)
    return int(c) % domain


def _add(a, b, domain):
    if domain == RATIONAL:
        return a + b
    return (a + b) % domain


def _mul(a, b, domain):
    if domain == RATIONAL:
        return a * b
    return (a * b) % domain


@dataclass(frozen=True)
class CoefficientAssignment:
    """One nonzero coefficient per lattice point of the degree-one slice S.

    Keys are point coordinates in the *root* frame of the instance, so the
    same assignment applies across renormalized cone frames.
    """

    domain: object  # RATIONAL or prime int
    seed: int
    values: dict

    @staticmethod
    def random(keys, domain, seed: int) -> "CoefficientAssignment":
        if domain != RATIONAL and not is_prime(domain):
            raise InputError(f"{domain} is not prime")
        stream = SplitMix64(seed)
        values = {}
        for key in sorted(keys):
            if domain == RATIONAL:
                magnitude = 1 + stream.below(99)
                sign = -1 if stream.below(2) else 1
                values[tuple(key)] = Fraction(sign * magnitude)
            else:
                values[tuple(key)] = stream.nonzero_mod(domain)
        return CoefficientAssignment(domain, seed, values)

    @staticmethod
    def explicit(mapping, domain) -> "CoefficientAssignment":
        values = {}
        for key, val in mapping.items():
            val = _normalize_coeff(val, domain)
            if val == 0:
                raise InputError(f"coefficient at {key} is zero")
            values[tuple(int(x) for x in key)] = val
        return CoefficientAssignment(domain, 0, values)

    def value(self, key):
        key = tuple(key)
        if key not in self.values:
            raise InputError(f"no coefficient assigned to slice point {key}")
        return self.values[key]
