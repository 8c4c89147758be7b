"""Sparse Laurent polynomials, prime fields, and coefficient assignments.

Exponent vectors are integer tuples in the basis coordinates of whichever
lattice the polynomial lives on.  Coefficients are exact rationals
(``domain == "QQ"``) or elements of F_p (``domain == p``); zero coefficients
are never stored.  Evaluation is over F_p only, at torus points, and every
monomial goes through ``fp_monomial``.
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
    return pow(x, -1, p)


def fp_inverses(point, p):
    """Inverses of the coordinates of a point of the torus (F_p*)^n."""
    return [fp_inv(x, p) for x in point]


def fp_monomial(exp, point, invs, p):
    """``point**exp`` in F_p, with ``invs`` the inverses of the point's coordinates."""
    val = 1
    for x, inv, e in zip(point, invs, exp):
        if e > 0:
            val = val * pow(x, e, p) % p
        elif e < 0:
            val = val * pow(inv, -e, p) % p
    return val


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
    ring = PackedResidues(f, p)
    t = ring.pack(_poly_divmod([0, 1], f, p)[1])
    # w = t**((p-1)/2) serves twice: t**(p-1) is w**2 (times t when p - 1 is
    # odd), and w - 1 is the first splitting candidate
    w = ring.pow(t, (p - 1) // 2)
    full = ring.mul(w, w)
    if (p - 1) % 2:
        full = ring.mul(full, t)
    g = _poly_gcd(f, _poly_minus_one(ring.unpack(full), p), p)
    roots = []
    if len(g) > 1:
        _split_linear(g, p, SplitMix64(ROOT_SPLIT_SEED), roots, ring.unpack(w))
    return sorted(roots)


def _split_linear(g, p, rng, out, w=None):
    """Append the roots of a monic product of distinct linear factors to ``out``.

    ``w``, if given, is congruent to t**((p-1)/2) modulo g and is tried first.
    """
    if len(g) == 2:
        out.append(-g[0] % p)
        return
    # (t + a)**((p-1)/2) is 1 at about half of the roots of g and -1 or 0 at
    # the others, so its gcd with g is a proper factor for about half of all a
    ring = None
    while True:
        if w is None:
            ring = ring or PackedResidues(g, p)
            w = ring.unpack(ring.pow(ring.pack([rng.below(p), 1]), (p - 1) // 2))
        u = _poly_gcd(g, _poly_minus_one(w, p), p)
        if 1 < len(u) < len(g):
            break
        w = None
    _split_linear(u, p, rng, out)
    _split_linear(_poly_divmod(g, u, p)[0], p, rng, out)


class PackedResidues:
    """F_p[t]/(f) for a monic f of degree n, each residue packed into one integer.

    Kronecker substitution: coefficient k of a residue sits in the slot of
    ``width`` bits starting at bit k * width.  A product of two residues has
    coefficients below n * p**2; folding the slots k >= n back with the table
    of t**k mod f adds less than (n - 1) * p**2 more, so width =
    bits(2 n p**2) + 1 keeps every slot free of carries.
    """

    def __init__(self, f, p):
        n = len(f) - 1
        self.p, self.n = p, n
        self.width = width = (2 * n * p * p).bit_length() + 1
        self.mask = (1 << width) - 1
        self.low = n * width
        self.low_mask = (1 << self.low) - 1
        self.shifts = range((n - 1) * width, -1, -width)
        # t**k mod f for n <= k <= 2n - 2, from t**n = -(f_0 + ... + f_(n-1) t**(n-1))
        power = [-c % p for c in f[:-1]]
        table = []
        for _k in range(n, 2 * n - 1):
            table.append(self.pack(power))
            top = power[-1]
            power = [0] + power[:-1]
            if top:
                power = [(a - top * c) % p for a, c in zip(power, f)]
        self.table = table

    def pack(self, coeffs):
        """The packed residue of a coefficient list of length at most n, entries in [0, p)."""
        x = 0
        for c in reversed(coeffs):
            x = (x << self.width) | c
        return x

    def unpack(self, x):
        """The coefficient list of a packed residue, with no zero leading coefficient."""
        mask, width = self.mask, self.width
        return _poly_trim([(x >> (k * width)) & mask for k in range(self.n)])

    def mul(self, a, b):
        p, mask, width = self.p, self.mask, self.width
        x = a * b
        high = x >> self.low
        x &= self.low_mask
        for power in self.table:
            if not high:
                break
            c = (high & mask) % p
            if c:
                x += c * power
            high >>= width
        r = 0
        for shift in self.shifts:
            r = (r << width) | ((x >> shift) & mask) % p
        return r

    def pow(self, base, e):
        """``base**e`` by left-to-right square-and-multiply."""
        result = 1
        for bit in bin(e)[2:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, base)
        return result


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

    def __add__(self, other):
        self._check_compatible(other)
        acc = dict(self.terms)
        for exp, c in other.terms:
            acc[exp] = _add(acc.get(exp, 0), c, self.domain)
        return LaurentPoly.from_dict(self.rank, acc, self.domain)

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

    def evaluate(self, point, invs=None):
        """Value over F_p at a torus point; ``invs`` are its coordinate inverses."""
        p = self.domain
        if invs is None:
            invs = fp_inverses(point, p)
        return sum(c * fp_monomial(e, point, invs, p) for e, c in self.terms) % p

    def value_and_log_gradient(self, point, invs=None):
        """The value and the ``x_j d/dx_j`` values over F_p at a torus point.

        One pass over the terms gives both the value and one row of the
        logarithmic Jacobian: each term's monomial is evaluated once and
        contributes ``c * x**e`` to the value and ``c * e_j * x**e`` to every
        coordinate j.
        """
        p = self.domain
        if invs is None:
            invs = fp_inverses(point, p)
        value = 0
        row = [0] * self.rank
        for exp, coeff in self.terms:
            term = coeff * fp_monomial(exp, point, invs, p)
            value += term
            for j, e in enumerate(exp):
                if e:
                    row[j] += e * term
        return value % p, [v % p for v in row]

    def restrict_to_line(self, fixed, free_coord):
        """Univariate coefficients along ``x_free = t``, others fixed.

        Returns ``(offset, coeffs)`` so the restriction is
        ``t**offset * sum coeffs[k] t**k`` with all other coordinates
        substituted; requires an F_p domain.
        """
        p = self.domain
        if p == RATIONAL:
            raise InputError("line restriction implemented for prime fields only")
        # x_free = 1 drops the free coordinate from every monomial
        point = tuple(1 if i == free_coord else x for i, x in enumerate(fixed))
        invs = fp_inverses(point, p)
        acc = {}
        for exp, coeff in self.terms:
            k = exp[free_coord]
            acc[k] = (acc.get(k, 0) + coeff * fp_monomial(exp, point, invs, p)) % p
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
        if domain != RATIONAL and not is_prime(domain):
            raise InputError(f"{domain} is not prime")
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
