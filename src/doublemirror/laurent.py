"""Sparse Laurent polynomials, prime fields, and coefficient assignments.

Exponent vectors are integer tuples in the basis coordinates of whichever
lattice the polynomial lives on.  Coefficients are exact rationals
(``domain == "QQ"``) or elements of F_p (``domain == p``); zero coefficients
are never stored.  Evaluation is over F_p only, at torus points: a table of
the terms of several polynomials (``TermTable``, one element for a lone
polynomial) reads a point through one vector of the powers that occur.
Determinants of
polynomial matrices (``det_cofactor``) work on exponent vectors packed into
one integer each.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import mul

from .errors import InputError
from .records import field, record

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
    if len(f) == 2:
        return [-f[0] % p] if f[0] else []
    # deg f >= 2, so t is its own residue
    ring = PackedResidues(f, p)
    t = ring.pack([0, 1])
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
        """``base**e`` by left-to-right square-and-multiply from the leading bit."""
        if e == 0:
            return 1
        result = base
        for bit in bin(e)[3:]:
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


@record
class LaurentPoly:
    """Sparse Laurent polynomial over Q or F_p."""

    rank: int
    terms: tuple  # sorted tuple of (exponent tuple, coefficient)
    domain: object  # RATIONAL or a prime int
    _table: object = field(default=None, compare=False)

    @staticmethod
    def from_dict(rank, mapping, domain):
        items = []
        for exp, coeff in mapping.items():
            coeff = _normalize_coeff(coeff, domain)
            if coeff != 0:
                items.append((tuple(int(e) for e in exp), coeff))
        return LaurentPoly(rank, tuple(sorted(items)), domain)

    def is_zero(self):
        return not self.terms

    def exponent_range(self, coord):
        if not self.terms:
            return (0, 0)
        vals = [e[coord] for e, _ in self.terms]
        return (min(vals), max(vals))

    def evaluate(self, point, invs=None):
        """Value over F_p at a torus point; ``invs`` are its coordinate inverses."""
        return self._compiled().values(point, invs)[0]

    def restrict_to_line(self, fixed, free_coord):
        """Univariate coefficients along ``x_free = t``, others fixed.

        Returns ``(offset, coeffs)`` so the restriction is
        ``t**offset * sum coeffs[k] t**k`` with all other coordinates
        substituted.
        """
        p = self.domain
        table = self._compiled()
        # x_free = 1 drops the free coordinate from every monomial
        point = tuple(1 if i == free_coord else x for i, x in enumerate(fixed))
        acc = {}
        for k, v in zip(table.columns[0][free_coord], table.term_values(point)[0]):
            acc[k] = (acc.get(k, 0) + v) % p
        acc = {k: v for k, v in acc.items() if v}
        if not acc:
            return 0, []
        lo = min(acc)
        hi = max(acc)
        return lo, [acc.get(k, 0) for k in range(lo, hi + 1)]

    def _compiled(self):
        """The F_p term table, built at most once."""
        if self._table is None:
            object.__setattr__(self, "_table", TermTable((self,)))
        return self._table


class TermTable:
    """The terms of F_p polynomials on one torus, laid out for evaluation.

    ``powers`` lists each nonzero (coordinate, exponent) pair that occurs in
    any of the polynomials once, so a point is raised to each power once for
    all of them; a term is its coefficient times the powers at its
    ``indices``.  ``columns[k][j]`` holds the exponent of coordinate j in
    every term of polynomial k.  The table holds nothing that depends on a
    point.
    """

    __slots__ = ("p", "coeffs", "powers", "indices", "columns")

    def __init__(self, polys):
        p = polys[0].domain
        if p == RATIONAL:
            raise InputError("evaluation implemented for prime fields only")
        slot = {}
        self.p = p
        self.coeffs = tuple(tuple(c for _, c in f.terms) for f in polys)
        self.indices = tuple(
            tuple(tuple(slot.setdefault((j, e), len(slot)) for j, e in enumerate(exp) if e)
                  for exp, _ in f.terms)
            for f in polys
        )
        self.powers = tuple(slot)
        self.columns = tuple(
            tuple(zip(*(exp for exp, _ in f.terms))) or ((),) * f.rank for f in polys
        )

    def term_values(self, point, invs=None):
        """``c * x**e`` over F_p for every term, one list per polynomial."""
        p = self.p
        if invs is None:
            invs = fp_inverses(point, p)
        pw = [pow(point[j], e, p) if e > 0 else pow(invs[j], -e, p) for j, e in self.powers]
        out = []
        for coeffs, indices in zip(self.coeffs, self.indices):
            values = []
            for c, idx in zip(coeffs, indices):
                for i in idx:
                    c = c * pw[i] % p
                values.append(c)
            out.append(values)
        return out

    def values(self, point, invs=None):
        """The value of each polynomial at a torus point."""
        return [sum(v) % self.p for v in self.term_values(point, invs)]

    def values_and_log_gradients(self, point, invs=None):
        """The value and the ``x_j d/dx_j`` values of each polynomial, in one
        pass: a term ``c * x**e`` adds itself to the value and ``e_j`` times
        itself to coordinate j of the logarithmic Jacobian row."""
        p = self.p
        return [
            (sum(v) % p, [sum(map(mul, col, v)) % p for col in cols])
            for v, cols in zip(self.term_values(point, invs), self.columns)
        ]


def _normalize_coeff(c, domain):
    if domain == RATIONAL:
        return Fraction(c)
    return int(c) % domain


def det_cofactor(matrix_rows, rank, domain):
    """Determinant of a square matrix of Laurent polynomials.

    Cofactor expansion along the columns in order.  The minor on the last k
    columns depends only on its k rows, so the minors are built once per
    row subset, one column at a time from the last: C(n, k) minors of size k
    in place of n! expansion paths, and only two sizes held at once.

    A minor is a dict from packed exponent vectors to coefficients, with
    integral rationals held as ``int`` and F_p coefficients reduced once per
    minor; one ``LaurentPoly`` is built at the end.  Packing: with every
    entry exponent at most E in absolute value, a minor of size k has
    exponents at most k E <= B = n E in absolute value, so coordinate j is
    stored as ``e_j + B`` in the slot of ``width`` bits starting at bit
    j * width, width the bit length of 2B.  Every slot of every minor then
    lies in [0, 2**width), and the key of a product is the sum of the keys
    less the packed bias.
    """
    n = len(matrix_rows)
    if n == 0:
        return LaurentPoly.from_dict(rank, {(0,) * rank: 1}, domain)
    bound = n * max(
        (abs(e) for row in matrix_rows for entry in row for exp, _ in entry.terms for e in exp),
        default=0,
    )
    width = (2 * bound).bit_length()
    bias = sum(bound << (j * width) for j in range(rank))

    def pack(entry):
        items = []
        for exp, c in entry.terms:
            key = bias + sum(e << (j * width) for j, e in enumerate(exp))
            if domain == RATIONAL and c.denominator == 1:
                c = c.numerator
            items.append((key, c))
        return items

    packed = [[pack(entry) for entry in row] for row in matrix_rows]
    minors = {(i,): dict(packed[i][n - 1]) for i in range(n)}
    for j in range(n - 2, -1, -1):
        larger = {}
        for rows in combinations(range(n), n - j):
            total = {}
            get = total.get
            for ipos, i in enumerate(rows):
                minor = minors[rows[:ipos] + rows[ipos + 1:]]
                for ke, ce in packed[i][j]:
                    if ipos % 2 == 1:
                        ce = -ce
                    shift = ke - bias
                    for km, cm in minor.items():
                        key = km + shift
                        total[key] = get(key, 0) + ce * cm
            if domain != RATIONAL:
                total = {k: c % domain for k, c in total.items()}
            larger[rows] = {k: c for k, c in total.items() if c}
        minors = larger
    mask = (1 << width) - 1
    return LaurentPoly.from_dict(
        rank,
        {
            tuple(((key >> (j * width)) & mask) - bound for j in range(rank)): c
            for key, c in minors[tuple(range(n))].items()
        },
        domain,
    )


@record
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
