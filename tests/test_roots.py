"""Exact root finding in F_p* against a brute-force scan of the field."""

import itertools
import random

import pytest

from doublemirror.laurent import MR_LIMIT, PackedResidues, fp_roots, is_prime
from oracles import poly_mulmod, poly_powmod

MERSENNE_61 = (1 << 61) - 1
# the largest prime below MR_LIMIT: the widest slots PackedResidues can get
NEAR_MR_LIMIT = 3317044064679887385961813


def reference_roots(coeffs, p):
    """Every t in F_p* at which ``sum coeffs[k] t**k`` vanishes, ascending."""
    roots = []
    for t in range(1, p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * t + c) % p
        if acc == 0:
            roots.append(t)
    return roots


def times_linear(coeffs, r, p):
    """Coefficients of ``(t - r) * sum coeffs[k] t**k``."""
    out = [0] * (len(coeffs) + 1)
    for k, c in enumerate(coeffs):
        out[k + 1] = (out[k + 1] + c) % p
        out[k] = (out[k] - r * c) % p
    return out


def from_roots(roots, p, cofactor=(1,)):
    coeffs = list(cofactor)
    for r in roots:
        coeffs = times_linear(coeffs, r, p)
    return coeffs


class TestFpRoots:
    def test_known_roots(self):
        p = 101
        # (t - 3)(t - 7) = t^2 - 10t + 21
        assert fp_roots([21, -10 % p, 1], p) == [3, 7]
        # a linear f is solved directly: 2t + 3 = 0 at t = 49, and t = 0 is no root
        assert fp_roots([3, 2], p) == [49]
        assert fp_roots([0, 7], p) == []
        assert fp_roots([5, 1], MERSENNE_61) == [MERSENNE_61 - 5]

    @pytest.mark.parametrize("p", [2, 3, 101, 211])
    def test_matches_reference(self, p):
        rng = random.Random(p)
        for _ in range(200):
            coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 9))]
            if not any(coeffs):
                continue
            assert fp_roots(coeffs, p) == reference_roots(coeffs, p)

    @pytest.mark.parametrize("p", [101, 211])
    def test_zero_is_excluded(self, p):
        assert fp_roots(from_roots([0, 5, 9], p), p) == [5, 9]
        assert fp_roots([0, 0, 0, 1], p) == []
        rng = random.Random(p + 1)
        for _ in range(50):
            coeffs = [0] + [rng.randrange(p) for _ in range(rng.randint(1, 8))]
            if any(coeffs):
                assert fp_roots(coeffs, p) == reference_roots(coeffs, p)

    @pytest.mark.parametrize("p", [101, 211])
    def test_repeated_roots_reported_once(self, p):
        coeffs = from_roots([3, 3, 3, 7, 7, p - 1], p)
        assert fp_roots(coeffs, p) == [3, 7, p - 1] == reference_roots(coeffs, p)

    @pytest.mark.parametrize("p", [101, 211])
    def test_splits_completely(self, p):
        rng = random.Random(2 * p)
        roots = rng.sample(range(1, p), 8)
        assert fp_roots(from_roots(roots, p), p) == sorted(roots)
        # t^(p-1) - 1 vanishes on all of F_p*
        assert fp_roots([p - 1] + [0] * (p - 2) + [1], p) == list(range(1, p))

    def test_leading_zeros_and_constants(self):
        assert fp_roots([21, -10 % 101, 1, 0, 0], 101) == [3, 7]
        assert fp_roots([5], 101) == []
        with pytest.raises(ValueError):
            fp_roots([101, 202], 101)

    def test_large_prime_known_factors(self):
        p = MERSENNE_61
        rng = random.Random(61)
        # t^2 - c has no root in F_p when c is a quadratic non-residue
        c = next(c for c in range(2, 100) if pow(c, (p - 1) // 2, p) == p - 1)
        cofactor = [-c % p, 0, 1]
        for count in range(6):
            roots = [rng.randrange(1, p) for _ in range(count)]
            coeffs = from_roots(roots + roots[:1] + [0], p, cofactor)
            assert fp_roots(coeffs, p) == sorted(set(roots))


def trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class TestPackedResidues:
    def test_near_limit_prime(self):
        assert NEAR_MR_LIMIT < MR_LIMIT and is_prime(NEAR_MR_LIMIT)
        assert not any(is_prime(q) for q in range(NEAR_MR_LIMIT + 2, MR_LIMIT, 2))

    @pytest.mark.parametrize("p", [2, 3, 101, 10007, 1000003, MERSENNE_61, NEAR_MR_LIMIT])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_list_oracle(self, p, n):
        rng = random.Random(1000 * n + p % 997)
        # all coefficients p - 1 gives the largest slot sums the width must hold
        cases = [([p - 1] * n + [1], [p - 1] * n, [p - 1] * n)]
        for _ in range(3):
            f = [rng.randrange(p) for _ in range(n)] + [1]
            cases.append((f, [rng.randrange(p) for _ in range(n)], [rng.randrange(p) for _ in range(n)]))
        for f, a, b in cases:
            ring = PackedResidues(f, p)
            a, b = trimmed(a), trimmed(b)
            assert ring.unpack(ring.pack(a)) == a
            assert ring.unpack(ring.mul(ring.pack(a), ring.pack(b))) == poly_mulmod(a, b, f, p)
            for e in {0, 1, 2, (p - 1) // 2, p - 1, p, rng.randrange(p * p)}:
                assert ring.unpack(ring.pow(ring.pack(a), e)) == poly_powmod(a, e, f, p)

    @pytest.mark.parametrize("e", [0, 1, 2, 3, 6, 5003, 65536, 1000002])
    def test_pow_multiplications(self, e):
        # the ladder starts at the base: a squaring per bit below the leading
        # one and a product per set bit below it, and none at all for e = 0
        ring = PackedResidues([3, 0, 2, 1], 10007)
        mul, calls = ring.mul, []
        ring.mul = lambda a, b: calls.append(1) or mul(a, b)
        a = [5, 1, 7]
        assert ring.unpack(ring.pow(ring.pack(a), e)) == poly_powmod(a, e, [3, 0, 2, 1], 10007)
        assert len(calls) == (e.bit_length() + bin(e).count("1") - 2 if e else 0)


class TestSmallPrimes:
    # (p - 1)/2 is 0 at p = 2 and 1 at p = 3: t**(p-1) is w**2 * t and w**2
    @pytest.mark.parametrize("p,max_degree", [(2, 10), (3, 6)])
    def test_every_polynomial(self, p, max_degree):
        for degree in range(max_degree + 1):
            for lower in itertools.product(range(p), repeat=degree):
                coeffs = list(lower) + [1]
                assert fp_roots(coeffs, p) == reference_roots(coeffs, p)
