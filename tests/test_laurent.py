"""Laurent polynomial arithmetic, RNG determinism, coefficient assignments."""

import random
import time
from fractions import Fraction

import pytest

from doublemirror.errors import InputError
from doublemirror.laurent import (
    RATIONAL,
    CoefficientAssignment,
    LaurentPoly,
    SplitMix64,
    fp_inv,
    is_prime,
)
from oracles import fp_evaluate, fp_log_gradient


class TestSplitMix:
    def test_deterministic(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_nonzero_mod(self):
        rng = SplitMix64(0)
        vals = [rng.nonzero_mod(7) for _ in range(200)]
        assert all(1 <= v <= 6 for v in vals)
        assert len(set(vals)) == 6


class TestPrimeHelpers:
    def test_is_prime(self):
        assert is_prime(10007) and is_prime(65537) and is_prime(101)
        assert not is_prime(10006) and not is_prime(1)

    def test_is_prime_matches_sieve(self):
        n = 20000
        sieve = [False, False] + [True] * (n - 1)
        for q in range(2, int(n**0.5) + 1):
            if sieve[q]:
                sieve[q * q :: q] = [False] * len(sieve[q * q :: q])
        assert [k for k in range(n + 1) if is_prime(k)] == [k for k in range(n + 1) if sieve[k]]

    def test_is_prime_large_prime_is_fast(self):
        start = time.perf_counter()
        assert is_prime((1 << 61) - 1)
        assert is_prime(2147483659)
        assert time.perf_counter() - start < 1.0

    def test_is_prime_rejects_pseudoprimes(self):
        # Carmichael numbers, then strong pseudoprimes to the bases 2..7
        # and 2..23 respectively
        for n in (561, 41041, 3215031751, 3825123056546413051):
            assert not is_prime(n)

    def test_is_prime_beyond_certified_range(self):
        with pytest.raises(InputError):
            is_prime((1 << 89) - 1)
        assert not is_prime((1 << 89) + 1)

    def test_fp_inv(self):
        for x in (1, 2, 5000, 10006):
            assert x * fp_inv(x, 10007) % 10007 == 1


class TestLaurentPoly:
    def test_add_mul_rational(self):
        f = LaurentPoly.from_dict(2, {(1, 0): 2, (0, -1): 3}, RATIONAL)
        g = LaurentPoly.from_dict(2, {(0, 1): 1}, RATIONAL)
        h = f * g
        assert dict(h.terms) == {(1, 1): Fraction(2), (0, 0): Fraction(3)}
        assert dict((f + f).terms) == {(1, 0): Fraction(4), (0, -1): Fraction(6)}
        assert (f + f.scale(-1)).is_zero()

    def test_zero_pruning(self):
        f = LaurentPoly.from_dict(1, {(0,): 1}, RATIONAL)
        g = LaurentPoly.from_dict(1, {(0,): -1}, RATIONAL)
        assert (f + g).terms == ()

    def test_shift(self):
        f = LaurentPoly.from_dict(1, {(2,): 5}, RATIONAL)
        assert dict(f.shift((-3,)).terms) == {(-1,): Fraction(5)}

    def test_evaluate_fp(self):
        p = 10007
        f = LaurentPoly.from_dict(2, {(1, 0): 1, (-1, 1): 1}, p)
        # f(x, y) = x + y/x
        x, y = 3, 5
        expected = (x + y * fp_inv(x, p)) % p
        assert f.evaluate((x, y)) == expected

    def test_log_derivative(self):
        p = 10007
        # f = x^2 y^-1: x df/dx = 2 x^2 y^-1, y df/dy = -x^2 y^-1
        f = LaurentPoly.from_dict(2, {(2, -1): 1}, p)
        x, y = 4, 7
        expected = 2 * pow(x, 2, p) * fp_inv(y, p) % p
        assert f.log_gradient((x, y)) == [expected, -expected * fp_inv(2, p) % p]

    def test_log_gradient_multi_term(self):
        p = 10007
        rng = random.Random(4)
        for _ in range(20):
            terms = {
                tuple(rng.randint(-3, 3) for _ in range(3)): rng.randrange(1, p)
                for _ in range(rng.randint(1, 6))
            }
            f = LaurentPoly.from_dict(3, terms, p)
            x = tuple(rng.randrange(1, p) for _ in range(3))
            assert f.log_gradient(x) == fp_log_gradient(f, x, p)
            assert f.evaluate(x) == fp_evaluate(f, x, p)

    def test_restrict_to_line(self):
        p = 101
        f = LaurentPoly.from_dict(2, {(2, 1): 3, (-1, 1): 4, (0, 0): 5}, p)
        offset, coeffs = f.restrict_to_line((None, 2), 0)
        # 3*2*t^2 + 4*2*t^-1 + 5 -> t^-1 * (8 + 5t + 0 t^2 + 6 t^3)
        assert offset == -1
        assert coeffs == [8, 5, 0, 6]

    def test_exponent_range(self):
        f = LaurentPoly.from_dict(2, {(2, 1): 3, (-1, 5): 4}, RATIONAL)
        assert f.exponent_range(0) == (-1, 2)
        assert f.exponent_range(1) == (1, 5)


class TestCoefficients:
    def test_random_deterministic(self):
        keys = [(0, 1), (1, 0), (2, 2)]
        a = CoefficientAssignment.random(keys, 10007, 5)
        b = CoefficientAssignment.random(list(reversed(keys)), 10007, 5)
        assert a.values == b.values
        assert all(v != 0 for v in a.values.values())

    def test_rational_mode(self):
        keys = [(0,), (1,)]
        a = CoefficientAssignment.random(keys, RATIONAL, 1)
        assert all(isinstance(v, Fraction) and v != 0 for v in a.values.values())

    def test_explicit_rejects_zero(self):
        with pytest.raises(InputError):
            CoefficientAssignment.explicit({(0, 0): 0}, RATIONAL)

    def test_missing_key(self):
        a = CoefficientAssignment.random([(0,)], RATIONAL, 0)
        with pytest.raises(InputError):
            a.value((9,))
