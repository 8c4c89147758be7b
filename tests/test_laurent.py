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
    TermTable,
    det_cofactor,
    fp_inv,
    is_prime,
)
from oracles import (
    det_permutation,
    fp_evaluate,
    fp_log_gradient,
    laurent_add,
    laurent_mul,
    laurent_scale,
    laurent_shift,
)


def random_poly(rng, rank, domain, max_terms=6, max_exp=4):
    """A random Laurent polynomial with exponents in [-max_exp, max_exp]."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(-max_exp, max_exp) for _ in range(rank))
        if domain == RATIONAL:
            terms[exp] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
        else:
            terms[exp] = rng.randrange(1, domain)
    return LaurentPoly.from_dict(rank, terms, domain)


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
        h = laurent_mul(f, g)
        assert dict(h.terms) == {(1, 1): Fraction(2), (0, 0): Fraction(3)}
        assert dict(laurent_add(f, f).terms) == {(1, 0): Fraction(4), (0, -1): Fraction(6)}
        assert laurent_add(f, laurent_scale(f, -1)).is_zero()

    def test_zero_pruning(self):
        f = LaurentPoly.from_dict(1, {(0,): 1}, RATIONAL)
        g = LaurentPoly.from_dict(1, {(0,): -1}, RATIONAL)
        assert laurent_add(f, g).terms == ()

    def test_shift(self):
        f = LaurentPoly.from_dict(1, {(2,): 5}, RATIONAL)
        assert dict(laurent_shift(f, (-3,)).terms) == {(-1,): Fraction(5)}

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
        value, row = TermTable((f,)).values_and_log_gradients((x, y))[0]
        assert value == f.evaluate((x, y))
        assert row == [expected, -expected * fp_inv(2, p) % p]

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
            value, row = TermTable((f,)).values_and_log_gradients(x)[0]
            assert row == fp_log_gradient(f, x, p)
            assert value == f.evaluate(x) == fp_evaluate(f, x, p)

    def test_restrict_to_line(self):
        p = 101
        f = LaurentPoly.from_dict(2, {(2, 1): 3, (-1, 1): 4, (0, 0): 5}, p)
        offset, coeffs = f.restrict_to_line((None, 2), 0)
        # 3*2*t^2 + 4*2*t^-1 + 5 -> t^-1 * (8 + 5t + 0 t^2 + 6 t^3)
        assert offset == -1
        assert coeffs == [8, 5, 0, 6]

    def test_restrict_to_line_matches_oracle(self):
        p = 101
        rng = random.Random(12)
        for _ in range(60):
            rank = rng.randint(1, 4)
            f = random_poly(rng, rank, p)
            free = rng.randrange(rank)
            fixed = tuple(rng.randrange(1, p) for _ in range(rank))
            offset, coeffs = f.restrict_to_line(fixed, free)
            if coeffs:
                assert coeffs[0] != 0 and coeffs[-1] != 0
            for t in rng.sample(range(1, p), 5):
                x = tuple(t if i == free else v for i, v in enumerate(fixed))
                on_line = pow(t, offset, p) * sum(c * pow(t, k, p) for k, c in enumerate(coeffs))
                assert on_line % p == fp_evaluate(f, x, p)

    def test_rank_zero_polynomial(self):
        # the rank-zero branch of sample_determinantal_points evaluates at ()
        p = 10007
        f = LaurentPoly.from_dict(0, {(): 5}, p)
        assert f.evaluate(()) == 5
        assert TermTable((f,)).values_and_log_gradients(())[0] == (5, [])
        assert LaurentPoly.from_dict(0, {}, p).evaluate(()) == 0

    def test_zero_polynomial(self):
        p = 101
        f = LaurentPoly.from_dict(3, {}, p)
        assert f.evaluate((2, 3, 4)) == 0
        assert TermTable((f,)).values_and_log_gradients((2, 3, 4))[0] == (0, [0, 0, 0])
        assert f.restrict_to_line((2, None, 4), 1) == (0, [])

    def test_unused_free_coordinate(self):
        p = 101
        # x_1 occurs in no term: the line restriction is a constant
        f = LaurentPoly.from_dict(3, {(1, 0, -2): 3, (-1, 0, 1): 7}, p)
        x = (5, 9, 11)
        value, row = TermTable((f,)).values_and_log_gradients(x)[0]
        assert row[1] == 0
        assert f.restrict_to_line(x, 1) == (0, [value])

    def test_repeated_calls_on_one_instance(self):
        p = 10007
        rng = random.Random(5)
        f = random_poly(rng, 3, p, max_terms=8)
        points = [tuple(rng.randrange(1, p) for _ in range(3)) for _ in range(4)]
        table = TermTable((f,))
        for _ in range(2):
            for x in points:
                assert f.evaluate(x) == fp_evaluate(f, x, p)
                expected = (fp_evaluate(f, x, p), fp_log_gradient(f, x, p))
                assert table.values_and_log_gradients(x)[0] == expected

    def test_compiled_table_keeps_equality_and_hash(self):
        p = 101
        terms = {(2, -1): 3, (0, 4): 8}
        f = LaurentPoly.from_dict(2, terms, p)
        g = LaurentPoly.from_dict(2, terms, p)
        before = hash(f)
        f.evaluate((3, 4))
        assert f._table is not None and g._table is None
        assert f == g and hash(f) == before == hash(g)
        assert len({f, g}) == 1

    def test_exponent_range(self):
        f = LaurentPoly.from_dict(2, {(2, 1): 3, (-1, 5): 4}, RATIONAL)
        assert f.exponent_range(0) == (-1, 2)
        assert f.exponent_range(1) == (1, 5)


def random_matrix(rng, size, rank, domain):
    """A square matrix of random polynomials, about a quarter of them zero."""
    return [
        [
            LaurentPoly.from_dict(rank, {}, domain) if rng.random() < 0.25
            else random_poly(rng, rank, domain, max_terms=3)
            for _ in range(size)
        ]
        for _ in range(size)
    ]


class TestDetCofactor:
    @pytest.mark.parametrize("domain", [RATIONAL, 101])
    def test_matches_permutation_sum(self, domain):
        rng = random.Random(7)
        for size in range(6):
            for rank in range(5):
                mat = random_matrix(rng, size, rank, domain)
                assert det_cofactor(mat, rank, domain) == det_permutation(mat, rank, domain)

    @pytest.mark.parametrize("domain", [RATIONAL, 101])
    def test_dependent_rows_cancel(self, domain):
        rng = random.Random(8)
        mat = random_matrix(rng, 4, 2, domain)
        mat[2] = [laurent_shift(entry, (1, -3)) for entry in mat[0]]
        assert det_cofactor(mat, 2, domain).is_zero()
        assert det_permutation(mat, 2, domain).is_zero()

    def test_non_integral_rationals(self):
        x = {(1, 0): Fraction(1, 2), (0, -1): Fraction(-2, 3)}
        y = {(0, 1): Fraction(3, 4)}
        mat = [
            [LaurentPoly.from_dict(2, x, RATIONAL), LaurentPoly.from_dict(2, y, RATIONAL)],
            [LaurentPoly.from_dict(2, y, RATIONAL), LaurentPoly.from_dict(2, {(-1, 0): 5}, RATIONAL)],
        ]
        det = det_cofactor(mat, 2, RATIONAL)
        # x / 2 * 5 / x - 2 / (3 y) * 5 / x - (3 y / 4)**2
        assert dict(det.terms) == {
            (0, 0): Fraction(5, 2), (-1, -1): Fraction(-10, 3), (0, 2): Fraction(-9, 16)
        }
        assert det == det_permutation(mat, 2, RATIONAL)

    def test_cancellation_mod_p(self):
        p = 101
        # over Z the determinant is 2 * 52 - 3 = 101, zero mod 101
        mat = [
            [LaurentPoly.from_dict(1, {(1,): 2}, p), LaurentPoly.from_dict(1, {(0,): 3}, p)],
            [LaurentPoly.from_dict(1, {(0,): 1}, p), LaurentPoly.from_dict(1, {(-1,): 52}, p)],
        ]
        assert det_cofactor(mat, 1, p).is_zero()
        # the same 2 x 2 block as the trailing minor of a 3 x 3 matrix: the
        # minor vanishes mod p, so det = c * 101 - 2 x c**2 = -98 x**5
        c = LaurentPoly.from_dict(1, {(2,): 7}, p)
        zero = LaurentPoly.from_dict(1, {}, p)
        big = [[c, zero, c], [zero] + mat[0], [c] + mat[1]]
        det = det_cofactor(big, 1, p)
        assert det == det_permutation(big, 1, p)
        assert dict(det.terms) == {(5,): -98 % p}

    @pytest.mark.parametrize("domain", [RATIONAL, 101])
    def test_minors_reach_the_packing_bound(self, domain):
        # every exponent is +-4, so det = prod (2 x**4 + 3 x**-4) over the
        # diagonal reaches +-20 = n * max|e| in every coordinate
        size, rank, e = 5, 4, 4
        entry = LaurentPoly.from_dict(rank, {(e,) * rank: 2, (-e,) * rank: 3}, domain)
        zero = LaurentPoly.from_dict(rank, {}, domain)
        mat = [[entry if i == j else zero for j in range(size)] for i in range(size)]
        det = det_cofactor(mat, rank, domain)
        assert det == det_permutation(mat, rank, domain)
        assert det.exponent_range(0) == (-size * e, size * e)
        assert dict(det.terms)[(size * e,) * rank] == 2**size


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
