"""The integer kernels of redstab.poly against plain Fraction references.

Each reference below is the textbook loop over Fractions (or, for float
input, the float loop the kernels keep), written out here so the kernels are
compared with something that does not share their code.
"""

import math
import random
from fractions import Fraction as F

import pytest

from redstab.charge import charge_of_poly
from redstab.interlace import PLUS_INFINITY, Polynomial, RootTuple, roots_to_poly
from redstab.oracles import lagrange_coeffs
from redstab.poly import (
    integer_shift_difference,
    poly_from_roots,
    poly_mul,
    poly_shift_arg,
    shift_wronskian,
    sturm_chain,
    sturm_count_real,
    trim,
)


def _ref_from_roots(roots):
    """prod (x - r) over Fractions: coefficient j of (x - r) p is p[j-1] - r p[j]."""
    out = [F(1)]
    for r in roots:
        out = [a - r * b for a, b in zip([F(0)] + out, out + [F(0)])]
    return out


def _ref_shift(coeffs, m):
    """p(x + m) by the binomial expansion over Fractions."""
    d = len(coeffs) - 1
    return [sum(F(coeffs[k]) * math.comb(k, j) * F(m) ** (k - j) for k in range(j, d + 1))
            for j in range(d + 1)]


def _float_product_loop(roots):
    """The float product loop of the plain route: factors (-r, 1) from 1."""
    out = [1]
    for r in roots:
        new = [0] * (len(out) + 1)
        for i, x in enumerate(out):
            if x == 0:
                continue
            for j, y in enumerate((-r, 1)):
                new[i + j] += x * y
        out = new
    return out


def _rational_tuple(rng, n):
    den = rng.choice((1, 2, 3, 7, 12, 30))
    return sorted(F(x, den) for x in rng.sample(range(-90, 90), n))


def _bits(values):
    return [x.hex() if isinstance(x, float) else repr(x) for x in values]


class TestRootsToPoly:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_equals_fraction_product(self, n):
        rng = random.Random(n)
        for _ in range(25):
            roots = _rational_tuple(rng, n)
            want = _ref_from_roots(roots)
            got = roots_to_poly(RootTuple(tuple(roots))).coeffs
            assert got == tuple(want) and list(map(str, got)) == list(map(str, want))
            assert all(type(c) is F for c in got)
            # +inf drops the last factor, the ambient keeps n
            inf = roots_to_poly(RootTuple(tuple(roots[:-1]) + (PLUS_INFINITY,))).coeffs
            assert inf == tuple(_ref_from_roots(roots[:-1])) + (0,)
            assert all(type(c) is F for c in inf)

    def test_empty_and_integer_roots(self):
        assert poly_from_roots(()) == (1,)
        assert poly_from_roots((1, -2, 3)) == tuple(_ref_from_roots((1, -2, 3)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_float_bit_identical_to_product_loop(self, n):
        rng = random.Random(100 + n)
        for _ in range(25):
            roots = sorted(rng.uniform(-9, 9) for _ in range(n))
            roots[rng.randrange(n)] = rng.choice((0.0, -0.0, 1e-300, 3.0))
            roots = sorted(set(roots))
            want = [float(x) for x in _float_product_loop(roots)]
            got = roots_to_poly(RootTuple(tuple(roots)), len(roots) + 1).coeffs
            assert _bits(got) == _bits(want + [0.0])
            assert all(type(c) is float for c in got)


class TestShiftArg:
    @pytest.mark.parametrize("d", range(0, 9))
    def test_exact_equals_binomial_expansion(self, d):
        rng = random.Random(200 + d)
        shifts = [F(0), F(-3), F(5, 7), F(-11, 4), F(1, 1000)]
        for m in shifts + [F(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(5)]:
            coeffs = tuple(F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(d + 1))
            got = poly_shift_arg(coeffs, m)
            assert got == tuple(_ref_shift(coeffs, m))
            assert all(type(c) is F for c in got)

    def test_integer_inputs(self):
        assert poly_shift_arg((0, 0, 1), 2) == (4, 4, 1)
        assert poly_shift_arg((5,), -3) == (5,)

    def test_float_input_is_horner_in_floats(self):
        coeffs = (0.3, -1.7, 2.25, 1.0)
        m = -0.6
        want = (coeffs[-1],)
        for c in reversed(coeffs[:-1]):
            # (want * (x + m)) + c, coefficient by coefficient, as the float loop
            want = tuple(a + b for a, b in zip((0,) + want, tuple(x * m for x in want) + (0,)))
            want = (want[0] + c,) + want[1:]
        assert _bits(poly_shift_arg(coeffs, m)) == _bits(want)


def _positive_multiple(got, want) -> bool:
    """got == c * want for one c > 0 (want not all zero)."""
    k = next(j for j, w in enumerate(want) if w)
    c = F(got[k]) / want[k]
    return c > 0 and all(g == c * w for g, w in zip(got, want))


class TestIntegerShiftKernels:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_positive_multiples_of_the_fraction_polynomials(self, d):
        rng = random.Random(400 + d)
        for _ in range(10):
            f, h = ([F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(d)]
                    + [F(rng.randint(1, 9), rng.randint(1, 9))] for _ in range(2))
            m = F(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 20))
            diff = [a - b for a, b in zip(f, _ref_shift(f, -m))]
            got = integer_shift_difference(f, m)
            assert all(type(c) is int for c in got) and _positive_multiple(got, diff)
            f_m, h_m = _ref_shift(f, m), _ref_shift(h, m)
            w = [sum(f[i] * h_m[k - i] - f_m[i] * h[k - i]
                     for i in range(max(0, k - d), min(k, d) + 1)) for k in range(2 * d + 1)]
            got = shift_wronskian(f, h, m)
            assert all(type(c) is int for c in got) and _positive_multiple(got, w)


class TestChargeOfPolyFloat:
    @pytest.mark.parametrize("n", (2, 3, 5, 8))
    def test_weights_bit_identical_to_fraction_scale(self, n):
        rng = random.Random(400 + n)
        for drop in (False, True):
            for _ in range(10):
                coeffs = [rng.uniform(-5, 5) for _ in range(n)] + [1.0]
                if drop:
                    coeffs[-1] = 0.0
                f = Polynomial(tuple(coeffs), n)
                top = f.degree
                scale = float(F(1, math.factorial(top))) * (-1 if top < n else 1)
                want = [scale * math.factorial(k) * c for k, c in enumerate(coeffs[:top + 1])]
                got = charge_of_poly(f).weights
                assert _bits(got) == _bits(want + [0.0] * (n - top))


class TestOracleRoutines:
    def test_lagrange_recovers_polynomial(self):
        p = (F(3), F(-1, 2), F(0), F(2))
        xs = [0, 1, -1, 2, 5]
        ys = [sum(c * F(x) ** k for k, c in enumerate(p)) for x in xs]
        assert lagrange_coeffs(xs, ys) == list(p)

    def test_trim(self):
        assert trim([1, 2, 0, 0]) == [1, 2]
        assert trim([0, 0]) == [0]

    def test_sturm_count_with_multiplicities_and_complex_factors(self):
        # prod (x - r_i)^(k_i) times irreducible (x - a)^2 + b^2 factors: the
        # count is the number of distinct r_i, and gcd(p, p') (the chain's last
        # member) is constant exactly when every k_i is 1 and no factor repeats
        rng = random.Random(21)
        candidates = sorted({F(x, d) for x in range(-30, 30) for d in (1, 2, 3)})
        for _ in range(200):
            roots = rng.sample(candidates, rng.randint(0, 4))
            mults = [rng.choice((1, 1, 2, 3)) for _ in roots]
            p = (F(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice((1, -1)),)
            for r, k in zip(roots, mults):
                for _ in range(k):
                    p = poly_mul(p, (-r, 1))
            quadratics = [(F(rng.randint(-9, 9), 2), F(rng.randint(1, 9), 3))
                          for _ in range(rng.randint(0, 2))]
            for a, b in quadratics:
                p = poly_mul(p, (a * a + b * b, -2 * a, 1))
            assert sturm_count_real(p) == len(roots)
            if len(p) > 1:
                squarefree = all(k == 1 for k in mults) and len(set(quadratics)) == len(quadratics)
                assert (len(sturm_chain(p)[-1]) == 1) == squarefree
