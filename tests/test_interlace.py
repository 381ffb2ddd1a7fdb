import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redstab import interlace
from redstab.charge import CentralCharge, in_Un, reduced_charge
from redstab.errors import (
    ComplexRoots,
    DegenerateInput,
    InvalidAmbient,
    NotDistinctRoots,
    SepTooSmall,
)
from redstab.interlace import (
    PLUS_INFINITY,
    Pencil,
    Polynomial,
    RootTuple,
    _companion_eigvals,
    _effective_degree,
    _isolated_roots,
    _lead,
    _newton_polish,
    _newton_polish_rows,
    _polished_eigvals,
    _sep_batch,
    _sep_of_row,
    _wronskian_at_zero,
    gaps_exceed,
    is_interlaced,
    left_interlaced,
    member_roots,
    member_with_root,
    pencil_canonical,
    pencil_project,
    poly_add,
    poly_mul,
    poly_scale,
    poly_shift_arg,
    poly_to_roots,
    proportional,
    roots_to_poly,
    sep,
    sep_exceeds,
    sep_pencil,
    shift_pencil,
    stabilizing_shift,
)
from redstab.exact import exact_sqrt, integer_scaled
from redstab.oracles import member_with_gap, oracle_interlaced
from redstab.poly import poly_eval, sturm_count_real


def RT(*xs):
    return RootTuple(tuple(xs))


class TestRootTuple:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            RT(2, 1)
        with pytest.raises(ValueError):
            RT(1, 1)

    def test_infinity_only_last(self):
        RT(0, PLUS_INFINITY)
        with pytest.raises(ValueError):
            RT(PLUS_INFINITY, 0)

    def test_comparisons_with_infinity(self):
        s, t = RT(0, 2), RT(1, PLUS_INFINITY)
        assert s < t and t.lt_shift(s)
        assert s.interlaces(t)
        assert not RT(1, PLUS_INFINITY).interlaces(RT(0, PLUS_INFINITY))


class TestRootsPoly:
    def test_product(self):
        assert roots_to_poly(RT(0, 2)).coeffs == (0, -2, 1)

    def test_infinite_root_drops_factor(self):
        p = roots_to_poly(RT(1, 3, PLUS_INFINITY))
        assert p.coeffs == (3, -4, 1, 0)
        assert p.degree == 2

    def test_cubic(self):
        assert roots_to_poly(RT(-1, 0, 1)).coeffs == (0, -1, 0, 1)

    def test_roots_roundtrip(self):
        assert poly_to_roots(Polynomial((0, -2, 1), 2)).entries == (0, 2)
        t = poly_to_roots(Polynomial((3, -4, 1, 0), 3))
        assert t.entries == (1, 3, PLUS_INFINITY)

    def test_complex_roots_error(self):
        with pytest.raises(ComplexRoots):
            poly_to_roots(Polynomial((1, 0, 1), 2))

    def test_repeated_roots_error(self):
        with pytest.raises(NotDistinctRoots):
            poly_to_roots(Polynomial((1, -2, 1), 2))

    def test_zero_lead_and_negligible_next_coefficient_drop_twice(self):
        # an exact zero lead drops like a negligible one, so both rows lose
        # two degrees and are rejected, as _sep_of_row already treats them
        for lead in (0.0, 1e-300):
            row = (-2.0, 1.0, 1e-14, lead)
            assert _effective_degree(row) == 1
            assert _sep_of_row(np.array(row)) == math.inf
            with pytest.raises(NotDistinctRoots):
                Polynomial(row, 3).roots()

    @given(st.lists(st.integers(-40, 40), min_size=2, max_size=5, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_identity(self, vals):
        roots = sorted(F(v, 4) for v in vals)
        t = RootTuple(tuple(roots))
        back = poly_to_roots(roots_to_poly(t))
        for a, b in zip(back.entries, t.entries):
            assert abs(float(a) - float(b)) < 1e-10 * max(1.0, abs(float(b)))


def _correctly_rounded(coeffs, xs) -> bool:
    """Fraction check that xs are all the real roots of f, each correctly rounded.

    f changes sign between the midpoints of each x and its float neighbours
    (so a root rounds to x), the xs strictly increase, and the Sturm count
    says f has no other distinct real root.
    """
    for x in xs:
        lo, hi = ((F(x) + F(math.nextafter(x, side))) / 2 for side in (-math.inf, math.inf))
        if not poly_eval(coeffs, lo) * poly_eval(coeffs, hi) < 0:
            return False
    return list(xs) == sorted(set(xs)) and sturm_count_real(coeffs) == len(xs)


class TestExactRounding:
    """Exact input: verdicts from signs, roots rational or correctly rounded."""

    @staticmethod
    def _cases():
        """(coeffs, want): want is the roots, or None to take the exact bisection route's.

        Rational roots stay Fractions at degree 2 and are rounded above it.
        """
        # cancellation in the float closed form gave (7.450580596923828e-09, 100000000.0);
        # roots 1 -+ 1.414e-10, closer than ROOT_DISTINCT_TOL
        yield (F(1), F(-10 ** 8), F(1)), (1e-08, 99999999.99999999)
        yield (1 - 2 * F(1, 10 ** 20), F(-2), F(1)), None
        rng = random.Random(4)
        for n in range(3, 7):
            for _ in range(8):
                # n distinct rational roots inside a window of width <= 1e-2
                base = F(rng.randint(-40, 40), rng.randint(1, 9))
                width = F(1, 10 ** rng.randint(2, 7))
                roots = set()
                while len(roots) < n:
                    roots.add(base + width * F(rng.randint(0, 1000), 1000))
                roots = sorted(roots)
                yield roots_to_poly(RT(*roots)).coeffs, tuple(float(r) for r in roots)
                # the difference polynomial of xi on a length-(n+1) tuple
                t = set()
                while len(t) < n + 1:
                    t.add(F(rng.randint(-60, 60), rng.randint(1, 4)))
                f = roots_to_poly(RT(*sorted(t))).coeffs
                m = F(rng.randint(1, 8), rng.randint(1, 8))
                yield poly_add(f, poly_scale(poly_shift_arg(f, -m), -1))[: n + 1], None
        for k in range(13):
            for _ in range(80):
                # lead (x - r)(x - r - w), and off the rationals lead ((x - r)(x - r - w) + e)
                # with 0 < e < w^2 / 4: roots 10^-k apart, or 10^k apart with cancellation
                r = F(rng.randint(-50, 50), rng.randint(1, 7))
                w = rng.randint(1, 99) * F(10) ** rng.choice((k, -k))
                e = w * w * F(rng.randint(1, 99), 10 ** rng.randint(3, 12))
                lead = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                pair = poly_mul((-r, 1), (-r - w, 1))
                yield poly_scale(pair, lead), (r, r + w)
                c0, c1, c2 = poly_scale(poly_add(pair, (e,)), lead)
                if exact_sqrt(c1 * c1 - 4 * c0 * c2) is None:
                    yield (c0, c1, c2), None

    def test_roots_equal_rounded_truth(self):
        irrational_quadratics = 0
        for coeffs, want in self._cases():
            irrational_quadratics += want is None and len(coeffs) == 3
            got = Polynomial(coeffs, len(coeffs) - 1).roots().entries
            if want is None:
                # irrational roots: the exact bisection route, checked on Fractions
                want = _isolated_roots(integer_scaled(coeffs)[0])
                assert _correctly_rounded(coeffs, want)
            assert got == want
        assert irrational_quadratics >= 1000

    def test_near_double_root_is_not_a_member(self):
        # (x^2 - 2x + 1 + 1e-14)(x - 2)(x - 3): two distinct real roots by Sturm
        f = Polynomial(poly_mul(poly_mul((1 + F(1, 10 ** 14), -2, 1), (-2, 1)), (-3, 1)), 4)
        with pytest.raises(ComplexRoots):
            f.roots()
        assert not f.is_member()
        with pytest.raises(DegenerateInput):
            Pencil(f, f.derivative())

    def test_close_rational_roots(self):
        t = (F(4), 4 + F(1, 10 ** 6), F(5), F(8))
        assert roots_to_poly(RT(*t)).roots().entries == tuple(float(x) for x in t)

    def test_repeated_root_and_roots_rounding_together(self):
        with pytest.raises(NotDistinctRoots, match="repeated root"):
            Polynomial(poly_mul((1, -2, 1), (6, -5, 1)), 4).roots()
        with pytest.raises(NotDistinctRoots, match="round to one float"):
            roots_to_poly(RT(F(0), F(1), 1 + F(1, 2 ** 60), F(3))).roots()

    def test_clustered_corpus(self):
        """360 polynomials, n = 3..8, distinct rational roots in windows 1e-2 .. 1e-7."""
        rng = random.Random(7)
        for n in range(3, 9):
            for _ in range(60):
                base = F(rng.randint(-40, 40), rng.randint(1, 9))
                width = F(1, 10 ** rng.randint(2, 7))
                roots = set()
                while len(roots) < n:
                    roots.add(base + width * F(rng.randint(0, 1000), 1000))
                roots = sorted(roots)
                got = roots_to_poly(RT(*roots)).roots().entries
                assert got == tuple(float(r) for r in roots)

    def test_quartic_corpus(self):
        """440 quartics: two rational roots and a pair a, a + 10^-k or a +- 10^-k i, k = 5..15."""
        rng = random.Random(8)
        for k in range(5, 16):
            e = F(1, 10 ** k)
            for _ in range(20):
                a = F(rng.randint(-50, 50), rng.randint(1, 7))
                outside = [F(x, 3) for x in range(-90, 90) if F(x, 3) not in (a, a + e)]
                r1, r2 = rng.sample(outside, 2)
                outer = poly_mul((-r1, 1), (-r2, 1))
                real = Polynomial(poly_mul(outer, poly_mul((-a, 1), (-a - e, 1))), 4)
                if float(a) == float(a + e):
                    with pytest.raises(NotDistinctRoots, match="round to one float"):
                        real.roots()
                else:
                    want = tuple(sorted(float(x) for x in (r1, r2, a, a + e)))
                    assert real.roots().entries == want
                with pytest.raises(ComplexRoots):
                    Polynomial(poly_mul(outer, (a * a + e * e, -2 * a, 1)), 4).roots()

    def test_coefficients_beyond_the_float_range(self):
        # float(c) and math.sqrt(disc) overflow; the exact route decides alone
        cases = [((1, -10 ** 200, 1), (1e-200, 1e200)),
                 ((1, -10 ** 400, 1, 1), (-1e200, 0.0, 1e200))]
        for coeffs, want in cases:
            got = Polynomial(coeffs, len(coeffs) - 1).roots().entries
            assert got == want
            assert _correctly_rounded(tuple(map(F, coeffs)), got)

    def test_tied_rounded_roots_decided_exactly(self):
        # g's first root rounds to f's 1.0 from below, at it, and from above
        f = roots_to_poly(RT(F(0), F(1), F(3)))
        eps = F(1, 2 ** 60)
        verdicts = [is_interlaced(f, roots_to_poly(RT(r, F(2), F(4))))
                    for r in (1 - eps, F(1), 1 + eps)]
        assert verdicts == [True, False, False]
        # g's second root is irrational and rounds to f's Fraction root 1/3
        f = Polynomial((0, -1, 3), 2)
        for k in (19, 20, 21):
            g = Polynomial(poly_add(poly_mul((-F(1, 5), 1), (-F(1, 3), 1)), (-F(1, 10 ** k),)), 2)
            assert float(g.roots()[1]) == float(f.roots()[1])
            assert is_interlaced(f, g) and oracle_interlaced(f.coeffs, g.coeffs)


class TestMemberRoots:
    @staticmethod
    def _rows():
        """Seeded float members n = 2..6: interlaced, non-interlaced, near the drop."""
        rng = random.Random(6)
        for n in range(2, 7):
            for case in range(6):
                a = roots_to_poly(RT(*sorted(F(x, 2) for x in rng.sample(range(-30, 30), n))))
                b = roots_to_poly(RT(*sorted(F(x, 3) for x in rng.sample(range(-30, 30), n))))
                # leads c + s * (1 + eps): the member at theta = 3 pi / 4 sits
                # at, or 1e-13 .. 1e-6 away from, the degree drop
                eps = (0, 0, F(1, 10 ** 13), F(1, 10 ** 11), F(1, 10 ** 9), F(1, 10 ** 6))[case]
                pairs = [(float(x), float(y * (1 + eps))) for x, y in zip(a.coeffs, b.coeffs)]
                for k in range(40):
                    theta = math.pi * (k + 0.5) / 40 if k else 0.75 * math.pi
                    c, s = math.cos(theta), math.sin(theta)
                    yield n, [c * x + s * y for x, y in pairs]
        # ambient-2 rows at the edges of the closed-form quadratic: a zero
        # discriminant, a positive one with roots 2e-10 apart, negative ones,
        # a lead just above and at the drop, an exact zero lead, a tiny scale
        for row in ([1.0, -2.0, 1.0], [1e-10 - 1e-20, -2e-5, 1.0], [1.0, 0.0, 1.0],
                    [1.0, 1e-3, 1.0], [-3.0, 1.0, 1e-11], [-3.0, 1.0, 1e-13],
                    [-3.0, 1.0, 0.0], [2.0, 3.0, 1.0], [-1e-300, 0.0, 1e-300]):
            yield 2, row

    def test_equal_to_polynomial_roots(self):
        by_n = {}
        for n, row in self._rows():
            by_n.setdefault(n, []).append(row)
        kinds = set()
        for n, rows in by_n.items():
            for row, got in zip(rows, member_roots(rows, n)):
                try:
                    want = Polynomial(tuple(row), n).roots().entries
                except (ComplexRoots, NotDistinctRoots):
                    want = None
                assert got == want
                assert want is None or all(type(x) is float for x in got)
                kinds.add("uncertified" if want is None else
                          "drop" if want[-1] == PLUS_INFINITY else "full")
        assert kinds == {"uncertified", "drop", "full"}

    def test_ambient_two_edges(self):
        rows = [row for n, row in self._rows() if n == 2][-9:]
        got = member_roots(rows, 2)
        assert [None if r is None else len(r) - r.count(PLUS_INFINITY) for r in got] == [
            None, None, None, None, 2, 1, 1, 2, None]
        assert got[7] == (-2.0, -1.0)

    def test_polish_stack_equals_scalar_polish(self):
        # x^2 - 1 from 0.0 (derivative 0: frozen) and from 0.5; a cubic stack
        for rows, x in (([[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]], [[0.0, 0.5], [0.5, 0.0]]),
                        ([[6.0, -11.0, 6.0, -1.0], [0.0, -1.0, 0.0, 1.0]],
                         [[0.9, 2.2, 2.9], [-1.1, 1e-9, 0.0]])):
            got = _newton_polish_rows(np.array(rows), np.array(x)).tolist()
            want = [[_newton_polish(row, [k * c for k, c in enumerate(row)][1:], y) for y in xs]
                    for row, xs in zip(rows, x)]
            assert got == want
        assert got[1][2] == 0.0

    def test_row_alone_equals_row_in_stack(self):
        rows = [row for n, row in self._rows() if n == 5 and _effective_degree(row) == 5]
        stack = np.array(rows)
        eig = _companion_eigvals(stack)
        polished = _polished_eigvals(stack)
        assert any(p is None for p in polished) and any(p is not None for p in polished)
        for i, row in enumerate(rows):
            alone = np.array([row])
            # numpy returns a real array when every eigenvalue is real
            got = _companion_eigvals(alone)[0].astype(complex)
            assert got.tobytes() == eig[i].astype(complex).tobytes()
            assert _polished_eigvals(alone) == [polished[i]]


class TestInterlaced:
    def test_basic_true(self):
        assert is_interlaced(roots_to_poly(RT(0, 2)), roots_to_poly(RT(1, 3)))

    def test_gap_false(self):
        # pencil member between x(x-1) and (x-3)(x-4) acquires a double root
        assert not is_interlaced(roots_to_poly(RT(0, 1)), roots_to_poly(RT(3, 4)))

    def test_with_infinity(self):
        f = roots_to_poly(RT(0, 2))
        g = roots_to_poly(RT(1, PLUS_INFINITY), 2)
        assert is_interlaced(f, g)

    def test_dependent_raises(self):
        f = roots_to_poly(RT(0, 2))
        with pytest.raises(DegenerateInput):
            is_interlaced(f, f.scaled(3))

    def test_left_interlaced_sign(self):
        f = roots_to_poly(RT(0, 2))
        g = roots_to_poly(RT(1, 3))
        # g(2) = (2-1)(2-3) = -1 < 0
        assert left_interlaced(f, g)
        assert not left_interlaced(g, f.scaled(1))  # f(3) = 3 > 0

    def test_left_interlaced_degree_drop(self):
        f = roots_to_poly(RT(0, 2))
        g = roots_to_poly(RT(1, PLUS_INFINITY), 2).scaled(-1)
        assert left_interlaced(f, g)  # leading coefficient of g is negative


class TestOrientation:
    """The Wronskian sign at 0 against the root-tuple comparisons it replaces."""

    @staticmethod
    def _pairs():
        """3,200 seeded interlaced (s, t, a, b), n = 1..5: either tuple first, the later
        one ending in +inf for a quarter of them, and scalings a, b of both signs."""
        rng = random.Random(11)
        for n in range(1, 6):
            for _ in range(640):
                xs = set()
                while len(xs) < 2 * n:
                    xs.add(F(rng.randint(-60, 60), rng.randint(1, 6)))
                xs = sorted(xs)
                first, second = xs[0::2], xs[1::2]
                if rng.random() < 0.25:
                    second[-1] = PLUS_INFINITY
                s, t = (first, second) if rng.random() < 0.5 else (second, first)
                a, b = (F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                        for _ in range(2))
                yield RT(*s), RT(*t), a, b

    def test_sign_rules_match_tuple_comparisons(self):
        count = 0
        for s, t, a, b in self._pairs():
            f, g = roots_to_poly(s).scaled(a), roots_to_poly(t).scaled(b)
            s_first, t_first = s < t and t.lt_shift(s), t < s and s.lt_shift(t)
            assert s_first != t_first and is_interlaced(f, g)
            w = _wronskian_at_zero(f, g)
            assert (_lead(f) * _lead(g) * w < 0) == s_first
            g_sign = g.leading if s.has_infinity else g(s[-1])
            assert left_interlaced(f, g) == (g_sign < 0) == (_lead(f) * w < 0)
            # Z = c1 B_s + i c2 B_t with c1 = a, c2 = |b|
            Z = CentralCharge(reduced_charge(s).scaled(a), reduced_charge(t).scaled(abs(b)))
            r, m = Z.real.weights, Z.imag.weights
            want = a > 0 and s_first or a < 0 and t_first
            assert (r[1] * m[0] - r[0] * m[1] < 0) == want
            assert count % 4 or in_Un(Z) == want      # the whole route on a quarter
            count += 1
        assert count >= 3000


class TestProportional:
    def test_zero_vectors(self):
        assert proportional((0, 0, 0), (0, 0, 0))
        assert proportional((0, 0, 0), (F(1), F(-2), F(3)))
        assert proportional((F(1), F(-2), F(3)), (0, 0, 0))

    def test_sign_flips(self):
        assert proportional((F(1), F(-2), F(3)), (F(-2), F(4), F(-6)))
        assert not proportional((F(1), F(-2), F(3)), (F(1), F(2), F(3)))
        assert not proportional((F(1), F(2)), (F(-1), F(2)))

    def test_zero_pivot_column(self):
        # the pivot is the first index where either vector is nonzero
        assert proportional((0, F(1), F(2)), (0, F(3), F(6)))
        assert not proportional((0, F(1), F(2)), (0, F(3), F(7)))
        assert proportional((0, 0, F(5)), (0, 0, F(-1, 2)))
        assert not proportional((0, F(1), 0), (0, 0, F(1)))
        assert not proportional((0, 0, F(1)), (0, F(1), F(1)))

    def test_pencil_rejects_dependent_generators(self):
        f = roots_to_poly(RT(0, 2))
        with pytest.raises(DegenerateInput):
            Pencil(f, f.scaled(F(-3, 2)))


class TestSep:
    def test_min_gap(self):
        assert sep(roots_to_poly(RT(0, 2, 5))) == 2

    def test_single_root_convention(self):
        assert sep(Polynomial((-1, 1), 1)) == PLUS_INFINITY

    def test_finite_gaps_only(self):
        assert sep(RT(0, 1, 3, PLUS_INFINITY)) == 1


class TestSepPencil:
    def test_derivative_pencil_bound(self):
        f = roots_to_poly(RT(0, 2, 4))
        val = sep_pencil(Pencil(f, f.derivative()))
        assert val >= sep(f) - 1e-9

    def test_shift_pencil_bound(self):
        f = roots_to_poly(RT(0, 2, 4))
        val = sep_pencil(shift_pencil(f, 1))
        assert val > min(1, sep(f) - 1) - 1e-9

    def test_mixed_degree_line(self):
        line = Pencil(roots_to_poly(RT(0, 2)), roots_to_poly(RT(1, PLUS_INFINITY), 2))
        val = sep_pencil(line)
        assert 0 < val <= 2

    def test_one_degree_drop_rule_for_stack_and_row(self):
        # the degree-(n-1) member with roots -2, 1, 3 plus a leading term of
        # 0, 1e-13, 1e-11, 1e-6 and 1 times the largest coefficient
        low = np.array([float(c) for c in roots_to_poly(RT(-2, 1, 3, PLUS_INFINITY)).coeffs])
        scale = np.max(np.abs(low))
        stack = np.array([low + rel * scale * np.eye(5)[4]
                          for rel in (0.0, 1e-13, 1e-11, 1e-6, 1.0)])
        seps = _sep_batch(stack)
        assert list(seps) == [_sep_of_row(row) for row in stack]
        # the first two drop to the cubic; the 1e-11 row keeps a far fourth root
        assert seps[0] == seps[1] and abs(seps[0] - 2) < 1e-12
        assert seps[2] != seps[1] and abs(seps[2] - 2) < 1e-9


class TestPencilOps:
    def line(self):
        return Pencil(roots_to_poly(RT(0, 2)), roots_to_poly(RT(1, PLUS_INFINITY), 2))

    def test_canonical_already_low_degree(self):
        assert pencil_canonical(self.line()).coeffs == (-1, 1, 0)

    def test_canonical_cancellation(self):
        l = Pencil(Polynomial((0, -2, 1), 2), Polynomial((3, -4, 1), 2))
        assert pencil_canonical(l).coeffs == (F(-3, 2), 1, 0)

    def test_canonical_cubic(self):
        # generators share roots (formal line, not interlaced): strict=False
        l = Pencil(Polynomial((0, -1, 0, 1), 3), Polynomial((0, 2, -3, 1), 3),
                   strict=False)
        # difference is 3x^2 - 3x; monic multiple is x^2 - x
        assert pencil_canonical(l).coeffs == (0, -1, 1, 0)

    def test_project(self):
        pp = pencil_project(self.line())
        assert pp.ambient == 1
        assert pencil_canonical(pp).coeffs == (1, 0)

    def test_project_choice_independent(self):
        l = self.line()
        f_l = pencil_canonical(l)
        base = pencil_project(l)
        for c in (1, -2, 5):
            f = l.gen_a  # monic degree-2 generator
            shifted = Polynomial(
                tuple(a + c * b for a, b in zip(f.coeffs, f_l.coeffs)), 2)
            alt = pencil_project(Pencil(shifted, f_l))
            assert pencil_canonical(alt).coeffs == pencil_canonical(base).coeffs
            # projected lines agree as lines: canonical full-degree members match
            assert member_with_root(alt, 0).coeffs == member_with_root(base, 0).coeffs

    def test_project_needs_ambient_two(self):
        l = Pencil(Polynomial((0, 1), 1), Polynomial((-1, 1), 1))
        with pytest.raises(InvalidAmbient):
            pencil_project(l)

    def test_member_with_root(self):
        l = self.line()
        assert member_with_root(l, 1).coeffs == (-1, 1, 0)
        assert member_with_root(l, 0).coeffs == (0, -2, 1)
        assert member_with_root(l, 3).coeffs == (F(3, 2), F(-7, 2), 1)


class TestShiftAndStabilize:
    def test_shift_boundary(self):
        with pytest.raises(SepTooSmall):
            shift_pencil(roots_to_poly(RT(0, 2)), 2)

    def test_shift_members_are_members(self):
        line = shift_pencil(roots_to_poly(RT(0, 3)), 1)
        for a, b in ((1, 1), (2, -1), (-1, 3)):
            assert line.member(a, b).is_member()

    def test_stabilizing_shift_verified(self):
        f = roots_to_poly(RT(0, 2))
        g = roots_to_poly(RT(1, 3))
        n_val = stabilizing_shift(f, g, 0.5)
        shifted = Polynomial(poly_mul((n_val, 1), g.coeffs), 3)
        line = Pencil(Polynomial(f.coeffs + (0,), 3), shifted)
        assert sep_pencil(line) > 0.5

    def test_stabilizing_shift_precondition(self):
        f = roots_to_poly(RT(0, 2))
        g = roots_to_poly(RT(1, 3))
        base = sep_pencil(Pencil(f, g))
        with pytest.raises(SepTooSmall):
            stabilizing_shift(f, g, base + 0.1)

    def test_exact_shift_bound_decided_by_interlacing(self):
        # the middle root 1 + 2^-60 rounds to 1.0, so the rounded sep(f) is 1.0
        f = roots_to_poly(RT(F(0), 1 + F(1, 2 ** 60), F(3)))
        assert sep(f) == 1.0
        line = shift_pencil(f, F(1))
        assert line.gen_b.coeffs == poly_shift_arg(f.coeffs, F(1))
        with pytest.raises(SepTooSmall, match=r"shift 1152921504606846977/1152921504606846976 "
                                              r">= sep 1\.0"):
            shift_pencil(f, 1 + F(1, 2 ** 60))
        with pytest.raises(SepTooSmall, match=r"^shift 2 >= sep 2$"):
            shift_pencil(roots_to_poly(RT(F(0), F(2))), F(2))

    def test_exact_stabilizing_shift(self):
        f = roots_to_poly(RT(F(0), F(2), F(5)))
        g = roots_to_poly(RT(F(1), F(4), F(6)))
        for d in (F(1, 2), F(3, 4), F(9, 10)):
            n_val = stabilizing_shift(f, g, d)
            assert type(n_val) is float and n_val == stabilizing_shift(f, g, float(d))
            f_up = Polynomial(f.coeffs + (0,), 4)
            rung = Pencil(f_up, Polynomial(poly_mul((int(n_val), 1), g.coeffs), 4))
            assert sep_exceeds(rung, d)
        base = sep_pencil(Pencil(f, g))
        with pytest.raises(SepTooSmall, match=f"sep of the base line {base}$"):
            stabilizing_shift(f, g, F(base) * F(101, 100))


def _interlaced_roots(rng, n):
    """Interlaced quarter-integer tuples s < t < s[1] with gaps of 1/2 to 3."""
    t = [F(rng.randint(-8, 0), 4)]
    for _ in range(n - 1):
        t.append(t[-1] + F(rng.randint(2, 12), 4))
    lefts = [t[0] - 2] + t[:-1]
    s = [a + (b - a) * F(rng.randint(1, 7), 8) for a, b in zip(lefts, t)]
    return RT(*s), RT(*t)


def _criterion_lines(seed, count):
    """The derivative, shift and oriented-sum lines of criteria 2 and 3, on exact input."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 5)
        t = [F(rng.randint(-12, 12), 4)]
        for _ in range(n - 1):
            t.append(t[-1] + F(2 + rng.randint(0, 11), 4))
        f = roots_to_poly(RT(*t))
        s0 = sep(RT(*t))
        yield Pencil(f, f.derivative())
        yield shift_pencil(f, s0 * F(rng.randint(1, 9), 10))
        g = shift_pencil(f, s0 * F(rng.randint(2, 8), 10)).gen_b.scaled(-F(rng.randint(3, 30), 10))
        if rng.randint(0, 1):
            h = f.derivative().scaled(-F(rng.randint(3, 30), 10))
        else:
            h = shift_pencil(f, s0 * F(rng.randint(2, 8), 10)).gen_b.scaled(
                -F(rng.randint(3, 30), 10))
        if not (left_interlaced(f, g) and left_interlaced(f, h)):
            continue
        yield Pencil(f, g)
        yield Pencil(f, h)
        gh = Polynomial(poly_add(g.coeffs, h.coeffs), n)
        if gh.is_member() and left_interlaced(f, gh):
            yield Pencil(f, gh)


class TestSepExceeds:
    """The certified line separation against the resultant oracle and sampling."""

    def test_agrees_with_resultant_oracle(self):
        rng = random.Random(16)
        verdicts = []
        for n in (2, 3, 4):
            for _ in range(6):
                s, t = _interlaced_roots(rng, n)
                line = Pencil(roots_to_poly(s), roots_to_poly(t))
                sampled = F(sep_pencil(line)).limit_denominator(1000)
                for d in (sampled * F(9, 10), sampled, sampled * F(11, 10), s.sep(), t.sep()):
                    want = s.sep() > d and not member_with_gap(line.gen_a.coeffs,
                                                               line.gen_b.coeffs, d)
                    assert sep_exceeds(line, d) == want
                    verdicts.append(want)
        assert 10 < sum(verdicts) < len(verdicts) - 10

    def test_agrees_with_sampling_on_criterion_lines(self):
        lines = 0
        for line in _criterion_lines(2, 12):
            sampled = F(sep_pencil(line))
            assert sep_exceeds(line, sampled * F(99, 100))
            assert not sep_exceeds(line, sampled * F(101, 100))
            lines += 1
        assert lines >= 40

    def test_degree_drop_generator(self):
        for drop, full in ((RT(F(1), F(3), PLUS_INFINITY), RT(F(0), F(2), F(4))),
                           (RT(F(1, 2), PLUS_INFINITY), RT(F(0), F(3)))):
            a, b = roots_to_poly(drop), roots_to_poly(full)
            sampled = F(sep_pencil(Pencil(a, b)))
            for line in (Pencil(a, b), Pencil(b, a)):
                for d in (sampled * F(99, 100), sampled * F(101, 100), full.sep()):
                    want = full.sep() > d and not member_with_gap(a.coeffs, b.coeffs, d)
                    assert sep_exceeds(line, d) == want
                    assert want == (d < sampled)

    def test_ambient_one(self):
        x, one = Polynomial((F(-1), F(1)), 1), Polynomial((F(1), F(0)), 1)
        for line in (Pencil(x, one), Pencil(one, x)):
            assert sep_pencil(line) == math.inf
            assert sep_exceeds(line, F(10 ** 9))

    def test_member_with_gap_exactly_d(self):
        # p has the gap 1 between its roots 0 and 1; the generators are other members
        p, q = roots_to_poly(RT(F(0), F(1), F(3))), roots_to_poly(RT(F(1, 2), F(2), F(4)))
        line = Pencil(Polynomial(poly_add(p.coeffs, q.coeffs), 3),
                      Polynomial(poly_add(p.coeffs, poly_scale(q.coeffs, 2)), 3))
        assert member_with_gap(line.gen_a.coeffs, line.gen_b.coeffs, 1)
        assert not sep_exceeds(line, F(1))
        # the derivative line of f takes its smallest gap at f itself
        f = roots_to_poly(RT(F(0), F(1), F(3)))
        deriv = Pencil(f, f.derivative())
        assert not sep_exceeds(deriv, F(1))
        assert sep_exceeds(deriv, 1 - F(1, 2 ** 60))

    def test_float_input_keeps_sampling(self):
        f = roots_to_poly(RT(0.0, 1.0, 3.0))
        line = Pencil(f, f.derivative())
        exact = Pencil(roots_to_poly(RT(F(0), F(1), F(3))), f.derivative())
        sampled = sep_pencil(line)
        for d in (0.5, sampled, 1.0, 2.0):
            assert sep_exceeds(line, d) == (sampled > d)
            assert sep_exceeds(exact, d) == (sep_pencil(exact) > d)


class TestGapsExceed:
    def test_ties_and_near_ties(self):
        near = 1 + F(1, 2 ** 60)
        for tail in ((F(3),), (PLUS_INFINITY,)):
            assert gaps_exceed(roots_to_poly(RT(F(0), near, *tail)), F(1))
            assert not gaps_exceed(roots_to_poly(RT(F(0), F(1), *tail)), F(1))

    def test_below_two_roots(self):
        assert gaps_exceed(roots_to_poly(RT(F(0), PLUS_INFINITY)), F(10 ** 9))
        assert gaps_exceed(Polynomial((F(-1), F(1)), 1), F(10 ** 9))


class TestRootsCertifiedOnce:
    """Each polynomial's roots are extracted once, on one Polynomial object."""

    @staticmethod
    def _extractions(monkeypatch):
        seen = []
        extract = interlace._extract_roots

        def counting(f):
            seen.append((f.coeffs, f.ambient))
            return extract(f)

        monkeypatch.setattr(interlace, "_extract_roots", counting)
        return seen

    def test_in_un_with_separation(self, monkeypatch):
        Z = CentralCharge(reduced_charge(RT(F(0), F(2), F(5))),
                          reduced_charge(RT(F(1), F(4), F(6))))
        seen = self._extractions(monkeypatch)
        assert in_Un(Z, F(1, 2))
        assert len(seen) == len(set(seen)) == 3

    def test_exact_stabilizing_shift(self, monkeypatch):
        # built from their roots, f, g and every member stabilizing_shift
        # builds from them carry their roots: nothing is extracted
        f = roots_to_poly(RT(F(0), F(2), F(5)))
        g = roots_to_poly(RT(F(1), F(4), F(6)))
        seen = self._extractions(monkeypatch)
        assert stabilizing_shift(f, g, F(1, 2)) >= 1
        assert seen == []
        # rebuilt from their coefficients, each polynomial is extracted once
        assert stabilizing_shift(Polynomial(f.coeffs, 3), Polynomial(g.coeffs, 3), F(1, 2)) >= 1
        assert len(seen) == len(set(seen)) >= 5


def _outcome(fn):
    """A call's result by repr and entry types, or the type of what it raised."""
    try:
        out = fn()
    except Exception as exc:   # the exception type is the outcome compared
        return type(exc)
    entries = out.entries if isinstance(out, RootTuple) else out
    types = tuple(map(type, entries)) if isinstance(entries, tuple) else type(entries)
    return repr(out), types


def _rebuilt(f):
    """f from its coefficients alone, without the roots it carries."""
    return Polynomial(f.coeffs, f.ambient)


def _carried_corpus(seed, count):
    """Exact root tuples: n = 1..8, int entries, +inf last, magnitudes 10^+-30,
    tiny negative roots, and close pairs that round to one float or not."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, kind = rng.randint(1, 8), rng.randrange(5)
        if kind == 0:
            xs = {F(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(n)}
        elif kind == 1:
            scale = F(10) ** rng.choice((-30, 30))
            xs = {F(rng.randint(-10 ** 6, 10 ** 6), 10 ** 6) * scale for _ in range(n)}
        elif kind == 2:
            xs = {-F(1, 10 ** rng.randint(320, 400))}
            xs |= {F(rng.randint(1, 60), 7) for _ in range(n - 1)}
        elif kind == 3:
            base = F(rng.randint(-20, 20), 7)
            xs = {base, base + F(1, 2 ** rng.randint(40, 70))}
            xs |= {F(rng.randint(-60, 60), 3) for _ in range(n - 2)}
        else:
            xs = {rng.randint(-40, 40) for _ in range(n)}
        xs = sorted(xs)
        if rng.random() < 0.3:
            xs.append(PLUS_INFINITY)
        out.append(RootTuple(tuple(xs)))
    return out


class TestCarriedRoots:
    """Roots read from a polynomial's exact roots equal those certified from its coefficients."""

    def test_equal_to_extraction(self):
        corpus = _carried_corpus(26, 1000)
        # a root beyond the float range: rational at degree 2, overflow above
        corpus += [RT(F(-1), F(2 ** 1024 + 1)), RT(F(-1), F(0), F(2 ** 1024 + 1)),
                   RT(F(0), F(2 ** 1024 + 1), PLUS_INFINITY),
                   RT(F(-3), F(1, 7), F(10) ** 310), RT(F(-2), F(0), F(5, 3), F(2) ** 1100),
                   RT(-F(2) ** 1030, F(-1), F(1, 2), F(3))]
        kinds = set()
        for t in corpus:
            f = roots_to_poly(t)
            assert f.__dict__["_exact_roots"] == t.finite
            want = _outcome(lambda: interlace._extract_roots(_rebuilt(f)))
            assert _outcome(f.roots) == want, t
            kinds.add(want if isinstance(want, type) else want[1][:1])
        assert {NotDistinctRoots, OverflowError, (F,), (float,)} <= kinds

    def test_root_beyond_the_float_range_raises_at_once(self):
        # extraction bisects from the Cauchy bound and ends in the error that
        # float() of the carried root raises at once
        for t in (RT(F(-1), F(0), F(2 ** 1024 + 1)), RT(-F(10) ** 400, F(1), F(2))):
            f = roots_to_poly(t)
            with pytest.raises(OverflowError) as want:
                interlace._extract_roots(_rebuilt(f))
            with pytest.raises(OverflowError) as got:
                f.roots()
            assert repr(got.value) == repr(want.value)
        f = roots_to_poly(RT(F(-6), F(-14, 3), F(7, 3), F(8, 3), F(5), F(6), F(28, 3),
                             F(10) ** 400))
        start = time.process_time()
        with pytest.raises(OverflowError, match="integer division result too large for a float"):
            f.roots()
        assert time.process_time() - start < 0.5

    def test_root_without_a_float_raises_before_bisection(self):
        # int division overflows from top on; bisecting to such a root from the
        # Cauchy bound took 0.02-0.3 s of CPU per member before it raised
        top = 2 ** 1024 - 2 ** 970
        start = time.process_time()
        for t in (RT(F(-2), F(0), F(5, 3), F(2) ** 1100), RT(F(-1), F(0), F(2 ** 1024 + 1)),
                  RT(F(-1), F(0), F(top)), RT(F(-top), F(0), F(1)),
                  RT(F(-1), F(0), top + F(1, 2)), RT(F(0), F(top - 1), F(top))):
            with pytest.raises(OverflowError) as got:
                interlace._extract_roots(_rebuilt(roots_to_poly(t)))
            assert repr(got.value) == "OverflowError('integer division result too large for a float')"
        assert time.process_time() - start < 0.05

    def test_root_just_inside_the_float_range_rounds_to_the_largest_float(self):
        big = F(2 ** 1024 - 2 ** 971)
        for t, want in ((RT(F(-1), F(0), big), "(-1.0, 0.0, 1.7976931348623157e+308)"),
                        (RT(-big, F(0), F(1)), "(-1.7976931348623157e+308, 0.0, 1.0)"),
                        (RT(F(-1), F(0), big + F(1, 2)), "(-1.0, 0.0, 1.7976931348623157e+308)")):
            start = time.process_time()
            got = interlace._extract_roots(_rebuilt(roots_to_poly(t)))
            assert time.process_time() - start < 0.5
            assert repr(got.entries) == want

    def test_tiny_negative_root_is_positive_zero(self):
        f = roots_to_poly(RT(-F(1, 10 ** 400), F(1), F(2)))
        assert repr(f.roots().entries) == "(0.0, 1.0, 2.0)"
        assert repr(interlace._extract_roots(_rebuilt(f)).entries) == "(0.0, 1.0, 2.0)"

    def test_float_input_carries_nothing(self):
        assert "_exact_roots" not in roots_to_poly(RT(0.0, 1.0, 3.0)).__dict__

    def test_decisions_equal_rebuilt_inputs(self):
        rng = random.Random(2610)
        checks = (lambda p, q, d, m: is_interlaced(p, q),
                  lambda p, q, d, m: gaps_exceed(p, d),
                  lambda p, q, d, m: sep_exceeds(Pencil(p, q), d),
                  lambda p, q, d, m: _generators(shift_pencil(p, m)),
                  lambda p, q, d, m: stabilizing_shift(p, q, d / 2))
        cases = 0
        for _ in range(100):
            n = rng.randint(1, 4)
            s, t = _interlaced_roots(rng, n)
            if rng.random() < 0.25:
                t = RT(*t.entries[:-1], PLUS_INFINITY)
            f, g = roots_to_poly(s), roots_to_poly(t)
            c = F(rng.randint(-8, 8), 4)
            h = roots_to_poly(RT(*(x + c for x in s)))
            d = (s.sep() if n > 1 else F(1)) * F(rng.randint(1, 12), 10)
            m = (s.sep() if n > 1 else F(1)) * F(rng.randint(1, 12), 10)
            for p, q in ((f, g), (g, f), (f, h)):
                for check in checks:
                    want = _outcome(lambda: check(_rebuilt(p), _rebuilt(q), d, m))
                    assert _outcome(lambda: check(p, q, d, m)) == want
                    cases += 1
        assert cases >= 500


def _generators(line):
    """A line's generators by coefficients and certified roots."""
    return tuple((p.coeffs, p.roots()) for p in (line.gen_a, line.gen_b))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_interlacing_iff_pencil_membership(data):
    """Strict interlacing is equivalent to every sampled member being real-rooted."""
    n = data.draw(st.integers(2, 4))
    base = sorted(data.draw(st.lists(
        st.integers(-12, 12), min_size=2 * n, max_size=2 * n, unique=True)))
    f = roots_to_poly(RootTuple(tuple(F(base[2 * i], 2) for i in range(n))))
    if data.draw(st.booleans()):
        g = roots_to_poly(RootTuple(tuple(F(base[2 * i + 1], 2) for i in range(n))))
    else:
        perm = sorted(data.draw(st.permutations(base))[:n])
        try:
            g = roots_to_poly(RootTuple(tuple(F(x, 2) for x in perm)))
        except ValueError:
            return
    try:
        mine = is_interlaced(f, g)
    except DegenerateInput:
        return
    members_ok = True
    for k in range(64):
        th = math.pi * (k + 0.5) / 64
        member = Polynomial(tuple(
            math.cos(th) * a + math.sin(th) * b
            for a, b in zip(f.coeffs, g.coeffs)), n)
        if not member.is_member():
            members_ok = False
            break
    if mine:
        assert members_ok
    if not members_ok:
        assert not mine
