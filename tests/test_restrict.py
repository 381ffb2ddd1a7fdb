import math
import random
from fractions import Fraction as F

import pytest

from redstab.charge import (
    CentralCharge,
    ReducedCharge,
    charge_of_poly,
    eval_charge,
    gamma,
    reduced_charge,
    split_central,
)
from redstab.errors import DecompositionFailed, InvalidAmbient, SepViolation
from redstab.interlace import PLUS_INFINITY, Polynomial, RootTuple, roots_to_poly
from redstab.oracles import reduced_charge_cofactors
from redstab.restrict import (
    RestrictionSpec,
    _restricted_member,
    _verify_prediction,
    compose_with_pushforward,
    pushforward_matrix,
    restrict_charge,
    xi,
    xi_multi,
)


def RT(*xs):
    return RootTuple(tuple(xs))


class TestXi:
    def test_surface_closed_form(self):
        assert xi(RT(F(0), F(3)), F(1)).entries == (2,)

    def test_threefold_example(self):
        out = xi(RT(F(0), F(2), F(4)), F(1))
        lo = (15 - math.sqrt(45)) / 6
        hi = (15 + math.sqrt(45)) / 6
        assert abs(float(out.entries[0]) - lo) < 1e-12
        assert abs(float(out.entries[1]) - hi) < 1e-12

    def test_sep_violation(self):
        with pytest.raises(SepViolation):
            xi(RT(F(0), F(3)), F(3))

    def test_exact_rational_image(self):
        # (c - 7/2, c, c + 7/2) with m = 1 has exactly rational image roots
        c = F(2)
        out = xi(RT(c - F(7, 2), c, c + F(7, 2)), F(1))
        assert out.entries == (c - F(3, 2), c + F(5, 2))

    def test_infinite_slot_kept(self):
        out = xi(RT(F(0), F(3), PLUS_INFINITY), F(1))
        assert out.entries == (2, PLUS_INFINITY)

    def test_needs_ambient_two(self):
        with pytest.raises(InvalidAmbient):
            xi(RT(F(0)), F(1))

    def test_sep_preserved(self, rng):
        for _ in range(40):
            base = sorted(rng.choice(range(-20, 21), size=3, replace=False))
            t = RT(*[F(int(x)) for x in base])
            m = t.sep() * F(int(rng.integers(2, 9)), 10)
            out = xi(t, m)
            assert float(out.sep()) > float(m) - 1e-9

    @pytest.mark.parametrize("n", range(2, 9))
    def test_exact_equals_roots_of_the_fraction_difference(self, n):
        # 30 cases per n, a quarter of them ending in +inf: 210 in all
        rng = random.Random(20 + n)
        for case in range(30):
            den = rng.choice((1, 2, 3, 7, 12, 30))
            t = sorted(F(x, den) for x in rng.sample(range(-60, 60), n))
            if case % 4 == 0:
                t[-1] = PLUS_INFINITY
            t = RT(*t)
            gap = F(5) if t.sep() == PLUS_INFINITY else t.sep()
            m = gap * F(rng.randint(1, 19), 20)
            got = xi(t, m)
            want = Polynomial(_fraction_difference(t.finite, m, n), n - 1).roots()
            assert got == want and list(map(type, got)) == list(map(type, want))

    def test_float_input_close_to_the_exact_value(self):
        # close roots and a small m: subtracting f(x - m) from f(x) in floats loses about 1e-10
        t = tuple(x / 11 for x in (-47, -46, -45, -39, -38, 24))
        m = 2 / 55
        got = xi(RT(*t), m)
        want = xi(RT(*map(F, t)), F(m))
        assert got.n == want.n == 5
        for a, b in zip(got, want):
            assert abs(a - float(b)) <= 1e-11 * abs(float(b))


def _fraction_difference(roots, m, length):
    """f(x) - f(x - m) for f = prod (x - r) over Fractions, zero-padded to length coefficients."""
    f = [F(1)]
    for r in roots:
        f = [a - r * b for a, b in zip([F(0)] + f, f + [F(0)])]
    diff = [f[j] - sum(f[k] * math.comb(k, j) * (-m) ** (k - j) for k in range(j, len(f)))
            for j in range(len(f) - 1)]
    return tuple(diff) + (F(0),) * (length - len(diff))


class TestExactOutputsByRepr:
    """xi, xi_multi and reduced_charge on 1,200 seeded rational tuples (n = 2..8,
    a quarter ending in +inf) against other routes: the roots of the Fraction
    difference, then the restricted member of roots_to_poly (float once a
    root is irrational), and the cofactor determinants."""

    @staticmethod
    def cases():
        rng = random.Random(2505)
        for case in range(1200):
            n = rng.randint(2, 8)
            den = rng.choice((1, 2, 3, 7, 12, 30))
            t = sorted(F(x, den) for x in rng.sample(range(-60, 60), n))
            if case % 4 == 0:
                t[-1] = PLUS_INFINITY
            t = RT(*t)
            gap = F(5) if t.sep() == PLUS_INFINITY else t.sep()
            yield t, gap * F(rng.randint(1, 19), 20), gap * F(rng.randint(1, 9), 40)

    @staticmethod
    def same(got, want):
        return repr(got) == repr(want) and list(map(type, got)) == list(map(type, want))

    def test_xi_and_xi_multi(self):
        for t, m1, m2 in self.cases():
            once = Polynomial(_fraction_difference(t.finite, m1, t.n), t.n - 1).roots()
            assert self.same(xi(t, m1).entries, once.entries)
            if once.n < 2 or not once.sep() > m2:
                with pytest.raises(InvalidAmbient if once.n < 2 else SepViolation):
                    xi_multi(t, (m1, m2))
                continue
            twice = _restricted_member(roots_to_poly(once), m2).roots()
            assert self.same(xi_multi(t, (m1, m2)).entries, twice.entries)

    def test_reduced_charge(self):
        for t, _, _ in self.cases():
            assert self.same(reduced_charge(t).weights, reduced_charge_cofactors(t).weights)


class TestXiMulti:
    def test_commutation(self):
        t = RT(F(0), F(3), F(6))
        ab = xi_multi(t, (F(1), F(1)))
        ba = xi(xi(t, F(1)), F(1))
        for x, y in zip(ab.entries, ba.entries):
            assert abs(float(x) - float(y)) < 1e-10

    def test_two_degrees_both_orders(self):
        t = RT(F(0), F(3), F(6))
        ab = xi_multi(t, (F(2), F(1)))
        ba = xi_multi(t, (F(1), F(2)))
        for x, y in zip(ab.entries, ba.entries):
            assert abs(float(x) - float(y)) < 1e-10

    def test_empty_spec_identity(self):
        t = RT(F(0), F(3))
        assert xi_multi(t, ()).entries == t.entries

    def test_stage_index_on_failure(self):
        t = RT(F(0), F(3), F(6))
        with pytest.raises(SepViolation) as err:
            xi_multi(t, (F(1), F(5)))
        assert err.value.stage == 1

    def test_spec_type(self):
        spec = RestrictionSpec((F(1), F(1)), 3)
        assert xi_multi(RT(F(0), F(3), F(6)), spec).n == 1


class TestPushforward:
    def test_surface_matrix(self):
        m = pushforward_matrix(2, F(1))
        assert m == ((0, 0), (1, 0), (F(-1, 2), 1))

    def test_identity_on_twisted_vectors(self):
        for n in (2, 3, 4):
            for mval in (F(1), F(1, 2), F(3)):
                mat = pushforward_matrix(n, mval)
                for x in (F(-1), F(0), F(2), F(22, 7)):
                    g = gamma(x, n - 1)
                    lhs = tuple(sum(mat[j][k] * g[k] for k in range(n))
                                for j in range(n + 1))
                    rhs = tuple(p - q for p, q in zip(gamma(x, n), gamma(x - mval, n)))
                    assert lhs == rhs

    def test_small_degree_limit(self):
        mat = pushforward_matrix(3, F(1, 10 ** 6))
        assert max(abs(float(x)) for row in mat for x in row) < 1e-5


class TestRestrictCharge:
    def test_threefold_to_surface_closed_form(self):
        s = RT(F(-4), F(0), F(4))
        t = RT(F(-2), F(2), F(6))
        Z = CentralCharge(reduced_charge(s), reduced_charge(t))
        rc = restrict_charge(Z, F(1))
        for tup, src in ((rc.s, s), (rc.t, t)):
            tt = [float(x) for x in src.entries]
            ssum = sum(tt)
            sq = sum((a - b) ** 2 for i, a in enumerate(tt) for b in tt[i + 1:])
            lo = (2 * ssum + 3 - math.sqrt(2 * sq - 3)) / 6
            hi = (2 * ssum + 3 + math.sqrt(2 * sq - 3)) / 6
            assert abs(float(tup.entries[0]) - lo) < 1e-10
            assert abs(float(tup.entries[1]) - hi) < 1e-10
        assert rc.scale_real == 1 and rc.scale_imag == 1

    def test_infinite_slot(self):
        s = RT(F(-4), F(0), F(4))
        t = RT(F(-2), F(2), PLUS_INFINITY)
        Z = CentralCharge(reduced_charge(s), reduced_charge(t))
        rc = restrict_charge(Z, F(1))
        assert rc.t.entries == (F(1, 2), PLUS_INFINITY)

    def test_surface_to_curve_parameter(self):
        # restricted slope threshold (t1 + t2 + m)/2, exact
        Z = CentralCharge(reduced_charge(RT(F(-1), F(3))),
                          reduced_charge(RT(F(0), F(4))))
        rc = restrict_charge(Z, F(1))
        assert rc.s.entries == (F(3, 2),)
        assert rc.t.entries == (F(5, 2),)
        assert rc.charge.imag.weights == (F(-5, 2), 1)

    def test_composition_matches_prediction_exactly(self):
        s = RT(F(-6), F(0), F(6))
        t = RT(F(-3), F(3), F(9))
        Z = CentralCharge(reduced_charge(s).scaled(F(2)), reduced_charge(t))
        mat = pushforward_matrix(3, F(1))
        rc = restrict_charge(Z, F(1))
        direct = compose_with_pushforward(Z.real, mat)
        assert rc.charge.real.weights == direct.weights
        # and the composed part is scale * charge of the restricted tuple at
        # sampled twisted vectors
        for x in (-2.0, 0.5, 3.0):
            lhs = float(eval_charge(rc.charge.real, gamma(x, 2)))
            rhs = float(rc.scale_real) * float(
                eval_charge(reduced_charge(rc.s), gamma(x, 2)))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_exact_prediction_compared_by_equality(self):
        # the restricted roots are irrational in the first pair; t drops degree in the second
        for s, t in ((RT(F(0), F(2), F(5)), RT(F(1), F(4), F(6))),
                     (RT(F(-4), F(0), F(4)), RT(F(-2), F(2), PLUS_INFINITY))):
            Z = CentralCharge(reduced_charge(s).scaled(F(3, 2)), reduced_charge(t))
            rc = restrict_charge(Z, F(1, 3))
            line = split_central(Z)[2]
            for part, gen, scale in ((rc.charge.real, line.gen_a, rc.scale_real),
                                     (rc.charge.imag, line.gen_b, rc.scale_imag)):
                member = _restricted_member(gen, F(1, 3)).monic()
                _verify_prediction(part, member, scale)
                for k in range(3):
                    nudged = list(part.weights)
                    nudged[k] += F(1, 10 ** 30)
                    with pytest.raises(DecompositionFailed, match="the restricted member"):
                        _verify_prediction(ReducedCharge(tuple(nudged)), member, scale)
                # on float input the same nudge is within WEIGHT_MATCH_TOL
                as_float = ReducedCharge(tuple(map(float, nudged)))
                _verify_prediction(as_float, member, float(scale))

    def test_line_separation_at_the_degree_is_certified(self):
        # the derivative line of f takes its smallest gap, 1, at f itself
        f = roots_to_poly(RT(F(0), F(1), F(3)))
        Z = CentralCharge(charge_of_poly(f.derivative().monic()).scaled(-1), charge_of_poly(f))
        with pytest.raises(SepViolation):
            restrict_charge(Z, F(1))
        rc = restrict_charge(Z, 1 - F(1, 2 ** 60))
        assert rc.scale_imag == 1 - F(1, 2 ** 60)

    def test_restricted_tuples_at_a_near_tie(self):
        # f's middle root 1 + 2^-60 rounds to 1.0, so the rounded sep of its roots is 1.0
        t = RT(F(0), 1 + F(1, 2 ** 60), F(3))
        f = roots_to_poly(t)
        Z = CentralCharge(charge_of_poly(f.derivative().monic()).scaled(-1), charge_of_poly(f))
        rc = restrict_charge(Z, F(1))
        assert rc.t == xi(t, F(1))
        assert rc.s.n == 2 and rc.s.has_infinity

    def test_restricted_tuples_equal_xi_of_the_exact_tuples(self):
        cases = 0
        for s, t, below, c1, c2 in _interlaced_cases(random.Random(18), 45):
            Z = CentralCharge(reduced_charge(s).scaled(c1), reduced_charge(t).scaled(c2))
            rc = restrict_charge(Z, below)
            for got, want in ((rc.s, xi(s, below)), (rc.t, xi(t, below))):
                assert got == want and list(map(type, got)) == list(map(type, want))
            cases += 1
        assert cases >= 200

    def test_float_charges_restrict_near_the_exact_tuples(self):
        for s, t, below, c1, c2 in _interlaced_cases(random.Random(5), 12):
            Z = CentralCharge(ReducedCharge(tuple(map(float, reduced_charge(s).scaled(c1).weights))),
                              ReducedCharge(tuple(map(float, reduced_charge(t).scaled(c2).weights))))
            rc = restrict_charge(Z, float(below))
            for got, want in ((rc.s, xi(s, below)), (rc.t, xi(t, below))):
                assert got.has_infinity == want.has_infinity
                for a, b in zip(got.finite, want.finite):
                    assert abs(a - float(b)) <= 1e-12 * max(1.0, abs(float(b)))

    def test_sep_hypothesis_enforced(self):
        Z = CentralCharge(reduced_charge(RT(F(-1), F(3))),
                          reduced_charge(RT(F(0), F(4))))
        with pytest.raises(SepViolation):
            restrict_charge(Z, F(4))

    def test_parts_whose_roots_share_a_float_interlace(self):
        # the parts interlace exactly, so only the line's tiny separation fails
        Z = CentralCharge(reduced_charge(RT(F(0), F(1), F(3))),
                          reduced_charge(RT(1 - F(1, 2 ** 60), F(2), F(4))))
        with pytest.raises(SepViolation):
            restrict_charge(Z, F(1, 4))

    def test_non_member_part_rejected(self):
        from redstab.charge import ReducedCharge

        Z = CentralCharge(ReducedCharge((1, 0, 1)),
                          reduced_charge(RT(F(0), F(4))))
        with pytest.raises(DecompositionFailed):
            restrict_charge(Z, F(1))
        # parts that do not interlace, and proportional ones
        for s in (RT(F(0), F(1)), RT(F(0), F(4))):
            Z = CentralCharge(reduced_charge(s), reduced_charge(RT(F(0), F(4))))
            with pytest.raises(DecompositionFailed, match="do not interlace"):
                restrict_charge(Z, F(1, 4))


def _interlaced_cases(rng, per_ambient):
    """(s, t, below, c1, c2): s < t < s[1] exact, t ending in +inf in a third of the cases,
    and a degree below the line's separation; n = 2..6."""
    for n in range(2, 7):
        for case in range(per_ambient):
            t = [F(rng.randint(-12, 12), 4)]
            for _ in range(n - 1):
                t.append(t[-1] + F(rng.randint(4, 16), 4))
            gap = min(b - a for a, b in zip(t, t[1:]))
            shift = gap * F(rng.randint(4, 36), 40)
            s = [x - shift for x in t]
            if case % 3 == 0:
                s[-1], t[-1] = t[-2] + (t[-1] - t[-2]) / 2, PLUS_INFINITY
            s, t = RT(*s), RT(*t)
            below = min(shift, gap - shift, s.sep(), t.sep()) * F(rng.randint(1, 3), 4)
            yield s, t, below, F(rng.randint(1, 12), 4), F(rng.randint(1, 12), 4)
