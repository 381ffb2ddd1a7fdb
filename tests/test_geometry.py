import math
from fractions import Fraction as F

import pytest

from redstab.charge import eval_charge, gamma, in_Bn, reduced_charge
from redstab.errors import (
    AmbientMismatch,
    IndexOutOfRange,
    InvalidParams,
    LatticeMismatch,
    NotInKernel,
    WrongSignature,
)
from redstab.geometry import (
    NSLattice,
    NSVector,
    ThreefoldParams,
    ab_delta,
    ab_twist,
    criterion_bayer_step,
    criterion_neg_def,
    criterion_restrict,
    delta_H,
    family_equiv_check,
    max_alpha,
    nabla_beta,
    params_from_tuples,
    q_K_beta,
    threefold_charge,
    threefold_kernel_tuples,
    twisted_chern,
    validity_iff_interlaced,
)
from redstab.geometry import _family_value
from redstab.interlace import PLUS_INFINITY, RootTuple


def RT(*xs):
    return RootTuple(tuple(xs))


class TestTwistedChern:
    def test_zero_twist_identity(self):
        v = (F(3), F(-1), F(2), F(7))
        assert [twisted_chern(v, F(0), k) for k in range(4)] == list(v)

    def test_gamma_twists_to_gamma(self):
        for t, b in ((F(7, 3), F(1, 2)), (F(-2), F(3)), (F(0), F(-5, 4))):
            tw = tuple(twisted_chern(gamma(t, 3), b, k) for k in range(4))
            assert tw == gamma(t - b, 3)

    def test_top_twist_vanishes_at_base_point(self):
        assert twisted_chern(gamma(F(2), 3), F(2), 3) == 0

    def test_index_range(self):
        with pytest.raises(IndexOutOfRange):
            twisted_chern((1, 0, 0, 0), 0, 4)


class TestDiscriminants:
    def test_delta_vanishes_on_twisted_curve(self):
        assert delta_H(gamma(F(5), 2)) == 0
        assert delta_H(gamma(F(5), 3)) == 0

    def test_delta_point_class(self):
        assert delta_H((1, 0, -F(3))) == 6

    def test_nabla_vanishes_on_twisted_curve(self):
        for t, b in ((F(1), F(2)), (F(-3), F(0))):
            assert nabla_beta(gamma(t, 3), b) == 0

    def test_ambient_checks(self):
        with pytest.raises(AmbientMismatch):
            delta_H((1, 0))
        with pytest.raises(AmbientMismatch):
            nabla_beta((1, 0, 0), 0)


class TestThreefoldCharge:
    def test_symmetric_roots(self):
        p = ThreefoldParams(alpha=F(1), beta=F(0), a=F(1), b=F(0))
        real_t, imag_t = threefold_kernel_tuples(p)
        expect = math.sqrt(6)
        assert abs(float(real_t.entries[0]) + expect) < 1e-12
        assert real_t.entries[1] == 0
        assert abs(float(real_t.entries[2]) - expect) < 1e-12
        assert imag_t.entries == (-1, 1, PLUS_INFINITY)

    def test_charge_kernel_matches_formula(self):
        p = ThreefoldParams(alpha=F(1, 2), beta=F(1), a=F(2), b=F(1, 3))
        Z = threefold_charge(p)
        real_t, imag_t = threefold_kernel_tuples(p)
        for x in real_t.entries:
            assert abs(float(eval_charge(Z.real, gamma(float(x), 3)))) < 1e-12
        for x in imag_t.finite:
            assert eval_charge(Z.imag, gamma(x, 3)) == 0

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidParams):
            threefold_charge(ThreefoldParams(alpha=F(1), beta=F(0), a=F(1, 6), b=F(0)))

    def test_negated_charge_is_interlaced_cone_member(self):
        from redstab.charge import in_Un

        p = ThreefoldParams(alpha=F(1), beta=F(0), a=F(1), b=F(0))
        Z = threefold_charge(p)
        assert in_Un(Z.negated())


class TestParamsFromTuples:
    def test_pair(self):
        p = params_from_tuples(RT(F(-1), F(3)))
        assert (p.alpha, p.beta) == (2, 1)
        assert p.a is None and p.b is None

    def test_triple(self):
        p = params_from_tuples(RT(F(-1), F(0), F(2)))
        assert (p.beta, p.b, p.a) == (0, F(1, 3), F(1, 3))

    def test_roundtrip_through_charge(self, rng):
        for _ in range(20):
            base = sorted(rng.choice(range(-10, 11), size=3, replace=False))
            t = RT(*[F(int(x)) for x in base])
            pp = params_from_tuples(t)
            alpha = max_alpha(pp.a, pp.b) / 2
            p = ThreefoldParams(alpha=alpha, beta=pp.beta, a=pp.a, b=pp.b)
            Z = threefold_charge(p)
            c, s = in_Bn(Z.real.scaled(-1))
            assert c > 0
            for x, y in zip(s.entries, t.entries):
                assert abs(float(x) - float(y)) < 1e-10 * max(1.0, abs(float(y)))


class TestValidityIffInterlaced:
    def test_valid(self):
        p = ThreefoldParams(alpha=F(1), beta=F(0), a=F(1), b=F(0))
        assert validity_iff_interlaced(p) == (True, True)

    def test_boundary(self):
        p = ThreefoldParams(alpha=F(1), beta=F(0), a=F(1, 6), b=F(0))
        assert validity_iff_interlaced(p) == (False, False)

    def test_random_agreement(self, rng):
        for _ in range(200):
            alpha = F(int(rng.integers(1, 17)), 8)
            b = F(int(rng.integers(-12, 13)), 4)
            crit = alpha * alpha / 6 + abs(b) * alpha / 2
            a = crit * F(int(rng.integers(1, 40)), 20)
            if a == crit:
                continue
            p = ThreefoldParams(alpha=alpha, beta=F(int(rng.integers(-8, 9)), 4),
                                a=a, b=b)
            valid, inter = validity_iff_interlaced(p)
            assert valid == inter, p


class TestFamilyEquivCheck:
    T = RT(F(-1), F(0), F(1))

    def _kernel_vec(self, a):
        cols = [gamma(x, 3) for x in self.T.entries]
        return tuple(sum(((-1) ** (i + 1)) * a[i] * cols[i][r] for i in range(3))
                     for r in range(4))

    def test_single_ray(self):
        rep = family_equiv_check(tuple(5 * x for x in gamma(F(0), 3)), self.T)
        assert rep.verdict == "ALL_NONNEG" and rep.agree

    def test_coherent_holds_on_family(self):
        rep = family_equiv_check(self._kernel_vec((F(1), F(1), F(1))), self.T)
        assert rep.coherent and rep.inequalities_hold and rep.agree
        assert rep.scan == "pencil family"

    def test_fixed_beta_subfamily_interval(self):
        # at beta = t2 the slice-derived interval is (3a, 3a + alpha_max^2/2)
        rep = family_equiv_check(self._kernel_vec((F(1), F(1), F(1))), self.T,
                                 beta=self.T.entries[1])
        assert rep.K_range == (F(1, 2), F(1))
        assert rep.inequalities_hold and rep.agree

    def test_mixed_fails_some_k(self):
        rep = family_equiv_check(self._kernel_vec((F(-1), F(1), F(0))), self.T)
        assert rep.verdict == "MIXED" and not rep.inequalities_hold and rep.agree

    def test_mixed_invisible_to_one_beta(self):
        # a mixed vector whose fixed-beta subfamily all holds: only the full
        # pencil-family scan detects it
        t = RT(F(-8), F(7), F(8))
        a = (F(-5, 4), F(3, 4), F(-11, 4))
        cols = [gamma(x, 3) for x in t.entries]
        v = tuple(sum(((-1) ** (i + 1)) * a[i] * cols[i][r] for i in range(3))
                  for r in range(4))
        fixed = family_equiv_check(v, t, beta=t.entries[1])
        assert fixed.verdict == "MIXED" and fixed.inequalities_hold
        full = family_equiv_check(v, t)
        assert not full.inequalities_hold and full.agree

    def test_not_in_kernel(self):
        with pytest.raises(NotInKernel):
            family_equiv_check((0, 0, 0, 1), self.T)

    def test_agreement_rate(self, rng):
        agree = total = 0
        for _ in range(120):
            base = sorted(rng.choice(range(-8, 9), size=3, replace=False))
            t = RT(*[F(int(x)) for x in base])
            a = [F(int(x), 4) for x in rng.integers(-12, 13, 3)]
            if all(x == 0 for x in a):
                continue
            cols = [gamma(x, 3) for x in t.entries]
            v = tuple(sum(((-1) ** (i + 1)) * a[i] * cols[i][r] for i in range(3))
                      for r in range(4))
            rep = family_equiv_check(v, t)
            if rep.boundary:
                continue
            total += 1
            agree += rep.agree
        assert total > 80 and agree == total


# (r1, r2) -> (exact K, K of the former float-root route rationalized with
# limit_denominator(10**12), as a float)
_FAMILY_K = {
    (F(1, 2), F(5, 2)): (F(21, 8), 2.625),
    (F(1, 2), F(3)): (F(55, 16), 3.4374999999999996),
    (F(1, 2), F(4)): (F(75, 16), 4.6875),
    (F(1), F(5, 2)): (F(47, 16), 2.9375),
    (F(1), F(3)): (F(7, 2), 3.5),
    (F(1), F(4)): (F(17, 4), 4.25),
    (F(3, 2), F(5, 2)): (F(25, 8), 3.125),
    (F(3, 2), F(3)): (F(55, 16), 3.4375),
    (F(3, 2), F(4)): (F(59, 16), 3.6875),
}


def test_family_value_deflates_the_member():
    t = RT(F(0), F(2), F(5))
    a = (F(1), F(-2), F(1, 2))
    cols = [gamma(x, 3) for x in t.entries]
    v = tuple(sum(((-1) ** (i + 1)) * a[i] * cols[i][r] for i in range(3)) for r in range(4))
    for (r1, r2), (exact_K, float_route_K) in _FAMILY_K.items():
        out = _family_value(v, delta_H(v), reduced_charge(t), r1, r2)
        assert out is not None  # beta passes the middle-root test
        norm, K, beta = out
        assert beta == (r1 + r2) / 2
        assert K == exact_K and abs(float(K) - float_route_K) <= 1e-12 * abs(float_route_K)
        assert norm == float(q_K_beta(v, K, beta)) / max(
            abs(float(delta_H(v))) * abs(float(K)), abs(float(nabla_beta(v, beta))), 1.0)
    # pairs that do not interleave t: beta is the smallest root of the member
    # (roots -2, -1.27, 66.3) or its largest (-76.3, 6.29, 7)
    for r1, r2 in ((F(-3), F(-1)), (F(6), F(8))):
        assert _family_value(v, delta_H(v), reduced_charge(t), r1, r2) is None


def small_lattice():
    return NSLattice(((F(2), F(1)), (F(1), F(-2))))


class TestAbelianSurface:
    def test_hodge_signature_enforced(self):
        with pytest.raises(WrongSignature):
            NSLattice(((F(1), F(0)), (F(0), F(1))))

    def test_rank_one_twist_formula(self):
        lat = NSLattice(((F(2),),))
        v = NSVector(F(1), (F(0),), F(0), lat)
        tw = ab_twist(v, (F(1),))
        assert (tw.r, tw.D, tw.s) == (1, (1,), 1)

    def test_delta_twist_invariance(self, rng):
        lat = small_lattice()
        for _ in range(20):
            v = NSVector(F(int(rng.integers(-4, 5))),
                         tuple(F(int(x)) for x in rng.integers(-4, 5, 2)),
                         F(int(rng.integers(-4, 5))), lat)
            g = tuple(F(int(x), 2) for x in rng.integers(-6, 7, 2))
            assert ab_delta(ab_twist(v, g)) == ab_delta(v)

    def test_twist_composition(self):
        lat = small_lattice()
        v = NSVector(F(2), (F(3), F(-1)), F(1), lat)
        g1, g2 = (F(1), F(2)), (F(-2), F(5))
        assert ab_twist(ab_twist(v, g1), g2) == ab_twist(
            v, tuple(x + y for x, y in zip(g1, g2)))

    def test_proof_identity(self, rng):
        lat = small_lattice()
        for _ in range(20):
            v = NSVector(F(int(rng.integers(-4, 5))),
                         tuple(F(int(x)) for x in rng.integers(-4, 5, 2)),
                         F(int(rng.integers(-4, 5))), lat)
            g = tuple(F(int(x), 2) for x in rng.integers(-6, 7, 2))
            tw = ab_twist(v, g)
            g2 = lat.dot(g, g)
            assert (ab_delta(v) * ab_delta(tw) - ab_delta(v, tw) ** 2
                    == v.r ** 2 * g2 * (ab_delta(v) - F(1, 4) * v.r ** 2 * g2))

    def test_bayer_step_criterion(self):
        lat = NSLattice(((F(2),),))
        v = NSVector(F(1), (F(0),), F(-4), lat)  # delta = 8
        assert criterion_bayer_step(v, (F(1),))       # 0 < 2 < 32
        assert not criterion_bayer_step(v, (F(4),))   # 32 >= 32
        assert not criterion_bayer_step(v, (F(0),))

    def test_restriction_criterion(self):
        lat = NSLattice(((F(2),),))
        v = NSVector(F(1), (F(0),), F(-8), lat)   # D1^2 - 2 s1 = 16
        w = NSVector(F(0), (F(1),), F(0), lat)    # D2^2 = 2
        h_ok = (F(1),)                            # 2*2 + 0 < 16*2
        assert criterion_restrict(v, w, h_ok)
        assert criterion_neg_def(v, w)
        h_big = (F(3),)                           # 2*18 + 0 >= 32
        assert not criterion_restrict(v, w, h_big)

    def test_lattice_mismatch(self):
        v = NSVector(F(1), (F(0),), F(0), NSLattice(((F(2),),)))
        with pytest.raises(LatticeMismatch):
            ab_twist(v, (F(1), F(0)))
