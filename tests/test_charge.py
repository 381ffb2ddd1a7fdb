import importlib.util
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from redstab import charge, interlace
from redstab.charge import (
    ALL_NONNEG,
    ALL_NONPOS,
    MIXED,
    CentralCharge,
    ReducedCharge,
    charge_of_poly,
    decompose,
    eval_charge,
    gamma,
    in_Bn,
    in_Un,
    kernel_parameter,
    poly_of_charge,
    reduced_charge,
)
from redstab.errors import AmbientMismatch, InKernelOfLine, NotInKernel
from redstab.exact import rref, solve
from redstab.interlace import (
    PLUS_INFINITY,
    Pencil,
    Polynomial,
    RootTuple,
    roots_to_poly,
    sep_pencil,
)
from redstab.oracles import reduced_charge_cofactors


def RT(*xs):
    return RootTuple(tuple(xs))


class TestGamma:
    def test_formula(self):
        assert gamma(F(2), 3) == (1, 2, 2, F(4, 3))

    def test_infinity(self):
        assert gamma(PLUS_INFINITY, 4) == (0, 0, 0, 0, 1)

    def test_zero(self):
        assert gamma(F(0), 2) == (1, 0, 0)


class TestReducedCharge:
    def test_surface_formula(self):
        # ch2 - (t1+t2)/2 * Hch1 + t1 t2/2 * H^2 rk
        B = reduced_charge(RT(F(0), F(2)))
        assert B.weights == (0, -1, 1)

    def test_curve(self):
        B = reduced_charge(RT(F(3)))
        assert eval_charge(B, (F(2), F(5))) == 5 - 3 * 2

    def test_vanishing_and_normalization_exact(self):
        t = RT(F(-2), F(1, 3), F(5, 2))
        B = reduced_charge(t)
        assert eval_charge(B, (0, 0, 0, 1)) == 1
        for ti in t.entries:
            assert eval_charge(B, gamma(ti, 3)) == 0

    def test_infinite_tuple_normalization(self):
        B = reduced_charge(RT(F(1), PLUS_INFINITY))
        assert eval_charge(B, (0, 0, 1)) == 0
        assert eval_charge(B, (0, 1, 0)) == -1

    def test_hilbert_display_constant_is_one(self):
        # B_t((1,0,0,-m)) = -m - t1 t2 t3/6 exactly under the C_t normalization
        t = RT(F(-3), F(-2), F(-1))
        val = eval_charge(reduced_charge(t), (1, 0, 0, -F(5)))
        assert val == -F(5) - F((-3) * (-2) * (-1), 6)

    def test_mismatch(self):
        with pytest.raises(AmbientMismatch):
            eval_charge(reduced_charge(RT(F(0), F(2))), (1, 0, 0, 0))

    def test_zero_vector(self):
        assert eval_charge(reduced_charge(RT(F(0), F(2))), (0, 0, 0)) == 0


class TestPolyChargeCorrespondence:
    def test_scale_is_one_over_n_factorial(self):
        f = Polynomial((0, -2, 1), 2)
        B = charge_of_poly(f)
        for t in (-1, 0, 1, 2, 3):
            assert eval_charge(B, gamma(F(t), 2)) == F(f(t), 2)

    def test_roundtrip(self):
        t = RT(F(-1), F(1, 2), F(3))
        B = reduced_charge(t)
        assert charge_of_poly(poly_of_charge(B)).weights == B.weights

    def test_determinant_route_equals_coefficient_route(self):
        # Bareiss cofactors of the defining determinant vs production's
        # k! c_k / n! scaling of the root polynomial, on rational tuples
        rng = random.Random(31)
        for n in range(1, 9):
            for with_inf in (False, True):
                for _ in range(6):
                    fin = set()
                    while len(fin) < n - with_inf:
                        fin.add(F(rng.randint(-40, 40), rng.randint(1, 7)))
                    t = RT(*sorted(fin), *((PLUS_INFINITY,) if with_inf else ()))
                    B = reduced_charge(t)
                    assert B.weights == reduced_charge_cofactors(t).weights
                    assert B.weights[n] == (0 if with_inf else 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_float_weights_match_exact_charge(self, n):
        # the charge of float entries is within 1e-14 of the largest weight
        # of the exact charge of the same (binary) values
        rng = random.Random(100 + n)
        for spread in (1, 10):
            for _ in range(20):
                xs = sorted(rng.uniform(-spread, spread) for _ in range(n))
                B = reduced_charge(RT(*xs))
                exact = reduced_charge(RT(*(F(x) for x in xs))).weights
                bound = F(1e-14) * max(abs(w) for w in exact)
                assert max(abs(F(w) - e) for w, e in zip(B.weights, exact)) <= bound
                assert B.weights[n] == 1.0

    def test_infinite_branch(self):
        B = charge_of_poly(roots_to_poly(RT(F(1), PLUS_INFINITY), 2))
        for t in (-1, 0, 1, 2, 3):
            assert eval_charge(B, gamma(F(t), 2)) == -(t - 1)


class TestInBn:
    def test_scaled_member(self):
        B = reduced_charge(RT(F(0), F(2))).scaled(3)
        dec = in_Bn(B, d=1)
        assert dec is not None
        c, t = dec
        assert c == 3 and t.entries == (0, 2)

    def test_complex_rejected(self):
        assert in_Bn(charge_of_poly(Polynomial((1, 0, 1), 2))) is None

    def test_strict_separation(self):
        B = reduced_charge(RT(F(0), F(2))).scaled(3)
        assert in_Bn(B, d=2) is None

    def test_negative_scale_rejected(self):
        assert in_Bn(reduced_charge(RT(F(0), F(2))).scaled(-1)) is None

    def test_infinite_member(self):
        B = reduced_charge(RT(F(1), PLUS_INFINITY)).scaled(F(5, 2))
        c, t = in_Bn(B)
        assert c == F(5, 2) and t.entries == (1, PLUS_INFINITY)

    def test_separation_at_a_near_tie_is_certified(self):
        # the middle root 1 + 2^-60 rounds to 1.0, so the rounded sep is 1.0
        near = reduced_charge(RT(F(0), 1 + F(1, 2 ** 60), F(3)))
        c, t = in_Bn(near, F(1))
        assert c == 1 and t.entries == (0.0, 1.0, 3.0)
        assert in_Bn(reduced_charge(RT(F(0), F(1), F(3))), F(1)) is None
        # a degree-drop member: its finite roots decide
        c, t = in_Bn(reduced_charge(RT(F(0), 1 + F(1, 2 ** 60), PLUS_INFINITY)), F(1))
        assert t.entries == (0, 1 + F(1, 2 ** 60), PLUS_INFINITY)
        assert in_Bn(reduced_charge(RT(F(0), F(1), PLUS_INFINITY)), F(1)) is None

    def test_degree_drop_member_certified_once(self, monkeypatch):
        calls = []
        extract = interlace._extract_roots

        def counting(f):
            calls.append(f.ambient)
            return extract(f)

        monkeypatch.setattr(interlace, "_extract_roots", counting)
        c, t = in_Bn(reduced_charge(RT(F(0), F(2), F(5), PLUS_INFINITY)), F(1))
        # the member at ambient 4, then its shift f(x + 1) one ambient lower
        assert calls == [4, 3]
        assert c == 1 and t.entries == (0, 2, 5, PLUS_INFINITY)
        assert in_Bn(reduced_charge(RT(F(0), F(2), F(5), PLUS_INFINITY)), F(2)) is None


class TestInUn:
    def test_negative_orientation(self):
        Z = CentralCharge(reduced_charge(RT(F(1), F(3))).scaled(-1),
                          reduced_charge(RT(F(0), F(2))))
        assert in_Un(Z)

    def test_wrong_sign(self):
        Z = CentralCharge(reduced_charge(RT(F(1), F(3))),
                          reduced_charge(RT(F(0), F(2))))
        assert not in_Un(Z)

    def test_parts_that_do_not_interlace(self):
        for s in (RT(F(0), F(1)), RT(F(0), F(2)), RT(F(-1), F(3))):
            assert not in_Un(CentralCharge(reduced_charge(s), reduced_charge(RT(F(0), F(2)))))

    def test_positive_orientation(self):
        Z = CentralCharge(reduced_charge(RT(F(0), F(2))),
                          reduced_charge(RT(F(1, 2), F(4))))
        assert in_Un(Z)

    def test_parts_whose_roots_share_a_float(self):
        # t's first root rounds to s's second, 1.0; the exact roots interlace
        Z = CentralCharge(reduced_charge(RT(F(0), F(1), F(3))),
                          reduced_charge(RT(1 - F(1, 2 ** 60), F(2), F(4))))
        assert in_Un(Z)

    def test_separation_threshold(self):
        Z = CentralCharge(reduced_charge(RT(F(0), F(2))),
                          reduced_charge(RT(F(1, 2), F(4))))
        assert not in_Un(Z, d=10)

    def test_separation_at_a_generator_is_certified(self):
        # the derivative line of f takes its smallest gap, 1, at f itself;
        # the sampled separation is 0.9999999999999987
        f = roots_to_poly(RT(F(0), F(1), F(3)))
        Z = CentralCharge(charge_of_poly(f.derivative().monic()).scaled(-1), charge_of_poly(f))
        assert in_Un(Z) and in_Un(Z, 1 - F(1, 2 ** 60))
        assert not in_Un(Z, F(1))


class TestDecompose:
    def test_all_nonneg(self):
        v = tuple(a - b for a, b in zip(gamma(F(2), 2), gamma(F(0), 2)))
        dec = decompose(v, RT(F(0), F(2)))
        assert dec.coeffs == (1, 1) and dec.verdict == ALL_NONNEG

    def test_single_column(self):
        t = RT(F(-1), F(0), F(1))
        v = tuple(x for x in gamma(F(-1), 3))
        dec = decompose(v, t)
        assert dec.coeffs == (-1, 0, 0) and dec.verdict == ALL_NONPOS

    def test_mixed(self):
        v = tuple(a + b for a, b in zip(gamma(F(0), 2), gamma(F(2), 2)))
        dec = decompose(v, RT(F(0), F(2)))
        assert dec.coeffs == (-1, 1) and dec.verdict == MIXED

    def test_not_in_kernel(self):
        with pytest.raises(NotInKernel):
            decompose((0, 0, 1), RT(F(0), F(2)))

    def test_infinite_slot(self):
        t = RT(F(0), PLUS_INFINITY)
        v = tuple(-a + 2 * b for a, b in zip(gamma(F(0), 2), gamma(PLUS_INFINITY, 2)))
        dec = decompose(v, t)
        assert dec.coeffs == (1, 2) and dec.verdict == ALL_NONNEG

    def test_exact_recovery_fuzz(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 6))
            ent = []
            x = F(int(rng.integers(-20, 20)), 4)
            for _ in range(n):
                ent.append(x)
                x = x + F(int(rng.integers(1, 9)), 4)
            if rng.integers(0, 3) == 0:
                ent[-1] = PLUS_INFINITY
            t = RootTuple(tuple(ent))
            a = [F(int(rng.integers(-8, 9)), 4) for _ in range(n)]
            if all(v == 0 for v in a):
                a[0] = F(1)
            cols = [gamma(ti, n) for ti in t.entries]
            v = tuple(sum(((-1) ** (i + 1)) * a[i] * cols[i][r] for i in range(n))
                      for r in range(n + 1))
            assert list(decompose(v, t).coeffs) == a

    def test_float_solve_keeps_the_verdicts(self):
        # the float system is solved exactly at its binary values and rounded
        # once; against numpy's LU solve of the same system as the reference,
        # the verdicts are equal and the worst error against the true
        # coefficients is no larger
        rng = random.Random(22)
        worst_exact = worst_lu = 0.0
        verdicts = set()
        for trial in range(1000):
            n = rng.randint(2, 6)
            ent = [rng.uniform(-6, -4)]
            for _ in range(n - 1):
                ent.append(ent[-1] + rng.uniform(0.3, 2.5))
            if trial % 4 == 0:
                ent[-1] = PLUS_INFINITY
            t = RootTuple(tuple(ent))
            sign = (1, -1, None)[trial % 3]
            a = [(sign or rng.choice((1, -1))) * rng.uniform(0.05, 2) for _ in range(n)]
            if rng.random() < 0.2:
                a[rng.randrange(n)] = 0.0
            cols = [gamma(ti, n) for ti in t.entries]
            signed = [[(-1) ** (i + 1) * x for x in col] for i, col in enumerate(cols)]
            v = tuple(sum(a[i] * signed[i][r] for i in range(n)) for r in range(n + 1))
            rows = list(range(n - 1)) + [n] if t.has_infinity else list(range(n))
            lu = np.linalg.solve(np.array([[signed[j][r] for j in range(n)] for r in rows]),
                                 np.array([v[r] for r in rows]))
            dec = decompose(v, t)
            assert dec.verdict == charge._classify(list(lu), False).verdict
            assert all(type(c) is float for c in dec.coeffs)
            scale = max(abs(x) for x in a)
            worst_exact = max(worst_exact, *(abs(c - x) / scale for c, x in zip(dec.coeffs, a)))
            worst_lu = max(worst_lu, *(abs(c - x) / scale for c, x in zip(lu, a)))
            verdicts.add(dec.verdict)
        assert verdicts == {ALL_NONNEG, ALL_NONPOS, MIXED}
        assert worst_exact <= worst_lu

    def test_exact_equals_the_solve_reference(self):
        # 1,200 seeded rational cases, n = 1..8: three in ten end in +inf, one
        # in five is nudged off the kernel, and one in five has plain int entries
        rng = random.Random(25)
        counts = {"raised": 0, "inf": 0}
        for _ in range(1200):
            n = rng.randint(1, 8)
            den = rng.choice((1, 2, 3, 4, 7, 12, 30))
            t = sorted(F(x, den) for x in rng.sample(range(-60, 60), n))
            if rng.random() < 0.3:
                t[-1] = PLUS_INFINITY
                counts["inf"] += 1
            a = [F(rng.randint(-20, 20), rng.choice((1, 2, 5, 8))) for _ in range(n)]
            cols = [gamma(x, n) for x in t]
            v = [sum((-1) ** (i + 1) * a[i] * cols[i][r] for i in range(n)) for r in range(n + 1)]
            if rng.random() < 0.2:
                v[rng.randrange(n + 1)] += F(rng.randint(1, 5), 3)
            if rng.random() < 0.2:
                v = [int(x) if x.denominator == 1 else x for x in v]
            want = _decompose_reference(v, RootTuple(tuple(t)))
            if isinstance(want, NotInKernel):
                with pytest.raises(NotInKernel) as exc:
                    decompose(v, t)
                assert str(exc.value) == str(want)
                counts["raised"] += 1
                continue
            dec = decompose(v, t)
            assert repr(dec.coeffs) == repr(tuple(want))
            assert all(type(c) is F for c in dec.coeffs)
            assert (dec.verdict, dec.boundary) == (charge._classify(want, True).verdict, False)
        assert counts["raised"] > 150 and counts["inf"] > 300

    def test_exact_route_is_closed_form(self, monkeypatch):
        # on rational data the success path builds no twisted vector, solves
        # no system and forms no charge
        def forbidden(*args):
            raise AssertionError("called on the exact route")

        for name in ("gamma", "solve", "reduced_charge"):
            monkeypatch.setattr(charge, name, forbidden)
        assert decompose((F(-1), F(1), F(-1, 2)), RT(F(-1), F(2))).coeffs == (1, 0)
        assert decompose((0, 0, 3), RT(F(0), PLUS_INFINITY)).coeffs == (0, 3)
        assert decompose((F(0), F(5)), RT(PLUS_INFINITY)).coeffs == (-5,)

    def test_float_equals_the_pinned_corpus(self):
        # 400 float cases (tests/golden/make_decompose_float.py) keep their
        # coefficients, verdicts, boundary flags and error messages byte for byte
        make = _golden_script("make_decompose_float")
        stored = make.PATH.read_text()
        cases = json.loads(stored)["cases"]
        assert len(cases) == 400
        assert make.render([make.entry(e["t"], e["v"]) for e in cases]) == stored


def _decompose_reference(v, t):
    """exact.solve on the signed twisted-vector system, or the NotInKernel decompose raises."""
    n = t.n
    val = eval_charge(reduced_charge(t), v)
    if val != 0:
        return NotInKernel(f"B_t(v) = {val} != 0")
    signed = [[(-1) ** (i + 1) * x for x in gamma(ti, n)] for i, ti in enumerate(t.entries)]
    rows = list(range(n - 1)) + [n] if t.has_infinity else list(range(n))
    return solve([[signed[j][r] for j in range(n)] for r in rows], [v[r] for r in rows])


def _golden_script(name):
    path = Path(__file__).resolve().parent / "golden" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestKernelParameter:
    def line(self):
        return Pencil(roots_to_poly(RT(F(0), F(2))), roots_to_poly(RT(F(1), F(3))))

    def test_generator_vanishes(self):
        v = tuple(a + b for a, b in zip(gamma(F(1), 2), gamma(F(3), 2)))
        assert kernel_parameter(self.line(), v).entries == (1, 3)

    def test_in_kernel_of_line(self):
        # common kernel of the two generator charges
        from redstab.quadform import kernel_of_line

        v = tuple(kernel_of_line(self.line())[0])
        with pytest.raises(InKernelOfLine):
            kernel_parameter(self.line(), v)

    def test_neither_generator_vanishes(self):
        # v in the kernel of B_r for a tuple r on a line whose generators are
        # two other members: the general case combines both generators.  r is
        # dyadic, so its correctly rounded roots are its exact entries
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 5)
            xs = sorted(F(x, 4) for x in rng.sample(range(-40, 40), 2 * n))
            r, s = RT(*xs[0::2]), RT(*xs[1::2])
            base = Pencil.from_tuples(r, s)
            g1 = base.member(1, F(rng.randint(1, 9), 4))
            g2 = base.member(1, -F(rng.randint(1, 9), 4))
            line = Pencil(g1, g2)
            c = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n)]
            cols = [gamma(x, n) for x in r.entries]
            v = [sum(ci * col[k] for ci, col in zip(c, cols)) for k in range(n + 1)]
            B1, B2 = charge_of_poly(g1), charge_of_poly(g2)
            assert eval_charge(B1, v) != 0 and eval_charge(B2, v) != 0
            got = RT(*map(F, kernel_parameter(line, v).entries))
            assert got.entries == r.entries
            assert eval_charge(reduced_charge(got), v) == 0
            pivots = rref([list(B1.weights), list(B2.weights),
                           list(reduced_charge(got).weights)])[1]
            assert len(pivots) == 2

    def test_generic_member(self):
        v = (F(1), F(1), F(1))
        t = kernel_parameter(self.line(), v)
        B = reduced_charge(t)
        assert abs(float(eval_charge(B, v))) < 1e-9


class TestConvexity:
    def test_convex_combinations_stay_in_cone(self, rng):
        # charges oriented s < t < s[1] at fixed t form a convex set
        t = RT(F(0), F(2), F(4))
        d = F(1, 4)
        picks = []
        for _ in range(6):
            s = RT(*(x - F(int(rng.integers(1, 4)), 8) for x in t.entries))
            line = Pencil.from_tuples(s, t)
            if sep_pencil(line) > d:
                picks.append(reduced_charge(s).scaled(F(int(rng.integers(1, 5)))))
        assert len(picks) >= 2
        for i in range(len(picks)):
            for j in range(i + 1, len(picks)):
                for lam in (F(1, 4), F(1, 2), F(3, 4)):
                    combo = picks[i].scaled(lam).plus(picks[j].scaled(1 - lam))
                    dec = in_Bn(combo)
                    assert dec is not None
                    c, s = dec
                    assert c > 0
                    s_exact = RootTuple(tuple(
                        F(float(x)).limit_denominator(10 ** 9) for x in s.entries))
                    assert s_exact < t and t.lt_shift(s_exact)
                    assert sep_pencil(Pencil.from_tuples(s_exact, t)) > d
