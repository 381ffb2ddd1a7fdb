import math
from fractions import Fraction as F

import pytest

from redstab.charge import CentralCharge, ReducedCharge, eval_charge, gamma, reduced_charge
from redstab import quadform
from redstab.errors import AssumptionViolated, InvariantViolated, SingularForm, WrongSignature
from redstab.exact import is_negative_definite, nullspace
from redstab.interlace import PLUS_INFINITY, Pencil, Polynomial, RootTuple, roots_to_poly
from redstab.quadform import (
    QuadraticForm,
    deform_form,
    dual_form,
    in_WQ,
    kernel_of_line,
    line_charges,
    q_line,
    q_tilde,
    tilde,
    verify_support,
    zero_form,
)


def RT(*xs):
    return RootTuple(tuple(xs))


def surface_line():
    return Pencil(roots_to_poly(RT(F(0), F(2))),
                  roots_to_poly(RT(F(1), PLUS_INFINITY), 2))


DELTA2 = QuadraticForm(((F(0), F(0), F(-1)),
                        (F(0), F(1), F(0)),
                        (F(-1), F(0), F(0))))


class TestTilde:
    def test_shift_formula(self):
        assert tilde(ReducedCharge((1, -1, 0))).weights == (0, 1, -2)

    def test_single_weight(self):
        assert tilde(ReducedCharge((-1, 0, 0))).weights == (0, -1, 0)

    def test_eigenvalue_identity(self):
        # Btilde(gamma(t)) = t B(gamma(t)) when the top weight vanishes
        B = ReducedCharge((F(2), F(-3), F(1), F(0)))
        for t in (F(-2), F(0), F(5, 3)):
            assert eval_charge(tilde(B), gamma(t, 3)) == t * eval_charge(B, gamma(t, 3))

    def test_line_charge_at_infinity(self):
        # the line's canonical charge has leading weight -1 one slot down,
        # so its shift evaluates to -n on gamma(+inf)
        lines = [surface_line(),
                 Pencil.from_tuples(RT(F(0), F(2), F(4)), RT(F(1), F(3), F(5)))]
        for line in lines:
            n = line.ambient
            b_line, b_proj = line_charges(line)
            einf = gamma(PLUS_INFINITY, n)
            assert eval_charge(tilde(b_line), einf) == -n
            assert eval_charge(b_line, einf) == 0
            assert eval_charge(b_proj, einf) == 0
            assert eval_charge(tilde(b_proj), einf) == 0


class TestQLine:
    def test_surface_is_discriminant(self):
        assert q_line(surface_line()).gram == DELTA2.gram

    def test_vanishes_on_twisted_curve(self):
        Q = q_line(surface_line())
        for k in range(100):
            t = F(k - 50, 3)
            assert Q(gamma(t, 2)) == 0
        assert Q(gamma(PLUS_INFINITY, 2)) == 0

    def test_threefold_identity(self, rng):
        for _ in range(5):
            base = sorted(rng.choice(range(-8, 9), size=6, replace=False))
            s = RT(*[F(int(x)) for x in base[0::2]])
            t = RT(*[F(int(x)) for x in base[1::2]])
            line = Pencil.from_tuples(s, t)
            Q = q_line(line)
            b_line, b_proj = line_charges(line)
            a3, a2, b = b_line.weights[0], b_line.weights[1], b_proj.weights[0]
            coeff = a3 + b * a2 - b * b / F(2)
            for _ in range(6):
                v = tuple(F(int(x)) for x in rng.integers(-9, 10, 4))
                ch1 = v[1] - b * v[0]
                ch2 = v[2] - b * v[1] + b * b / 2 * v[0]
                ch3 = v[3] - b * v[2] + b * b / 2 * v[1] - b ** 3 / 6 * v[0]
                nabla = 4 * ch2 * ch2 - 6 * ch1 * ch3
                delta = v[1] * v[1] - 2 * v[0] * v[2]
                assert Q(v) == nabla / 2 + coeff * delta

    def test_root_form_pairing_identity(self):
        # 2 P(gamma(s), gamma(r)) equals the root-side expression
        # (r - s)(f_l(s) f_pi(r) - f_l(r) f_pi(s)) / ((n-1)!(n-2)!), exactly
        import math
        from redstab.interlace import pencil_canonical, pencil_project

        cases = ((2, ((F(0), F(2)), (F(1), F(3)))),
                 (3, ((F(0), F(2), F(4)), (F(1), F(3), F(5)))),
                 (4, ((F(0), F(2), F(4), F(6)), (F(1), F(3), F(5), F(7)))))
        for n, (se, te) in cases:
            line = Pencil.from_tuples(RootTuple(se), RootTuple(te))
            Q = q_line(line)
            f_l = pencil_canonical(line)
            f_pi = pencil_canonical(pencil_project(line))
            fac = math.factorial(n - 1) * math.factorial(n - 2)
            for s in (F(-2), F(1, 3), F(5)):
                for r in (F(-1), F(7, 2)):
                    lhs = 2 * Q.pair(gamma(s, n), gamma(r, n))
                    rhs = F(r - s, fac) * (f_l(s) * f_pi(r) - f_l(r) * f_pi(s))
                    assert lhs == rhs

    def test_kernel_product_formula(self):
        # on the common kernel the line form collapses to -B_pi * tilde(B_l)
        for se, te in (((F(0), F(2), F(4)), (F(1), F(3), F(5))),
                       ((F(-3), F(0), F(2), F(5)), (F(-2), F(1), F(3), F(13, 2)))):
            line = Pencil.from_tuples(RootTuple(se), RootTuple(te))
            Q = q_line(line)
            b_l, b_pi = line_charges(line)
            tb_l = tilde(b_l)
            for v in kernel_of_line(line):
                assert eval_charge(b_l, v) == 0
                assert Q(v) == -eval_charge(b_pi, v) * eval_charge(tb_l, v)
                assert Q(v) <= 0

    def test_line_form_only_seminegative_on_kernel(self):
        # ambient 3: the line form alone vanishes somewhere on Ker l
        line = Pencil.from_tuples(RT(F(0), F(2), F(4)), RT(F(1), F(3), F(5)))
        Q = q_line(line)
        b_line, _ = line_charges(line)
        from redstab.quadform import tilde as tilde_op
        rows = [list(reduced_charge(RT(F(0), F(2), F(4))).weights),
                list(reduced_charge(RT(F(1), F(3), F(5))).weights),
                list(tilde_op(b_line).weights)]
        witness = nullspace(rows)[0]
        assert Q(witness) == 0  # eq-level seminegativity witness
        rep = verify_support(Q, line)
        assert rep.vanishing_ok and rep.pairing_ok and not rep.kernel_negative_ok


class TestQTilde:
    def test_base_case_zero(self):
        assert zero_form(2).gram == ((0, 0), (0, 0))

    def test_surface_positive_multiple_of_discriminant(self):
        Q = q_tilde(surface_line())
        alpha = Q.meta["alpha"]
        assert alpha > 0
        assert Q.gram == DELTA2.scaled(alpha).gram

    def test_random_threefold_line_passes_support(self, rng):
        base = sorted(rng.choice(range(-10, 11), size=6, replace=False))
        s = RT(*[F(int(x)) for x in base[0::2]])
        t = RT(*[F(int(x)) for x in base[1::2]])
        line = Pencil.from_tuples(s, t)
        Q = q_tilde(line)
        rep = verify_support(Q, line)
        assert rep.ok, rep.failures[:3]

    def test_negative_identity_fails_a_and_c(self):
        line = Pencil.from_tuples(RT(F(0), F(2), F(4)), RT(F(1), F(3), F(5)))
        bad = QuadraticForm(tuple(tuple(F(-int(i == j)) for j in range(4))
                                  for i in range(4)))
        rep = verify_support(bad, line)
        assert not rep.vanishing_ok
        assert not rep.pairing_ok

    def test_polarization_consistency(self, rng):
        Q = q_tilde(surface_line())
        for _ in range(10):
            u = tuple(F(int(x)) for x in rng.integers(-9, 10, 3))
            v = tuple(F(int(x)) for x in rng.integers(-9, 10, 3))
            uv = tuple(a + b for a, b in zip(u, v))
            assert Q(uv) - Q(u) - Q(v) == 2 * Q.pair(u, v)

    def test_kernel_restriction_negative_definite(self):
        line = Pencil.from_tuples(RT(F(0), F(2), F(4)), RT(F(1), F(3), F(5)))
        Q = q_tilde(line)
        from redstab.exact import is_negative_definite
        ker = kernel_of_line(line)
        assert is_negative_definite([[Q.pair(u, v) for v in ker] for u in ker])

    def test_inertia_two_nminusone(self):
        for n in (2, 3, 4, 5):
            s = RT(*[F(2 * k) for k in range(n)])
            t = RT(*[F(2 * k + 1) for k in range(n)])
            Q = q_tilde(Pencil.from_tuples(s, t))
            assert Q.inertia() == (2, n - 1, 0)


class TestVerifySupport:
    def test_complex_members_report_pairing_roots(self):
        # x^2 - 1 and x - 3 do not interlace: members such as
        # cos(0.6 pi)(x^2 - 1) + sin(0.6 pi)(x - 3) have complex roots
        line = Pencil(Polynomial((F(-1), F(0), F(1)), 2),
                      Polynomial((F(-3), F(1), F(0)), 2), strict=False)
        rep = verify_support(DELTA2, line)
        roots_failures = [f for f in rep.failures if f[0] == "pairing-roots"]
        assert roots_failures and not rep.pairing_ok
        assert all(len(f) == 2 and 0 < f[1] < math.pi for f in roots_failures)

    def test_form_of_other_ambient_rejected(self):
        for dim in (2, 4):
            eye = QuadraticForm(tuple(tuple(F(int(i == j)) for j in range(dim))
                                      for i in range(dim)))
            with pytest.raises(ValueError, match="vector length mismatch"):
                verify_support(eye, surface_line())


class TestDualForm:
    def test_identity(self):
        eye = QuadraticForm(tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3)))
        assert dual_form(eye).gram == eye.gram

    def test_involutive_signature_diag(self):
        d = QuadraticForm(((F(1), 0, 0), (0, F(1), 0), (0, 0, F(-1))))
        assert dual_form(d).gram == d.gram

    def test_inverse_product(self, rng):
        rows = [[F(int(x)) for x in row] for row in rng.integers(-4, 5, (3, 3))]
        g = [[rows[i][j] + rows[j][i] + F(8) * int(i == j) for j in range(3)] for i in range(3)]
        Q = QuadraticForm(tuple(tuple(r) for r in g))
        from redstab.exact import mat_mul
        prod = mat_mul([list(r) for r in dual_form(Q).gram], [list(r) for r in Q.gram])
        assert prod == [[F(int(i == j)) for j in range(3)] for i in range(3)]

    def test_singular(self):
        with pytest.raises(SingularForm):
            dual_form(QuadraticForm(((F(0), F(0)), (F(0), F(0)))))


class TestInWQ:
    def test_interlaced_charge_in_cone(self):
        Z = CentralCharge(reduced_charge(RT(F(1), F(3))),
                          reduced_charge(RT(F(0), F(2))))
        assert in_WQ(Z, DELTA2)

    def test_dependent_parts_on_boundary(self):
        B = reduced_charge(RT(F(0), F(2)))
        assert not in_WQ(CentralCharge(B.scaled(2), B), DELTA2)

    def test_wrong_signature(self):
        neg = QuadraticForm(tuple(tuple(F(-int(i == j)) for j in range(3)) for i in range(3)))
        Z = CentralCharge(reduced_charge(RT(F(1), F(3))), reduced_charge(RT(F(0), F(2))))
        with pytest.raises(WrongSignature):
            in_WQ(Z, neg)

    def test_disagreeing_cross_check_raises(self, monkeypatch):
        # on exact input the dual criterion is cross-checked against kernel
        # definiteness; a disagreement is a typed error, also under python -O
        monkeypatch.setattr(quadform, "is_negative_definite",
                            lambda gram: not is_negative_definite(gram))
        Z = CentralCharge(reduced_charge(RT(F(1), F(3))), reduced_charge(RT(F(0), F(2))))
        with pytest.raises(InvariantViolated):
            in_WQ(Z, DELTA2)

    def test_matches_tilde_form_route(self):
        line = Pencil.from_tuples(RT(F(0), F(2), F(4)), RT(F(1), F(3), F(5)))
        Q = q_tilde(line)
        Z = CentralCharge(reduced_charge(RT(F(0), F(2), F(4))),
                          reduced_charge(RT(F(1), F(3), F(5))))
        assert in_WQ(Z, Q)


def _model_form(rho, big_d):
    g = [[F(0)] * rho for _ in range(rho)]
    g[0][0] = big_d
    g[1][1] = big_d
    for k in range(2, rho):
        g[k][k] = F(-1)
    return QuadraticForm(tuple(tuple(r) for r in g))


class TestDeformForm:
    def test_model_case_containments(self):
        rho = 5
        Qm = _model_form(rho, F(3))
        h = tuple(F(int(i == 0)) for i in range(rho))
        f1 = tuple(F(int(i == 1)) for i in range(rho))
        f2 = tuple(F(int(i == 2)) for i in range(rho))
        out, rep = deform_form(h, f1, f2, Qm, F(1, 2), F(3), samples=800, seed=3)
        assert out.inertia() == (2, rho - 2, 0)
        assert rep.ok, (rep.lower_failures[:2], rep.upper_failures[:2])
        assert rep.lower_samples > 100 and rep.upper_samples >= 800

    def test_segment_witnesses_negative(self):
        rho = 4
        Qm = _model_form(rho, F(2))
        h = tuple(F(int(i == 0)) for i in range(rho))
        f1 = tuple(F(int(i == 1)) for i in range(rho))
        f2 = tuple(F(int(i == 2)) for i in range(rho))
        n_val = F(3)
        out, _ = deform_form(h, f1, f2, Qm, F(1, 2), n_val, samples=100, seed=0)
        for t in (F(0), n_val / 2, n_val):
            combo = [a + t * b for a, b in zip(f1, f2)]
            for w in nullspace([list(h), combo]):
                assert out(w) < 0

    def test_nonadapted_input_form(self):
        # a generic rotation of the model still satisfies the hypotheses
        rho = 4
        base = _model_form(rho, F(5))
        rot = [[F(int(i == j)) for j in range(rho)] for i in range(rho)]
        rot[2][3] = F(1, 2)   # shear inside the negative block
        rot[0][1] = F(1, 3)   # shear inside the positive block
        from redstab.exact import mat_mul
        g = mat_mul([list(map(F, r)) for r in zip(*rot)],
                    mat_mul([list(r) for r in base.gram], rot))
        Q = QuadraticForm(tuple(tuple(r) for r in g))
        h = tuple(F(int(i == 0)) for i in range(rho))
        f1 = tuple(F(int(i == 1)) for i in range(rho))
        f2 = tuple(F(int(i == 2)) for i in range(rho))
        out, rep = deform_form(h, f1, f2, Q, F(1, 4), F(2), samples=300, seed=5)
        assert out.inertia() == (2, rho - 2, 0)
        assert rep.ok

    def test_dependent_functionals(self):
        rho = 4
        Qm = _model_form(rho, F(2))
        h = tuple(F(int(i == 0)) for i in range(rho))
        f1 = tuple(F(int(i == 1)) for i in range(rho))
        with pytest.raises(AssumptionViolated):
            deform_form(h, f1, tuple(2 * x for x in f1), Qm, F(1, 2), F(3))
