import json
import math
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from redstab.charge import CentralCharge, ReducedCharge, eval_charge, gamma, reduced_charge
from redstab import interlace, quadform
from redstab.errors import (
    AssumptionViolated,
    ComplexRoots,
    NotDistinctRoots,
    SingularForm,
    WrongSignature,
)
from redstab.exact import (
    inertia,
    integer_scaled,
    inv,
    is_negative_definite,
    mat_mul,
    nullspace,
)
from redstab.interlace import PLUS_INFINITY, Pencil, Polynomial, RootTuple, roots_to_poly
from redstab.oracles import negative_on_kernel
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

    @pytest.mark.parametrize("s, t, alpha", [
        (("-23/4", "-81/16", "-139/32", "-5/2", "-5/8"), ("-21/4", "-9/2", "-13/4", "-5/4", "0"),
         1024),
        (("-23/4", "-29/8", "-47/32", "-1/8", "15/8"), ("-4", "-3", "-5/4", "1/4", "7/2"),
         262144),
        (("-19/4", "-61/16", "-99/32", "9/8", "157/32"), ("-4", "-7/2", "-1/4", "5/2", "21/4"),
         8192),
        (("-23/4", "-41/8", "-67/16", "-25/8", "-15/8"),
         ("-21/4", "-19/4", "-13/4", "-9/4", "-3/2"), 1048576),
    ])
    def test_float_line_finds_the_exact_alpha(self, s, t, alpha):
        # float copies of exact lines that need a large alpha: the kernel Gram
        # is judged at its binary value, so alpha does not scale rounding noise
        # past the lower form
        exact = Pencil.from_tuples(tuple(map(F, s)), tuple(map(F, t)))
        assert q_tilde(exact).meta["alpha"] == alpha
        line = Pencil.from_tuples(tuple(float(F(x)) for x in s), tuple(float(F(x)) for x in t))
        Q = q_tilde(line)
        assert Q.meta["alpha"] == alpha
        assert verify_support(Q, line).ok

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

    def test_non_strict_line_reports_instead_of_raising(self):
        # x^2 + 1 has no real roots: it stays out of the root cap, and the
        # members whose roots are complex are reported as failures
        line = Pencil(Polynomial((F(1), F(0), F(1)), 2),
                      Polynomial((F(-3), F(1), F(0)), 2), strict=False)
        rep = verify_support(q_line(line), line)
        assert not rep.ok and not rep.pairing_ok
        assert any(f[0] == "pairing-roots" for f in rep.failures)

    def test_uncertified_degree_drop_member_is_one_failure(self):
        # x^3 - x and x^2 + 1: the degree-drop member x^2 + 1 has complex roots
        line = Pencil(Polynomial((F(0), F(-1), F(0), F(1)), 3),
                      Polynomial((F(1), F(0), F(1), F(0)), 3), strict=False)
        neg = QuadraticForm(tuple(tuple(F(-int(i == j)) for j in range(4)) for i in range(4)))
        rep = verify_support(neg, line)
        assert not rep.pairing_ok
        assert [f for f in rep.failures if f[0].startswith("pairing-inf")] == [
            ("pairing-inf-roots", 3)]

    def test_strict_line_reports_unchanged(self):
        line = Pencil.from_tuples(RT(F(0), F(2), F(4)), RT(F(1), F(3), F(5)))
        data = quadform._line_data(line, 50)
        assert data.drop_gammas is not None and len(data.drop_gammas) == 2

    def test_form_of_other_ambient_rejected(self):
        for dim in (2, 4):
            eye = QuadraticForm(tuple(tuple(F(int(i == j)) for j in range(dim))
                                      for i in range(dim)))
            with pytest.raises(ValueError, match="vector length mismatch"):
                verify_support(eye, surface_line())


class TestLineData:
    @staticmethod
    def _lines():
        """Seeded lines n = 2..6: interlaced, not interlaced, near the degree drop."""
        rng = random.Random(8)
        for n in range(2, 7):
            for case in range(4):
                xs = rng.sample(range(-24, 24), 2 * n)
                if case < 2:
                    xs.sort()
                a = roots_to_poly(RT(*sorted(F(x, 2) for x in xs[0::2])))
                b = roots_to_poly(RT(*sorted(F(x, 2) for x in xs[1::2])))
                if case % 2:
                    # the member at theta = 3 pi / 4 keeps a lead of about 1e-11
                    b = b.scaled(1 + F(1, 10 ** 11))
                yield Pencil(a, b, strict=case < 2)

    @staticmethod
    def _reference_members(l, samples):
        """One Polynomial(...).roots() per sampled member, with charge.gamma."""
        n = l.ambient
        gen_roots = [abs(float(x)) for x in l.gen_a.roots().finite + l.gen_b.roots().finite]
        root_cap = 1e7 * (1.0 + max(gen_roots, default=1.0))
        pairs = [(float(a), float(b)) for a, b in zip(l.gen_a.coeffs, l.gen_b.coeffs)]
        members = []
        for k in range(samples):
            theta = math.pi * (k + 0.5) / samples
            c, s = math.cos(theta), math.sin(theta)
            try:
                roots = Polynomial(tuple(c * a + s * b for a, b in pairs), n).roots()
            except (ComplexRoots, NotDistinctRoots):
                members.append((theta, None))
                continue
            if roots.has_infinity or max(abs(x) for x in roots) > root_cap:
                continue
            members.append((theta, [gamma(t, n) for t in roots]))
        return members

    def test_batched_members_equal_per_member_roots(self):
        uncertified = 0
        for line in self._lines():
            try:
                data = quadform._build_line_data(line, 50)
            except ComplexRoots:    # a non-interlaced line's canonical member
                continue
            want = self._reference_members(line, 50)
            assert data.members == want
            rooted = [gam for _, gam in want if gam is not None]
            ref_stack = np.array(rooted, dtype=float).reshape(len(rooted), line.ambient,
                                                              line.ambient + 1)
            assert data.stack.tobytes() == ref_stack.tobytes()
            uncertified += sum(gam is None for _, gam in want)
        assert uncertified > 0

    def test_top_level_built_once(self, monkeypatch):
        built = []
        build = quadform._build_line_data

        def counting(l, samples):
            built.append(l.ambient)
            return build(l, samples)

        monkeypatch.setattr(quadform, "_build_line_data", counting)
        s, t = RT(F(0), F(2), F(4), F(6)), RT(F(1), F(3), F(5), F(7))
        line = Pencil.from_tuples(s, t)
        Q = q_tilde(line)
        rep = verify_support(Q, line)
        assert built == [2, 3, 4]
        assert rep == verify_support(Q, Pencil.from_tuples(s, t))
        assert built == [2, 3, 4, 4]


class TestProjectionOncePerLevel:
    def test_q_tilde_projects_each_level_once(self, monkeypatch):
        calls = []
        project = quadform.pencil_project

        def counting(l):
            calls.append(l.ambient)
            return project(l)

        monkeypatch.setattr(quadform, "pencil_project", counting)
        line = Pencil.from_tuples(RT(F(0), F(2), F(4), F(6)), RT(F(1), F(3), F(5), F(7)))
        Q = q_tilde(line)
        assert calls == [4, 3, 2]
        monkeypatch.undo()
        assert Q == q_tilde(Pencil.from_tuples(RT(F(0), F(2), F(4), F(6)),
                                               RT(F(1), F(3), F(5), F(7))))
        assert Q.meta["alpha"] == q_tilde(line).meta["alpha"]

    def test_q_line_with_given_projection(self):
        from redstab.interlace import pencil_project

        line = Pencil.from_tuples(RT(F(0), F(2), F(4)), RT(F(1), F(3), F(5)))
        assert q_line(line, pencil_project(line)) == q_line(line)


class TestSupportCountsOnce:
    """Each certified member and each exact form's integer Gram is computed once."""

    def test_roots_and_gram_images_once(self, monkeypatch):
        # on the golden lines, one q_tilde and verify_support extract no
        # polynomial twice (at any ambient) and scale no exact form's Gram twice
        golden = Path(__file__).resolve().parent / "golden" / "q_tilde.json"
        lines = json.loads(golden.read_text())["lines"]
        extracted, scaled, built = [], Counter(), Counter()
        extract, scale, post_init = (interlace._extract_roots, quadform.integer_scaled,
                                     QuadraticForm.__post_init__)

        def counting_extract(f):
            extracted.append(f.coeffs[: f.degree + 1])
            return extract(f)

        def counting_scale(values):
            values = tuple(values)
            if values in built:     # the flattened Gram of an exact form
                scaled[values] += 1
            return scale(values)

        def counting_init(Q):
            post_init(Q)
            if Q.is_exact():
                built[tuple(x for row in Q.gram for x in row)] += 1

        monkeypatch.setattr(interlace, "_extract_roots", counting_extract)
        monkeypatch.setattr(quadform, "integer_scaled", counting_scale)
        monkeypatch.setattr(QuadraticForm, "__post_init__", counting_init)
        for e in lines:
            extracted.clear()
            scaled.clear()
            built.clear()
            line = Pencil.from_tuples(RT(*map(F, e["s"])), RT(*map(F, e["t"])))
            assert verify_support(q_tilde(line), line).ok
            assert extracted and len(extracted) == len(set(extracted))
            assert scaled and all(k <= built[g] for g, k in scaled.items())


class TestLineGram:
    @staticmethod
    def _reference(l):
        """B_l * tilde(B_pi) - B_pi * tilde(B_l), symmetrized entry by entry with Fractions."""
        b_line, b_proj = line_charges(l)
        u, w = b_line.weights, tilde(b_proj).weights
        x, y = b_proj.weights, tilde(b_line).weights
        n = len(u)
        return tuple(tuple(F(1, 2) * (u[i] * w[j] + u[j] * w[i])
                           - F(1, 2) * (x[i] * y[j] + x[j] * y[i]) for j in range(n))
                     for i in range(n))

    def test_equal_to_fraction_products(self):
        rng = random.Random(12)
        for n in range(2, 6):
            for _ in range(4):
                den = rng.randint(1, 8)
                xs = sorted(F(x, den) for x in rng.sample(range(-40, 40), 2 * n))
                for line in (Pencil.from_tuples(RT(*xs[0::2]), RT(*xs[1::2])),
                             Pencil.from_tuples(RT(*map(float, xs[0::2])),
                                                RT(*map(float, xs[1::2])))):
                    got = q_line(line).gram
                    want = self._reference(line)
                    assert got == want and repr(got) == repr(want)


class TestAlphaLadder:
    @staticmethod
    def _levels():
        """(line, line form, embedded lower form, line data) of seeded lines n = 2..5."""
        rng = random.Random(13)
        for n in range(2, 6):
            for _ in range(3):
                xs = sorted(F(x, 4) for x in rng.sample(range(-40, 40), 2 * n))
                line = Pencil.from_tuples(RT(*xs[0::2]), RT(*xs[1::2]))
                proj = quadform.pencil_project(line)
                lower = quadform._embedded(q_tilde(proj))
                yield line, q_line(line, proj), lower, quadform._line_data(line, 50)

    def test_rung_decisions_equal_candidate_checks(self):
        verdicts = set()
        for line, L, P, data in self._levels():
            lp, pp = quadform._form_parts(L, data), quadform._form_parts(P, data)
            alpha = F(1)
            while alpha <= 4 * q_tilde(line).meta["alpha"]:
                got = quadform._check_support(lp.combined(alpha, pp), data,
                                              quadform.SUPPORT_MARGIN).ok
                whole = quadform._form_parts(L.scaled(alpha).plus(P), data)
                assert got == quadform._check_support(whole, data, quadform.SUPPORT_MARGIN).ok
                verdicts.add(got)
                alpha *= 2
        assert verdicts == {False, True}

    def test_first_failure_mode_keeps_the_verdict(self):
        kinds = set()
        for line, L, P, data in self._levels():
            lp, pp = quadform._form_parts(L, data), quadform._form_parts(P, data)
            alpha = F(1)
            while alpha <= 4 * q_tilde(line).meta["alpha"]:
                parts = lp.combined(alpha, pp)
                full = quadform._check_support(parts, data, quadform.SUPPORT_MARGIN)
                fast = quadform._check_support(parts, data, quadform.SUPPORT_MARGIN, first=True)
                assert fast.ok == full.ok
                assert fast.failures == full.failures[:len(fast.failures)]
                kinds.update(f[0] for f in fast.failures)
                alpha *= 2
        assert kinds == {"kernel"}    # on rungs a pairing failure comes with a kernel one

    def test_cap_message_is_the_last_candidates_report(self, monkeypatch):
        # this line needs alpha = 16; with the cap at 8 the message carries
        # the full report of the alpha = 8 candidate, exact and float records
        monkeypatch.setattr(quadform, "ALPHA_CAP", 8)
        line = Pencil.from_tuples(RT(F(-21, 4), F(-33, 8), F(-27, 8)),
                                  RT(F(-19, 4), F(-7, 2), F(-3)))
        with pytest.raises(quadform.AlphaSearchFailed) as err:
            q_tilde(line)
        assert str(err.value) == (
            "no alpha below 8; last failures: [('kernel', [[Fraction(184480292, 3740218965), "
            "Fraction(62376464, 2315373645)], [Fraction(62376464, 2315373645), "
            "Fraction(155069120, 18059914431)]]), "
            "('pairing', 0.031415926535897934, 1, 3, -0.612693821309108), "
            "('pairing', 0.09424777960769379, 1, 3, -0.6082673451475102)]")

    @pytest.mark.parametrize("ratio, exact", [(F(9, 10), True), (F(11, 10), False)])
    def test_pair_near_the_cut(self, ratio, exact):
        """alpha L + P = delta e_0 e_0^T: each pairing's value is delta, after cancellation.

        delta is set at ``ratio`` times the cut 1e-8 of the combined
        absolute-term sum of the first pair of member 0: inside the cut the
        pair is decided exactly (its record carries delta to the bit),
        outside it keeps its float value.
        """
        line = Pencil.from_tuples(RT(F(0), F(2), F(4)), RT(F(1), F(3), F(5)))
        data = quadform._line_data(line, 50)
        L, alpha = q_line(line), F(4)
        lp = quadform._form_parts(L, data)
        bound = 2 * alpha * F(lp.abssum[0, 0, 1])
        delta = ratio * F(1, 10 ** 8) * bound
        eye0 = QuadraticForm(tuple(tuple(delta if i == j == 0 else F(0) for j in range(4))
                                   for i in range(4)))
        P = L.scaled(-alpha).plus(eye0)
        pp = quadform._form_parts(P, data)
        asked = []
        exact_pair = lp.exact_pair
        lp.exact_pair = lambda key, u, v: asked.append(key) or exact_pair(key, u, v)
        combined = lp.combined(alpha, pp)
        assert abs(float(delta)) / combined.abssum[0, 0, 1] == pytest.approx(float(ratio) * 1e-8)
        rep = quadform._check_support(combined, data, quadform.SUPPORT_MARGIN)
        whole = quadform._check_support(quadform._form_parts(eye0, data), data,
                                        quadform.SUPPORT_MARGIN)
        theta = data.members[0][0]
        (record,) = [f for f in rep.failures if f[:4] == ("pairing", theta, 1, 2)]
        assert ((0, 0, 1) in asked) == exact
        assert (record[4] == float(delta)) == exact
        assert record[4] == pytest.approx(float(delta), rel=1e-6)
        assert rep.ok == whole.ok is False


class TestExactPairing:
    SPECIAL = (1e-300, 1e300, 5e-324, 2.5e-310, -0.0, 0.1, -7.25)

    @staticmethod
    def _exact(Q):
        return QuadraticForm(tuple(tuple(F(x) for x in row) for row in Q.gram))

    def _forms(self, rng):
        """Symmetric exact Gram matrices, and float ones with extreme entries."""
        exact = (F(1, 3 ** 40), F(1e-300), F(5e-324), F(0))
        for n in range(1, 6):
            for kind in (exact, self.SPECIAL) * 4:
                g = [[None] * (n + 1) for _ in range(n + 1)]
                for i in range(n + 1):
                    for j in range(i, n + 1):
                        g[i][j] = g[j][i] = rng.choice(
                            kind + (F(rng.randint(-9, 9), rng.randint(1, 12)),))
                yield QuadraticForm(tuple(map(tuple, g)))

    def test_pair_exact_equals_fraction_pairing(self):
        rng = random.Random(9)
        for Q in self._forms(rng):
            for _ in range(6):
                u, v = ([rng.choice(self.SPECIAL + (F(rng.randint(-9, 9), 7), 3))
                         for _ in range(Q.dim)] for _ in range(2))
                got = Q.pair_exact(u, v)
                want = self._exact(Q).pair([F(x) for x in u], [F(x) for x in v])
                assert type(got) is F and got == want and str(got) == str(want)

    def test_restricted_gram_equals_fraction_pairing(self):
        rng = random.Random(10)
        for Q in self._forms(rng):
            if not Q.is_exact():
                continue
            rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(Q.dim)]
                    for _ in range(min(2, Q.dim - 1))]
            for basis in (nullspace(rows, Q.dim),
                          [[F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(Q.dim)]
                           for _ in range(3)]):
                rows, den = quadform._restricted_gram(Q, basis)
                assert all(type(x) is int for row in rows for x in row)
                got = [[F(x, den) for x in row] for row in rows]
                want = [[Q.pair(u, v) for v in basis] for u in basis]
                assert got == want and str(got) == str(want)

    def test_non_finite_inputs_raise_as_fraction_does(self):
        inf_form = QuadraticForm(((math.inf, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
        with pytest.raises(OverflowError):
            inf_form.pair_exact((1, 2, 3), (1, 2, 3))
        for bad, error in ((math.inf, OverflowError), (-math.inf, OverflowError),
                           (math.nan, ValueError)):
            with pytest.raises(error):
                DELTA2.pair_exact((1.0, bad, 0.0), (1, 2, 3))
            with pytest.raises(error):
                DELTA2.pair_exact((1, 2, 3), (bad, 0.0, 1.0))


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

    def test_float_gram_is_the_rounded_exact_inverse(self):
        # a float Gram is inverted at its binary values and each entry rounded
        # once, so the dual Gram is symmetric
        rng = random.Random(22)
        for _ in range(200):
            n = rng.randint(3, 5)
            g = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = rng.uniform(-5, 5)
            want = inv([[F(x) for x in row] for row in g])
            got = dual_form(QuadraticForm(g)).gram
            assert got == tuple(tuple(float(x) for x in row) for row in want)
            assert all(type(x) is float for row in got for x in row)


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

    def test_dual_criterion_matches_kernel_oracle(self):
        # the dual criterion against Q's definiteness on Ker Z, decided by the
        # congruence inertia of the restricted Gram
        verdicts = []
        for Z, Q in _in_wq_corpus(2611, 300):
            if Q.inertia() != (2, Q.dim - 2, 0):
                with pytest.raises(WrongSignature):
                    in_WQ(Z, Q)
                continue
            verdicts.append(in_WQ(Z, Q))
            assert verdicts[-1] == negative_on_kernel(Z, Q)
        assert 50 < sum(verdicts) < len(verdicts) - 50

    def test_matches_tilde_form_route(self):
        line = Pencil.from_tuples(RT(F(0), F(2), F(4)), RT(F(1), F(3), F(5)))
        Q = q_tilde(line)
        Z = CentralCharge(reduced_charge(RT(F(0), F(2), F(4))),
                          reduced_charge(RT(F(1), F(3), F(5))))
        assert in_WQ(Z, Q)

    def test_float_copy_equals_exact_verdict(self):
        # float copies of a q_tilde form and of a charge get the exact verdict:
        # Z spanning the form's line, with its real part negated, and with its
        # real part the charge of a random tuple u
        rng = random.Random(9)
        verdicts = []
        for n in (2, 3, 3, 4, 4, 5):
            xs = sorted(F(x, 4) for x in rng.sample(range(-40, 40), 2 * n))
            s, t = RT(*xs[0::2]), RT(*xs[1::2])
            u = RT(*sorted(F(x, 4) for x in rng.sample(range(-40, 40), n)))
            Q = q_tilde(Pencil.from_tuples(s, t))
            Qf = QuadraticForm(tuple(tuple(float(x) for x in row) for row in Q.gram))
            for real in (reduced_charge(s), reduced_charge(s).scaled(-1), reduced_charge(u)):
                Z = CentralCharge(real, reduced_charge(t))
                Zf = CentralCharge(*(ReducedCharge(tuple(float(w) for w in part.weights))
                                     for part in (Z.real, Z.imag)))
                verdicts.append(in_WQ(Z, Q))
                assert in_WQ(Zf, Qf) == verdicts[-1]
        assert set(verdicts) == {False, True}


def _in_wq_corpus(seed, count):
    """(Z, Q) pairs at rho = 2..5: Q = P^T D P with D of signature (2, rho - 2)
    and P a random integer matrix (a singular P gives a wrong signature); Z the
    charges of random interlaced tuples or random weights, so that both
    verdicts occur."""
    rng = random.Random(seed)
    for _ in range(count):
        rho = rng.randint(2, 5)
        diag = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(rho)]
        diag = diag[:2] + [-x for x in diag[2:]]
        p = [[rng.randint(-3, 3) for _ in range(rho)] for _ in range(rho)]
        gram = [[sum(p[k][i] * diag[k] * p[k][j] for k in range(rho)) for j in range(rho)]
                for i in range(rho)]
        if rng.random() < 0.5:
            xs = sorted(rng.sample(range(-30, 30), 2 * (rho - 1)))
            real, imag = reduced_charge(RT(*xs[0::2])), reduced_charge(RT(*xs[1::2]))
            real = real.scaled(F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5)))
        else:
            real, imag = (ReducedCharge(tuple(F(rng.randint(-9, 9), rng.randint(1, 4))
                                              for _ in range(rho))) for _ in range(2))
        yield CentralCharge(real, imag), QuadraticForm(tuple(map(tuple, gram)))


def _model_form(rho, big_d):
    g = [[F(0)] * rho for _ in range(rho)]
    g[0][0] = big_d
    g[1][1] = big_d
    for k in range(2, rho):
        g[k][k] = F(-1)
    return QuadraticForm(tuple(tuple(r) for r in g))


def _deform_corpus(count):
    """Seeded deform inputs, rho = 3..6: Q = W^T B W for a random rational W
    with rows h, f1 first, B positive on the first two coordinates and
    negative definite (sheared) on the rest, and f2 sheared by h and f1."""
    rng = random.Random(21)
    for k in range(count):
        rho = 3 + k % 4
        while True:
            w = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rho)]
                 for _ in range(rho)]
            if len(nullspace(w)) == 0:
                break
        b = [[F(0)] * rho for _ in range(rho)]
        b[0][0] = F(rng.choice([1, 2, 5, 40]))
        b[1][1] = b[0][0] * F(rng.randint(1, 4), rng.randint(1, 4))
        b[0][1] = b[1][0] = F(rng.randint(-1, 1), 4) * min(b[0][0], b[1][1])
        low = [[F(rng.randint(-2, 2), 2) if j < i else F(int(i == j)) for j in range(rho - 2)]
               for i in range(rho - 2)]
        for i in range(rho - 2):
            for j in range(rho - 2):
                b[2 + i][2 + j] = -sum(x * y for x, y in zip(low[i], low[j]))
        g = mat_mul([list(c) for c in zip(*w)], mat_mul(b, w))
        f2 = [x + F(rng.randint(-2, 2)) * y - F(rng.randint(-2, 2), 3) * z
              for x, y, z in zip(w[2], w[0], w[1])]
        yield (w[0], w[1], f2, QuadraticForm(tuple(tuple(r) for r in g)),
               F(rng.randint(1, 3), rng.choice([1, 2, 4])), F(rng.randint(1, 5), rng.randint(1, 2)))


def _segment_values(out, h, f1, f2, n_val):
    """out(v) on integer vectors of Ker(h, f1 + t f2), t = k N / 20: each
    integer-scaled nullspace vector and the combination with weights 1, 2, ..."""
    values = []
    for k in range(21):
        t = n_val * F(k, 20)
        basis = [integer_scaled(v)[0]
                 for v in nullspace([list(h), [a + t * b for a, b in zip(f1, f2)]])]
        combo = [sum(c * x for c, x in enumerate(col, start=1)) for col in zip(*basis)]
        values += [out(v) for v in basis + [combo]]
    return values


def _adapted_gram(Q, h, f1, f2):
    """Q in the adapted coordinates x = W v that deform_form builds (rows h, f1, f2 first)."""
    w_inv = inv(quadform._complete_basis([list(h), list(f1), list(f2)], len(h)))
    return mat_mul([list(c) for c in zip(*w_inv)], mat_mul([list(r) for r in Q.gram], w_inv))


def _in_md(v, h, f1, f2, d):
    """v in M_d: f1(v) f2(v) < 0, h(v)^2 < d f1(v)^2 and h(v)^2 < d f2(v)^2."""
    a, b1, b2 = (sum(x * y for x, y in zip(w, v)) for w in (h, f1, f2))
    return b1 * b2 < 0 and a * a < d * b1 * b1 and a * a < d * b2 * b2


KERNEL_MESSAGE = "negative definite on Ker h"
SIGNATURE_MESSAGE = "form must have signature"


class TestDeformForm:
    def test_model_case_containments(self):
        rho = 5
        Qm = _model_form(rho, F(3))
        h = tuple(F(int(i == 0)) for i in range(rho))
        f1 = tuple(F(int(i == 1)) for i in range(rho))
        f2 = tuple(F(int(i == 2)) for i in range(rho))
        out, rep = deform_form(h, f1, f2, Qm, F(1, 2), F(3), samples=800, seed=3)
        assert out.inertia() == (2, rho - 2, 0)
        assert rep.ok, (rep.lower_certified, rep.upper_failures[:2])
        assert rep.lower_certified and rep.upper_samples >= 800

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

    def test_segment_certificate_on_rotated_corpus(self):
        # the certificate against the test's own segment check: integer
        # kernel vectors at 21 values of t, 0, N/2 and N among them
        for h, f1, f2, Q, d, n_val in _deform_corpus(50):
            out, rep = deform_form(h, f1, f2, Q, d, n_val, samples=10, seed=1)
            assert rep.lower_certified
            assert max(_segment_values(out, h, f1, f2, n_val)) < 0

    def test_planted_defect_fails_certificate(self, monkeypatch):
        # D = -2 makes p concave with p(N/2) > 0, while p(0), p(N) < 0 and the
        # signature (2, rho - 2) survive: only the vertex check can catch it
        rho = 5
        Qm = _model_form(rho, F(3))
        h, f1, f2 = (tuple(F(int(i == k)) for i in range(rho)) for k in range(3))
        monkeypatch.setattr(quadform, "_model_cone_parameters", lambda g_hat, rho: (F(-2), F(1)))
        out, rep = deform_form(h, f1, f2, Qm, F(1, 2), F(3), samples=50, seed=0)
        assert out.inertia() == (2, rho - 2, 0)
        assert not rep.lower_certified and not rep.ok
        assert max(_segment_values(out, h, f1, f2, F(3))) > 0

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

    @pytest.mark.parametrize("shifts, message", [
        ({(0, 0): -6}, SIGNATURE_MESSAGE),        # Q - 6 h h^T: signature (1, 2)
        ({(2, 2): 2}, KERNEL_MESSAGE),            # Q + 2 f2 f2^T: signature (2, 1) kept
        ({(0, 0): 4, (2, 2): 2}, KERNEL_MESSAGE),    # signature (3, 0) too: the kernel is named
    ])
    def test_hypothesis_failures(self, shifts, message):
        g = [[F(1), F(0), F(2)], [F(0), F(1), F(0)], [F(2), F(0), F(-1)]]
        h, f1, f2 = (tuple(F(int(i == k)) for i in range(3)) for k in range(3))
        deform_form(h, f1, f2, QuadraticForm(tuple(map(tuple, g))), F(1, 2), F(3))
        for (i, j), shift in shifts.items():
            g[i][j] += shift
        with pytest.raises(AssumptionViolated, match=message):
            deform_form(h, f1, f2, QuadraticForm(tuple(map(tuple, g))), F(1, 2), F(3))

    def test_hypotheses_match_direct_route(self):
        # Q + lam w w^T on the corpus, w in (h, f1, f2, random), against the
        # signature and the restricted Gram on the kernel of h and f1; a form
        # failing both names the kernel hypothesis
        rng = random.Random(23)
        verdicts = set()
        for h, f1, f2, Q, d, n_val in _deform_corpus(60):
            rho = len(h)
            for w in (h, f1, f2, [F(rng.randint(-3, 3)) for _ in range(rho)]):
                lam = F(rng.choice([-1, 1]) * rng.randint(1, 40), rng.choice([1, 4]))
                P = QuadraticForm(tuple(tuple(Q.gram[i][j] + lam * w[i] * w[j] for j in range(rho))
                                        for i in range(rho)))
                kernel_ok = is_negative_definite(
                    quadform._restricted_gram(P, nullspace([list(h), list(f1)]))[0])
                signature_ok = P.inertia() == (2, rho - 2, 0)
                verdicts.add((kernel_ok, signature_ok))
                if kernel_ok and signature_ok:
                    deform_form(h, f1, f2, P, d, n_val, samples=1)
                    continue
                with pytest.raises(AssumptionViolated,
                                   match=SIGNATURE_MESSAGE if kernel_ok else KERNEL_MESSAGE):
                    deform_form(h, f1, f2, P, d, n_val, samples=1)
        assert verdicts == {(True, True), (True, False), (False, True), (False, False)}

    def test_model_cone_reference(self):
        # D is the smallest doubling with mu model_D - Q >= 0 in adapted
        # coordinates (a rho x rho inertia, monotone in D), and mu the largest
        # halving with C + mu I < 0 on the kernel block
        for h, f1, f2, Q, d, n_val in _deform_corpus(60):
            rho = len(h)
            out, _ = deform_form(h, f1, f2, Q, d, n_val, samples=1)
            assert out.inertia() == (2, rho - 2, 0)
            g_hat = _adapted_gram(Q, h, f1, f2)
            mu, big_d = out.meta["mu"], out.meta["D"]

            def negatives(big_d):
                return inertia([[mu * (big_d if i < 2 else -1) * (i == j) - g_hat[i][j]
                                 for j in range(rho)] for i in range(rho)])[1]

            def kernel_block_negative(mu):
                return is_negative_definite([[g_hat[i][j] + mu * (i == j) for j in range(2, rho)]
                                             for i in range(2, rho)])

            assert negatives(big_d) == 0 and (big_d == 1 or negatives(big_d / 2) > 0)
            assert kernel_block_negative(mu) and (mu == 1 or not kernel_block_negative(2 * mu))

    def test_every_cone_sample_in_neg_out(self):
        # input 7 (rho = 6, D = 2^23) has a thin neg(out) that plain lattice
        # draws missed 200 times out of 200
        for k, (h, f1, f2, Q, d, n_val) in enumerate(_deform_corpus(60)):
            _, rep = deform_form(h, f1, f2, Q, d, n_val, samples=200, seed=k)
            assert rep.upper_samples == 200 and rep.ok, k

    def test_planted_model_cone_defect_is_sampled(self, monkeypatch):
        # D = 1 with 64 mu widens neg(out) beyond M_d union neg(Q); every
        # reported failure is an exact lattice counterexample
        fitted = quadform._model_cone_parameters
        monkeypatch.setattr(quadform, "_model_cone_parameters",
                            lambda g_hat, rho: (F(1), 64 * fitted(g_hat, rho)[1]))
        kept = caught = 0
        for k, (h, f1, f2, Q, d, n_val) in enumerate(_deform_corpus(60)):
            try:
                out, rep = deform_form(h, f1, f2, Q, d, n_val, samples=200, seed=k)
            except AssumptionViolated:
                continue
            kept += 1
            caught += bool(rep.upper_failures)
            for v in rep.upper_failures[:3]:
                assert out(v) < 0 and Q(v) >= 0 and not _in_md(v, h, f1, f2, d)
        assert kept == 59 and caught >= 40, (kept, caught)
