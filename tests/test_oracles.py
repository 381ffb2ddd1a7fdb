from fractions import Fraction as F

from redstab.charge import eval_charge, gamma, reduced_charge
from redstab.interlace import (
    PLUS_INFINITY,
    Pencil,
    Polynomial,
    RootTuple,
    pencil_project,
    roots_to_poly,
)
from redstab.oracles import (
    member_with_gap,
    oracle_interlaced,
    pencil_discriminant_real_roots,
    sign_scan_oracle,
    sturm_count_real,
    sylvester_resultant,
    verify_support_pointwise,
)
from redstab.quadform import (
    SUPPORT_MARGIN,
    QuadraticForm,
    q_line,
    q_tilde,
    verify_support,
    zero_form,
)


class TestSturm:
    def test_counts(self):
        assert sturm_count_real([0, -2, 1]) == 2
        assert sturm_count_real([1, 0, 1]) == 0
        assert sturm_count_real([0, -1, 0, 1]) == 3
        assert sturm_count_real([1, -2, 1]) == 1  # distinct roots only
        assert sturm_count_real([F(5)]) == 0


class TestResultant:
    def test_common_root(self):
        assert sylvester_resultant([-1, 0, 1], [-1, 1]) == 0

    def test_no_common_root(self):
        assert sylvester_resultant([-1, 0, 1], [-2, 1]) == 3

    def test_constant(self):
        assert sylvester_resultant([F(2)], [1, 1, 1]) == 4


class TestPencilOracle:
    def test_interlaced(self):
        assert oracle_interlaced((0, -2, 1), (3, -4, 1))

    def test_gap(self):
        assert not oracle_interlaced((0, -1, 1), (12, -7, 1))
        count, drop_ok = pencil_discriminant_real_roots((0, -1, 1), (12, -7, 1))
        assert count >= 1 and drop_ok

    def test_degree_drop_generator(self):
        assert oracle_interlaced((0, -2, 1), (-1, 1, 0))

    def test_complex_generator(self):
        assert not oracle_interlaced((1, 0, 1), (-1, 1, 0))

    def test_shared_root_pencil(self):
        # x(x-1)(x+1) and x(x-1)(x-2): double root appears inside the pencil
        assert not oracle_interlaced((0, -1, 0, 1), (0, 2, -3, 1))


class TestGapOracle:
    def test_quadratic_line(self):
        # x(x - 2) + c(x - 1) has the gap sqrt(c^2 + 4): 2 at c = 0, 3 at c = +-sqrt(5)
        f, h = (0, -2, 1), (-1, 1, 0)
        assert member_with_gap(f, h, 2) and member_with_gap(h, f, 3)
        assert not member_with_gap(f, h, 1) and not member_with_gap(f, h, F(19, 10))

    def test_degree_drop_member(self):
        # h = x(x - 1) drops degree at ambient 3 and has the gap 1
        f = roots_to_poly(RootTuple((F(-1, 2), F(1, 2), F(2)))).coeffs
        h = roots_to_poly(RootTuple((F(0), F(1), PLUS_INFINITY))).coeffs
        assert member_with_gap(f, h, 1) and member_with_gap(h, f, 1)


class TestSignScan:
    def test_coherent_finds_nothing(self):
        t = RootTuple((F(-1), F(0), F(1)))
        cols = [gamma(x, 3) for x in t.entries]
        v = tuple(-cols[0][r] + cols[1][r] - cols[2][r] for r in range(4))
        found, _ = sign_scan_oracle(t, v)
        assert not found

    def test_mixed_finds_zero(self):
        t = RootTuple((F(-1), F(0), F(1)))
        cols = [gamma(x, 3) for x in t.entries]
        v = tuple(cols[0][r] + cols[1][r] for r in range(4))
        found, witness = sign_scan_oracle(t, v)
        assert found
        s = RootTuple(tuple(witness))
        resid = abs(float(eval_charge(reduced_charge(s), v)))
        assert resid < 1e-6

    def test_infinite_tuple(self):
        t = RootTuple((F(0), F(2), PLUS_INFINITY))
        cols = [gamma(x, 3) for x in t.entries]
        coh = tuple(-cols[0][r] - cols[2][r] for r in range(4))
        assert not sign_scan_oracle(t, coh)[0]
        mixed = tuple(-cols[0][r] + cols[2][r] for r in range(4))
        assert sign_scan_oracle(t, mixed)[0]


class TestSupportOracle:
    """The batched support check against the pointwise oracle, rung by rung."""

    LINES = ((("-23/4", "-27/8"), ("-17/4", "-5/2")),
             (("-21/4", "-55/16", "-45/16"), ("-4", "-13/4", "-11/4")),
             (("-5", "-119/32", "-29/16", "-7/8"), ("-19/4", "-2", "-3/2", "-1/4")),
             (("-13/2", "-143/32", "-51/16", "-5/16", "-1/32"),
              ("-21/4", "-4", "-3/4", "-1/4", "3/2")))

    @staticmethod
    def _rungs(line, out):
        """Append every candidate of q_tilde's alpha ladder on every level."""
        n = line.ambient
        if n == 1:
            return zero_form(2)
        lower = TestSupportOracle._rungs(pencil_project(line), out)
        rows = [tuple(r) + (F(0),) for r in lower.gram] + [tuple(F(0) for _ in range(n + 1))]
        padded = QuadraticForm(tuple(rows))
        final = q_tilde(line)
        alpha = F(1)
        while alpha <= final.meta["alpha"]:
            candidate = q_line(line).scaled(alpha).plus(padded)
            out.append((candidate, line))
            alpha *= 2
        assert candidate.gram == final.gram
        return final

    @staticmethod
    def _assert_same(Q, line, **kw):
        prod = verify_support(Q, line, **kw)
        oracle = verify_support_pointwise(Q, line, **kw)
        assert prod == oracle
        assert str(prod.failures) == str(oracle.failures)
        return prod

    def test_every_ladder_rung(self):
        rungs = []
        for s, t in self.LINES:
            self._rungs(Pencil.from_tuples(RootTuple(tuple(map(F, s))),
                                           RootTuple(tuple(map(F, t)))), rungs)
        reports = [self._assert_same(Q, line, samples=50, margin=SUPPORT_MARGIN)
                   for Q, line in rungs]
        assert {line.ambient for _, line in rungs} == {2, 3, 4, 5}
        assert any(not r.pairing_ok for r in reports)
        assert any(not r.kernel_negative_ok for r in reports)
        # a wide margin sends most pairings to the exact fallback
        failing = [(Q, line) for (Q, line), r in zip(rungs, reports) if not r.pairing_ok]
        for Q, line in failing[:3]:
            self._assert_same(Q, line, samples=50, margin=0.5)

    def test_failing_forms(self):
        threefold = Pencil.from_tuples(RootTuple((F(0), F(2), F(4))),
                                       RootTuple((F(1), F(3), F(5))))
        neg = QuadraticForm(tuple(tuple(F(-int(i == j)) for j in range(4)) for i in range(4)))
        rep = self._assert_same(neg, threefold)
        assert not rep.vanishing_ok and not rep.pairing_ok
        surface = Pencil(roots_to_poly(RootTuple((F(0), F(2)))),
                         roots_to_poly(RootTuple((F(1), PLUS_INFINITY)), 2))
        corrupted = QuadraticForm(((F(0), F(0), F(-1)), (F(0), F(2), F(0)),
                                   (F(-1), F(0), F(0))))
        rep = self._assert_same(corrupted, surface)
        assert not rep.vanishing_ok and not rep.kernel_negative_ok
        formal = Pencil(Polynomial((F(-1), F(0), F(1)), 2),
                        Polynomial((F(-3), F(1), F(0)), 2), strict=False)
        rep = self._assert_same(corrupted, formal)
        assert any(f[0] == "pairing-roots" for f in rep.failures)

    def test_uncertified_generator_and_degree_drop_member(self):
        # x^2 + 1 has complex roots; in the cubic line it is the degree-drop member
        surface = Pencil(Polynomial((F(1), F(0), F(1)), 2),
                         Polynomial((F(-3), F(1), F(0)), 2), strict=False)
        rep = self._assert_same(q_line(surface), surface)
        assert not rep.ok
        cubic = Pencil(Polynomial((F(0), F(-1), F(0), F(1)), 3),
                       Polynomial((F(1), F(0), F(1), F(0)), 3), strict=False)
        neg = QuadraticForm(tuple(tuple(F(-int(i == j)) for j in range(4)) for i in range(4)))
        rep = self._assert_same(neg, cubic)
        assert ("pairing-inf-roots", 3) in rep.failures

    def test_float_form(self):
        line = Pencil.from_tuples(RootTuple((F(0), F(2), F(4))),
                                  RootTuple((F(1), F(3), F(5))))
        gram = q_tilde(line).gram
        near = QuadraticForm(tuple(tuple(float(x) for x in row) for row in gram))
        assert self._assert_same(near, line).ok
        skewed = QuadraticForm(tuple(tuple(float(x) * (1.0001 if i == j else 1.0)
                                           for j, x in enumerate(row))
                                     for i, row in enumerate(gram)))
        rep = self._assert_same(skewed, line)
        assert not rep.vanishing_ok and rep.max_vanishing_residual > 1e-8
