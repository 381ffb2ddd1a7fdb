import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from redstab.charge import gamma, reduced_charge
from redstab.exact import (
    bareiss_det,
    coerce,
    exact_sqrt,
    inertia,
    inv,
    is_negative_definite,
    mat_mul,
    nullspace,
    particular_solution,
    rref,
    solve,
)
from redstab.errors import SingularForm
from redstab.geometry import ThreefoldParams, threefold_charge
from redstab.oracles import inertia_congruence
from redstab.restrict import pushforward_matrix


def _leibniz(m):
    """Determinant as the exact Leibniz sum over permutations."""
    n = len(m)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += sign * math.prod(m[i][perm[i]] for i in range(n))
    return total


def _leading_minors(g):
    return [_leibniz([row[:k] for row in g[:k]]) for k in range(1, len(g) + 1)]


class TestBareiss:
    def test_matches_numpy(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 6))
            m = [[F(int(x), int(rng.integers(1, 4))) for x in rng.integers(-6, 7, n)]
                 for _ in range(n)]
            exact = bareiss_det(m)
            approx = np.linalg.det(np.array([[float(x) for x in row] for row in m]))
            assert abs(float(exact) - approx) < 1e-8 * max(1.0, abs(approx))

    def test_singular(self):
        assert bareiss_det([[1, 2], [2, 4]]) == 0

    def test_empty(self):
        assert bareiss_det([]) == 1

    def test_row_swaps_equal_leibniz(self):
        # zero pivots force row swaps; the exact Leibniz sum is the reference
        assert bareiss_det([[0, 1], [1, 0]]) == -1
        assert bareiss_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        assert bareiss_det([[0, 1, 2], [0, 3, 4], [5, 6, 7]]) == -10
        assert bareiss_det([[1, 2, 3], [2, 4, 5], [3, 6, 9]]) == 0
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = [[F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else F(0)
                  for _ in range(n)] for _ in range(n)]
            assert bareiss_det(m) == _leibniz(m)


class TestSolveNullspaceInv:
    def test_solve_exact(self):
        x = solve([[F(2), F(1)], [F(1), F(3)]], [F(1), F(0)])
        assert x == [F(3, 5), F(-1, 5)]

    def test_solve_singular(self):
        with pytest.raises(SingularForm):
            solve([[1, 2], [2, 4]], [1, 1])

    def test_nullspace(self):
        basis = nullspace([[1, 1, 1], [0, 1, 2]])
        assert len(basis) == 1
        v = basis[0]
        assert v[0] + v[1] + v[2] == 0 and v[1] + 2 * v[2] == 0

    def test_inverse(self):
        m = [[F(1), F(2)], [F(3), F(5)]]
        mi = inv(m)
        prod = [[sum(m[i][k] * mi[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)]
        assert prod == [[1, 0], [0, 1]]

    def test_particular_solution_consistent(self):
        assert particular_solution([[2, 1], [1, 3]], [1, 0], 2) == [F(3, 5), F(-1, 5)]

    def test_particular_solution_underdetermined(self):
        rows, rhs = [[1, 1, 1], [0, 1, 2]], [F(3), F(1, 2)]
        x = particular_solution(rows, rhs, 3)
        assert [sum(a * b for a, b in zip(row, x)) for row in rows] == rhs
        assert x[2] == 0  # the free variable is set to zero

    def test_particular_solution_inconsistent(self):
        assert particular_solution([[1, 2], [2, 4]], [1, 3], 2) is None


def _ref_rref(rows, width=None):
    """Gauss-Jordan over Fractions, row by row: the reference for exact.rref."""
    m = [[F(x) for x in row] for row in rows]
    width = (len(m[0]) if m else 0) if width is None else width
    pivots = []
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                m[i] = [x - m[i][col] * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return m, pivots


def _random_matrix(rng, rows, cols, kind):
    def entry():
        if rng.random() < 0.3:
            return 0
        if kind == "float":
            return rng.choice((rng.uniform(-5, 5), rng.randint(-9, 9) / 8, 1e-300, -2.5e10))
        return F(rng.randint(-30, 30), rng.randint(1, 12))
    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows > 2 and rng.random() < 0.5:
        # rank deficient: the last row combines the first two
        m[-1] = [x + 2 * y for x, y in zip(m[0], m[1])]
    return m


class TestIntegerRowElimination:
    """rref on integer rows equals Gauss-Jordan over Fractions, entry by entry."""

    @pytest.mark.parametrize("kind", ("rational", "float"))
    def test_rref_equals_fraction_elimination(self, kind):
        rng = random.Random(kind)
        for _ in range(80):
            rows, cols = rng.randint(1, 6), rng.randint(1, 8)
            m = _random_matrix(rng, rows, cols, kind)
            if rng.random() < 0.05:
                m = [[0] * cols for _ in range(rows)]
            for width in (None, max(0, cols - rng.randint(1, 3))):
                got, pivots = rref(m, width)
                want, want_pivots = _ref_rref(m, width)
                assert pivots == want_pivots and got == want
                assert all(type(x) is F for row in got for x in row)

    def test_empty_and_zero_matrices(self):
        assert rref([]) == ([], [])
        assert rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])
        assert rref([[0, 0, 3]], 2) == ([[0, 0, 3]], [])

    @pytest.mark.parametrize("kind", ("rational", "float"))
    def test_solve_inv_nullspace_equal_fraction_routes(self, kind):
        rng = random.Random("callers" + kind)
        for _ in range(50):
            n = rng.randint(1, 6)
            a = _random_matrix(rng, n, n, kind)
            b = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            red, piv = _ref_rref([row + [x] for row, x in zip(a, b)], n)
            if len(piv) < n:
                with pytest.raises(SingularForm):
                    solve(a, b)
                with pytest.raises(SingularForm):
                    inv(a)
            else:
                assert solve(a, b) == [row[n] for row in red]
                eye = [[int(i == j) for j in range(n)] for i in range(n)]
                red_inv, _ = _ref_rref([row + e for row, e in zip(a, eye)], n)
                assert inv(a) == [row[n:] for row in red_inv]
            wide = _random_matrix(rng, rng.randint(1, 4), n + rng.randint(0, 3), kind)
            red, piv = _ref_rref(wide)
            want = []
            for fc in (c for c in range(len(wide[0])) if c not in piv):
                v = [int(c == fc) for c in range(len(wide[0]))]
                for row, pc in zip(red, piv):
                    v[pc] = -row[fc]
                want.append(v)
            assert nullspace(wide) == want


class TestCoerce:
    def test_exact_group_becomes_fractions(self):
        out = coerce((1, F(1, 3), -2))
        assert out == (1, F(1, 3), -2)
        assert all(type(x) is F for x in out)

    def test_float_group_is_untouched(self):
        xs = (0.5, np.float64(1.25), -3.0)
        out = coerce(xs)
        assert out == xs and all(a is b for a, b in zip(out, xs))

    def test_mixed_group_becomes_float(self):
        out = coerce((1, F(1, 4), 0.5))
        assert out == (1.0, 0.25, 0.5)
        assert all(type(x) is float for x in out)

    def test_inf_and_none_pass_through(self):
        inf = float("inf")
        exact = coerce((None, 2, inf))
        assert exact[0] is None and exact[2] == inf and type(exact[1]) is F
        floats = coerce((None, 2, 0.5, inf))
        assert floats[0] is None and floats[3] == inf and type(floats[1]) is float

    def test_int_inputs_stay_exact_end_to_end(self):
        Z = threefold_charge(ThreefoldParams(1, 0, 1, 0))
        assert Z.real.weights == (0, 1, 0, -1) and Z.imag.weights == (F(-1, 2), 0, 1, 0)
        values = (Z.real.weights + Z.imag.weights
                  + tuple(x for row in pushforward_matrix(3, 2) for x in row) + gamma(2, 3))
        assert all(type(x) is F for x in values)
        assert gamma(2, 3) == (1, 2, 2, F(4, 3))

    def test_mixed_int_float_inputs_give_floats(self):
        Z = threefold_charge(ThreefoldParams(1, 0.5, 1, 0))
        B = reduced_charge((0, 1.5, 3))
        assert all(type(x) is float for x in Z.real.weights + Z.imag.weights + B.weights)
        assert B.weights[-1] == 1.0


class TestInertia:
    def test_diagonal(self):
        assert inertia([[2, 0], [0, -3]]) == (1, 1, 0)

    def test_zero_block(self):
        assert inertia([[0, 0], [0, 0]]) == (0, 0, 2)

    def test_hyperbolic_plane(self):
        assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)

    def test_matches_numpy_eigs(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 6))
            a = rng.integers(-4, 5, (n, n))
            g = [[F(int(a[i][j] + a[j][i])) for j in range(n)] for i in range(n)]
            eigs = np.linalg.eigvalsh(np.array([[float(x) for x in r] for r in g]))
            pos = int(np.sum(eigs > 1e-9))
            neg = int(np.sum(eigs < -1e-9))
            zero = n - pos - neg
            assert inertia(g) == (pos, neg, zero)

    def test_negative_definite_minors(self):
        g = [[F(-2), F(1)], [F(1), F(-3)]]
        assert is_negative_definite(g)
        assert _leading_minors(g) == [-2, 5]
        assert not is_negative_definite([[F(-1), F(2)], [F(2), F(-1)]])
        assert is_negative_definite([])

    def test_negative_definite_equals_minor_signs(self):
        # the one-pass elimination against the sign rule on every leading
        # minor, taken from the Leibniz sum rather than the shared elimination
        rng = random.Random(14)
        verdicts = set()
        for _ in range(600):
            n = rng.randint(1, 5)
            g = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = (F(rng.randint(-9, 9), rng.randint(1, 6))
                                         - (rng.randint(0, 12) if i == j else 0))
            if rng.random() < 0.2:    # a zero pivot
                k = rng.randrange(n)
                g[k][k] = F(0)
            want = all((m if k % 2 == 0 else -m) > 0
                       for k, m in enumerate(_leading_minors(g), start=1))
            assert is_negative_definite(g) == want
            verdicts.add(want)
        assert verdicts == {False, True}

    def test_degenerate_shapes_fuzz(self, rng):
        # rank-deficient products, hyperbolic blocks, and zeroed rows
        for trial in range(120):
            n = int(rng.integers(1, 7))
            kind = trial % 3
            if kind == 0:
                k = max(1, n // 2)
                b = rng.integers(-2, 3, (k, n))
                d = rng.integers(-3, 4, k)
                g = [[F(int(sum(d[r] * b[r][i] * b[r][j] for r in range(k))))
                      for j in range(n)] for i in range(n)]
            elif kind == 1:
                g = [[F(0)] * n for _ in range(n)]
                for i in range(0, n - 1, 2):
                    g[i][i + 1] = g[i + 1][i] = F(int(rng.integers(-3, 4)))
            else:
                a = rng.integers(-3, 4, (n, n))
                g = [[F(int(a[i][j] + a[j][i])) for j in range(n)] for i in range(n)]
                z = int(rng.integers(0, n))
                for j in range(n):
                    g[z][j] = g[j][z] = F(0)
            eigs = np.linalg.eigvalsh(np.array([[float(x) for x in r] for r in g]))
            scale = max(1.0, float(np.max(np.abs(eigs)))) if n else 1.0
            pos = int(np.sum(eigs > 1e-9 * scale))
            neg = int(np.sum(eigs < -1e-9 * scale))
            assert inertia(g) == (pos, neg, n - pos - neg)

    def test_equals_congruence_oracle(self):
        # Descartes' rule on the characteristic polynomial against congruence
        # diagonalization over Fractions, on five shapes of rational matrices
        rng = random.Random(17)

        def symmetric(n, entry):
            g = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = entry(i, j)
            return g

        def low_rank(n):
            k = rng.randint(0, n - 1)
            vecs = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(k)]
            w = [F(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6), rng.randint(1, 9))
                 for _ in range(k)]
            return [[sum(c * v[i] * v[j] for c, v in zip(w, vecs)) for j in range(n)]
                    for i in range(n)]

        def hyperbolic(n):
            return symmetric(n, lambda i, j: F(0) if i == j or rng.random() < 0.4
                             else F(rng.randint(-5, 5), rng.randint(1, 4)))

        def scalar(n):
            c = F(rng.randint(-3, 3), rng.randint(1, 5))
            return [[c if i == j else F(0) for j in range(n)] for i in range(n)]

        def wide_range(n):
            return symmetric(n, lambda i, j: rng.choice((-1, 1)) * F(10) ** rng.randint(-30, 30)
                             * F(rng.randint(1, 9), rng.randint(1, 9)))

        def sparse_random(n):
            return symmetric(n, lambda i, j: F(0) if rng.random() < 0.5
                             else F(rng.randint(-9, 9), rng.randint(1, 7)))

        shapes = (low_rank, hyperbolic, scalar, wide_range, sparse_random)
        seen = set()
        for trial in range(2000):
            n = 1 + trial % 8
            g = shapes[trial % 5](n)
            want = inertia_congruence(g)
            assert inertia(g) == want, g
            seen.add(want)
        assert len(seen) > 60

    def test_float_is_decided_at_its_binary_value(self):
        # a float matrix is judged by the exact signs of its binary values:
        # products that are singular or semidefinite only up to rounding, such
        # as v v^T with v = (0.1, 0.3), get the inertia of their Fraction copy
        rng = random.Random(22)
        seen = set()
        for trial in range(300):
            n = rng.randint(1, 5)
            vecs = [[rng.choice((0.1, 0.3, -0.7, rng.uniform(-3, 3))) for _ in range(n)]
                    for _ in range(rng.randint(0, n))]
            w = [rng.choice((-1.0, 1.0, 0.3)) for _ in vecs]
            g = [[sum(c * v[i] * v[j] for c, v in zip(w, vecs)) + 0.0 for j in range(n)]
                 for i in range(n)]
            for i in range(n):
                for j in range(i):
                    g[i][j] = g[j][i]
            exact = [[F(x) for x in row] for row in g]
            want = inertia_congruence(exact)
            assert inertia(g) == want, g
            assert is_negative_definite(g) == all(
                (m if k % 2 == 0 else -m) > 0
                for k, m in enumerate(_leading_minors(exact), start=1))
            seen.add(want)
        assert len(seen) > 10


class TestExactSqrt:
    def test_perfect(self):
        assert exact_sqrt(F(9, 4)) == F(3, 2)
        assert exact_sqrt(F(0)) == 0

    def test_irrational(self):
        assert exact_sqrt(F(2)) is None

    def test_float_is_left_to_math_sqrt(self):
        assert exact_sqrt(4.0) is None

    def test_negative(self):
        assert exact_sqrt(F(-1)) is None


class TestMatMul:
    @staticmethod
    def _matrix(rng, rows, cols):
        """Rational entries, some 0 or 10^+-30, and now and then a row of zeros."""
        def entry():
            kind = rng.randrange(6)
            if kind == 0:
                return F(0)
            if kind == 1:
                return F(rng.randint(-9, 9), rng.randint(1, 9)) * F(10) ** rng.choice((-30, 30))
            return F(rng.randint(-50, 50), rng.randint(1, 24))
        return [[F(0)] * cols if rng.random() < 0.1 else [entry() for _ in range(cols)]
                for _ in range(rows)]

    def test_equals_fraction_product(self):
        rng = random.Random(27)
        shapes = set()
        for _ in range(600):
            p, q, r = (rng.randint(1, 6) for _ in range(3))
            a, b = self._matrix(rng, p, q), self._matrix(rng, q, r)
            got = mat_mul(a, [tuple(row) for row in b])
            want = [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)]
                    for row in a]
            assert got == want and repr(got) == repr(want)
            shapes.add(p == q == r)
        assert shapes == {False, True}

    def test_float_input_keeps_its_sums(self):
        a, b = [[0.1, F(1, 3)], [2, 0.0]], [[0.2], [F(3)]]
        want = [[0.1 * 0.2 + F(1, 3) * F(3)], [2 * 0.2 + 0.0 * F(3)]]
        assert repr(mat_mul(a, b)) == repr(want)
