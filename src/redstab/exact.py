"""Exact rational linear algebra, and the rule that keeps exact values apart
from floats.

``coerce`` normalizes each group of values that enters the system together
(RootTuple entries, Polynomial coefficients, ReducedCharge weights,
QuadraticForm Gram entries, the four ThreefoldParams slots).  A group whose
members other than +inf and None are all ints or Fractions becomes all
Fraction; any other group turns its ints and Fractions into floats and
leaves its floats, numpy floats included, as they are.  Plain arithmetic then
keeps the representation: ``x / math.factorial(k)`` is exact on exact data
and a float on float data.  A constant that must follow the data joins its
group, ``*xs, c = coerce(xs + (Fraction(1, 6),))``; ``Fraction(1, 2) * x``
needs no such step, since a Fraction times a float is a float.

One Gauss-Jordan elimination (``rref``, on integer rows, Fraction output)
serves ``solve``, ``inv``, ``nullspace``, ``rank`` and
``particular_solution``.  Determinants are fraction-free Bareiss and inertia
is congruence diagonalization; float input falls back to numpy with explicit
tolerances.

``integer_scaled`` writes a group of numbers as integers over one common
denominator.  Exact sums of products (Bareiss and rref rows, exact pairings,
kernel restrictions, exact root certification, the kernels of redstab.poly)
run on those integers and form one Fraction at the end, instead of
normalizing a Fraction at every step.
"""

from fractions import Fraction
from math import gcd, inf, isqrt, lcm

import numpy as np

from .errors import SingularForm

FLOAT_EIG_MARGIN = 1e-10  # definiteness margin for the float fallback
_ZERO = Fraction(0)


def is_exact(x) -> bool:
    kind = type(x)
    if kind is Fraction or kind is int:
        return True
    # the common types are settled by type(): isinstance against Fraction
    # goes through ABCMeta and is several times slower
    return kind is not float and isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def all_exact(values) -> bool:
    return all(is_exact(x) for x in values)


# member types of a group that is already in its representation; coerce
# returns such a group without the two passes over its members
_SETTLED = ({Fraction}, {float})


def coerce(values) -> tuple:
    """One representation for a group of values: all Fraction, or float.

    Exact when every member other than +inf and None is an int or a
    Fraction; otherwise the int and Fraction members become floats.
    """
    values = tuple(values)
    if set(map(type, values)) in _SETTLED:
        return values
    if all(is_exact(x) or x is None or x == inf for x in values):
        return tuple(Fraction(x) if isinstance(x, int) else x for x in values)
    return tuple(float(x) if is_exact(x) else x for x in values)


def integer_scaled(values):
    """(ints, den) with ints[k] / den == values[k] and den the least common denominator.

    Takes ints, Fractions and floats (a float's denominator is a power of
    two).  A non-finite float raises as ``Fraction(x)`` does: OverflowError
    for +-inf, ValueError for NaN.
    """
    ratios = [x.as_integer_ratio() if isinstance(x, float) else (x.numerator, x.denominator)
              for x in values]
    den = lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def exact_sqrt(x):
    """Square root of a nonnegative exact rational if rational, else None.

    None also for a float, whose square root is left to ``math.sqrt``.
    """
    if not is_exact(x):
        return None
    x = Fraction(x)
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def bareiss_det(rows):
    """Fraction-free Bareiss determinant.

    Rows are scaled to integers first (tracking the scaling), so the
    elimination itself runs on ints with exact divisions.
    """
    if len(rows) == 0:
        return Fraction(1)
    scale = 1
    m = []
    for row in rows:
        ints, den = integer_scaled(row)
        scale *= den
        m.append(ints)
    for pivot, sign in _bareiss_pivots(m, swap=True):
        pass
    return Fraction(sign * pivot, scale)


def _bareiss_pivots(m, swap):
    """Fraction-free Bareiss elimination of the integer square matrix m, in place.

    Yields (pivot, sign) for k = 0, 1, ...: pivot is the determinant of the
    leading (k+1)-block of m with its rows swapped so far, sign the parity of
    those swaps.  Without swap the pivots are the leading principal minors of
    m.  With swap a zero pivot first trades places with the first later row
    that has a nonzero entry in its column.  A zero pivot ends the elimination.
    """
    n = len(m)
    sign = prev = 1
    for k in range(n):
        if swap and m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
        pivot = m[k][k]
        yield pivot, sign
        if pivot == 0:
            return
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot


def det(rows):
    """Determinant: exact Bareiss on rational input, numpy otherwise."""
    if all(all_exact(row) for row in rows):
        return bareiss_det(rows)
    return float(np.linalg.det(np.array(rows, dtype=float)))


def rref(rows, width=None):
    """Gauss-Jordan elimination: (reduced rows, pivot columns), as Fractions.

    Pivots are sought in the first ``width`` columns (all of them by
    default); further columns, such as a right-hand side, are carried along.
    Each row is scaled to integers once (integer_scaled), updated
    fraction-free as pivot * row - row[col] * pivot_row and divided by the
    gcd of its entries.  A row keeps the factor num / den back to its value
    under elimination over Fractions, so the result is that elimination's,
    rows past the rank included.
    """
    m, num, den = [], [], []
    for row in rows:
        ints, d = integer_scaled(row)
        m.append(ints)
        num.append(1)
        den.append(d)
    if width is None:
        width = len(m[0]) if m else 0
    pivots = []
    for col in range(width):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        for lst in (m, num, den):
            lst[r], lst[piv] = lst[piv], lst[r]
        prow = m[r]
        pv = prow[col]
        for i, row in enumerate(m):
            f = row[col]
            if i == r or not f:
                continue
            row = [pv * x - f * y for x, y in zip(row, prow)]
            g = gcd(*row) or 1
            m[i] = [x // g for x in row] if g > 1 else row
            num[i] *= g
            den[i] *= pv
        pivots.append(col)
    rank = len(pivots)
    out = [[Fraction(x, row[col]) if x else _ZERO for x in row] for row, col in zip(m, pivots)]
    out += [[Fraction(x * p, q) if x else _ZERO for x in row]
            for row, p, q in zip(m[rank:], num[rank:], den[rank:])]
    return out, pivots


def solve(a_rows, b):
    """Solve A x = b exactly (square, rational).  Raises SingularForm."""
    n = len(a_rows)
    m, pivots = rref([list(row) + [bv] for row, bv in zip(a_rows, b)], n)
    if len(pivots) < n:
        raise SingularForm("singular system")
    return [row[n] for row in m]


def nullspace(rows, width=None):
    """Basis of the right nullspace of a rational matrix, as Fraction vectors."""
    if width is None:
        width = len(rows[0])
    m, pivots = rref(rows, width)
    basis = []
    for fc in (c for c in range(width) if c not in pivots):
        v = [Fraction(0)] * width
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def rank(rows, width=None):
    """Rank of a rational matrix."""
    return len(rref(rows, width)[1])


def particular_solution(rows, rhs, width):
    """One exact solution of A x = b (free variables zero), or None if inconsistent."""
    m, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)], width)
    if any(row[width] != 0 for row in m[len(pivots):]):
        return None
    out = [Fraction(0)] * width
    for i, col in enumerate(pivots):
        out[col] = m[i][width]
    return out


def inv(rows):
    """Exact inverse of a rational square matrix.  Raises SingularForm."""
    n = len(rows)
    m, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                      for i, row in enumerate(rows)], n)
    if len(pivots) < n:
        raise SingularForm("matrix is singular")
    return [row[n:] for row in m]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def leading_principal_minors(gram):
    n = len(gram)
    return [det([row[: k + 1] for row in gram[: k + 1]]) for k in range(n)]


def is_negative_definite(gram):
    """Strict negative definiteness of a symmetric matrix.

    Exact principal-minor test on rational input ((-1)^k * minor_k > 0);
    eigenvalue fallback with margin for float input.  The empty matrix is
    negative definite by convention.

    The exact test is one Bareiss pass without row swaps over the rows
    scaled to integers (_bareiss_pivots): the k-th pivot is the k-th leading
    minor times the (positive) row scales, so it has the minor's sign, and the
    pass stops at the first pivot of the wrong sign.
    """
    if len(gram) == 0:
        return True
    if all(all_exact(row) for row in gram):
        m = [integer_scaled(row)[0] for row in gram]
        for k, (pivot, _) in enumerate(_bareiss_pivots(m, swap=False)):
            if (pivot if k % 2 else -pivot) <= 0:
                return False
        return True
    w = np.linalg.eigvalsh(np.array(gram, dtype=float))
    scale = max(1.0, float(np.max(np.abs(w))))
    return bool(np.all(w < -FLOAT_EIG_MARGIN * scale))


def inertia(gram):
    """Inertia (n_pos, n_neg, n_zero) of a symmetric matrix.

    Exact congruence diagonalization over Fractions when the input is
    rational; numpy eigenvalues with a relative margin otherwise.
    """
    n = len(gram)
    if n == 0:
        return (0, 0, 0)
    if not all(all_exact(row) for row in gram):
        w = np.linalg.eigvalsh(np.array(gram, dtype=float))
        scale = max(1.0, float(np.max(np.abs(w))))
        pos = int(np.sum(w > FLOAT_EIG_MARGIN * scale))
        neg = int(np.sum(w < -FLOAT_EIG_MARGIN * scale))
        return (pos, neg, n - pos - neg)
    m = [[Fraction(x) for x in row] for row in gram]
    pos = neg = 0
    idx = list(range(n))
    for _ in range(n):
        if not idx:
            break
        # symmetric pivoting: prefer a nonzero diagonal entry
        p = next((i for i in idx if m[i][i] != 0), None)
        if p is None:
            # all remaining diagonal zero; find an off-diagonal pair
            pair = next(((i, j) for i in idx for j in idx if j > i and m[i][j] != 0), None)
            if pair is None:
                break
            i, j = pair
            # congruence: add row/col j into i, producing 2*m[i][j] on the diagonal
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            p = i
        d = m[p][p]
        if d > 0:
            pos += 1
        else:
            neg += 1
        idx.remove(p)
        for i in idx:
            if m[i][p] != 0:
                f = m[i][p] / d
                for c in range(n):
                    m[i][c] -= f * m[p][c]
                for r in range(n):
                    m[r][i] -= f * m[r][p]
    return (pos, neg, n - pos - neg)
