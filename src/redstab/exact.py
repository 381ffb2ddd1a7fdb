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

One elimination, ``_eliminate`` (fraction-free Bareiss Gauss-Jordan on
integer rows), serves all exact linear algebra: ``rref`` and through it
``solve``, ``inv``, ``nullspace`` and ``particular_solution``; the
determinant ``bareiss_det`` (its last pivot); ``is_negative_definite`` (the
pivots of the pass without row swaps, the leading minors); and ``inertia``,
by Descartes' rule on the characteristic polynomial, which has only real
roots and is monic, with n of its values from ``bareiss_det`` and its lower
coefficients from an n-square ``solve``.  Float input runs the same
elimination at its exact binary value (a float is a dyadic rational), so
every verdict is exact and a result is a Fraction that a float caller rounds
once.  The determinant that dispatches on exactness serves the oracles alone
and lives in redstab.oracles.

``integer_scaled`` writes a group of numbers as integers over one common
denominator.  Exact sums of products (eliminated rows, exact pairings,
kernel restrictions, exact root certification, the kernels of redstab.poly)
run on those integers and form one Fraction at the end, instead of
normalizing a Fraction at every step.
"""

from fractions import Fraction
from math import inf, isqrt, lcm

from .errors import SingularForm

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
    kinds = set(map(type, values))
    if kinds in _SETTLED:
        return values
    if kinds == {int}:
        return tuple(map(Fraction, values))
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


def _eliminate(m, width, swap=True, carry=None):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of the integer rows m, in place.

    Pivots are sought column by column in the first ``width`` columns; later
    columns, such as a right-hand side, are carried along.  Yields
    (col, pivot, sign) for each pivot, which sits in row r, r the number of
    earlier pivots; sign is the parity of the row swaps so far.  Every other
    row becomes (pivot * row - row[col] * pivot_row) / prev, prev the previous
    pivot (1 at first), and the division is exact.  So each pivot is the
    determinant of the rows and pivot columns so far, and after the last
    pivot p each pivot row is p times its reduced row and each row past the
    rank p times the row that elimination over Fractions leaves there.

    With swap, a zero entry at the pivot position trades places with the
    first later row that has a nonzero one (``carry``, a list, trades places
    along with the rows), and a column without one is skipped.  Without
    swap, the pivots are the leading principal minors and a zero pivot ends
    the elimination.
    """
    sign = prev = 1
    r = 0
    for col in range(width):
        if r == len(m):
            return
        if swap:
            piv = next((i for i in range(r, len(m)) if m[i][col]), None)
            if piv is None:
                continue
            if piv != r:
                m[r], m[piv] = m[piv], m[r]
                if carry is not None:
                    carry[r], carry[piv] = carry[piv], carry[r]
                sign = -sign
        prow = m[r]
        pivot = prow[col]
        yield col, pivot, sign
        if not pivot:
            return
        for i, row in enumerate(m):
            if i != r:
                f = row[col]
                m[i] = [(pivot * x - f * y) // prev for x, y in zip(row, prow)]
        prev = pivot
        r += 1


def bareiss_det(rows):
    """Fraction-free Bareiss determinant: the last pivot of ``_eliminate``.

    Rows are scaled to integers first (tracking the scaling), so the
    elimination itself runs on ints with exact divisions.
    """
    n = len(rows)
    scale = 1
    m = []
    for row in rows:
        ints, den = integer_scaled(row)
        scale *= den
        m.append(ints)
    rank, pivot, sign = 0, 1, 1
    for rank, (_, pivot, sign) in enumerate(_eliminate(m, n), start=1):
        pass
    return Fraction(sign * pivot, scale) if rank == n else _ZERO


def rref(rows, width=None):
    """Gauss-Jordan elimination: (reduced rows, pivot columns), as Fractions.

    Pivots are sought in the first ``width`` columns (all of them by
    default); further columns, such as a right-hand side, are carried along.
    Each row is scaled to integers over its own denominator (integer_scaled)
    and ``_eliminate`` runs on them.  After its last pivot p, a pivot row is
    p times its reduced row, and a row past the rank p * den times the row
    elimination over Fractions leaves there, so one division per entry gives
    that elimination's result, rows past the rank included.
    """
    m, den = [], []
    for row in rows:
        ints, d = integer_scaled(row)
        m.append(ints)
        den.append(d)
    if width is None:
        width = len(m[0]) if m else 0
    pivots, p = [], 1
    for col, p, _ in _eliminate(m, width, carry=den):
        pivots.append(col)
    rank = len(pivots)
    out = [[Fraction(x, p) if x else _ZERO for x in row] for row in m[:rank]]
    out += [[Fraction(x, p * d) if x else _ZERO for x in row]
            for row, d in zip(m[rank:], den[rank:])]
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


def is_negative_definite(gram):
    """Strict negative definiteness of a symmetric matrix: (-1)^k * minor_k > 0.

    Exact on rational and float input alike (a float at its binary value).
    The empty matrix is negative definite by convention.

    The test is one ``_eliminate`` pass without row swaps over the rows
    scaled to integers: the k-th pivot is the k-th leading minor times the
    (positive) row scales, so it has the minor's sign, and the pass stops at
    the first pivot of the wrong sign.
    """
    if len(gram) == 0:
        return True
    m = [integer_scaled(row)[0] for row in gram]
    return all((pivot if k % 2 else -pivot) > 0
               for k, (_, pivot, _) in enumerate(_eliminate(m, len(m), swap=False)))


def inertia(gram):
    """Inertia (n_pos, n_neg, n_zero) of a symmetric matrix.

    Exact on rational and float input alike: the entries are scaled to
    integers over one positive denominator (a float at its binary value),
    which keeps the inertia.  Descartes' rule then runs on chi(x) =
    det(x I - G) of that integer G, which is monic: its values at
    x = 0..n-1 are Bareiss determinants, and its lower coefficients solve the
    n-square Vandermonde system for chi(x) - x^n.  chi has only real roots,
    so its coefficient sign changes count the positive eigenvalues and the
    index of its lowest nonzero coefficient counts the zero eigenvalues.
    """
    n = len(gram)
    if n == 0:
        return (0, 0, 0)
    ints, _ = integer_scaled([g for row in gram for g in row])
    values = [bareiss_det([[x * (i == j) - ints[i * n + j] for j in range(n)]
                           for i in range(n)]) - x ** n for x in range(n)]
    chi = solve([[x ** k for k in range(n)] for x in range(n)], values) + [1]
    zero = next(k for k, c in enumerate(chi) if c)
    signs = [c > 0 for c in chi[zero:] if c]
    pos = sum(a != b for a, b in zip(signs, signs[1:]))
    return (pos, n - pos - zero, zero)
