"""Real-rooted polynomials with distinct roots, strict interlacing, and pencils.

A degree-n or degree-(n-1) real polynomial with all roots real and pairwise
distinct is a *member at ambient n*; its ordered roots (padded with +inf when
the degree drops) form the parameter tuple.  Two members strictly interlace
exactly when every line through them consists of members again; the pencil
operations (canonical degree-(n-1) member, projection to ambient n-1, root
separation of a whole line) implement that calculus.

Entries and coefficients are coerced to one representation on construction
(all Fraction, or float; see exact.coerce), so arithmetic on coefficients
stays exact whenever the inputs are exact.  Coefficient arithmetic, the root
polynomial of roots_to_poly included, is redstab.poly's; its helpers are
also importable from here.  Root extraction and pencil separation are the
only float-producing steps.  They share one solver, _companion_eigvals,
which takes a stack of coefficient rows: Polynomial.roots passes one row,
member_roots the full-degree members of a pencil sample, sep_pencil its
angle samples.  A stack is Newton-polished in one array pass, and
member_roots solves full-degree quadratics by the closed form on arrays, in
the scalar routes' operation order.  They also share one degree-drop rule,
_effective_degree: leading coefficients at most LEAD_ZERO_TOL times the
largest one drop one after another.

On float input the verdict (real, distinct) rests on ROOT_IMAG_TOL and
ROOT_DISTINCT_TOL.  On exact input it rests on signs alone, at every degree:
rational roots up to degree 2 come out as Fractions, and every other
estimate (the scalar closed form at degree 2, eigenvalues above) is
certified as a root correctly rounded by a sign change of f between its two
half-ulp midpoints, evaluated by integer Horner (_rounded_roots); where that
fails, a gcd and Sturm count decide and Sturm bisection isolates the roots
(_isolated_roots).  A member built from roots known exactly (roots_to_poly,
shift_pencil, stabilizing_shift) carries them, and roots() reads that same
result off them.  So interlacing of exact members is exact too, and the
Wronskian f'g - fg' decides it where their roots share a float.  The
Wronskian of interlaced members has no real zero, so its value at 0,
f_1 g_0 - f_0 g_1, fixes their orientation (left_interlaced, _lead).
Its finite difference f(x) h(x + d) - f(x + d) h(x), with one member's
interlacing with f(x + d) (gaps_exceed), certifies on exact input that every
member of a line has its gaps above d (sep_exceeds), which gates in_Un,
restrict_charge and stabilizing_shift; sep_pencil samples the line.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    ComplexRoots,
    DegenerateInput,
    InvalidAmbient,
    NotDistinctRoots,
    SearchBudgetExceeded,
    SepTooSmall,
)
from .exact import all_exact, coerce, exact_sqrt, integer_scaled, is_exact
from .poly import (
    poly_add,
    poly_derivative,
    poly_eval,
    poly_from_roots,
    poly_mul,
    poly_scale,
    poly_shift_arg,
    scaled_value,
    shift_wronskian,
    sign_variations,
    sturm_chain,
    sturm_count_real,
)

PLUS_INFINITY = math.inf

ROOT_DISTINCT_TOL = 1e-9   # relative to root spread
ROOT_IMAG_TOL = 1e-9       # relative to root magnitude scale
LEAD_ZERO_TOL = 1e-12      # float lead <= this * largest |coeff| drops the degree
NEWTON_STEPS = 3           # float Newton steps after the companion eigenvalues
SEP_ANGLES = 720           # uniform pencil angles before refinement
SEP_REFINE_TOL = 1e-10     # golden-section window width on the angle
SHIFT_BUDGET = 60          # doublings of the stabilizing shift


@dataclass(frozen=True)
class RootTuple:
    """Ordered distinct parameters t_1 < ... < t_n; the last may be +inf."""

    entries: tuple

    def __post_init__(self):
        entries = coerce(self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 1:
            raise ValueError("root tuple needs at least one entry")
        # a -inf or +inf elsewhere fails the strict increase; a Fraction is finite
        if type(entries[0]) is not Fraction and entries[0] == -PLUS_INFINITY:
            raise ValueError("-inf is not a valid entry")
        for a, b in zip(entries, entries[1:]):
            if not a < b:
                raise ValueError(f"entries must be strictly increasing, got {entries}")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def has_infinity(self) -> bool:
        return type(self.entries[-1]) is not Fraction and self.entries[-1] == PLUS_INFINITY

    @property
    def finite(self) -> tuple:
        return self.entries[:-1] if self.has_infinity else self.entries

    def sep(self):
        """Minimum gap between consecutive finite entries; +inf below two."""
        fin = self.finite
        if len(fin) < 2:
            return PLUS_INFINITY
        return min(b - a for a, b in zip(fin, fin[1:]))

    def __lt__(self, other: "RootTuple") -> bool:
        """s < t: s_i < t_i for all i (finite values are < +inf)."""
        if self.n != other.n:
            raise ValueError("tuples of different length")
        return all(a < b for a, b in zip(self.entries, other.entries))

    def lt_shift(self, other: "RootTuple") -> bool:
        """s < t[1]: s_i < t_(i+1) for i = 1..n-1."""
        if self.n != other.n:
            raise ValueError("tuples of different length")
        return all(a < b for a, b in zip(self.entries[:-1], other.entries[1:]))

    def interlaces(self, other: "RootTuple") -> bool:
        return (self < other and other.lt_shift(self)) or (other < self and self.lt_shift(other))

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]


@dataclass(frozen=True)
class Polynomial:
    """Member candidate at ambient n: degree n or n-1, roots cached once certified."""

    coeffs: tuple
    ambient: int

    def __post_init__(self):
        coeffs = coerce(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        n = self.ambient
        if n < 1:
            raise ValueError("ambient degree must be >= 1")
        if len(coeffs) != n + 1:
            raise ValueError(f"expected {n + 1} coefficients for ambient {n}")
        if coeffs[n] == 0 and coeffs[n - 1] == 0:
            raise ValueError("degree must be n or n-1")

    @property
    def degree(self) -> int:
        return self.ambient if self.coeffs[self.ambient] != 0 else self.ambient - 1

    @property
    def leading(self):
        return self.coeffs[self.degree]

    def monic(self) -> "Polynomial":
        lead = self.leading
        if lead == 1:
            return self
        return Polynomial(tuple(c / lead for c in self.coeffs), self.ambient)

    def __call__(self, x):
        return poly_eval(self.coeffs, x)

    def derivative(self) -> "Polynomial":
        """Derivative as a degree-(n-1) member of the same ambient."""
        if self.degree != self.ambient:
            raise InvalidAmbient("derivative of a degree n-1 member leaves the ambient")
        return Polynomial(poly_derivative(self.coeffs) + (0,), self.ambient)

    def scaled(self, c) -> "Polynomial":
        if c == 0:
            raise ValueError("zero scaling")
        return Polynomial(poly_scale(self.coeffs, c), self.ambient)

    @cached_property
    def _certified_roots(self) -> RootTuple:
        known = _known(self)
        if known is not None and len(known) > 2:
            # correctly rounded, as _rounded_roots certifies them; a root beyond
            # the float range raises at once the OverflowError extraction ends in
            known = tuple(float(r) + 0.0 for r in known)
        if known is not None and all(a < b for a, b in zip(known, known[1:])):
            return _pad_inf(known, self.ambient)
        return _extract_roots(self)

    def roots(self) -> RootTuple:
        """Certified ordered roots; raises ComplexRoots / NotDistinctRoots.

        A member that carries its exact roots (roots_to_poly on exact t,
        shift_pencil's f(x + m), stabilizing_shift's padded f and (x + N) g)
        reads them from that record: rational up to degree 2, correctly
        rounded floats above, exactly what _extract_roots certifies; it
        extracts when those floats are not strictly increasing, and raises
        extraction's OverflowError at once when one overflows.
        """
        return self._certified_roots

    def is_member(self) -> bool:
        """True iff all roots are real and pairwise distinct."""
        try:
            self.roots()
            return True
        except (ComplexRoots, NotDistinctRoots):
            return False

    @staticmethod
    def from_roots(t, ambient=None) -> "Polynomial":
        return roots_to_poly(t if isinstance(t, RootTuple) else RootTuple(tuple(t)), ambient)


def roots_to_poly(t: RootTuple, ambient=None) -> Polynomial:
    """Monic polynomial with exactly the finite entries of t as roots.

    An infinite last entry drops its factor, so the result has degree n-1 at
    ambient n.  Exact when the entries are exact.
    """
    if not isinstance(t, RootTuple):
        t = RootTuple(tuple(t))
    n = t.n if ambient is None else ambient
    if n < t.n:
        raise ValueError("ambient below tuple length")
    finite = t.finite
    coeffs = poly_from_roots(finite)
    # pad with the coefficients' own zero, so the group is already coerced
    f = Polynomial(coeffs + (0 * coeffs[-1],) * (n + 1 - len(coeffs)), n)
    return _carry(f, finite) if type(coeffs[0]) is Fraction else f


def _carry(f: Polynomial, roots) -> Polynomial:
    """f with a record of its exact finite roots, increasing (None: no record), for roots()."""
    if roots is not None:
        f.__dict__["_exact_roots"] = tuple(roots)
    return f


def _known(f: Polynomial):
    """f's record of its exact finite roots, or None."""
    return f.__dict__.get("_exact_roots")


def _lowered(f: Polynomial) -> Polynomial:
    """The degree-drop member f one ambient lower, with the roots f knows or has certified."""
    low = _carry(Polynomial(f.coeffs[: f.ambient], f.ambient - 1), _known(f))
    if "_certified_roots" in f.__dict__:
        low.__dict__["_certified_roots"] = RootTuple(f.__dict__["_certified_roots"].finite)
    return low


def _newton_polish(coeffs_f, dcoeffs_f, x):
    for _ in range(NEWTON_STEPS):
        d = poly_eval(dcoeffs_f, x)
        if d == 0:
            break
        x = x - poly_eval(coeffs_f, x) / d
    return x


def _extract_roots(f: Polynomial) -> RootTuple:
    deg, exact = f.degree, all_exact(f.coeffs)
    if not exact:
        deg = _effective_degree([float(c) for c in f.coeffs])
        if deg < f.ambient - 1:
            raise NotDistinctRoots("two vanishing leading coefficients")
    coeffs = f.coeffs[: deg + 1]
    # low degrees solve in closed form, exactly when the roots are rational
    if deg == 0:
        return _pad_inf((), f.ambient)
    if deg == 1:
        return _pad_inf((-coeffs[0] / coeffs[1],), f.ambient)
    if deg == 2:
        c0, c1, c2 = coeffs
        disc = c1 * c1 - 4 * c0 * c2
        sq = exact_sqrt(disc)       # None on floats, negatives and irrational roots
        if sq:                      # 0, a double root, falls through with the complex ones
            return _pad_inf(tuple(sorted(((-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2)))),
                            f.ambient)
        if not exact and disc <= 0:
            scale = max(abs(c1), abs(c0 * c2)) or 1.0
            if abs(disc) <= (ROOT_IMAG_TOL * scale) ** 2:
                raise NotDistinctRoots("double root within tolerance")
            raise ComplexRoots("negative discriminant")
    # exact coefficients beyond the float range give no estimates either:
    # with roots None, _isolated_roots decides
    try:
        roots = None
        if deg > 2:
            (roots,) = _polished_eigvals(np.array([[float(c) for c in coeffs]]))
        elif not exact or (disc > 0 and float(c2)):
            sq = math.sqrt(disc)
            roots = [(-float(c1) - sq) / (2 * float(c2)), (-float(c1) + sq) / (2 * float(c2))]
    except OverflowError:
        if not exact:
            raise
        roots = None
    if exact:
        return _pad_inf(_rounded_roots(integer_scaled(coeffs)[0], roots), f.ambient)
    if roots is None:
        raise ComplexRoots(f"imaginary part above {ROOT_IMAG_TOL} relative")
    return _pad_inf(_distinct_sorted(roots), f.ambient)


def _rounded_roots(ints, estimates) -> tuple:
    """The correctly rounded roots of f (integer coefficients ints), certified real and distinct.

    d strictly increasing floats that pass _rounded_root's sign test have
    disjoint brackets, each holding an odd number of roots, so f has d simple
    real roots and each float is one of them correctly rounded.  Anything
    less (no estimates, a miss, two floats on one root) goes to the exact
    _isolated_roots.
    """
    dints = poly_derivative(ints)
    out = [_rounded_root(ints, dints, x) for x in sorted(estimates or ())]
    if len(out) == len(ints) - 1 and None not in out and out == sorted(set(out)):
        return tuple(out)
    return _isolated_roots(ints)


def _rounded_root(ints, dints, x):
    """The estimate x once f changes sign between the midpoints of x and its float
    neighbours, so that x is a root correctly rounded; None if NEWTON_STEPS exact
    Newton steps do not get there.

    At x = p/q a step is (p D - F) / (q D) with F = q^d f(x), D = q^(d-1) f'(x),
    and int / int true division rounds it correctly.
    """
    for _ in range(NEWTON_STEPS + 1):
        if not math.isfinite(x):
            return None
        lo, hi = (scaled_value(ints, *_midpoint(x, side)) for side in (-math.inf, math.inf))
        if lo * hi < 0:
            return x + 0.0      # -0.0 becomes 0.0
        p, q = x.as_integer_ratio()
        big_d = scaled_value(dints, p, q)
        if big_d == 0:
            return None
        try:
            x = (p * big_d - scaled_value(ints, p, q)) / (q * big_d)
        except OverflowError:
            return None
    return None


def _midpoint(x, side) -> tuple:
    """(p, q) with p / q the midpoint of the float x and its neighbour toward side."""
    (a, qa), (b, qb) = x.as_integer_ratio(), math.nextafter(x, side).as_integer_ratio()
    q = max(qa, qb)     # both are powers of two
    return a * (q // qa) + b * (q // qb), 2 * q


def _isolated_roots(ints) -> tuple:
    """The exact verdict on f, and its roots isolated by Sturm bisection and rounded.

    NotDistinctRoots when gcd(f, f') is not constant or two distinct roots
    round to one float, ComplexRoots when the Sturm count is below the degree,
    OverflowError when a root has no float.
    """
    chain = sturm_chain(ints)
    if len(chain[-1]) > 1:
        raise NotDistinctRoots("repeated root: gcd(f, f') is not constant")
    # Cauchy: every root lies in (-bound, bound].  (a, b, e, va, vb) is the
    # interval (a / 2^e, b / 2^e] with the chain's sign variations at its ends
    bound = 1 << (max(map(abs, ints[:-1])) // abs(ints[-1]) + 2).bit_length()
    va, vb = sign_variations(chain, -bound), sign_variations(chain, bound)
    if va - vb < len(ints) - 1:
        raise ComplexRoots("fewer distinct real roots than the degree (Sturm count)")
    # from top = 2^1024 - 2^970 on, int division overflows a float, so a root
    # outside (-top, top) would end the bisection in that error: raise it at once
    top = (1 << 1024) - (1 << 970)
    if bound > top and (sign_variations(chain, -top) - sign_variations(chain, top)
                        - (scaled_value(ints, top, 1) == 0) < len(ints) - 1):
        raise OverflowError("integer division result too large for a float")
    out, todo = [], [(-bound, bound, 0, va, vb)]
    while todo:     # depth first, left half first: the roots come out increasing
        a, b, e, va, vb = todo.pop()
        if va - vb == 1 and (not scaled_value(ints, b, 1 << e)
                             or b - a < 1 << e and a / (1 << e) == b / (1 << e)):
            out.append(b / (1 << e))
        elif va > vb:
            vm = sign_variations(chain, a + b, 2 << e)
            todo += [(a + b, 2 * b, e + 1, vm, vb), (2 * a, a + b, e + 1, va, vm)]
    if len(set(out)) < len(out):
        raise NotDistinctRoots("distinct roots round to one float")
    return tuple(out)


def member_roots(rows, ambient) -> list:
    """Certified roots of float members of one ambient, given as coefficient lists.

    Per row, the entries Polynomial(row, ambient).roots() certifies (+inf
    last on a degree drop), or None where it raises ComplexRoots or
    NotDistinctRoots.  The full-degree rows are solved as one stack: at
    ambient 2 by the closed-form quadratic on arrays (_quadratic_roots), above
    it by _polished_eigvals.  Rows that drop degree, and ambient 1, go through
    Polynomial.roots().
    """
    out = [None] * len(rows)
    full = []
    for i, row in enumerate(rows):
        if ambient > 1 and _effective_degree(row) == ambient:
            full.append(i)
            continue
        try:
            out[i] = Polynomial(tuple(row), ambient).roots().entries
        except (ComplexRoots, NotDistinctRoots):
            pass
    if full:
        solve = _quadratic_roots if ambient == 2 else _polished_eigvals
        for i, roots in zip(full, solve(np.array([rows[i] for i in full]))):
            if roots is not None:
                try:
                    out[i] = _distinct_sorted(roots)
                except NotDistinctRoots:
                    pass
    return out


def _quadratic_roots(rows):
    """The closed-form roots of a stack of full-degree float quadratics (c0, c1, c2).

    Per row, the two roots in _extract_roots' operation order, or None where
    the discriminant is not positive (a complex pair or a double root).
    """
    c0, c1, c2 = rows.T
    disc = c1 * c1 - 4 * c0 * c2
    with np.errstate(invalid="ignore"):
        sq = np.sqrt(disc)
    roots = np.stack(((-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2)), axis=1)
    return [None if d <= 0 else r for d, r in zip(disc.tolist(), roots.tolist())]


def _effective_degree(row) -> int:
    """Degree of a float coefficient row under the one degree-drop rule.

    Leading coefficients at most LEAD_ZERO_TOL times the largest |coefficient|
    drop one by one, so an exact zero and a negligible lead count alike.
    """
    scale = max(map(abs, row))
    deg = len(row) - 1
    while deg > 0 and abs(row[deg]) <= LEAD_ZERO_TOL * scale:
        deg -= 1
    return deg


def _polished_eigvals(rows) -> list:
    """Newton-polished real eigenvalues of a stack of full-degree float rows.

    Per row, the real parts of its _companion_eigvals after NEWTON_STEPS
    Newton steps, or None when an imaginary part exceeds ROOT_IMAG_TOL
    relative to max(1, largest |eigenvalue|).  A stack is polished in one
    array pass (_newton_polish_rows), a single row by the scalar
    _newton_polish and only when it passes, as numpy's per-call cost would
    otherwise slow it fivefold; both take the same steps in the same order, so
    a row gets the same answer alone as inside a stack.
    """
    eig = _companion_eigvals(rows)
    mag = np.abs(eig).max(axis=1).tolist()
    imag = np.abs(eig.imag).max(axis=1).tolist()
    real = [not i > ROOT_IMAG_TOL * max(1.0, m) for i, m in zip(imag, mag)]
    if len(rows) == 1:
        if not real[0]:
            return [None]
        row = rows[0].tolist()
        drow = [k * c for k, c in enumerate(row)][1:]
        return [[_newton_polish(row, drow, x) for x in eig.real[0].tolist()]]
    polished = _newton_polish_rows(rows, eig.real).tolist()
    return [x if ok else None for x, ok in zip(polished, real)]


def _newton_polish_rows(rows, x):
    """_newton_polish of every root of a stack at once; x has shape (rows, degree).

    Horner runs in poly_eval's order.  A root whose derivative is 0 stays
    where it is for the remaining steps, as the scalar loop breaks there.
    """
    drows = rows[:, 1:] * np.arange(1, rows.shape[1])
    moving = np.ones(x.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            d = _horner_rows(drows, x)
            moving &= d != 0
            x = np.where(moving, x - _horner_rows(rows, x) / d, x)
    return x


def _horner_rows(rows, x):
    """poly_eval of each row of a coefficient stack at the points of x's row."""
    acc = np.zeros_like(x)
    for k in range(rows.shape[1] - 1, -1, -1):
        acc = acc * x + rows[:, k, None]
    return acc


def _distinct_sorted(roots) -> tuple:
    """The roots in increasing order; NotDistinctRoots for a gap below tolerance."""
    roots = sorted(roots)
    spread = max(roots) - min(roots) if len(roots) > 1 else 0.0
    tol = ROOT_DISTINCT_TOL * max(spread, 1.0)
    for a, b in zip(roots, roots[1:]):
        if b - a < tol:
            raise NotDistinctRoots(f"roots {a} and {b} within tolerance {tol}")
    return tuple(roots)


def _pad_inf(finite, ambient):
    """The roots of a member of degree ambient or ambient - 1, +inf for the drop."""
    return RootTuple(finite if len(finite) == ambient else finite + (PLUS_INFINITY,))


def _companion_eigvals(rows):
    """Companion-matrix eigenvalues of a stack of float coefficient rows.

    Each row is ascending, of one common degree d = len(row) - 1 and with a
    nonzero leading coefficient; the result has shape (len(rows), d).  This is
    the only float root solver: LAPACK solves each matrix of the stack on its
    own, so a row gives the same eigenvalues alone as inside a batch (numpy
    returns a real array when every eigenvalue of the stack is real).
    """
    m, d = rows.shape[0], rows.shape[1] - 1
    comp = np.zeros((m, d, d))
    comp[:, 1:, :-1] = np.eye(d - 1)
    comp[:, :, -1] = -rows[:, :d] / rows[:, d][:, None]
    return np.linalg.eigvals(comp)


def poly_to_roots(f: Polynomial) -> RootTuple:
    """Ordered roots of a member, appending +inf when the degree drops."""
    return f.roots()


def sep(f):
    """Minimum gap between consecutive finite roots; +inf below two roots."""
    if isinstance(f, Polynomial):
        f = f.roots()
    if not isinstance(f, RootTuple):
        f = RootTuple(tuple(f))
    return f.sep()


def is_interlaced(f: Polynomial, g: Polynomial) -> bool:
    """Strict root interlacing of two members.

    Equivalent to every combination a*f + b*g having all real, pairwise
    distinct roots.  Inputs failing root certification are reported
    as not interlaced.  Raises DegenerateInput on proportional inputs.

    When both members are exact the verdict is exact: their roots are
    rational or correctly rounded, and rounding is monotone, so roots whose
    floats strictly alternate, with no float shared by f and g, are exact
    roots that do.  When a float is shared, the exact roots interlace iff
    the Wronskian f'g - fg' has no real zero and not both members drop
    degree.
    """
    if f.ambient != g.ambient:
        raise ValueError("ambient mismatch")
    if proportional(f.coeffs, g.coeffs):
        raise DegenerateInput("linearly dependent polynomials")
    try:
        rf, rg = f.roots(), g.roots()
    except (ComplexRoots, NotDistinctRoots):
        return False
    if set(map(float, rf.finite)) & set(map(float, rg.finite)) and all_exact(f.coeffs + g.coeffs):
        df, dg = poly_derivative(f.coeffs), poly_derivative(g.coeffs)
        wronskian = poly_add(poly_mul(df, g.coeffs), poly_scale(poly_mul(f.coeffs, dg), -1))
        return not (rf.has_infinity and rg.has_infinity) and sturm_count_real(wronskian) == 0
    return rf.interlaces(rg)


def left_interlaced(f: Polynomial, g: Polynomial) -> bool:
    """The oriented test: interlaced and g is negative at f's largest root.

    When f drops degree (largest root +inf), g's sign at +inf counts.  The
    Wronskian f'g - fg' of interlaced members has no real zero and the sign
    lead(f) g(r) at f's largest root r, so the test reads its value at 0.
    """
    return is_interlaced(f, g) and _lead(f) * _wronskian_at_zero(f, g) < 0


def _lead(f: Polynomial):
    """f_n, or -f_(n-1) when f's certified roots end in +inf.

    For interlaced f and g, f's roots come first exactly when
    _lead(f) * _lead(g) * _wronskian_at_zero(f, g) < 0.
    """
    n = f.ambient
    return -f.coeffs[n - 1] if f.roots().has_infinity else f.coeffs[n]


def _wronskian_at_zero(f: Polynomial, g: Polynomial):
    """(f'g - fg')(0) = f_1 g_0 - f_0 g_1."""
    return f.coeffs[1] * g.coeffs[0] - f.coeffs[0] * g.coeffs[1]


def proportional(a, b) -> bool:
    """Linear dependence of two vectors; two zero vectors are dependent.

    With k the first index where (a_k, b_k) != (0, 0), the vectors are
    dependent exactly when a_i * b_k == b_i * a_k for every i.
    """
    pivot = next(((x, y) for x, y in zip(a, b) if x != 0 or y != 0), None)
    if pivot is None:
        return True
    ak, bk = pivot
    return all(x * bk == y * ak for x, y in zip(a, b))


@dataclass(frozen=True)
class Pencil:
    """Projective line spanned by two interlaced members.

    strict=False skips the interlacing certificate (independence is always
    required); the canonical-member and projection algebra stay well-defined
    on such formal lines.
    """

    gen_a: Polynomial
    gen_b: Polynomial
    strict: bool = True

    def __post_init__(self):
        if self.gen_a.ambient != self.gen_b.ambient:
            raise ValueError("generators with different ambient")
        if proportional(self.gen_a.coeffs, self.gen_b.coeffs):
            raise DegenerateInput("generators are linearly dependent")
        if self.strict and not is_interlaced(self.gen_a, self.gen_b):
            raise DegenerateInput("generators do not interlace")

    @property
    def ambient(self) -> int:
        return self.gen_a.ambient

    def member(self, a, b) -> Polynomial:
        coeffs = poly_add(poly_scale(self.gen_a.coeffs, a), poly_scale(self.gen_b.coeffs, b))
        return Polynomial(coeffs, self.ambient)

    @staticmethod
    def from_tuples(s, t) -> "Pencil":
        s = s if isinstance(s, RootTuple) else RootTuple(tuple(s))
        t = t if isinstance(t, RootTuple) else RootTuple(tuple(t))
        n = max(s.n, t.n)
        return Pencil(roots_to_poly(s, n), roots_to_poly(t, n))


def pencil_canonical(l: Pencil) -> Polynomial:
    """The unique monic degree-(n-1) member of the line.

    Built once per Pencil object and kept on it, so later callers share its roots.
    """
    memo = vars(l)
    if "_canonical" not in memo:
        n = l.ambient
        a_lead, b_lead = l.gen_a.coeffs[n], l.gen_b.coeffs[n]
        if a_lead == 0:
            member = l.gen_a
        elif b_lead == 0:
            member = l.gen_b
        else:
            member = l.member(b_lead, -a_lead)
        if member.coeffs[n] != 0 or member.coeffs[n - 1] == 0:
            raise DegenerateInput("no degree n-1 member; degenerate line")
        memo["_canonical"] = member.monic()
    return memo["_canonical"]


def pencil_project(l: Pencil) -> Pencil:
    """Projection to ambient n-1: the line through f - x*f_l and f_l.

    Independent of the choice of the monic degree-n member f.
    """
    n = l.ambient
    if n < 2:
        raise InvalidAmbient("projection needs ambient >= 2")
    f_l = pencil_canonical(l)
    f_l.is_member()     # certifies its roots once, at ambient n, for _lowered to pass on
    gen = l.gen_a if l.gen_a.coeffs[n] != 0 else l.gen_b
    f = gen.monic()
    # f and f_l are monic, so the degree-n term cancels exactly, floats included
    reduced = poly_add(f.coeffs, poly_scale(poly_mul((0, 1), f_l.coeffs), -1))
    return Pencil(Polynomial(reduced[:n], n - 1), _lowered(f_l))


def member_with_root(l: Pencil, r) -> Polynomial:
    """The unique monic member of the line vanishing at the finite value r."""
    va, vb = l.gen_a(r), l.gen_b(r)
    if va == 0 and vb == 0:
        raise DegenerateInput("both generators vanish at r")
    member = l.gen_a if va == 0 else l.gen_b if vb == 0 else l.member(vb, -va)
    return member.monic()


def sep_exceeds(l: Pencil, d) -> bool:
    """Whether every member of the line has all root gaps above d.

    On a strict exact line with an exact d > 0 the verdict is certified: with
    f a full-degree generator and h the other one, it holds exactly when f's
    gaps exceed d (gaps_exceed) and W_d(x) = f(x) h(x + d) - f(x + d) h(x)
    has no real zero.  A real zero x of W_d is a member with the roots x and
    x + d, and the smallest gap of a member is continuous along the line, so
    a member with a gap at most d next to f forces one with a gap of exactly
    d.  Any other input keeps the sampled sep_pencil(l) > d.
    """
    f, h = l.gen_a, l.gen_b
    if not (l.strict and is_exact(d) and d > 0 and all_exact(f.coeffs + h.coeffs)):
        return sep_pencil(l) > d
    if f.degree < f.ambient:    # a strict line has at most one degree-drop member
        f, h = h, f
    return gaps_exceed(f, d) and sturm_count_real(shift_wronskian(f.coeffs, h.coeffs, d)) == 0


def gaps_exceed(f: Polynomial, d) -> bool:
    """Whether every gap between the roots of the member f exceeds d > 0.

    It does exactly when shift_pencil(f, d) exists, certified on exact f and
    d; an f that carries its exact roots is decided from them.  A degree-drop
    f is tested one ambient lower, with the roots it has already certified;
    below two roots no gap.
    """
    if f.degree < 2:
        return True
    known = _known(f)
    if known is not None and is_exact(d) and d > 0:
        return all(b - a > d for a, b in zip(known, known[1:]))
    if f.degree < f.ambient:
        f = _lowered(f)
    try:
        shift_pencil(f, d)
    except SepTooSmall:
        return False
    return True


def sep_pencil(l: Pencil, angles: int = SEP_ANGLES) -> float:
    """Minimum root separation over the whole line.

    Dense angular sampling followed by golden-section refinement around the
    sampled minimum.  The resolution is a heuristic (no certified bound on
    how fine a sampling is needed); callers that report the value flag it as
    uncertified.  The decisions "is the separation above d" of in_Un,
    restrict_charge and stabilizing_shift go through sep_exceeds, which
    certifies them on exact input and samples here otherwise.
    """
    a = np.array([float(c) for c in l.gen_a.coeffs])
    b = np.array([float(c) for c in l.gen_b.coeffs])
    thetas = np.linspace(0.0, math.pi, angles, endpoint=False)
    seps = _sep_batch(np.outer(np.cos(thetas), a) + np.outer(np.sin(thetas), b))
    j = int(np.argmin(seps))
    step = math.pi / angles
    refined = _golden_min(lambda th: _sep_of_row(math.cos(th) * a + math.sin(th) * b),
                          thetas[j] - step, thetas[j] + step, SEP_REFINE_TOL)
    return min(float(seps[j]), refined)


def _sep_batch(rows):
    """Root separations of a stack of ascending coefficient rows.

    Rows that keep their full degree under LEAD_ZERO_TOL are solved in one
    batched call; the others go through _sep_of_row.
    """
    n = rows.shape[1] - 1
    full = np.abs(rows[:, n]) > LEAD_ZERO_TOL * np.max(np.abs(rows), axis=1)
    seps = np.full(len(rows), np.inf)
    if n > 1 and np.any(full):
        seps[full] = _min_gaps(_companion_eigvals(rows[full]))
    for i in np.nonzero(~full)[0]:
        seps[i] = _sep_of_row(rows[i])
    return seps


def _sep_of_row(row) -> float:
    """Root separation of one coefficient row; +inf below two roots."""
    deg = _effective_degree(row)
    if deg < 2:
        return math.inf
    return float(_min_gaps(_companion_eigvals(row[None, : deg + 1]))[0])


def _min_gaps(eig):
    """Per row, the smallest gap between the sorted real parts."""
    return np.diff(np.sort(eig.real, axis=1), axis=1).min(axis=1)


def _golden_min(fn, lo, hi, tol):
    """Golden-section minimization of fn on [lo, hi]."""
    invphi = (math.sqrt(5) - 1) / 2
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fn(x2)
    return min(f1, f2)


def shift_pencil(f: Polynomial, m) -> Pencil:
    """The line through f(x) and f(x + m); requires 0 < m < sep(f).

    The roots r_i - m of f(x + m) alternate with the r_i exactly when every
    gap exceeds m, and a gap equal to m is a common root.  So on exact f and
    m the line's own interlacing certificate decides the bound; on float
    input the rounded sep(f) decides first.  Both raise SepTooSmall.
    """
    if f.degree != f.ambient:
        raise ValueError("shift pencil needs a full-degree member")
    if not 0 < m:
        raise SepTooSmall("shift must be positive")
    exact = all_exact(f.coeffs) and is_exact(m)
    if exact or m < sep(f):
        known = _known(f) if exact else None
        shifted = _carry(Polynomial(poly_shift_arg(f.coeffs, m), f.ambient),
                         None if known is None else [r - m for r in known])
        try:
            return Pencil(f, shifted)
        except DegenerateInput:
            if not exact:
                raise
    raise SepTooSmall(f"shift {m} >= sep {sep(f)}")


def stabilizing_shift(f: Polynomial, g: Polynomial, d) -> float:
    """A shift N with sep of the line through f(x) and (x+N)g(x) above d.

    Requires roots(f) < roots(g) < roots(f)[1] and d below the separation of
    the line through f and g; found by doubling N, each rung decided by
    sep_exceeds.  On exact f, g and d, N stays an integer so every rung's
    line is exact and certified; the result is float(N) either way.
    """
    if not (is_interlaced(f, g) and _lead(f) * _lead(g) * _wronskian_at_zero(f, g) < 0):
        raise DegenerateInput("need roots(f) < roots(g) < roots(f)[1]")
    base_line = Pencil(f, g)
    if not sep_exceeds(base_line, d):
        raise SepTooSmall(f"d={d} not below sep of the base line {sep_pencil(base_line)}")
    n = f.ambient
    f_up = _carry(Polynomial(f.coeffs + (0,), n + 1), _known(f))
    exact = all_exact(f.coeffs + g.coeffs) and is_exact(d)
    npow, known_g = (1, _known(g)) if exact else (1.0, None)
    for _ in range(SHIFT_BUDGET):
        shifted = _carry(Polynomial(poly_mul((npow, 1), g.coeffs), n + 1),
                         None if known_g is None else sorted(known_g + (Fraction(-npow),)))
        try:
            line = Pencil(f_up, shifted)
        except DegenerateInput:
            npow *= 2
            continue
        if sep_exceeds(line, d):
            return float(npow)
        npow *= 2
    raise SearchBudgetExceeded(f"no N within 2^{SHIFT_BUDGET}; d too close to the supremum")
