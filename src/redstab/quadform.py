"""Support-property quadratic forms attached to pencils of charges.

The line form pairs the canonical degree-(n-1) member against the projected
line's canonical member; it vanishes on the whole twisted curve, is positive
on sign-coherent kernel vectors, and is seminegative on the line's common
kernel.  The inductive form adds a large multiple of the line form to the
(embedded) form of the projected line, tightening seminegative to negative
definite; the weight is found by doubling and certified by re-verification.

One check routine, _check_support, decides a form from its parts on a
line's data (_FormParts): the exact vanishing coefficients, the Gram matrix
on the line's kernel, the float member and degree-drop pairings with their
absolute-term sums, and cached exact pairings.  The line's data (kernel
basis, member roots and their gamma vectors, degree-drop member) is built
once per Pencil object and sample count, so verify_support(q_tilde(l), l)
builds the top level once; the member roots are solved as one stack
(interlace.member_roots).  Every part is linear in the form, so the
doubling ladder computes the parts of the line form and of the embedded
lower form once per level, and each rung alpha decides alpha * line + lower
from them (one exact definiteness test and a few array operations); only
the passing form is built.  verify_support runs the same routine on the
parts of its single form.  Each form makes an integer image of its Gram
(rows over one common denominator, exact.integer_scaled) and a float one
once, on first use: exact pairings, kernel restrictions and vanishing
coefficients sum on the first, float pairings read the second.  The last
two stay integers over one denominator, so a rung combines and tests them
on integers; Fractions are formed only for failure records and the
passing form.

Vanishing of an exact form on the twisted curve is proved on the whole
curve, +inf included, by the coefficient identity: Q(gamma(t)) is the
polynomial sum_m c_m t^m with c_m = sum over i+j=m of G_ij / (i! j!), and
its top coefficient c_2n = G_nn / (n!)^2 is the value at +inf.

Gram matrices store the standard polarization P(u,v) (so Q(u+v) = Q(u) +
2 P(u,v) + Q(v)); sign conclusions are invariant under the factor-2
convention difference some displays use.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .charge import CentralCharge, ReducedCharge, charge_of_poly, gamma
from .errors import (
    AlphaSearchFailed,
    AssumptionViolated,
    ComplexRoots,
    InvalidAmbient,
    NotDistinctRoots,
    WrongSignature,
)
from .exact import (
    all_exact,
    coerce,
    inertia,
    integer_scaled,
    inv,
    is_negative_definite,
    mat_mul,
    nullspace,
    rref,
)
from .interlace import (
    PLUS_INFINITY,
    Pencil,
    member_roots,
    pencil_canonical,
    pencil_project,
)
from .poly import poly_eval

ALPHA_CAP = 2 ** 60
SUPPORT_MARGIN = 1e-8


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric bilinear form on the ambient-n lattice.

    The Gram entries are coerced as one group (exact.coerce).  Its integer
    image (``_integer_gram``) and float image (``_float_rows``, each row's
    nonzero entries) are made on first use and kept on the instance, as
    Polynomial keeps its roots, outside equality and repr.
    """

    gram: tuple
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.gram)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("gram must be square")
        entries = coerce(x for row in rows for x in row)
        g = tuple(entries[i * n:(i + 1) * n] for i in range(n))
        object.__setattr__(self, "gram", g)
        for i in range(n):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram must be symmetric")

    @property
    def dim(self) -> int:
        return len(self.gram)

    @property
    def ambient(self) -> int:
        return len(self.gram) - 1

    def __call__(self, v):
        return self.pair(v, v)

    @cached_property
    def _integer_gram(self):
        """(rows, den): the Gram rows as integers over one common denominator."""
        ints, den = integer_scaled(x for row in self.gram for x in row)
        dim = self.dim
        return [ints[i * dim:(i + 1) * dim] for i in range(dim)], den

    @cached_property
    def _float_rows(self):
        return tuple(tuple((j, float(g)) for j, g in enumerate(row) if g != 0)
                     for row in self.gram)

    def pair(self, u, v):
        """Bilinear polarization P(u, v) = u^T gram v."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("vector length mismatch")
        return sum(u[i] * sum(self.gram[i][j] * v[j] for j in range(self.dim))
                   for i in range(self.dim))

    def pair_float_with_scale(self, u, v):
        """Float pairing together with the sum of absolute terms.

        The second value bounds the cancellation: a result far below it has
        lost that many digits and needs the exact fallback.
        """
        total = 0.0
        abssum = 0.0
        for i, row in enumerate(self._float_rows):
            ui = float(u[i])
            if ui == 0.0:
                continue
            for j, g in row:
                term = ui * g * float(v[j])
                total += term
                abssum += abs(term)
        return total, abssum

    def pair_exact(self, u, v):
        """Pairing with every input promoted to an exact rational.

        u and v are each scaled to integers over one common denominator
        (exact.integer_scaled) and paired with the form's integer Gram,
        scaled once per form, so the sum runs on ints and one Fraction is
        formed at the end.  A rung of q_tilde's ladder falls back to the
        pairings of its two forms, alpha * P_line(u, v) + P_lower(u, v).
        """
        ui, du = integer_scaled(u)
        vi, dv = integer_scaled(v)
        grows, dg = self._integer_gram
        total = sum(x * sum(g * y for g, y in zip(row, vi))
                    for x, row in zip(ui, grows) if x)
        return Fraction(total, du * dv * dg)

    def is_exact(self) -> bool:
        return all(all_exact(row) for row in self.gram)

    def inertia(self):
        return inertia([list(row) for row in self.gram])

    def scaled(self, c) -> "QuadraticForm":
        return QuadraticForm(tuple(tuple(c * x for x in row) for row in self.gram), dict(self.meta))

    def plus(self, other: "QuadraticForm") -> "QuadraticForm":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return QuadraticForm(tuple(tuple(a + b for a, b in zip(r1, r2))
                                   for r1, r2 in zip(self.gram, other.gram)))


def zero_form(dim: int) -> QuadraticForm:
    return QuadraticForm(tuple(tuple(Fraction(0) for _ in range(dim)) for _ in range(dim)))


def tilde(B: ReducedCharge) -> ReducedCharge:
    """Index-shifted functional: weight k picks up k times weight k-1.

    When the top weight of B vanishes, the shifted functional satisfies
    Btilde(gamma(t)) = t * B(gamma(t)).
    """
    w = B.weights
    return ReducedCharge((0,) + tuple(k * w[k - 1] for k in range(1, len(w))))


def line_charges(l: Pencil, proj: Pencil | None = None):
    """Canonical charge of the line and of its projection, both on ambient n.

    The line's charge has leading weight -1 at index n-1; the projected
    line's canonical charge embeds with leading weight -1 at index n-2.
    ``proj`` is pencil_project(l) when the caller has already computed it.
    """
    n = l.ambient
    if n < 2:
        raise InvalidAmbient("line charges need ambient >= 2")
    b_line = charge_of_poly(pencil_canonical(l))
    if proj is None:
        proj = pencil_project(l)
    b_proj_low = charge_of_poly(pencil_canonical(proj))
    b_proj = ReducedCharge(b_proj_low.weights + (0,))
    return b_line, b_proj


def q_line(l: Pencil, proj: Pencil | None = None) -> QuadraticForm:
    """The pencil's quadratic form B_l * tilde(B_pi) - B_pi * tilde(B_l).

    ``proj`` is pencil_project(l) when the caller has already computed it.
    """
    b_line, b_proj = line_charges(l, proj)
    gram = _line_gram(b_line.weights, tilde(b_proj).weights,
                      b_proj.weights, tilde(b_line).weights)
    return QuadraticForm(gram, {"construction": "line", "ambient": l.ambient})


def _line_gram(u, w, x, y):
    """Symmetrized (u w^T - x y^T): entry (i, j) is (u_i w_j + u_j w_i - x_i y_j - x_j y_i) / 2.

    Exact weights are scaled to integers over one common denominator
    (exact.integer_scaled), so each entry is one Fraction; float weights keep
    the float products.
    """
    n = len(u)
    if not all_exact(u + w + x + y):
        return tuple(tuple(0.5 * (u[i] * w[j] + u[j] * w[i]) - 0.5 * (x[i] * y[j] + x[j] * y[i])
                           for j in range(n)) for i in range(n))
    ints, den = integer_scaled(u + w + x + y)
    u, w, x, y = (ints[k * n:(k + 1) * n] for k in range(4))
    den = 2 * den * den
    return tuple(tuple(Fraction(u[i] * w[j] + u[j] * w[i] - x[i] * y[j] - x[j] * y[i], den)
                       for j in range(n)) for i in range(n))


def kernel_of_line(l: Pencil):
    """Exact basis of the common kernel of all charges on the line."""
    B1 = charge_of_poly(l.gen_a)
    B2 = charge_of_poly(l.gen_b)
    return nullspace([list(B1.weights), list(B2.weights)])


def _restricted_gram(Q: QuadraticForm, basis):
    """(rows, den): the Gram matrix [[Q.pair(u, v)]] of Q on the span of an exact basis.

    Kernel bases from ``nullspace`` are mostly zeros, so zero terms are
    skipped.  For an exact form the rows are integers over den: the basis is
    scaled to integers as one group (exact.integer_scaled) and paired with
    the form's integer Gram.  A float form keeps its float sums, and den is
    None.
    """
    if not Q.is_exact():
        images = [[sum((g * x for g, x in zip(row, v) if g and x), Fraction(0))
                   for row in Q.gram] for v in basis]
        return [[sum((x * y for x, y in zip(u, w) if x and y), Fraction(0))
                 for w in images] for u in basis], None
    grows, dg = Q._integer_gram
    ints, db = integer_scaled(x for v in basis for x in v)
    dim = Q.dim
    scaled = [ints[k:k + dim] for k in range(0, len(ints), dim)]
    images = [[sum(g * x for g, x in zip(row, v) if g and x) for row in grows] for v in scaled]
    return [[sum(x * y for x, y in zip(u, w) if x and y) for w in images]
            for u in scaled], dg * db * db


def _weighted(alpha, dx, dy):
    """(a, b, den) with alpha x / dx + y / dy = (a x + b y) / den, for rational alpha > 0."""
    den = math.lcm(dx, dy)
    return (alpha.numerator * (den // dx), alpha.denominator * (den // dy),
            alpha.denominator * den)


@dataclass
class SupportReport:
    vanishing_ok: bool
    kernel_negative_ok: bool
    pairing_ok: bool
    max_vanishing_residual: float
    failures: list

    @property
    def ok(self) -> bool:
        return self.vanishing_ok and self.kernel_negative_ok and self.pairing_ok


@dataclass
class _LineData:
    """What the support check needs of a line, none of it depending on the form.

    ``members`` lists the sampled members in sampling order as (theta,
    gammas); gammas is None when the member's roots could not be certified.
    ``stack`` holds the gammas of the certified members as one float array
    of shape (members, n, n + 1).  ``drop_gammas`` is None when the
    degree-drop member's roots could not be certified (a strict=False line).
    """

    ambient: int
    kernel: list
    members: list
    stack: np.ndarray
    drop_gammas: list | None
    einf: tuple


def _line_data(l: Pencil, samples: int) -> _LineData:
    """The line's _LineData for ``samples`` members, built once per Pencil object.

    The record is memoised on the instance, as Polynomial keeps its roots, so
    verify_support(Q, l) after q_tilde(l) reuses the top level's members.
    """
    memo = vars(l).setdefault("_line_data", {})
    if samples not in memo:
        memo[samples] = _build_line_data(l, samples)
    return memo[samples]


def _build_line_data(l: Pencil, samples: int) -> _LineData:
    n = l.ambient
    gen_roots = []
    for gen in (l.gen_a, l.gen_b):
        try:  # a strict=False line's generator may have no real distinct roots
            gen_roots += [abs(float(x)) for x in gen.roots().finite]
        except (ComplexRoots, NotDistinctRoots):
            pass
    root_cap = 1e7 * (1.0 + max(gen_roots, default=1.0))
    # Pencil.member's coefficients: a Fraction times a float is the float
    # product, so the generators are converted to float once per line
    pairs = [(float(a), float(b)) for a, b in zip(l.gen_a.coeffs, l.gen_b.coeffs)]
    thetas = [math.pi * (k + 0.5) / samples for k in range(samples)]
    rows = [[c * a + s * b for a, b in pairs]
            for c, s in ((math.cos(theta), math.sin(theta)) for theta in thetas)]
    members = []
    for theta, roots in zip(thetas, member_roots(rows, n)):
        if roots is None:
            members.append((theta, None))
            continue
        if roots[-1] == PLUS_INFINITY:
            continue
        if max(abs(x) for x in roots) > root_cap:
            # member within float noise of the degree-drop point; the
            # degree-drop member's pairings against gamma(+inf) cover it
            continue
        members.append((theta, [gamma(t, n) for t in roots]))
    rooted = [gam for _, gam in members if gam is not None]
    stack = np.array(rooted, dtype=float).reshape(len(rooted), n, n + 1)
    try:
        drop_gammas = [gamma(t, n) for t in pencil_canonical(l).roots().finite]
    except (ComplexRoots, NotDistinctRoots):
        drop_gammas = None
    return _LineData(n, kernel_of_line(l), members, stack, drop_gammas,
                     gamma(PLUS_INFINITY, n))


def verify_support(Q: QuadraticForm, l: Pencil, samples: int = 50,
                   margin: float = 0.0, vanish_tol: float = 1e-8,
                   grid: int = 100) -> SupportReport:
    """Three-part support check of a form against a line.

    (a) vanishing on the twisted curve.  For an exact form this is proved on
        the whole curve, +inf included: t -> Q(gamma(t)) is the polynomial
        with coefficients c_m = sum over i+j=m of G_ij / (i! j!), and
        c_2n = G_nn / (n!)^2 is the value at +inf, so all c_m = 0 is the
        identity.  Otherwise each point of the parameter grid and +inf whose
        value is not zero is reported.  A float form is checked on the grid
        by its residual relative to the absolute-term sum;
    (b) strict negative definiteness on the exact common kernel of the line;
    (c) alternating-sign positivity of the pairings gamma(t_i), gamma(t_j)
        over sampled members of the line, batched over all members.
    """
    if Q.dim != l.ambient + 1:
        raise ValueError("vector length mismatch")
    data = _line_data(l, samples)
    return _check_support(_form_parts(Q, data), data, margin, vanish_tol, grid)


@dataclass
class _FormParts:
    """What the support check reads of one form on one line's data.

    ``coeffs`` is (ints, den), the vanishing coefficients c_0, ..., c_2n of
    an exact form as integers over den; a float form has None there and is
    kept in ``form`` for its grid check.  ``restricted`` is (rows, den), the
    form's Gram matrix on the line's kernel (_restricted_gram); ``total``
    and ``abssum`` are the float member pairings and their absolute-term
    sums, of shape (members, n, n); ``drop`` holds (value, absolute-term sum)
    of each degree-drop gamma against gamma(+inf).  ``exact_pair(key, u, v)``
    is the exact pairing P(u, v), computed once per key.  Every part is
    linear in the form.
    """

    form: QuadraticForm | None
    coeffs: tuple | None
    restricted: tuple
    total: np.ndarray
    abssum: np.ndarray
    drop: list
    exact_pair: Callable

    def combined(self, alpha, other: "_FormParts") -> "_FormParts":
        """The parts of alpha * (this form) + (other form); both exact, alpha > 0 rational.

        The exact parts combine on integers over one denominator (_weighted);
        no Fraction is formed.  The float pairings become
        alpha * T + T' with absolute-term sum alpha * A + A', which bounds the
        combined form's own sum; the rounding of alpha * T + T' stays near
        1e-15 of that bound, far inside the cut max(margin, 1e-9), so a
        pairing outside the cut has the sign of its exact value, as in the
        combined form's own check.  A pairing within the cut is decided
        exactly as alpha * P(u, v) + P'(u, v) from the two forms' cached
        exact pairings.
        """
        fa = float(alpha)
        (c1, e1), (c2, e2) = self.coeffs, other.coeffs
        a, b, e = _weighted(alpha, e1, e2)
        (r1, d1), (r2, d2) = self.restricted, other.restricted
        ra, rb, d = _weighted(alpha, d1, d2)
        return _FormParts(
            None,
            ([a * x + b * y for x, y in zip(c1, c2)], e),
            ([[ra * x + rb * y for x, y in zip(s1, s2)] for s1, s2 in zip(r1, r2)], d),
            fa * self.total + other.total,
            fa * self.abssum + other.abssum,
            [(fa * v1 + v2, fa * s1 + s2) for (v1, s1), (v2, s2) in zip(self.drop, other.drop)],
            lambda key, u, v: alpha * self.exact_pair(key, u, v) + other.exact_pair(key, u, v))


def _form_parts(Q: QuadraticForm, data: _LineData) -> _FormParts:
    """The parts of one form on a line's data."""
    memo = {}

    def exact_pair(key, u, v):
        if key not in memo:
            memo[key] = Q.pair_exact(u, v)
        return memo[key]

    exact = Q.is_exact()
    total, abssum = _member_pairings(Q, data.stack)
    return _FormParts(None if exact else Q, _vanishing_coeffs(Q) if exact else None,
                      _restricted_gram(Q, data.kernel), total, abssum,
                      [Q.pair_float_with_scale(g, data.einf) for g in data.drop_gammas or ()],
                      exact_pair)


def _check_support(parts: _FormParts, data: _LineData, margin, vanish_tol=1e-8, grid=100,
                   first=False):
    """The support check of verify_support on one form's parts.

    first=True asks for the verdict alone, as a rung of the alpha ladder
    does: after a failing vanishing or kernel part the pairings are skipped
    and pairing_ok reads False.
    """
    n = data.ambient
    if parts.coeffs is not None:
        max_resid, failures = 0.0, _exact_vanishing_failures(parts.coeffs, n, grid)
    else:
        max_resid, failures = _float_vanishing_failures(parts.form, n, grid, vanish_tol)
    ok_a = not failures

    rows, den = parts.restricted
    ok_b = is_negative_definite(rows)
    if not ok_b:
        failures.append(("kernel", rows if den is None
                         else [[Fraction(x, den) for x in row] for row in rows]))
    if first and failures:
        return SupportReport(ok_a, ok_b, False, max_resid, failures)

    bad = _member_pairing_failures(parts, data, margin)
    # degree-drop member (r_1, ..., r_(n-1), +inf): only the pairs against
    # gamma(+inf) are strict at this level (the finite pairs are the projected
    # line's conditions, verified one ambient lower)
    if data.drop_gammas is None:
        bad.append(("pairing-inf-roots", n))
    for i, (g, (val, abssum)) in enumerate(zip(data.drop_gammas or (), parts.drop)):
        if abs(val) <= max(margin, 1e-9) * abssum:
            val = parts.exact_pair(("inf", i), g, data.einf)
        signed = val if (i + 1 + n) % 2 == 0 else -val
        if not signed > 0:
            bad.append(("pairing-inf", i + 1, n, float(val)))
    failures.extend(bad)
    return SupportReport(ok_a, ok_b, not bad, max_resid, failures)


def _grid_points(grid):
    """The vanishing check's parameter grid: ``grid`` points k/3 around 0."""
    return [Fraction(k - grid // 2, 3) for k in range(grid)]


def _vanishing_coeffs(Q):
    """Coefficients c_m = sum over i+j=m of G_ij / (i! j!) of t -> Q(gamma(t)), Q exact.

    Every term of the form's integer Gram is brought over (n!)^2, so the
    coefficients come as (ints, den): integers over one denominator.
    """
    n = Q.ambient
    fact = [math.factorial(k) for k in range(n + 1)]
    top = fact[n] * fact[n]
    grows, dg = Q._integer_gram
    sums = [0] * (2 * n + 1)
    for i, row in enumerate(grows):
        for j, g in enumerate(row):
            if g:
                sums[i + j] += g * (top // (fact[i] * fact[j]))
    return sums, dg * top


def _exact_vanishing_failures(coeffs, n, grid):
    ints, den = coeffs
    if not any(ints):
        return []
    coeffs = [Fraction(c, den) for c in ints]
    failures = [("vanishing", t, val) for t in _grid_points(grid)
                if (val := poly_eval(coeffs, t)) != 0]
    val = coeffs[-1] * math.factorial(n) ** 2    # G_nn, the value at +inf
    if val != 0:
        failures.append(("vanishing", PLUS_INFINITY, val))
    return failures


def _float_vanishing_failures(Q, n, grid, vanish_tol):
    max_resid = 0.0
    failures = []
    for t in _grid_points(grid) + [PLUS_INFINITY]:
        g = gamma(float(t) if t != PLUS_INFINITY else t, n)
        val = Q(g)
        scale = sum(abs(float(Q.gram[i][j])) * abs(float(g[i])) * abs(float(g[j]))
                    for i in range(n + 1) for j in range(n + 1))
        resid = abs(float(val)) / max(scale, 1.0)
        max_resid = max(max_resid, resid)
        if resid > vanish_tol:
            failures.append(("vanishing", t, val))
    return max_resid, failures


def _member_pairings(Q, stack):
    """Float pairings P(gamma_a, gamma_b) of every sampled member, with absolute-term sums.

    All pairings of all members are summed at once, term by term in the
    order of pair_float_with_scale, so every value and sum is the scalar
    loop's to the bit.
    """
    m = stack.shape[1]
    total = np.zeros((len(stack), m, m))
    abssum = np.zeros((len(stack), m, m))
    for i, row in enumerate(Q._float_rows):
        left = stack[:, :, i]
        for j, g in row:
            term = (left * g)[:, :, None] * stack[:, None, :, j]
            total += term
            abssum += np.abs(term)
    return total, abssum


def _member_pairing_failures(parts, data, margin):
    """Records where (-1)^(i+j) P(gamma_i, gamma_j) fails > 0 on a sampled member.

    A value within max(margin, 1e-9) of its absolute-term sum, or not
    finite, is decided exactly, so wildly different magnitudes across the
    matrix cannot mask a sign.  Members whose roots failed certification
    report ("pairing-roots", theta) in their place in the sampling order.
    """
    total = parts.total
    m = total.shape[1]
    sign = (-1.0) ** np.add.outer(np.arange(m), np.arange(m))
    with np.errstate(invalid="ignore"):
        flagged = ~(np.abs(total) > max(margin, 1e-9) * parts.abssum)
        wrong = ~(sign * total > 0)
    suspect = (flagged | wrong) & np.triu(np.ones((m, m), dtype=bool), 1)
    rooted = [gam for _, gam in data.members if gam is not None]
    found = {}
    for (k, a, b), exact, val in zip(np.argwhere(suspect).tolist(), flagged[suspect].tolist(),
                                     total[suspect].tolist()):
        if exact:
            val = parts.exact_pair((k, a, b), rooted[k][a], rooted[k][b])
            if (val if (a + b) % 2 == 0 else -val) > 0:
                continue
        found.setdefault(k, []).append((a + 1, b + 1, float(val)))
    failures = []
    k = 0
    for theta, gam in data.members:
        if gam is None:
            failures.append(("pairing-roots", theta))
            continue
        failures.extend(("pairing", theta) + f for f in found.get(k, ()))
        k += 1
    return failures


def _embedded(Q: QuadraticForm) -> QuadraticForm:
    """A form of ambient n - 1 as a form of ambient n: one zero row and column more."""
    rows = [tuple(row) + (Fraction(0),) for row in Q.gram]
    rows.append(tuple(Fraction(0) for _ in range(Q.dim + 1)))
    return QuadraticForm(tuple(rows))


def q_tilde(l: Pencil, samples: int = 50) -> QuadraticForm:
    """Inductive support form: alpha * q_line + embedded form of the projection.

    The base ambient 1 returns the zero form.  The weight alpha starts at 1
    and doubles until the support check of verify_support passes; the line's
    data (kernel, member roots, degree-drop member) is computed once per
    level.  Every input of the check is linear in alpha, so on an exact line
    the parts of the line form and of the embedded lower form are computed
    once per level and each rung combines them on integers
    (_FormParts.combined); only the passing form is built.  Failure to find
    a weight below the cap raises AlphaSearchFailed with the last
    candidate's own report.
    """
    n = l.ambient
    if n == 1:
        return zero_form(2)
    proj = pencil_project(l)
    lower = _embedded(q_tilde(proj, samples=samples))
    line_form = q_line(l, proj)
    data = _line_data(l, samples)

    if line_form.is_exact() and lower.is_exact():
        line_parts, lower_parts = _form_parts(line_form, data), _form_parts(lower, data)
        (r1, d1), (r2, d2) = line_form._integer_gram, lower._integer_gram

        def rung(alpha):
            return line_parts.combined(alpha, lower_parts)

        def candidate(alpha):
            a, b, d = _weighted(alpha, d1, d2)
            return QuadraticForm(tuple(tuple(Fraction(a * x + b * y, d) for x, y in zip(s1, s2))
                                       for s1, s2 in zip(r1, r2)))
    else:   # a float line: each candidate's float Gram is rounded on its own
        def candidate(alpha):
            return line_form.scaled(alpha).plus(lower)

        def rung(alpha):
            return _form_parts(candidate(alpha), data)

    alpha = Fraction(1)
    while alpha <= ALPHA_CAP:
        if _check_support(rung(alpha), data, SUPPORT_MARGIN, first=True).ok:
            meta = {"construction": "inductive", "alpha": alpha, "ambient": n}
            return QuadraticForm(candidate(alpha).gram, meta)
        alpha *= 2
    last = candidate(alpha / 2)
    report = _check_support(_form_parts(last, data), data, SUPPORT_MARGIN)
    raise AlphaSearchFailed(f"no alpha below {ALPHA_CAP}; last failures: {report.failures[:3]}")


def dual_form(Q: QuadraticForm) -> QuadraticForm:
    """Dual form on the dual space: the exact Gram inverse.

    A float Gram is inverted at its binary values and each entry rounded
    once, so the dual Gram stays symmetric.  Raises SingularForm.
    """
    gram = inv([list(r) for r in Q.gram])
    if not Q.is_exact():
        gram = [[float(x) for x in row] for row in gram]
    return QuadraticForm(gram, {"construction": "dual"})


def in_WQ(Z: CentralCharge, Q: QuadraticForm) -> bool:
    """Dual-form membership of a central charge for a signature-(2, rho-2) form.

    Checks Q*(f,g)^2 < Q*(f) Q*(g) and Q*(f) > 0 with f the imaginary and g
    the real part; equivalent to Q being negative definite on Ker Z
    (oracles.negative_on_kernel decides that directly).
    """
    rho = Q.dim
    if Q.inertia() != (2, rho - 2, 0):
        raise WrongSignature(f"need signature (2, {rho - 2}), got {Q.inertia()}")
    dual = dual_form(Q)
    f = Z.imag.weights
    g = Z.real.weights
    qff = dual(f)
    qgg = dual(g)
    qfg = dual.pair(f, g)
    return (qfg * qfg < qff * qgg) and (qff > 0)


@dataclass
class DeformReport:
    """``deform_form``'s segment certificate and its sampled cone containment."""

    lower_certified: bool
    upper_samples: int
    upper_failures: list
    params: dict

    @property
    def ok(self) -> bool:
        """Certified segment and no failed cone sample."""
        return self.lower_certified and not self.upper_failures


def deform_form(h, f1, f2, Q: QuadraticForm, d, N,
                samples: int = 2000, seed: int = 0):
    """Deformation of a support form along the segment of kernels of f1 + t f2.

    In the adapted coordinates x = W v (rows h, f1, f2 first) Q reads
    g_hat = [[A, B], [B^T, C]], split after x1, and Ker(h, f1) is x0 = x1 = 0:
    the hypotheses are C < 0 and (Haynsworth) A - B C^-1 B^T > 0.  Builds the
    form D1~ x0^2 + D2~ x1 (x1 + N x2) - sum_(k>=3) x_k^2 - eps (x1^2
    + (x1 + N x2)^2) with the construction's parameter choices, pulled back to
    lattice coordinates, and checks its two cone containments.  On
    Ker(h, f1 + t f2), x0 = 0 and x1 = -t x2, where the form is
    x2^2 p(t) - sum_(k>=3) x_k^2; p < 0 on t in [0, N] is decided exactly
    (``lower_certified``).  neg(out) inside M_d union neg(Q) is sampled at
    ``samples`` points of neg(out).

    Returns (QuadraticForm, DeformReport); raises AssumptionViolated when a
    hypothesis fails: h, f1, f2 independent, then C < 0, then the signature.
    """
    h, f1, f2 = (tuple(map(Fraction, w)) for w in (h, f1, f2))
    rho = len(h)
    if len(f1) != rho or len(f2) != rho or Q.dim != rho:
        raise AssumptionViolated("dimension mismatch")
    if not (d > 0 and N > 0):
        raise AssumptionViolated("need d > 0 and N > 0")
    d, N = Fraction(d), Fraction(N)
    w_rows = _complete_basis([list(h), list(f1), list(f2)], rho)
    if w_rows is None:
        raise AssumptionViolated("h, f1, f2 must be linearly independent")

    w_inv = inv(w_rows)
    gram = [[Fraction(x) for x in row] for row in Q.gram]
    g_hat = mat_mul(list(zip(*w_inv)), mat_mul(gram, w_inv))
    if not is_negative_definite([row[2:] for row in g_hat[2:]]):
        raise AssumptionViolated("Q must be negative definite on Ker h /\\ Ker f1")
    (s00, s01), (_, s11) = _schur(g_hat, 0)
    if not (s00 > 0 and s00 * s11 > s01 * s01):
        raise AssumptionViolated(f"form must have signature (2, {rho - 2})")
    big_d, mu = _model_cone_parameters(g_hat, rho)

    eps = min(Fraction(1, 2) / (N * N), Fraction(1, 10 ** 6))
    d2t = big_d + 1
    d1t = (N * N * (big_d + 1) ** 2 / 4 - 1) / d + big_d + 1
    g11, g12, g22 = d2t - 2 * eps, N * d2t / 2 - eps * N, -eps * N * N
    ghat_tilde = [[Fraction(-int(i == j)) for j in range(rho)] for i in range(rho)]
    ghat_tilde[0][0] = d1t
    ghat_tilde[1][1:3], ghat_tilde[2][1:3] = [g11, g12], [g12, g22]
    gram = mat_mul(list(zip(*w_rows)), mat_mul(ghat_tilde, w_rows))
    out = QuadraticForm(tuple(tuple(row) for row in gram),
                        {"construction": "deform", "D": big_d, "mu": mu,
                         "D1": d1t, "D2": d2t, "eps": eps, "N": N, "d": d})
    # ghat_tilde is D1~ (+) [[g11, g12], [g12, g22]] (+) (-I), and g22 < 0
    if not (d1t > 0 and g11 * g22 < g12 * g12):
        raise AssumptionViolated("deformed form lost signature (2, rho-2)")

    # p(t) < 0 on [0, N]: at both ends, and at the vertex of a concave p
    ts = [Fraction(0), N] + ([g12 / g11] if g11 < 0 and 0 < g12 / g11 < N else [])
    lower = all((g11 * t - 2 * g12) * t + g22 < 0 for t in ts)
    n_upper, upper_fail = _deform_verify(ghat_tilde, g_hat, w_rows, w_inv, d, samples, seed)
    return out, DeformReport(lower, n_upper, upper_fail, dict(out.meta))


def _complete_basis(rows, width):
    """Complete independent rows to an invertible matrix with standard vectors.

    The candidates are the columns of one ``rref``: the rows, then
    e_0..e_(width-1); its pivot columns are the first independent ones.
    """
    k = len(rows)
    cols = [[row[i] for row in rows] + [int(i == j) for j in range(width)]
            for i in range(width)]
    pivots = rref(cols)[1]
    if pivots[:k] != list(range(k)):
        return None
    return ([[Fraction(x) for x in row] for row in rows]
            + [[Fraction(int(i == c - k)) for i in range(width)] for c in pivots[k:]])


def _schur(g_hat, shift):
    """A - B (C + shift I)^-1 B^T for g_hat = [[A, B], [B^T, C]] split after x1."""
    c_inv = inv([[x + shift * (i == j) for j, x in enumerate(row[2:])]
                 for i, row in enumerate(g_hat[2:])])
    y = [_apply(c_inv, row[2:]) for row in g_hat[:2]]
    return [[g_hat[i][j] - _dot(g_hat[i][2:], y[j]) for j in range(2)] for i in range(2)]


def _model_cone_parameters(g_hat, rho):
    """Smallest doubling D with neg(model_D) inside neg(Q), via mu model_D - g_hat >= 0.

    model_D = diag(D, D, -1, ..., -1), and mu is halved until C + mu I < 0
    (C < 0 by hypothesis, so this ends).  The lower block -(C + mu I) of
    mu model_D - g_hat is then positive definite, so the whole is
    semidefinite iff mu D I - T is, where T = A - B (C + mu I)^-1 B^T: two
    diagonal entries and a determinant per rung.
    """
    mu = Fraction(1)
    while not is_negative_definite([[g_hat[i][j] + (mu if i == j else 0)
                                     for j in range(2, rho)] for i in range(2, rho)]):
        mu /= 2
    (t00, t01), (_, t11) = _schur(g_hat, mu)
    big_d = Fraction(1)
    for _ in range(120):
        a, c = mu * big_d - t00, mu * big_d - t11
        if a >= 0 and c >= 0 and a * c >= t01 * t01:
            return big_d, mu
        big_d *= 2
    raise AssumptionViolated("could not fit the model cone (doubling exhausted)")


def _deform_verify(ghat_tilde, g_hat, w_rows, w_inv, d, samples, seed):
    """(samples, failures) of neg(out) inside M_d union neg(Q), in adapted coordinates.

    A draw is x = W v, v standard normal.  Where out(x) >= 0, the positive
    part of out (x0 and the positive eigendirection of the (x1, x2) block) is
    scaled by sqrt(U neg / pos), U uniform in [0, 1), into neg(out).  x is
    decided on integers at its binary value: out(x) < 0 again (else it is not
    counted), M_d on x0, x1, x2 (h v, f1 v, f2 v) and neg(Q) on g_hat.  A
    failure is reported as the lattice vector W^-1 x.
    """
    rng = np.random.default_rng(seed)
    rho = len(w_rows)
    w, d1 = np.array(w_rows, dtype=float), float(ghat_tilde[0][0])
    lam, vecs = np.linalg.eigh(np.array([row[1:3] for row in ghat_tilde[1:3]], dtype=float))
    g_out, g_q = ([ints[i:i + rho] for i in range(0, len(ints), rho)]
                  for ints, _ in (integer_scaled(x for row in m for x in row)
                                  for m in (ghat_tilde, g_hat)))
    upper_fail = []
    n_upper = 0
    for _ in range(samples):
        x = w @ rng.standard_normal(rho)
        y_neg, y_pos = vecs.T @ x[1:3]
        pos = d1 * x[0] ** 2 + lam[1] * y_pos ** 2
        neg = x[3:] @ x[3:] - lam[0] * y_neg ** 2
        if pos >= neg:
            s = math.sqrt(rng.uniform() * neg / pos)
            x[0] *= s
            x[1:3] += (s - 1) * y_pos * vecs[:, 1]
        v, den = integer_scaled(x.tolist())
        if not _dot(v, _apply(g_out, v)) < 0:
            continue
        a, b1, b2 = v[:3]
        in_md = (b1 * b2 < 0 and d.denominator * a * a < d.numerator * b1 * b1
                 and d.denominator * a * a < d.numerator * b2 * b2)
        if not (in_md or _dot(v, _apply(g_q, v)) < 0):
            upper_fail.append([c / den for c in _apply(w_inv, v)])
        n_upper += 1
    return n_upper, upper_fail


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _apply(rows, v):
    return [_dot(row, v) for row in rows]
