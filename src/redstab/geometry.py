"""Polarized-variety numerics: twisted characters, discriminants, the
threefold slice, and the abelian-surface pairing.

Threefold lattice coordinates are v = (H^3 ch_0, H^2 ch_1, H ch_2, ch_3).
The slice charge is Re + i Im with

    Re = -ch_3^b + b H ch_2^b + a H^2 ch_1^b,
    Im = H ch_2^b - (alpha^2/2) H^3 ch_0,

twisting by beta.  Its kernel parameters recover the root formulas
(3b +- sqrt(9 b^2 + 24 a))/2 (shifted by beta) on the real side and
(beta -+ alpha, +inf) on the imaginary side; the validity region
a > alpha^2/6 + |b| alpha / 2 is exactly strict interlacing of the two.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .charge import (
    ALL_NONNEG,
    ALL_NONPOS,
    CentralCharge,
    ReducedCharge,
    decompose,
    eval_charge,
    gamma,
    reduced_charge,
)
from .errors import (
    AmbientMismatch,
    IndexOutOfRange,
    InvalidParams,
    LatticeMismatch,
    WrongSignature,
)
from .exact import coerce, exact_sqrt, inertia, is_exact
from .interlace import PLUS_INFINITY, RootTuple, poly_eval

K_GRID_MARGIN = Fraction(1, 1000)  # relative inset from the K-interval ends


def twisted_chern(v, beta, k: int):
    """k-th beta-twisted polarized component: sum_j (-beta)^(k-j)/(k-j)! v_j."""
    n = len(v) - 1
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"component {k} outside 0..{n}")
    beta, *v = coerce((beta, *v))
    return sum((-beta) ** (k - j) / math.factorial(k - j) * v[j] for j in range(k + 1))


def delta_H(v):
    """Polarized Bogomolov discriminant; ambient 2 or 3."""
    if len(v) not in (3, 4):
        raise AmbientMismatch("delta_H needs ambient 2 or 3")
    return v[1] * v[1] - 2 * v[0] * v[2]


def nabla_beta(v, beta):
    """Cubic higher discriminant 4 (H ch_2^b)^2 - 6 (H^2 ch_1^b) ch_3^b."""
    if len(v) != 4:
        raise AmbientMismatch("nabla needs ambient 3")
    ch1 = twisted_chern(v, beta, 1)
    ch2 = twisted_chern(v, beta, 2)
    ch3 = twisted_chern(v, beta, 3)
    return 4 * ch2 * ch2 - 6 * ch1 * ch3


def q_K_beta(v, K, beta):
    """The Bogomolov-Gieseker family member K * delta_H + nabla^beta."""
    if len(v) != 4:
        raise AmbientMismatch("q_K needs ambient 3")
    return K * delta_H(v) + nabla_beta(v, beta)


@dataclass(frozen=True)
class ThreefoldParams:
    """Slice parameters (alpha, beta, a, b); conversions may leave some unset.

    The four slots are coerced as one group (exact.coerce).
    """

    alpha: object = None
    beta: object = None
    a: object = None
    b: object = None

    def __post_init__(self):
        values = coerce((self.alpha, self.beta, self.a, self.b))
        for name, x in zip(("alpha", "beta", "a", "b"), values):
            object.__setattr__(self, name, x)

    @property
    def is_complete(self) -> bool:
        return None not in (self.alpha, self.beta, self.a, self.b)

    @property
    def is_valid(self) -> bool:
        """The slice validity inequality a > alpha^2/6 + |b| alpha/2."""
        if not self.is_complete or not self.alpha > 0:
            return False
        return self.a > self.alpha * self.alpha / 6 + abs(self.b) * self.alpha / 2


def threefold_charge(p: ThreefoldParams) -> CentralCharge:
    """The slice central charge as weights on the ambient-3 lattice."""
    if not p.is_complete:
        raise InvalidParams("all four parameters are required")
    if not p.is_valid:
        raise InvalidParams("parameters violate a > alpha^2/6 + |b| alpha/2")
    alpha, beta, a, b = p.alpha, p.beta, p.a, p.b
    real = ReducedCharge((
        beta ** 3 / 6 + b * beta ** 2 / 2 - a * beta,
        a - b * beta - beta ** 2 / 2,
        beta + b,
        -1,
    ))
    imag = ReducedCharge(((beta ** 2 - alpha ** 2) / 2, -beta, 1, 0))
    return CentralCharge(real, imag)


def threefold_kernel_tuples(p: ThreefoldParams):
    """Kernel parameter tuples (real part, imaginary part) of the slice charge.

    Real roots are beta + (3b - s)/2, beta, beta + (3b + s)/2 with
    s = sqrt(9 b^2 + 24 a); imaginary roots are beta -+ alpha and +inf.
    Returns None in a slot whose roots fail to be real and distinct.
    """
    alpha, beta, a, b = p.alpha, p.beta, p.a, p.b
    disc = 9 * b * b + 24 * a
    real_tuple = None
    if disc > 0:
        s = exact_sqrt(disc)
        if s is None:
            s = math.sqrt(float(disc))
        vals = sorted((beta + (3 * b - s) / 2, beta + 0 * s, beta + (3 * b + s) / 2))
        if vals[0] < vals[1] < vals[2]:
            real_tuple = RootTuple(tuple(vals))
    imag_tuple = None
    if alpha > 0:
        imag_tuple = RootTuple((beta - alpha, beta + alpha, PLUS_INFINITY))
    return real_tuple, imag_tuple


def params_from_tuples(t) -> ThreefoldParams:
    """Inversion of the kernel-root formulas.

    A 2-tuple fixes the imaginary side: alpha = (t2 - t1)/2, beta = (t1+t2)/2.
    A 3-tuple fixes the real side with beta = t2: 3b = t1 + t3 - 2 t2 and
    24a = (t3 - t1)^2 - 9 b^2.  The remaining parameters stay None.
    """
    t = t if isinstance(t, RootTuple) else RootTuple(tuple(t))
    if t.has_infinity:
        raise InvalidParams("conversion needs finite tuples")
    e = t.entries
    if t.n == 2:
        return ThreefoldParams(alpha=(e[1] - e[0]) / 2, beta=(e[1] + e[0]) / 2)
    if t.n == 3:
        b = (e[0] + e[2] - 2 * e[1]) / 3
        a = ((e[2] - e[0]) ** 2 - 9 * b * b) / 24
        return ThreefoldParams(beta=e[1], a=a, b=b)
    raise InvalidParams("expected a tuple of length 2 or 3")


def max_alpha(a, b):
    """Supremum of valid alpha for fixed (a, b): (sqrt(9b^2+24a) - 3|b|)/2."""
    disc = 9 * b * b + 24 * a
    if not disc > 0:
        return 0
    s = exact_sqrt(disc)
    if s is None:
        s = math.sqrt(float(disc))
    return (s - 3 * abs(b)) / 2


def validity_iff_interlaced(p: ThreefoldParams):
    """Pair (validity inequality holds, kernel tuples strictly interlaced).

    In y = x - beta the real kernel cubic is P(y) = y^3 - 3b y^2 - 6a y and
    the imaginary kernel tuple is (-alpha, alpha, +inf); they interlace
    exactly when P(-alpha) > 0 > P(alpha), read here exactly on exact input.
    As P(-+alpha) = +-alpha (6a - alpha^2 -+ 3b alpha), that is the inequality.
    """
    if not p.is_complete or not p.alpha > 0:
        raise InvalidParams("need complete parameters with alpha > 0")
    cubic = (0, -6 * p.a, -3 * p.b, 1)
    return (p.is_valid, poly_eval(cubic, -p.alpha) > 0 > poly_eval(cubic, p.alpha))


@dataclass
class FamilyCheckReport:
    verdict: str
    coherent: bool
    inequalities_hold: bool
    scan: str
    K_range: tuple | None
    K_failures: list
    boundary: bool

    @property
    def agree(self) -> bool:
        return self.coherent == self.inequalities_hold


def family_equiv_check(v, t, beta=None, grid: int = 64) -> FamilyCheckReport:
    """Consistency check: the discriminant-family inequalities vs the sign verdict.

    With beta fixed, scans K * delta_H(v) + nabla^beta(v) >= 0 over a K grid
    inside (3a, 3a + alpha_max^2/2), the interval the slice parameters of t
    give at beta = t2; a fixed beta sees only a one-parameter subfamily and
    cannot detect every incoherent vector.  The default (beta=None)
    therefore sweeps the whole two-parameter family of pencils through the
    charge of t: each admissible pair (beta - alpha, beta + alpha)
    interleaving t gives its own (K, beta), exact on rational data (see
    _family_value).  The report labels the scan.  This is a consistency
    test, not a proof.
    """
    t = t if isinstance(t, RootTuple) else RootTuple(tuple(t))
    if t.n != 3 or t.has_infinity:
        raise AmbientMismatch("family check needs a finite 3-tuple")
    dec = decompose(v, t)  # raises NotInKernel when B_t(v) != 0
    if beta is not None:
        report = _fixed_beta_scan(v, t, beta, grid)
    else:
        report = _pencil_family_scan(v, t, grid)
    report.verdict = dec.verdict
    report.coherent = dec.verdict in (ALL_NONNEG, ALL_NONPOS)
    report.boundary = dec.boundary
    return report


def _inequality(dH, nab, K):
    """The family value K * delta_H + nabla^beta and its float scale."""
    return K * dH + nab, max(abs(float(dH)) * abs(float(K)), abs(float(nab)), 1.0)


def _fixed_beta_scan(v, t, beta, grid):
    pp = params_from_tuples(t)
    amax = max_alpha(pp.a, pp.b)
    lo = 3 * pp.a
    hi = 3 * pp.a + amax * amax / 2
    # the grid values K join the group of the data they are paired with
    k_lo, span, *_ = coerce((lo, hi - lo, beta, *v))
    exact = is_exact(span)
    dH, nab = delta_H(v), nabla_beta(v, beta)
    failures = []
    for i in range(grid):
        frac = K_GRID_MARGIN + (1 - 2 * K_GRID_MARGIN) * Fraction(i, max(grid - 1, 1))
        K = k_lo + frac * span
        if exact:  # no float scale: exact data may lie beyond the float range
            holds = K * dH + nab >= 0
        else:
            val, scale = _inequality(dH, nab, K)
            holds = float(val) >= -1e-12 * scale
        if not holds:
            failures.append((K, beta))
    return FamilyCheckReport("", False, not failures,
                             f"fixed beta={beta}", (lo, hi), failures, False)


def _family_value(v, dH, Bt, r1, r2):
    """Normalized inequality value of the pencil with drop member (r1, r2, inf).

    The member M = x2 B_r - x1 B_t, with x_i the charges' values at
    gamma(beta), vanishes at beta = (r1 + r2)/2 by construction, so its
    cubic c3 x^3 + c2 x^2 + c1 x + c0 is (x - beta) q(x) with a quadratic q.
    M has three distinct real roots with beta in the middle exactly when
    c3 q(beta) < 0; the outer roots then have sum -q1/c3 and product q0/c3,
    which give the slice parameters b and a at beta and so K, with no root
    extraction.  Returns (value / scale, K, beta), or None when the middle
    root test fails.
    """
    alpha = (r2 - r1) / 2
    beta = (r1 + r2) / 2
    Br = reduced_charge(RootTuple((r1, r2, PLUS_INFINITY)))
    g_beta = gamma(beta, 3)
    x1 = eval_charge(Br, g_beta)
    x2 = eval_charge(Bt, g_beta)
    # the member's coefficients up to the factor 3! of poly_of_charge
    c0, c1, c2, c3 = (
        (x2 * wr - x1 * wt) / math.factorial(k)
        for k, (wr, wt) in enumerate(zip(Br.weights, Bt.weights)))
    q1 = c2 + beta * c3
    q0 = c1 + beta * q1
    if not c3 * ((c3 * beta + q1) * beta + q0) < 0:
        return None
    # the outer roots e0 < e2 around e1 = beta: 3b = e0 + e2 - 2 beta,
    # 24a = (e2 - e0)^2 - 9 b^2 as in params_from_tuples
    total, product = -q1 / c3, q0 / c3
    b = (total - 2 * beta) / 3
    a = (total * total - 4 * product - 9 * b * b) / 24
    K = (alpha * alpha + 6 * a) / 2
    val, scale = _inequality(dH, nabla_beta(v, beta), K)
    return (float(val) / scale, K, beta)


def _pencil_family_scan(v, t, grid):
    side = max(6, int(round(math.sqrt(grid))))
    t1, t2, t3 = t.entries
    Bt = reduced_charge(t)
    dH = delta_H(v)
    failures = []
    best = None  # (normalized value, r1, r2)
    for i in range(1, side):
        r1 = t1 + (t2 - t1) * Fraction(i, side)
        for j in range(1, side):
            r2 = t2 + (t3 - t2) * Fraction(j, side)
            out = _family_value(v, dH, Bt, r1, r2)
            if out is None:
                continue
            norm, K, beta = out
            if best is None or norm < best[0]:
                best = (norm, r1, r2)
            if norm < -1e-9:
                failures.append((K, beta))
    # the violating set can be thin: compass-search refinement around the
    # smallest normalized value before concluding the family holds; the
    # steps are a share of each interval, halved exactly
    if not failures and best is not None:
        cur, r1, r2 = best
        share = Fraction(1, side)
        inset = Fraction(1, 10 ** 9)
        for _ in range(60):
            step1, step2 = (t2 - t1) * share, (t3 - t2) * share
            moved = False
            for d1, d2 in ((step1, 0), (-step1, 0), (0, step2), (0, -step2)):
                c1 = min(max(r1 + d1, t1 + inset), t2 - inset)
                c2 = min(max(r2 + d2, t2 + inset), t3 - inset)
                out = _family_value(v, dH, Bt, c1, c2)
                if out is not None and out[0] < cur:
                    cur, r1, r2 = out[0], c1, c2
                    moved = True
                    if cur < -1e-9:
                        failures.append((out[1], out[2]))
                        break
            if failures:
                break
            if not moved:
                share /= 2
                if share < Fraction(1, 10 ** 7):
                    break
    return FamilyCheckReport("", False, not failures,
                             "pencil family", None, failures, False)


# ---------------------------------------------------------------------------
# abelian-surface pairing on an unpolarized lattice


@dataclass(frozen=True)
class NSLattice:
    """Neron-Severi intersection form; Hodge index signature (1, rho-1)."""

    gram: tuple

    def __post_init__(self):
        g = tuple(tuple(row) for row in self.gram)
        object.__setattr__(self, "gram", g)
        rho = len(g)
        if any(len(row) != rho for row in g):
            raise ValueError("gram must be square")
        for i in range(rho):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram must be symmetric")
        if inertia([list(r) for r in g]) != (1, rho - 1, 0):
            raise WrongSignature(f"need signature (1, {rho - 1})")

    @property
    def rho(self) -> int:
        return len(self.gram)

    def dot(self, x, y):
        return sum(x[i] * sum(self.gram[i][j] * y[j] for j in range(self.rho))
                   for i in range(self.rho))


@dataclass(frozen=True)
class NSVector:
    """Character (r, D, s) = (rank, NS class, ch_2) on a fixed lattice."""

    r: object
    D: tuple
    s: object
    lattice: NSLattice

    def __post_init__(self):
        object.__setattr__(self, "D", tuple(self.D))
        if len(self.D) != self.lattice.rho:
            raise LatticeMismatch("class length does not match the lattice rank")


def _same_lattice(*vs):
    lat = vs[0].lattice
    for v in vs[1:]:
        if getattr(v, "lattice", lat) is not lat and getattr(v, "lattice", None) != lat:
            raise LatticeMismatch("vectors on different lattices")
    return lat


def _lattice_class(lat: NSLattice, G) -> tuple:
    """A class on the lattice as a tuple; LatticeMismatch for another length."""
    G = tuple(G)
    if len(G) != lat.rho:
        raise LatticeMismatch("class length does not match the lattice rank")
    return G


def ab_delta(v: NSVector, w: NSVector | None = None):
    """Discriminant pairing D D' - r s' - r' s (quadratic value when w is None)."""
    if w is None:
        w = v
    lat = _same_lattice(v, w)
    return lat.dot(v.D, w.D) - v.r * w.s - w.r * v.s


def ab_twist(v: NSVector, G) -> NSVector:
    """Line-bundle twist (r, D + rG, s + DG + r G^2/2); preserves ab_delta."""
    lat = v.lattice
    G = _lattice_class(lat, G)
    newD = tuple(d + v.r * g for d, g in zip(v.D, G))
    news = v.s + lat.dot(v.D, G) + Fraction(1, 2) * v.r * lat.dot(G, G)
    return NSVector(v.r, newD, news, lat)


def criterion_neg_def(v: NSVector, w: NSVector) -> bool:
    """Strict dual-cone criterion delta(v,w)^2 < delta(v) delta(w)."""
    return ab_delta(v, w) ** 2 < ab_delta(v) * ab_delta(w)


def criterion_bayer_step(v: NSVector, G) -> bool:
    """Twist-step criterion 0 < r^2 G^2 < 4 delta(v)."""
    G = _lattice_class(v.lattice, G)
    g2 = v.lattice.dot(G, G)
    val = v.r * v.r * g2
    return 0 < val < 4 * ab_delta(v)


def criterion_restrict(v: NSVector, w: NSVector, H) -> bool:
    """Curve-restriction criterion D2^2 H^2 + (D1 D2 - s2)^2 < (D1^2 - 2 s1) D2^2.

    Follows the rank convention v = (1, D1, s1), w = (0, D2, s2).
    """
    lat = _same_lattice(v, w)
    H = _lattice_class(lat, H)
    h2 = lat.dot(H, H)
    d22 = lat.dot(w.D, w.D)
    d1d2 = lat.dot(v.D, w.D)
    d11 = lat.dot(v.D, v.D)
    return d22 * h2 + (d1d2 - w.s) ** 2 < (d11 - 2 * v.s) * d22
