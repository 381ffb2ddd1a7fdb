"""Independent brute-force oracles used by the verification harness.

These deliberately avoid the production code paths they are used to check:
the pencil oracle works on raw coefficient sequences with numpy eigenvalues,
exact Sylvester resultants and Lagrange interpolation (both here, out of
production), and Sturm real-root counts (redstab.poly; the Sturm chain is
also the exact fallback of production root extraction, so the tests check
exact roots against Fraction evaluation instead); the
cofactor charge expands the defining Vandermonde determinant minor by minor;
the kernel-sign scan only evaluates charges on a corner family with
sign-change bisection; the pointwise support check evaluates Q(gamma(t)) at
every grid point and pairs member by member with the scalar loop, extracting
roots on every call; the congruence inertia diagonalizes over Fractions
instead of reading the characteristic polynomial.
"""

import math
from fractions import Fraction

import numpy as np

from .charge import ReducedCharge, eval_charge, gamma, reduced_charge
from .errors import ComplexRoots, NotDistinctRoots
from .exact import all_exact, bareiss_det, is_negative_definite
from .interlace import PLUS_INFINITY, RootTuple, pencil_canonical
from .poly import poly_derivative, poly_mul, sturm_count_real, trim
from .quadform import SupportReport, kernel_of_line

ORACLE_SAMPLES = 256


# ---------------------------------------------------------------------------
# exact routines of the oracles alone


def det(rows):
    """Determinant: exact Bareiss on rational input, numpy otherwise."""
    if all(all_exact(row) for row in rows):
        return bareiss_det(rows)
    return float(np.linalg.det(np.array(rows, dtype=float)))


def sylvester_resultant(p, q):
    """Resultant of two rational polynomials via the Sylvester determinant."""
    p = trim([Fraction(x) for x in p])
    q = trim([Fraction(x) for x in q])
    dp, dq = len(p) - 1, len(q) - 1
    if dp == 0:
        return p[0] ** dq
    if dq == 0:
        return q[0] ** dp
    size = dp + dq
    rows = []
    desc_p = list(reversed(p))
    desc_q = list(reversed(q))
    for i in range(dq):
        rows.append([Fraction(0)] * i + desc_p + [Fraction(0)] * (size - i - dp - 1))
    for i in range(dp):
        rows.append([Fraction(0)] * i + desc_q + [Fraction(0)] * (size - i - dq - 1))
    return bareiss_det(rows)


def lagrange_coeffs(xs, ys):
    """Exact interpolation through (xs, ys); ascending coefficients."""
    n = len(xs)
    out = [Fraction(0)] * n
    for i in range(n):
        basis = (Fraction(1),)
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            basis = poly_mul(basis, (-Fraction(xs[j]), Fraction(1)))
            denom *= Fraction(xs[i]) - Fraction(xs[j])
        scale = Fraction(ys[i]) / denom
        for k, c in enumerate(basis):
            out[k] += scale * c
    return trim(out)


# ---------------------------------------------------------------------------
# the pencil oracle


def _real_rooted_distinct_exact(p) -> bool:
    p = trim([Fraction(x) for x in p])
    deg = len(p) - 1
    return deg >= 0 and sturm_count_real(p) == deg


def _members_all_real_distinct(f_coeffs, g_coeffs, samples) -> bool:
    """Float scan: all sampled pencil members have real, distinct roots."""
    a = np.array([float(c) for c in f_coeffs])
    b = np.array([float(c) for c in g_coeffs])
    thetas = np.linspace(0.0, math.pi, samples, endpoint=False)
    members = np.outer(np.cos(thetas), a) + np.outer(np.sin(thetas), b)
    for row in members:
        nz = np.nonzero(np.abs(row) > 1e-12 * np.max(np.abs(row)))[0]
        if len(nz) == 0:
            return False
        deg = int(nz[-1])
        if deg == 0:
            continue
        roots = np.roots(row[deg::-1])
        scale = max(1.0, float(np.max(np.abs(roots))))
        if float(np.max(np.abs(roots.imag))) > 1e-7 * scale:
            return False
        re = np.sort(roots.real)
        if len(re) > 1:
            spread = max(re[-1] - re[0], 1.0)
            if float(np.min(np.diff(re))) < 1e-7 * spread:
                return False
    return True


def pencil_discriminant_real_roots(f_coeffs, g_coeffs):
    """Real roots count of the pencil discriminant, exactly.

    Charts the pencil at its unique degree-drop member h so that every
    member f~ + c h has full degree: the resultant of the member and its
    derivative is then a polynomial in c whose real zeros are exactly the
    repeated-root members.  Returns (count, drop_member_ok).
    """
    f = trim([Fraction(x) for x in f_coeffs])
    g = trim([Fraction(x) for x in g_coeffs])
    n = max(len(f), len(g)) - 1
    f = f + [Fraction(0)] * (n + 1 - len(f))
    g = g + [Fraction(0)] * (n + 1 - len(g))
    if f[n] == 0 and g[n] == 0:
        return (1, False)  # whole pencil degenerates in degree
    if f[n] == 0:
        f, g = g, f
    # degree-drop member h = g - (g_n / f_n) f
    factor = g[n] / f[n]
    h = trim([y - factor * x for x, y in zip(f, g)])
    if len(h) - 1 != n - 1:
        return (1, False)  # drops more than one degree: degenerate line
    drop_ok = _real_rooted_distinct_exact(h)
    # resultant of (f + c h, (f + c h)') interpolated in c
    deg_bound = 2 * n
    xs = list(range(deg_bound + 1))
    ys = []
    for c in xs:
        member = [x + c * y for x, y in zip(f, h + [Fraction(0)] * (n + 1 - len(h)))]
        ys.append(sylvester_resultant(member, poly_derivative(member)))
    disc_poly = lagrange_coeffs(xs, ys)
    if all(x == 0 for x in disc_poly):
        return (1, drop_ok)
    return (sturm_count_real(disc_poly), drop_ok)


def _shifted(p, d) -> list:
    """Coefficients of p(x + d) by the binomial expansion."""
    return [sum(p[k] * math.comb(k, j) * d ** (k - j) for k in range(j, len(p)))
            for j in range(len(p))]


def member_with_gap(f_coeffs, g_coeffs, d) -> bool:
    """Whether some member of a real-rooted line has two roots exactly d apart.

    Charts the line at its degree-drop member h as
    pencil_discriminant_real_roots does: a member f~ + c h has roots x and
    x + d exactly when it shares a root with its shift by d, so the
    resultant of the two, interpolated in c, has a real zero; h is checked
    on its own.  Exact rational input; every member must be real-rooted
    (then the common roots are real).
    """
    f = trim([Fraction(x) for x in f_coeffs])
    g = trim([Fraction(x) for x in g_coeffs])
    n = max(len(f), len(g)) - 1
    f = f + [Fraction(0)] * (n + 1 - len(f))
    g = g + [Fraction(0)] * (n + 1 - len(g))
    if f[n] == 0:
        f, g = g, f
    h = [y - g[n] / f[n] * x for x, y in zip(f, g)]
    d = Fraction(d)
    if sylvester_resultant(h, _shifted(h, d)) == 0:
        return True
    xs = list(range(2 * n + 1))
    ys = []
    for c in xs:
        member = [x + c * y for x, y in zip(f, h)]
        ys.append(sylvester_resultant(member, _shifted(member, d)))
    return sturm_count_real(lagrange_coeffs(xs, ys)) > 0


def oracle_interlaced(f_coeffs, g_coeffs, samples: int = ORACLE_SAMPLES) -> bool:
    """Brute-force pencil membership oracle.

    True iff the sampled members all have real pairwise-distinct roots and
    the exact pencil discriminant has no real zero (including the degree-drop
    member).  Coefficients must be rational for the exact part.
    """
    if not _real_rooted_distinct_exact(f_coeffs):
        return False
    if not _real_rooted_distinct_exact(g_coeffs):
        return False
    if not _members_all_real_distinct(f_coeffs, g_coeffs, samples):
        return False
    count, drop_ok = pencil_discriminant_real_roots(f_coeffs, g_coeffs)
    return count == 0 and drop_ok


# ---------------------------------------------------------------------------
# the cofactor charge


def reduced_charge_cofactors(t) -> ReducedCharge:
    """The normalized charge of a tuple from its defining determinant.

    B_t(v) = C_t det(gamma(t_1); ...; gamma(t_n); v), expanded along v into
    n+1 cofactor minors (``det``: Bareiss on exact input, numpy on float input),
    with C_t = prod_{k<n} k! / prod_{i<j} (t_j - t_i) making the ch_n weight
    1.  An infinite last entry reduces inductively: B_t(v) = -B_t'(v_0..v_(n-1)).
    """
    t = t if isinstance(t, RootTuple) else RootTuple(tuple(t))
    n = t.n
    if t.has_infinity:
        if n == 1:
            return ReducedCharge((-1, 0))
        inner = reduced_charge_cofactors(RootTuple(t.finite))
        return ReducedCharge(tuple(-w for w in inner.weights) + (0,))
    rows = [gamma(ti, n) for ti in t.entries]
    exact = all(all_exact(row) for row in rows)
    num = math.prod(math.factorial(k) for k in range(1, n))
    denom = Fraction(1) if exact else 1.0
    for i in range(n):
        for j in range(i + 1, n):
            denom = denom * (t[j] - t[i])
    c_t = Fraction(num) / denom if exact else num / denom
    weights = []
    for k in range(n + 1):
        minor = [[row[j] for j in range(n + 1) if j != k] for row in rows]
        cof = det(minor)
        sign = -1 if (n + k) % 2 else 1
        weights.append(sign * c_t * cof)
    return ReducedCharge(tuple(weights))


# ---------------------------------------------------------------------------
# congruence inertia


def inertia_congruence(gram):
    """Inertia (n_pos, n_neg, n_zero) of a rational symmetric matrix.

    Congruence diagonalization over Fractions: a nonzero diagonal pivot
    where there is one, else an off-diagonal pair folded onto the diagonal.
    """
    n = len(gram)
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


# ---------------------------------------------------------------------------
# kernel sign-scan oracle


def _corner(t, k, eps, far):
    """Corner configuration: s_q = t_q - eps except the k-th pushed down."""
    ent = list(t)
    s = [x - eps for x in ent]
    if k == 0:
        s[0] = ent[0] - far
    else:
        s[k] = ent[k - 1] + eps
    return s


def sign_scan_oracle(t: RootTuple, v, eps_grid=None, bisect_steps: int = 80):
    """Search for s with s < t < s[1] and B_s(v) = 0, by corner sweep.

    Evaluates the charge on the proof-style corner family (each coordinate
    pinned near its ceiling, one pushed toward its floor) over an eps grid
    down to 1e-3, then bisects along straight segments between corners of
    opposite sign (the corner box is convex inside the admissible region).
    Returns (found, witness_s or None).  Only charge evaluations are used.
    """
    if eps_grid is None:
        eps_grid = [10.0 ** (-e) for e in (1, 2, 3)]
    n = t.n
    has_inf = t.has_infinity
    fin = [float(x) for x in t.finite]
    gap = min((b - a for a, b in zip(fin, fin[1:])), default=1.0)
    vals = []
    for k in range(n):
        for eps_raw in eps_grid:
            eps = eps_raw * gap * 0.45
            far = 1.0 / eps_raw
            if has_inf and k == n - 1:
                # isolate the infinite-slot coefficient: every finite factor
                # carries eps while the last parameter stays put
                s = [x - eps for x in fin] + [fin[-1] + 1.0]
            elif has_inf:
                # isolate a finite coefficient: its term grows like the last
                # parameter while the others keep the vanishing eps factor
                s = _corner(fin, k, eps, far) + [fin[-1] + 1.0 + far]
            else:
                s = _corner(fin, k, eps, far)
            if any(not a < b for a, b in zip(s, s[1:])):
                continue
            val = float(eval_charge(reduced_charge(RootTuple(tuple(s))), v))
            vals.append((s, val))
    pos = [sv for sv in vals if sv[1] > 0]
    neg = [sv for sv in vals if sv[1] < 0]
    if not pos or not neg:
        return (False, None)
    sa, fa = max(pos, key=lambda sv: sv[1])
    sb, fb = min(neg, key=lambda sv: sv[1])
    lo, hi = 0.0, 1.0
    for _ in range(bisect_steps):
        mid = (lo + hi) / 2
        s = [a + mid * (b - a) for a, b in zip(sa, sb)]
        val = float(eval_charge(reduced_charge(RootTuple(tuple(s))), v))
        if val == 0:
            return (True, s)
        if (val > 0) == (fa > 0):
            lo = mid
        else:
            hi = mid
    mid = (lo + hi) / 2
    s = [a + mid * (b - a) for a, b in zip(sa, sb)]
    return (True, s)


# ---------------------------------------------------------------------------
# pointwise support-form check


def verify_support_pointwise(Q, l, samples: int = 50, margin: float = 0.0,
                             vanish_tol: float = 1e-8, grid: int = 100) -> SupportReport:
    """The support check of quadform.verify_support, one point and one pair at a time.

    Evaluates Q(gamma(t)) at every grid point and +inf, pairs the roots of
    every sampled member with the scalar QuadraticForm.pair_float_with_scale
    (exact fallback under the same cancellation rule) and extracts the
    member roots afresh.  The report must equal the production one field
    by field, failure records included; only a pairing whose float value is
    not finite differs, which production recomputes exactly.
    """
    n = l.ambient
    failures = []

    exact = Q.is_exact()
    max_resid = 0.0
    ok_a = True
    ts = [Fraction(k - grid // 2, 3) for k in range(grid)] + [PLUS_INFINITY]
    for t in ts:
        g = gamma(t if exact else float(t) if t != PLUS_INFINITY else t, n)
        val = Q(g)
        if exact and all_exact(g):
            if val != 0:
                ok_a = False
                failures.append(("vanishing", t, val))
        else:
            scale = sum(abs(float(Q.gram[i][j])) * abs(float(g[i])) * abs(float(g[j]))
                        for i in range(n + 1) for j in range(n + 1))
            resid = abs(float(val)) / max(scale, 1.0)
            max_resid = max(max_resid, resid)
            if resid > vanish_tol:
                ok_a = False
                failures.append(("vanishing", t, val))

    kernel = kernel_of_line(l)
    restricted = [[Q.pair(u, v) for v in kernel] for u in kernel]
    ok_b = is_negative_definite(restricted)
    if not ok_b:
        failures.append(("kernel", restricted))

    gen_roots = []
    for gen in (l.gen_a, l.gen_b):
        try:
            gen_roots += [abs(float(x)) for x in gen.roots().finite]
        except (ComplexRoots, NotDistinctRoots):
            pass
    root_cap = 1e7 * (1.0 + max(gen_roots, default=1.0))
    ok_c = True
    for k in range(samples):
        theta = math.pi * (k + 0.5) / samples
        member = l.member(math.cos(theta), math.sin(theta))
        try:
            roots = member.roots()
        except (ComplexRoots, NotDistinctRoots):
            ok_c = False
            failures.append(("pairing-roots", theta))
            continue
        if roots.has_infinity:
            continue
        if max(abs(float(x)) for x in roots.finite) > root_cap:
            continue
        gam = [gamma(t, n) for t in roots]
        bad = _alternating_pairing_failures(Q, gam, margin)
        if bad:
            ok_c = False
            failures.extend(("pairing", theta) + b for b in bad)
    try:
        drop_roots = pencil_canonical(l).roots().finite
    except (ComplexRoots, NotDistinctRoots):
        ok_c = False
        failures.append(("pairing-inf-roots", n))
        drop_roots = ()
    gam = [gamma(t, n) for t in drop_roots]
    einf = gamma(PLUS_INFINITY, n)
    for i, g in enumerate(gam):
        val, abssum = Q.pair_float_with_scale(g, einf)
        if abs(val) <= max(margin, 1e-9) * abssum:
            val = Q.pair_exact(g, einf)
        signed = val if (i + 1 + n) % 2 == 0 else -val
        if not signed > 0:
            ok_c = False
            failures.append(("pairing-inf", i + 1, n, float(val)))
    return SupportReport(ok_a, ok_b, ok_c, max_resid, failures)


def _alternating_pairing_failures(Q, gam, margin):
    """Indices (i, j, value) where (-1)^(i+j) P(gamma_i, gamma_j) fails > 0."""
    n = len(gam)
    sig = max(margin, 1e-9)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            val, abssum = Q.pair_float_with_scale(gam[i], gam[j])
            if abs(val) <= sig * abssum:
                val = Q.pair_exact(gam[i], gam[j])
            signed = val if (i + j) % 2 == 0 else -val
            if not signed > 0:
                out.append((i + 1, j + 1, float(val)))
    return out
