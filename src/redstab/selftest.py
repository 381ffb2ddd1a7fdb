"""Acceptance criteria as parameterized runners.

Each criterion function draws its own reproducible samples from a seeded
generator, runs the check at configurable sample counts (defaults are the
full acceptance-scale counts), and returns a plain dict suitable both for
pytest assertions and for the machine-readable selftest report.
"""

import math
from fractions import Fraction

import numpy as np

from . import oracles
from .charge import (
    ALL_NONNEG,
    ALL_NONPOS,
    MIXED,
    decompose,
    eval_charge,
    gamma,
    reduced_charge,
)
from .errors import DegenerateInput, RedstabError
from .geometry import (
    NSLattice,
    NSVector,
    ThreefoldParams,
    ab_delta,
    ab_twist,
    max_alpha,
    params_from_tuples,
    threefold_kernel_tuples,
)
from .interlace import (
    PLUS_INFINITY,
    Pencil,
    Polynomial,
    RootTuple,
    is_interlaced,
    left_interlaced,
    roots_to_poly,
    sep,
    sep_pencil,
    shift_pencil,
)
from .poly import poly_shift_arg
from .quadform import QuadraticForm, line_charges, q_line, q_tilde, verify_support
from .restrict import pushforward_matrix, xi
from .walls import hilb_boundary, hilb_bounds


def _rand_fraction(rng, lo=-6, hi=6, den=6):
    return Fraction(int(rng.integers(lo * den, hi * den + 1)), den)


def _rand_tuple(rng, n, min_gap=Fraction(1, 2), lo=-6):
    den = 4
    t = [_rand_fraction(rng, lo, lo + 2, den)]
    for _ in range(n - 1):
        t.append(t[-1] + min_gap + Fraction(int(rng.integers(0, 3 * den)), den))
    return RootTuple(tuple(t))


def _rand_interlaced_pair(rng, n, min_gap=Fraction(1, 2)):
    t = _rand_tuple(rng, n, min_gap=min_gap)
    ent = t.entries
    s = []
    for i, x in enumerate(ent):
        left = ent[i - 1] if i else x - 2
        gap = x - left
        s.append(left + gap * Fraction(int(rng.integers(1, 8)), 8))
    return RootTuple(tuple(s)), t


def criterion_1(pairs=500, oracle_samples=256, seed=0):
    """Interlacing oracle equivalence on random coefficient pairs."""
    rng = np.random.default_rng(seed)
    disagreements = []
    checked = 0
    positives = 0
    for _ in range(pairs):
        n = int(rng.integers(2, 6))
        fc = tuple(int(x) for x in rng.integers(-10, 11, n + 1))
        gc = tuple(int(x) for x in rng.integers(-10, 11, n + 1))
        try:
            fp, gp = Polynomial(fc, n), Polynomial(gc, n)
            mine = is_interlaced(fp, gp)
        except (ValueError, DegenerateInput):
            continue
        checked += 1
        orc = oracles.oracle_interlaced(fc, gc, samples=oracle_samples)
        positives += orc
        if mine != orc:
            disagreements.append((fc, gc, mine, orc))
    return {
        "id": 1, "name": "interlacing oracle equivalence",
        "pass": not disagreements and checked > 0,
        "detail": {"checked": checked, "positives": positives,
                   "disagreements": disagreements[:5]},
    }


def criterion_2(instances=200, seed=0, slack=1e-9):
    """Separation bounds for the derivative pencil and the shift pencil."""
    rng = np.random.default_rng(seed)
    fails = []
    for _ in range(instances):
        n = int(rng.integers(2, 6))
        t = _rand_tuple(rng, n)
        f = roots_to_poly(t)
        s0 = float(sep(t))
        deriv_sep = sep_pencil(Pencil(f, f.derivative()))
        if not deriv_sep >= s0 - slack:
            fails.append(("derivative", t.entries, deriv_sep, s0))
    for _ in range(instances):
        n = int(rng.integers(2, 6))
        t = _rand_tuple(rng, n)
        f = roots_to_poly(t)
        s0 = float(sep(t))
        m = float(rng.uniform(0.1, 0.9)) * s0
        shift_sep = sep_pencil(shift_pencil(f, m))
        bound = min(m, s0 - m)
        if not shift_sep > bound - slack:
            fails.append(("shift", t.entries, m, shift_sep, bound))
    return {
        "id": 2, "name": "separation bounds (derivative and shift pencils)",
        "pass": not fails,
        "detail": {"instances": instances, "failures": fails[:5]},
    }


def criterion_3(instances=200, seed=0, slack=1e-9):
    """Closure: oriented interlaced summands stay interlaced with kept separation."""
    rng = np.random.default_rng(seed)
    fails = []
    done = 0
    while done < instances:
        n = int(rng.integers(2, 6))
        t = _rand_tuple(rng, n)
        f = roots_to_poly(t)
        s0 = float(sep(t))
        m1 = float(rng.uniform(0.2, 0.8)) * s0
        c1 = float(rng.uniform(0.3, 3.0))
        g = shift_pencil(f, m1).gen_b.scaled(-c1)
        if rng.integers(0, 2):
            h = f.derivative().scaled(-float(rng.uniform(0.3, 3.0)))
        else:
            m2 = float(rng.uniform(0.2, 0.8)) * s0
            h = shift_pencil(f, m2).gen_b.scaled(-float(rng.uniform(0.3, 3.0)))
        if not (left_interlaced(f, g) and left_interlaced(f, h)):
            continue
        sep_g = sep_pencil(Pencil(f, g))
        sep_h = sep_pencil(Pencil(f, h))
        d = float(rng.uniform(0.0, 0.95)) * min(sep_g, sep_h)
        done += 1
        gh = Polynomial(tuple(a + b for a, b in zip(g.coeffs, h.coeffs)), n)
        if not gh.is_member():
            fails.append(("membership", t.entries, m1))
            continue
        if not left_interlaced(f, gh):
            fails.append(("orientation", t.entries, m1))
            continue
        sep_sum = sep_pencil(Pencil(f, gh))
        if not sep_sum > d - slack:
            fails.append(("separation", t.entries, d, sep_sum))
    return {
        "id": 3, "name": "closure of oriented interlaced sums",
        "pass": not fails,
        "detail": {"instances": done, "failures": fails[:5]},
    }


def criterion_4(tuples=100, corr_samples=200, seed=0, tol=1e-10):
    """Exact charge normalization and the polynomial correspondence."""
    rng = np.random.default_rng(seed)
    fails = []
    for _ in range(tuples):
        n = int(rng.integers(1, 6))
        t = _rand_tuple(rng, n)
        B = reduced_charge(t)
        if eval_charge(B, (0,) * n + (1,)) != 1:
            fails.append(("normalization", t.entries))
        for ti in t.entries:
            if eval_charge(B, gamma(ti, n)) != 0:
                fails.append(("vanishing", t.entries, ti))
    nfact_checked = 0
    for _ in range(corr_samples):
        n = int(rng.integers(1, 6))
        s = _rand_tuple(rng, n)
        B = reduced_charge(s)
        f = roots_to_poly(s)
        x = float(rng.uniform(-10, 10))
        lhs = math.factorial(n) * float(eval_charge(B, gamma(x, n)))
        rhs = float(f(x))
        nfact_checked += 1
        if abs(lhs - rhs) > tol * max(1.0, abs(rhs)):
            fails.append(("correspondence", s.entries, x, lhs, rhs))
    return {
        "id": 4, "name": "charge normalization and correspondence",
        "pass": not fails,
        "detail": {"tuples": tuples, "correspondence_samples": nfact_checked,
                   "failures": fails[:5]},
    }


def criterion_5(lines=50, seed=0):
    """Exact line-form identities against the two discriminants."""
    rng = np.random.default_rng(seed)
    fails = []
    # ambient 2: q_line equals the surface discriminant up to a positive scalar
    delta2 = QuadraticForm(((Fraction(0), Fraction(0), Fraction(-1)),
                            (Fraction(0), Fraction(1), Fraction(0)),
                            (Fraction(-1), Fraction(0), Fraction(0))))
    for _ in range(lines):
        s, t = _rand_interlaced_pair(rng, 2)
        Q = q_line(Pencil.from_tuples(s, t))
        scale = Q.gram[1][1] / delta2.gram[1][1]
        if not (scale > 0 and Q.gram == delta2.scaled(scale).gram):
            fails.append(("n2", s.entries, t.entries))
    # ambient 3: half the higher discriminant plus the matched multiple
    for _ in range(lines):
        s, t = _rand_interlaced_pair(rng, 3)
        line = Pencil.from_tuples(s, t)
        Q = q_line(line)
        b_line, b_proj = line_charges(line)
        a3, a2 = b_line.weights[0], b_line.weights[1]
        b = b_proj.weights[0]
        coeff = a3 + b * a2 - b * b / Fraction(2)
        for _ in range(8):
            v = tuple(_rand_fraction(rng, -9, 9, 1) for _ in range(4))
            ch1 = v[1] - b * v[0]
            ch2 = v[2] - b * v[1] + b * b / 2 * v[0]
            ch3 = v[3] - b * v[2] + b * b / 2 * v[1] - b ** 3 / 6 * v[0]
            nabla = 4 * ch2 * ch2 - 6 * ch1 * ch3
            delta = v[1] * v[1] - 2 * v[0] * v[2]
            if Q(v) != nabla / 2 + coeff * delta:
                fails.append(("n3", s.entries, t.entries, v))
                break
    return {
        "id": 5, "name": "line-form exactness (surface and threefold shapes)",
        "pass": not fails,
        "detail": {"lines": lines, "failures": fails[:5]},
    }


def criterion_6(lines=50, gamma_grid=100, members=50, seed=0, vanish_tol=1e-8):
    """Inductive support forms verify all three support properties."""
    rng = np.random.default_rng(seed)
    fails = []
    alphas = []
    for _ in range(lines):
        n = int(rng.integers(2, 6))
        s, t = _rand_interlaced_pair(rng, n)
        line = Pencil.from_tuples(s, t)
        try:
            Q = q_tilde(line, samples=members)
        except RedstabError as exc:
            fails.append(("search", s.entries, t.entries, repr(exc)))
            continue
        alphas.append(Q.meta.get("alpha"))
        rep = verify_support(Q, line, samples=members, vanish_tol=vanish_tol,
                             grid=gamma_grid)
        if not rep.ok:
            fails.append(("support", s.entries, t.entries, rep.failures[:2]))
    return {
        "id": 6, "name": "inductive support-form verification",
        "pass": not fails,
        "detail": {"lines": lines, "max_alpha": str(max(alphas, default=None)),
                   "failures": fails[:5]},
    }


def criterion_7(draws=200, seed=0, boundary_tol=1e-8):
    """Sign-criterion agreement between the solver and the scan oracle."""
    rng = np.random.default_rng(seed)
    fails = []
    flagged = 0
    zero_cases = 0
    for k in range(draws):
        n = int(rng.integers(2, 5))
        t = _rand_tuple(rng, n)
        if rng.integers(0, 4) == 0:
            t = RootTuple(t.entries[:-1] + (PLUS_INFINITY,))
        kind = int(rng.integers(0, 3))
        a = []
        for i in range(n):
            mag = _rand_fraction(rng, 0, 4, 8) + Fraction(1, 8)
            if kind == 0:
                a.append(mag)
            elif kind == 1:
                a.append(-mag)
            else:
                a.append(mag if rng.integers(0, 2) else -mag)
        if rng.integers(0, 3) == 0:
            a[int(rng.integers(0, n))] = Fraction(0)
        if all(x == 0 for x in a):
            a[0] = Fraction(1)
        cols = [gamma(x, n) for x in t.entries]
        v = tuple(sum(((-1) ** (i + 1)) * a[i] * cols[i][r] for i in range(n))
                  for r in range(n + 1))
        dec = decompose(v, t)
        coherent = dec.verdict in (ALL_NONNEG, ALL_NONPOS)
        has_exact_zero = any(x == 0 for x in a)
        if has_exact_zero:
            zero_cases += 1
            signs = set(1 if x > 0 else -1 for x in a if x != 0)
            if len(signs) <= 1 and dec.verdict == MIXED:
                fails.append(("zero-misclassified", t.entries, a))
                continue
        if any(x != 0 and abs(float(x)) < boundary_tol for x in a):
            flagged += 1
            continue
        found, _ = oracles.sign_scan_oracle(t, v)
        if coherent != (not found):
            fails.append(("disagree", tuple(map(float, t.entries)),
                          tuple(map(float, a)), dec.verdict, found))
    return {
        "id": 7, "name": "kernel sign criterion vs scan oracle",
        "pass": not fails,
        "detail": {"draws": draws, "flagged": flagged, "zero_cases": zero_cases,
                   "failures": fails[:5]},
    }


def criterion_8(mmax=10 ** 4, boundary_ms=(1, 2, 5), tol=1e-9):
    """Integer wall bounds and the boundary curve of the point-class locus."""
    fails = []
    for m in range(1, mmax + 1):
        n_val = next(k for k in range(1, 200) if (k + 1) * (k + 2) * (k + 3) > 6 * m)
        m_val = max(k for k in range(1, m + 3) if k * k * (k - 4) < 6 * m and k <= m + 2)
        if hilb_bounds(m) != (n_val, m_val):
            fails.append(("bounds", m, hilb_bounds(m), (n_val, m_val)))
    if hilb_bounds(1) != (1, 3):
        fails.append(("m1", hilb_bounds(1)))
    for m in boundary_ms:
        loc = hilb_boundary(m, samples=60)
        for (p, q), resid in zip(loc.points, loc.residuals):
            if resid > tol:
                fails.append(("kernel", m, p, q, resid))
            # cubic through the locus: x^3 + p x^2 + q x + 6m, double root on the boundary
            a_, b_, c_, d_ = 1.0, p, q, 6.0 * m
            disc = (18 * a_ * b_ * c_ * d_ - 4 * b_ ** 3 * d_ + b_ ** 2 * c_ ** 2
                    - 4 * a_ * c_ ** 3 - 27 * a_ ** 2 * d_ ** 2)
            scale = max(abs(b_ ** 2 * c_ ** 2), abs(27 * d_ ** 2), 1.0)
            if abs(disc) > tol * scale:
                fails.append(("double-root", m, p, q, disc))
    return {
        "id": 8, "name": "point-class integer bounds and boundary curve",
        "pass": not fails,
        "detail": {"mmax": mmax, "failures": fails[:5]},
    }


def criterion_9(tuples=200, validity_draws=1000, near_boundary=100, seed=0, tol=1e-10):
    """Slice parameter conversions round-trip; validity matches interlacing."""
    rng = np.random.default_rng(seed)
    fails = []
    for _ in range(tuples):
        t = _rand_tuple(rng, 3)
        pp = params_from_tuples(t)
        amax = max_alpha(pp.a, pp.b)
        alpha = amax * Fraction(int(rng.integers(1, 8)), 8)
        p = ThreefoldParams(alpha=alpha, beta=pp.beta, a=pp.a, b=pp.b)
        real_t, imag_t = threefold_kernel_tuples(p)
        if real_t is None or any(abs(float(x) - float(y)) > tol * max(1.0, abs(float(y)))
                                 for x, y in zip(real_t.entries, t.entries)):
            fails.append(("roundtrip3", t.entries))
        pair = RootTuple((t.entries[0], t.entries[1]))
        p2 = params_from_tuples(pair)
        _, it = threefold_kernel_tuples(ThreefoldParams(
            alpha=p2.alpha, beta=p2.beta, a=Fraction(1), b=Fraction(0)))
        if tuple(it.entries[:2]) != pair.entries:
            fails.append(("roundtrip2", pair.entries))
    agree_fails = 0
    for k in range(validity_draws):
        near = k < near_boundary
        alpha = Fraction(int(rng.integers(1, 33)), 8)
        b = _rand_fraction(rng, -3, 3, 4)
        crit = alpha * alpha / 6 + abs(b) * alpha / 2
        if near:
            wiggle = Fraction(int(rng.integers(-40, 41)), 10 ** 6)
            a = crit + wiggle
            if a <= 0:
                a = crit + abs(wiggle) + Fraction(1, 10 ** 6)
        else:
            a = crit * Fraction(int(rng.integers(2, 30)), 10)
            if rng.integers(0, 2):
                a = crit * Fraction(int(rng.integers(0, 10)), 10)
        if a == crit or a <= 0:
            continue
        p = ThreefoldParams(alpha=alpha, beta=_rand_fraction(rng, -2, 2, 4), a=a, b=b)
        # the kernel polynomials, in y = x - beta: y^3 - 3b y^2 - 6a y and y^2 - alpha^2
        real = Polynomial(poly_shift_arg((0, -6 * a, -3 * b, 1), -p.beta), 3)
        imag = Polynomial(poly_shift_arg((-alpha * alpha, 0, 1), -p.beta) + (0,), 3)
        valid, inter = p.is_valid, is_interlaced(real, imag)
        if valid != inter:
            agree_fails += 1
            fails.append(("validity", str(p), valid, inter))
    return {
        "id": 9, "name": "threefold slice conversions and validity",
        "pass": not fails,
        "detail": {"tuples": tuples, "validity_draws": validity_draws,
                   "failures": fails[:5]},
    }


def criterion_10(draws=200, push_samples=5, seed=0, slack=1e-9, tol=1e-10):
    """Restriction map: separation kept, commutation, and closed forms."""
    rng = np.random.default_rng(seed)
    fails = []
    for _ in range(draws):
        n = int(rng.integers(2, 6))
        t = _rand_tuple(rng, n, min_gap=Fraction(1))
        if rng.integers(0, 4) == 0 and n >= 2:
            t = RootTuple(t.entries[:-1] + (PLUS_INFINITY,))
        s0 = t.sep()
        if s0 == PLUS_INFINITY:
            m = Fraction(1, 2)
        else:
            m = s0 * Fraction(int(rng.integers(2, 9)), 10)
        out = xi(t, m)
        if out.n >= 2 and not float(out.sep()) > float(m) - slack:
            fails.append(("sep", t.entries, float(m), float(out.sep())))
        if t.n >= 3 and s0 != PLUS_INFINITY:
            m2 = s0 * Fraction(int(rng.integers(1, 5)), 20)
            try:
                ab = xi(xi(t, m), m2)
                ba = xi(xi(t, m2), m)
            except RedstabError as exc:
                fails.append(("chain", t.entries, repr(exc)))
                continue
            if any(abs(float(x) - float(y)) > 1e-9 for x, y in zip(ab.finite, ba.finite)):
                fails.append(("commute", t.entries, float(m), float(m2)))
        matrix = pushforward_matrix(n, m)
        for _ in range(push_samples):
            x = Fraction(int(rng.integers(-40, 41)), 8)
            g_low = gamma(x, n - 1)
            lhs = tuple(sum(matrix[j][k] * g_low[k] for k in range(n)) for j in range(n + 1))
            rhs = tuple(p - q for p, q in zip(gamma(x, n), gamma(x - m, n)))
            if lhs != rhs:
                fails.append(("pushforward", n, float(m), float(x)))
    # closed forms: threefold and surface
    for _ in range(40):
        t = _rand_tuple(rng, 3, min_gap=Fraction(2))
        m = Fraction(1)
        out = xi(t, m)
        tt = [float(x) for x in t.entries]
        ssum = sum(tt)
        sq = sum((a - b) ** 2 for i, a in enumerate(tt) for b in tt[i + 1:])
        root_lo = (2 * ssum + 3 - math.sqrt(2 * sq - 3)) / 6
        root_hi = (2 * ssum + 3 + math.sqrt(2 * sq - 3)) / 6
        if abs(float(out.entries[0]) - root_lo) > tol * max(1, abs(root_lo)) or \
           abs(float(out.entries[1]) - root_hi) > tol * max(1, abs(root_hi)):
            fails.append(("closed3", t.entries))
        t2 = RootTuple((t.entries[0], t.entries[1], PLUS_INFINITY))
        out2 = xi(t2, m)
        expect = (t.entries[0] + t.entries[1] + m) / 2
        if out2.entries[0] != expect or out2.entries[1] != PLUS_INFINITY:
            fails.append(("closed-inf", t.entries))
        pair = RootTuple((t.entries[0], t.entries[1]))
        out3 = xi(pair, m)
        if out3.entries[0] != (pair.entries[0] + pair.entries[1] + m) / 2:
            fails.append(("closed-surface", pair.entries))
    return {
        "id": 10, "name": "restriction separation, commutation, closed forms",
        "pass": not fails,
        "detail": {"draws": draws, "failures": fails[:5]},
    }


def criterion_11(configs=200, seed=0):
    """Abelian-surface pairing identities, exactly, at small Picard ranks."""
    rng = np.random.default_rng(seed)
    fails = []
    for _ in range(configs):
        rho = int(rng.integers(1, 4))
        lat = _rand_ns_lattice(rng, rho)
        v = NSVector(_rand_fraction(rng, -4, 4, 2),
                     tuple(_rand_fraction(rng, -4, 4, 2) for _ in range(rho)),
                     _rand_fraction(rng, -4, 4, 2), lat)
        g1 = tuple(_rand_fraction(rng, -3, 3, 2) for _ in range(rho))
        g2 = tuple(_rand_fraction(rng, -3, 3, 2) for _ in range(rho))
        if ab_delta(ab_twist(v, g1)) != ab_delta(v):
            fails.append(("invariance", lat.gram, v))
            continue
        lhs = ab_twist(ab_twist(v, g1), g2)
        rhs = ab_twist(v, tuple(x + y for x, y in zip(g1, g2)))
        if lhs != rhs:
            fails.append(("composition", lat.gram, v))
            continue
        tw = ab_twist(v, g1)
        g_sq = lat.dot(g1, g1)
        ident = ab_delta(v) * ab_delta(tw) - ab_delta(v, tw) ** 2
        if ident != v.r ** 2 * g_sq * (ab_delta(v) - Fraction(1, 4) * v.r ** 2 * g_sq):
            fails.append(("identity", lat.gram, v))
    return {
        "id": 11, "name": "abelian-surface pairing identities",
        "pass": not fails,
        "detail": {"configs": configs, "failures": fails[:5]},
    }


def _rand_ns_lattice(rng, rho):
    from .errors import WrongSignature

    while True:
        if rho == 1:
            g = [[Fraction(int(rng.integers(1, 9)))]]
        else:
            g = [[Fraction(0)] * rho for _ in range(rho)]
            g[0][0] = Fraction(int(rng.integers(1, 9)))
            for i in range(1, rho):
                g[i][i] = Fraction(-int(rng.integers(1, 9)))
            for i in range(rho):
                for j in range(i + 1, rho):
                    x = Fraction(int(rng.integers(-2, 3)))
                    g[i][j] = g[j][i] = x
        try:
            return NSLattice(tuple(tuple(row) for row in g))
        except WrongSignature:
            continue


def criterion_12(seed=0):
    """CLI golden stability: plots and the selftest report are byte-stable."""
    from . import cli

    fig1a = cli.run_capture(["walls", "plot", "--figure", "1"])
    fig1b = cli.run_capture(["walls", "plot", "--figure", "1"])
    fig4a = cli.run_capture(["walls", "plot", "--figure", "4", "--m", "2"])
    fig4b = cli.run_capture(["walls", "plot", "--figure", "4", "--m", "2"])
    st_a = cli.run_capture(["selftest", "--seed", str(seed)])
    st_b = cli.run_capture(["selftest", "--seed", str(seed)])
    ok = (fig1a == fig1b and fig4a == fig4b and st_a == st_b
          and fig1a[0] == 0 and fig4a[0] == 0)
    return {
        "id": 12, "name": "CLI golden-file stability",
        "pass": bool(ok),
        "detail": {"fig1_bytes": len(fig1a[1]), "fig4_bytes": len(fig4a[1]),
                   "selftest_bytes": len(st_a[1]), "selftest_exit": st_a[0]},
    }


REDUCED = {
    1: {"pairs": 60},
    2: {"instances": 20},
    3: {"instances": 15},
    4: {"tuples": 20, "corr_samples": 40},
    5: {"lines": 8},
    6: {"lines": 6, "gamma_grid": 40, "members": 20},
    7: {"draws": 30},
    8: {"mmax": 300},
    9: {"tuples": 25, "validity_draws": 120, "near_boundary": 20},
    10: {"draws": 30},
    11: {"configs": 40},
}

CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11,
}


def run_selftest(seed=0, reduced=True, include=None):
    """Run the criteria (reduced counts by default); returns a report dict."""
    results = []
    for cid in sorted(CRITERIA):
        if include is not None and cid not in include:
            continue
        kwargs = dict(REDUCED.get(cid, {})) if reduced else {}
        fn = CRITERIA[cid]
        if "seed" in fn.__code__.co_varnames[: fn.__code__.co_argcount]:
            kwargs["seed"] = seed
        results.append(fn(**kwargs))
    return {
        "criteria": results,
        "all_pass": all(r["pass"] for r in results),
        "seed": seed,
        "reduced": reduced,
    }
