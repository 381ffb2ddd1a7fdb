"""Numerical wall loci on the reduced charge space, and their plots.

Since the charge of a tuple is linear in the elementary symmetric functions
of the tuple, a vanishing locus B_t(v) = 0 is a hyperplane in e-coordinates:
surface walls are lines in (t1+t2, t1*t2) clipped below the parabola
q = p^2/4, and pairwise numerical walls solve two such linear equations.
The rank-one point class on the projective threefold gives the cubic locus
t1 t2 t3 = -6m drawn in (-sum t, sum t_i t_j) with its double-root boundary
curve (2t + 6m/t^2, t^2 + 12m/t).
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .charge import eval_charge, reduced_charge
from .errors import AmbientMismatch, ComplexRoots, DependentCharacters, NotDistinctRoots
from .exact import coerce, nullspace, particular_solution
from .interlace import Polynomial, RootTuple, proportional

GRID_DEFAULT = 400


@dataclass(frozen=True)
class WallLocus:
    """Sampled locus in a declared 2-d coordinate system."""

    character: tuple
    coord_system: str          # e.g. "(t1+t2, t1*t2)" or "(-sum t, sum titj)"
    label: str = ""
    implicit: dict | None = None
    points: tuple = ()
    residuals: tuple = ()
    clip: str = ""
    empty: bool = False
    dimension: int | None = None
    codimension: int | None = None
    meta: dict = field(default_factory=dict, compare=False)


SURFACE_COORDS = "(t1+t2, t1*t2)"
HILB_COORDS = "(-sum t_i, sum t_i t_j)"


def _surface_residual(p, q, v):
    # B over the tuple with e1 = p, e2 = q, against v, times 2
    return abs(float(q * v[0] / 2 - p * v[1] / 2 + v[2]))


def sb_v_surface(v, p_range=(-8.0, 8.0), samples: int = 200) -> WallLocus:
    """Vanishing line of a surface character in (t1+t2, t1*t2) coordinates.

    The locus {v2 - (p/2) v1 + (q/2) v0 = 0} clipped strictly below the
    parabola q = p^2/4 (distinct real parameters).
    """
    if len(v) != 3:
        raise AmbientMismatch("surface locus needs ambient 2")
    v = tuple(v)
    v0, v1, _ = coerce(v)
    a, b, c = -v1 / 2, v0 / 2, v[2]
    if any(x != 0 and float(x) == 0 for x in (a, b, c)):
        raise ValueError(f"character {tuple(map(str, v))} has entries below the float range")
    # line a*p + b*q + c = 0
    implicit = {"p_coeff": a, "q_coeff": b, "const": c}
    pts, res = [], []
    lo, hi = p_range
    if b != 0:
        for i in range(samples):
            p = lo + (hi - lo) * i / (samples - 1)
            q = -(float(a) * p + float(c)) / float(b)
            if q < p * p / 4:
                pts.append((p, q))
                res.append(_surface_residual(p, q, v))
    elif a != 0:
        p = -float(c) / float(a)
        q_top = p * p / 4
        for i in range(samples):
            q = q_top - 0.1 - i * 0.1
            pts.append((p, q))
            res.append(_surface_residual(p, q, v))
    return WallLocus(
        character=v,
        coord_system=SURFACE_COORDS,
        label=f"Sb_v for v={tuple(map(str, v))}",
        implicit=implicit,
        points=tuple(pts),
        residuals=tuple(res),
        clip="q < p^2/4 (strict)",
        empty=not pts,
        dimension=1 if pts else 0,
        codimension=1,
    )


def hilb_bounds(m: int):
    """Integer bounds (N, M) for the point-class emptiness walls.

    N: smallest positive integer with (N+1)(N+2)(N+3) > 6m.
    M: largest positive integer with M^2 (M-4) < 6m and M <= m + 2.

    Both cubics increase from 3 upward and M's inequality holds for every
    M <= 4, so both searches count up from 1 in O(m^(1/3)) steps.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    n = 1
    while not (n + 1) * (n + 2) * (n + 3) > 6 * m:
        n += 1
    big_m = 1
    while big_m < m + 2 and (big_m + 1) ** 2 * (big_m - 3) < 6 * m:
        big_m += 1
    return (n, big_m)


def hilb_locus(m: int, t2_range=None, samples: int = 40) -> WallLocus:
    """Sampled interior of {t1 t2 t3 = -6m, t1 < t2 < t3 < 0}.

    Points are reported as (-sum t_i, sum t_i t_j) with the residual of the
    defining kernel equation.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    cube = (6.0 * m) ** (1.0 / 3.0)
    if t2_range is None:
        t2_range = (-0.98 * cube, -0.05 * cube)
    pts, res = [], []
    lo2, hi2 = t2_range
    for i in range(samples):
        t2 = lo2 + (hi2 - lo2) * i / max(samples - 1, 1)
        # need t1 < min(t2, -6m / t2^2): ensures t2 < t3 < 0
        t1_top = min(t2, -6.0 * m / (t2 * t2)) * 1.0001
        for j in range(1, samples + 1):
            t1 = t1_top * (1.0 + 0.15 * j)
            t3 = -6.0 * m / (t1 * t2)
            if not (t1 < t2 < t3 < 0):
                continue
            p = -(t1 + t2 + t3)
            q = t1 * t2 + t1 * t3 + t2 * t3
            pts.append((p, q))
            res.append(abs(eval_charge(reduced_charge(RootTuple((t1, t2, t3))),
                                       (1.0, 0.0, 0.0, -float(m)))))
    return WallLocus(
        character=(1, 0, 0, -m),
        coord_system=HILB_COORDS,
        label=f"point-class locus m={m}",
        implicit={"equation": "t1*t2*t3 = -6m", "m": m},
        points=tuple(pts),
        residuals=tuple(res),
        clip="t1 < t2 < t3 < 0",
        empty=not pts,
        dimension=2,
        codimension=1,
    )


def hilb_boundary(m: int, t_range=(0.3, 10.0), samples: int = 300) -> WallLocus:
    """Double-root boundary curve (2t + 6m/t^2, t^2 + 12m/t) of the locus."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    lo, hi = t_range
    pts, res = [], []
    for i in range(samples):
        t = lo + (hi - lo) * i / max(samples - 1, 1)
        p = 2 * t + 6 * m / (t * t)
        q = t * t + 12 * m / t
        # boundary parameters: t1 = t2 = -t, t3 = -6m/t^2
        t3 = -6.0 * m / (t * t)
        resid = abs((-t) * (-t) * t3 + 6 * m)
        pts.append((p, q))
        res.append(resid)
    return WallLocus(
        character=(1, 0, 0, -m),
        coord_system=HILB_COORDS,
        label=f"boundary curve m={m}",
        implicit={"parametrization": "(2t + 6m/t^2, t^2 + 12m/t)", "m": m},
        points=tuple(pts),
        residuals=tuple(res),
        clip=f"t in [{lo}, {hi}]",
        dimension=1,
        codimension=2,
    )


def hilb_wall_line(m: int, root_value: float, u_range=None, samples: int = 120,
                   label: str = "") -> WallLocus:
    """Wall segment of the point-class locus with one parameter frozen.

    Freezing a root at -R turns the locus into the line (R + u, R u + 6m/R)
    over u = -(sum of the other two roots); the segment starts at the
    double-root value u = 2 sqrt(6m/R).
    """
    big_r = float(root_value)
    if big_r <= 0:
        raise ValueError("root_value is the positive magnitude R with t = -R")
    u_min = 2.0 * math.sqrt(6.0 * m / big_r)
    if u_range is None:
        u_range = (u_min, u_min + 60.0)
    lo, hi = max(u_range[0], u_min), u_range[1]
    pts, res = [], []
    for i in range(samples):
        u = lo + (hi - lo) * i / max(samples - 1, 1)
        p = big_r + u
        q = big_r * u + 6.0 * m / big_r
        pts.append((p, q))
        # other two roots from x^2 - (-u)x ... : x^2 + u x + 6m/R = 0
        disc = u * u - 24.0 * m / big_r
        if disc >= 0:
            sq = math.sqrt(disc)
            ta, tb = (-u - sq) / 2, (-u + sq) / 2
            res.append(abs((-big_r) * ta * tb + 6 * m))
        else:
            res.append(float("nan"))
    return WallLocus(
        character=(1, 0, 0, -m),
        coord_system=HILB_COORDS,
        label=label or f"wall t=-{big_r}",
        implicit={"frozen_root": -big_r, "m": m},
        points=tuple(pts),
        residuals=tuple(res),
        dimension=1,
        codimension=2,
    )


def _charge_e_row(v, n):
    """Row of the linear equation in (e_1..e_n): sum_j row[j] e_j = rhs."""
    row = [0] * n
    for j in range(1, n + 1):
        sign = -1 if j % 2 else 1
        row[j - 1] = sign * math.factorial(n - j) * v[n - j]
    rhs = -math.factorial(n) * v[n]
    return [Fraction(x) for x in row], Fraction(rhs)


def numerical_wall(v, w, region, grid: int = GRID_DEFAULT) -> WallLocus:
    """Sampled solution set of B_t(v) = B_t(w) = 0 inside a parameter box.

    The two equations are linear in elementary symmetric coordinates; the
    affine solution space is sampled, mapped back to root tuples (the roots
    of the root polynomial, already Newton-polished by root extraction) and
    filtered by the box.  Each point carries the larger of its two kernel
    residuals.
    """
    v, w = tuple(v), tuple(w)
    if len(v) != len(w):
        raise AmbientMismatch("characters of different ambient")
    n = len(v) - 1
    if proportional(v, w):
        raise DependentCharacters("characters are linearly dependent")
    row_v, rhs_v = _charge_e_row(v, n)
    row_w, rhs_w = _charge_e_row(w, n)
    basis = nullspace([row_v, row_w], n)
    part = particular_solution([row_v, row_w], [rhs_v, rhs_w], n)
    pts, res, tuples = [], [], []
    if part is not None:
        dim = len(basis)
        samples = _affine_samples(part, basis, grid, region)
        for e in samples:
            t = _roots_from_elementary(e, n)
            if t is None or not _in_box(t, region):
                continue
            B = reduced_charge(RootTuple(tuple(t)))
            r = max(abs(float(eval_charge(B, v))), abs(float(eval_charge(B, w))))
            if n == 2:
                pts.append((t[0] + t[1], t[0] * t[1]))
            else:
                pts.append((-sum(t), sum(t[i] * t[j] for i in range(n) for j in range(i + 1, n))))
            res.append(r)
            tuples.append(tuple(t))
    else:
        dim = -1
    return WallLocus(
        character=v,
        coord_system=SURFACE_COORDS if n == 2 else HILB_COORDS,
        label=f"wall v={v} w={w}",
        implicit={"v": v, "w": w},
        points=tuple(pts),
        residuals=tuple(res),
        clip=f"box {region}",
        empty=not pts,
        dimension=max(dim, 0) if part is not None else None,
        codimension=2,
        meta={"tuples": tuples},
    )


def _affine_samples(part, basis, grid, region):
    if region is None:
        span = 10.0
    else:
        span = max((abs(float(hi)) + abs(float(lo)) for lo, hi in region), default=10.0)
    if not basis:
        return [part]
    out = []
    steps = max(4, int(round(grid ** (1.0 / len(basis)))))
    ranges = [range(steps)] * len(basis)
    import itertools

    for combo in itertools.product(*ranges):
        e = list(map(float, part))
        for c, vec in zip(combo, basis):
            coef = (c / (steps - 1) - 0.5) * 2 * span * len(part)
            e = [x + coef * float(y) for x, y in zip(e, vec)]
        out.append(e)
    return out


def _roots_from_elementary(e, n):
    coeffs = [0.0] * (n + 1)
    coeffs[n] = 1.0
    sign = -1
    vals = list(map(float, e))
    for j in range(1, n + 1):
        coeffs[n - j] = sign * vals[j - 1]
        sign = -sign
    try:
        # a member of degree n or n-1: its +inf padding cannot fail
        t = Polynomial(tuple(coeffs), n).roots()
    except (ComplexRoots, NotDistinctRoots):
        return None
    if t.has_infinity:
        return None
    return list(map(float, t.entries))


def _in_box(t, region):
    if region is None:
        return True
    for x, (lo, hi) in zip(t, region):
        if not (lo <= x <= hi):
            return False
    return True
