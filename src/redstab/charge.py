"""Reduced central charges on the polarized lattice.

The lattice at ambient n is R^(n+1) with coordinates (H^n ch_0, ..., ch_n).
A parameter tuple t determines the normalized functional B_t as a Vandermonde
determinant against the twisted vectors gamma_n(t_i); the normalization makes
the ch_n weight exactly 1 for finite tuples.  On the polynomial side B_t is
f_t / n! under the coefficient identification a_k x^k <-> k! a_k e*_k, where
f_t is the monic root polynomial (f_t / -(n-1)! when the last entry is +inf),
so all of the interlacing calculus transfers to charges verbatim.  That
identity is how reduced_charge computes B_t, exactly on rational tuples and
to about 1e-15 relative on float tuples; no determinant is evaluated.
Rational decompose reads its kernel check and coefficients (Lagrange's
formula) from the same integer root product, with no twisted vector or solve.

Note on the Hilbert-scheme display: with this normalization the identity
B_t((1,0,0,-m)) = -m - t1*t2*t3/6 holds with constant exactly 1 (the raw
determinant instead carries the factor C_t = 2 / prod(t_j - t_i)).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AmbientMismatch,
    DecompositionFailed,
    DegenerateInput,
    InKernelOfLine,
    NotInKernel,
)
from .exact import all_exact, coerce, integer_scaled, is_exact, solve
from .interlace import (
    PLUS_INFINITY,
    Pencil,
    Polynomial,
    RootTuple,
    gaps_exceed,
    roots_to_poly,
    sep_exceeds,
)
from .poly import integer_root_product

VERDICT_ZERO_TOL = 1e-12     # |a_i| treated as zero in the sign verdict
BOUNDARY_FLAG_TOL = 1e-8     # |a_i| below this flags a boundary case
KERNEL_REL_TOL = 1e-9        # kernel membership tolerance, relative


def gamma(t, n: int) -> tuple:
    """Twisted vector (1, t, t^2/2!, ..., t^n/n!); (0,...,0,1) at +inf."""
    if t == PLUS_INFINITY:
        return (0,) * n + (1,)
    (t,) = coerce((t,))
    return tuple(t ** k / math.factorial(k) for k in range(n + 1))


@dataclass(frozen=True)
class ReducedCharge:
    """Linear functional on the ambient-n lattice, stored by dual weights."""

    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", coerce(self.weights))

    @property
    def ambient(self) -> int:
        return len(self.weights) - 1

    def __call__(self, v) -> object:
        return eval_charge(self, v)

    def scaled(self, c) -> "ReducedCharge":
        return ReducedCharge(tuple(c * w for w in self.weights))

    def plus(self, other: "ReducedCharge") -> "ReducedCharge":
        if other.ambient != self.ambient:
            raise AmbientMismatch("ambient mismatch")
        return ReducedCharge(tuple(x + y for x, y in zip(self.weights, other.weights)))

    def is_exact(self) -> bool:
        return all_exact(self.weights)


@dataclass(frozen=True)
class CentralCharge:
    """Complex-valued functional, stored as its real and imaginary parts."""

    real: ReducedCharge
    imag: ReducedCharge

    def __post_init__(self):
        if self.real.ambient != self.imag.ambient:
            raise AmbientMismatch("parts with different ambient")

    @property
    def ambient(self) -> int:
        return self.real.ambient

    def __call__(self, v) -> complex:
        return complex(float(self.real(v)), float(self.imag(v)))

    def negated(self) -> "CentralCharge":
        return CentralCharge(self.real.scaled(-1), self.imag.scaled(-1))


def eval_charge(B: ReducedCharge, v) -> object:
    """Pairing of a charge with a lattice vector; exact when both are rational."""
    if len(v) != B.ambient + 1:
        raise AmbientMismatch(f"vector length {len(v)} vs ambient {B.ambient}")
    return sum(w * x for w, x in zip(B.weights, v))


def reduced_charge(t) -> ReducedCharge:
    """The normalized charge of a parameter tuple, via its root polynomial.

    B_t(v) = C_t det(gamma(t_1); ...; gamma(t_n); v), where C_t makes the
    ch_n weight 1.  Expanding the determinant along v gives the monic root
    polynomial prod (x - t_i) under a_k x^k <-> k! a_k e*_k, divided by n!
    (by -(n-1)! when the last entry is +inf), so the weights come from the
    coefficients without any determinant.  Exact rationals when the tuple is
    rational.  On float tuples the ch_n weight is exactly 1 and, up to
    n = 8, every weight is within 1e-14 of the exact charge of the same
    binary values, relative to its largest weight (measured about 1e-15;
    the cofactor determinants of oracles.reduced_charge_cofactors reach
    about 1e-9).
    """
    t = t if isinstance(t, RootTuple) else RootTuple(tuple(t))
    return charge_of_poly(roots_to_poly(t))


def charge_of_poly(f: Polynomial) -> ReducedCharge:
    """Charge of a member under a_k x^k <-> k! a_k e*_k, normalized.

    Degree n divides by n!; degree n-1 scales by -1/(n-1)! so that the monic
    root polynomial of any tuple maps exactly onto that tuple's charge.  The
    ch_n weight of a degree n-1 member is 0 in the weights' representation
    (Fraction 0, or the float 0.0; never -0.0).
    """
    n, top = f.ambient, f.degree
    coeffs = f.coeffs[: top + 1]
    sign = -1 if top < n else 1
    if all_exact(coeffs):
        # coefficients N_k / D: weight k is sign k! N_k / (top! D), one Fraction each
        ints, den = integer_scaled(coeffs)
        den *= sign * math.factorial(top)
        weights = tuple(Fraction(math.factorial(k) * p, den) for k, p in enumerate(ints))
        return ReducedCharge(weights + (Fraction(0),) * (n - top))
    scale = sign * (1 / math.factorial(top))
    weights = tuple(scale * math.factorial(k) * c for k, c in enumerate(coeffs))
    return ReducedCharge(weights + (0.0,) * (n - top))


def poly_of_charge(B: ReducedCharge) -> Polynomial:
    """Inverse of charge_of_poly; uses the +inf branch when the top weight vanishes."""
    n = B.ambient
    scale = math.factorial(n) if B.weights[n] != 0 else -math.factorial(n - 1)
    return Polynomial(tuple(scale * w / math.factorial(k) for k, w in enumerate(B.weights)), n)


def in_Bn(B: ReducedCharge, d=0):
    """Membership of B in the cone of scaled charges with separation above d.

    Returns (c, t) with c > 0 and B = c * B_t, or None: None covers complex
    or repeated roots, a nonpositive scale, and sep(t) <= d, which is certified
    on exact B and d (interlace.gaps_exceed) and rounded on float input.
    """
    dec = _scaled_member(B)
    if dec is None or d > 0 and not (gaps_exceed(dec[1], d) if B.is_exact() and is_exact(d)
                                     else dec[1].roots().sep() > d):
        return None
    return dec[0], dec[1].roots()


def _scaled_member(B: ReducedCharge):
    """(c, f) with c > 0 and B = c * charge_of_poly(f) for a monic certified member f, or None."""
    n = B.ambient
    c = B.weights[n] if B.weights[n] != 0 else -B.weights[n - 1]
    if not c > 0:
        return None
    f = poly_of_charge(B.scaled(1 / c))
    return (c, f) if f.is_member() else None


def split_central(Z: CentralCharge):
    """The split Z = c1*B_s + i*c2*B_t with interlaced s and t, as (c1, c2, line).

    c2 > 0, and line is the strict Pencil through the monic members whose
    certified roots are s and t (gen_a and gen_b).  The imaginary part must
    be a positive scaled charge and the real part a scaled charge of either
    sign (c1 < 0 through its negation); raises DecompositionFailed naming
    the part that is not, or when s and t do not interlace.
    """
    dec_t = _scaled_member(Z.imag)
    if dec_t is None:
        raise DecompositionFailed("imaginary part is not a positive charge")
    dec_s = _scaled_member(Z.real)
    if dec_s is None:
        dec_s = _scaled_member(Z.real.scaled(-1))
        if dec_s is None:
            raise DecompositionFailed("real part is not a signed charge")
        dec_s = (-dec_s[0], dec_s[1])
    try:
        return dec_s[0], dec_t[0], Pencil(dec_s[1], dec_t[1])
    except DegenerateInput as exc:
        raise DecompositionFailed("part parameters do not interlace") from exc


def in_Un(Z: CentralCharge, d=0) -> bool:
    """Membership of a central charge in the interlaced cone at separation d.

    Splits the parts as c1*B_s + i*c2*B_t with c2 > 0 and s, t interlaced
    (split_central), then checks the sign of c1 against the orientation
    (c1 > 0 when s < t, c1 < 0 when t < s) and for d > 0 the separation of
    the spanned line (interlace.sep_exceeds: certified on exact Z and d,
    sampled otherwise).  The Wronskian of interlaced members has no real
    zero, so the sign rule reads r_1 m_0 - r_0 m_1 < 0 on the weights r of
    Re Z and m of Im Z (see interlace.left_interlaced).
    """
    try:
        _, _, line = split_central(Z)
    except DecompositionFailed:
        return False
    r, m = Z.real.weights, Z.imag.weights
    if not r[1] * m[0] - r[0] * m[1] < 0:
        return False
    return not d > 0 or sep_exceeds(line, d)


@dataclass(frozen=True)
class Decomposition:
    """Coefficients of v against the signed twisted vectors of a tuple."""

    coeffs: tuple
    verdict: str           # ALL_NONNEG | ALL_NONPOS | MIXED
    boundary: bool         # some |a_i| below the flag tolerance but not exactly zero

    def __iter__(self):
        return iter(self.coeffs)


ALL_NONNEG = "ALL_NONNEG"
ALL_NONPOS = "ALL_NONPOS"
MIXED = "MIXED"


def decompose(v, t) -> Decomposition:
    """Solve v = sum_i (-1)^i a_i gamma(t_i) and classify the sign pattern.

    Requires B_t(v) = 0 (exactly for rational data, else within the relative
    kernel tolerance); raises NotInKernel otherwise.  Rational data take the
    closed form of _exact_coeffs; a float system is solved exactly
    (exact.solve) at its binary values, and its coefficients are rounded
    once.  On float data the sign verdict treats |a_i| below 1e-12 as zero;
    entries below the boundary tolerance are flagged but still classified.
    """
    t = t if isinstance(t, RootTuple) else RootTuple(tuple(t))
    n = t.n
    if len(v) != n + 1:
        raise AmbientMismatch("vector/tuple ambient mismatch")
    if all_exact(t.finite) and all_exact(v):
        return _classify(_exact_coeffs(v, t), True)
    B = reduced_charge(t)
    val = eval_charge(B, v)
    scale = max((abs(float(x)) for x in v), default=0.0) * max(abs(float(w)) for w in B.weights)
    if abs(float(val)) > KERNEL_REL_TOL * max(scale, 1.0):
        raise NotInKernel(f"B_t(v) = {val} beyond tolerance")
    signed = [[(-1) ** (i + 1) * x for x in gamma(ti, n)] for i, ti in enumerate(t.entries)]
    rows = list(range(n - 1)) + [n] if t.has_infinity else list(range(n))
    a_mat = [[signed[j][r] for j in range(n)] for r in rows]
    return _classify([float(a) for a in solve(a_mat, [v[r] for r in rows])], False)


def _exact_coeffs(v, t) -> list:
    """decompose's coefficients on rational data, from one integer root product.

    With the m finite t_i = p_i / D, v = w / E, F = prod (D x - p_j) and
    y_k = k! w_k: B_t(v) = 0 iff sum_(k <= m) F_k y_k = 0, and rows 0..m-1 are
    the transposed Vandermonde system sum_i c_i t_i^k = y_k / E in
    c_i = (-1)^(i+1) a_i, solved by Lagrange's formula
    c_i = sum_k Q_k y_k / (E prod_(j != i) (p_i - p_j)) with Q = F / (D x - p_i).
    A +inf slot is row n: c = v_n - sum_i c_i R(t_i) / n!, R = x^n mod F.
    """
    p, den = integer_scaled(t.finite)
    w, e = integer_scaled(v)
    f, m = integer_root_product(p, den), len(p)
    y = [math.factorial(k) * w[k] for k in range(m + 1)]
    if sum(a * b for a, b in zip(f, y)):
        raise NotInKernel(f"B_t(v) = {eval_charge(reduced_charge(t), v)} != 0")
    coeffs = []
    for i, pi in enumerate(p):
        q = num = 0
        for k in range(m, 0, -1):
            # F = (D x - p_i) Q from the top: Q_(k-1) = (F_k + p_i Q_k) / D, exactly
            q = (f[k] + pi * q) // den
            num += q * y[k - 1]
        prod = e * math.prod(pi - pj for pj in p if pj != pi)
        coeffs.append(Fraction(num if i % 2 else -num, prod))
    if t.has_infinity:
        # F_m^2 R_k = F_(m-1) F_k - F_m F_(k-1), and F_m = D^m
        n, top = m + 1, f[m]
        num = math.factorial(n) * top * top * w[n] - sum(
            (f[m - 1] * f[k] - top * (f[k - 1] if k else 0)) * y[k] for k in range(m))
        coeffs.append(Fraction(num if m % 2 else -num, e * math.factorial(n) * top * top))
    return coeffs


def _classify(coeffs, exact) -> Decomposition:
    signs = []
    boundary = False
    for a in coeffs:
        if exact:
            s = 0 if a == 0 else (1 if a > 0 else -1)
        else:
            af = float(a)
            if abs(af) <= VERDICT_ZERO_TOL:
                s = 0
            else:
                s = 1 if af > 0 else -1
            if 0 < abs(af) < BOUNDARY_FLAG_TOL:
                boundary = True
        signs.append(s)
    if all(s >= 0 for s in signs):
        verdict = ALL_NONNEG
    elif all(s <= 0 for s in signs):
        verdict = ALL_NONPOS
    else:
        verdict = MIXED
    return Decomposition(tuple(coeffs), verdict, boundary)


def kernel_parameter(l: Pencil, v) -> RootTuple:
    """The unique parameter tuple on a line of charges vanishing on v.

    The line is given by its polynomial pencil; raises InKernelOfLine when
    both generators annihilate v.
    """
    B1 = charge_of_poly(l.gen_a)
    B2 = charge_of_poly(l.gen_b)
    x1, x2 = eval_charge(B1, v), eval_charge(B2, v)
    exact = B1.is_exact() and B2.is_exact() and all_exact(v)
    if exact:
        zero1, zero2 = x1 == 0, x2 == 0
    else:
        scale = max(abs(float(x1)), abs(float(x2)), 1.0)
        zero1 = abs(float(x1)) <= KERNEL_REL_TOL * scale
        zero2 = abs(float(x2)) <= KERNEL_REL_TOL * scale
    if zero1 and zero2:
        raise InKernelOfLine("v is annihilated by the whole line")
    if zero1:
        member = B1
    elif zero2:
        member = B2
    else:
        member = B1.scaled(x2).plus(B2.scaled(-x1))
    return poly_of_charge(member).roots()
