"""Hypersurface restriction on parameters and charges.

Passing to a degree-m hypersurface sends a parameter tuple t to the roots of
the difference polynomial prod(x - t_i) - prod(x - t_i - m); the separation
hypothesis sep(t) > m makes the two products interlace, so the image lands
one ambient lower with separation still above m.  On charges the same move
is composition with the pushforward matrix M (M gamma_(n-1)(x) = gamma_n(x)
- gamma_n(x - m)), and the composed parts are exactly m times the charges of
the restricted tuples.

The map is onto the separation-above-m tuples one ambient lower only for
small ambients (up to 4); no inverse or section is provided here, and none
is known to be numerically stable.
"""

import math
from dataclasses import dataclass

from .charge import CentralCharge, ReducedCharge, reduced_charge, split_central
from .errors import DecompositionFailed, InvalidAmbient, InvariantViolated, SepViolation
from .exact import coerce, integer_scaled
from .interlace import PLUS_INFINITY, Polynomial, RootTuple, sep_exceeds
from .poly import integer_shift_difference, shift_difference


@dataclass(frozen=True)
class RestrictionSpec:
    """Degrees (m_1, ..., m_d) of a chain of hypersurface sections."""

    degrees: tuple
    ambient: int

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if any(not m > 0 for m in self.degrees):
            raise ValueError("degrees must be positive")


def xi(t, m) -> RootTuple:
    """Restriction of a parameter tuple by a degree-m section.

    Requires sep(t) > m strictly; drops to ambient n-1.  An infinite last
    entry drops its two factors and the output keeps the +inf slot.
    """
    t = t if isinstance(t, RootTuple) else RootTuple(tuple(t))
    if t.n < 2:
        raise InvalidAmbient("restriction needs ambient >= 2")
    if not m > 0:
        raise SepViolation(f"degree must be positive, got {m}")
    if not t.sep() > m:
        raise SepViolation(f"sep(t) = {t.sep()} must exceed m = {m}")
    fin = t.finite
    if not fin:
        raise SepViolation("no finite entries to restrict")
    diff = shift_difference(fin, m)
    k = len(fin)
    # difference of monic degree-k polynomials: degree exactly k-1
    if diff[k] != 0:
        raise InvariantViolated("f(x) - f(x - m) keeps a degree-k term")
    if k == 1:
        roots = ()
    else:
        roots = Polynomial(diff[:k], k - 1).roots().entries
    if t.has_infinity:
        return RootTuple(tuple(roots) + (PLUS_INFINITY,))
    return RootTuple(tuple(roots))


def xi_multi(t, spec) -> RootTuple:
    """Chained restriction; order-independent, checked stage by stage.

    Raises SepViolation carrying the failing stage index.
    """
    degrees = spec.degrees if isinstance(spec, RestrictionSpec) else tuple(spec)
    out = t if isinstance(t, RootTuple) else RootTuple(tuple(t))
    for stage, m in enumerate(degrees):
        try:
            out = xi(out, m)
        except SepViolation as exc:
            raise SepViolation(f"stage {stage}: {exc}", stage=stage) from exc
    return out


def pushforward_matrix(n: int, m):
    """Matrix of the section pushforward from ambient n-1 to ambient n.

    Entries M[j][k] = (-1)^(j-k+1) m^(j-k) / (j-k)! for k < j, zero
    otherwise; satisfies M gamma_(n-1)(x) = gamma_n(x) - gamma_n(x-m).
    """
    if not m > 0:
        raise ValueError("positive degree required")
    m, zero = coerce((m, 0))
    return tuple(tuple((-1) ** (j - k + 1) * (m ** (j - k) / math.factorial(j - k))
                       if k < j else zero for k in range(n))
                 for j in range(n + 1))


def compose_with_pushforward(B: ReducedCharge, matrix) -> ReducedCharge:
    """The composed functional v -> B(M v) on the lower lattice."""
    n_out = len(matrix[0])
    weights = tuple(sum(B.weights[j] * matrix[j][k] for j in range(len(matrix)))
                    for k in range(n_out))
    return ReducedCharge(weights)


@dataclass(frozen=True)
class RestrictedCharge:
    """Result of restricting a central charge by a degree-m section."""

    charge: CentralCharge      # the exact composed functional pair
    s: RootTuple               # restricted real-part tuple
    t: RootTuple               # restricted imaginary-part tuple
    scale_real: object         # composed real part = scale_real * B_s
    scale_imag: object         # composed imag part = scale_imag * B_t


WEIGHT_MATCH_TOL = 1e-10


def restrict_charge(Z: CentralCharge, m) -> RestrictedCharge:
    """Composition of an interlaced-cone charge with the section pushforward.

    The parts of Z must decompose as c1 B_s + i c2 B_t with s and t
    interlaced (split_central) and the line's separation above m
    (interlace.sep_exceeds: certified on exact Z and m, sampled otherwise).
    The composed parts are verified to be c_i m times the charges of the
    restricted tuples, and DecompositionFailed flags a mismatch (an
    internal-consistency alarm; see _verify_prediction).
    """
    n = Z.ambient
    c1, c2, line = split_central(Z)
    if not sep_exceeds(line, m):
        raise SepViolation(f"sep of the spanned line must exceed {m}")
    matrix = pushforward_matrix(n, m)
    real_c = compose_with_pushforward(Z.real, matrix)
    imag_c = compose_with_pushforward(Z.imag, matrix)
    s_r = xi(line.gen_a.roots(), m)
    t_r = xi(line.gen_b.roots(), m)
    scale_real = c1 * m
    scale_imag = c2 * m
    _verify_prediction(real_c, line.gen_a, s_r, m, scale_real)
    _verify_prediction(imag_c, line.gen_b, t_r, m, scale_imag)
    return RestrictedCharge(CentralCharge(real_c, imag_c), s_r, t_r, scale_real, scale_imag)


def _verify_prediction(composed: ReducedCharge, gen: Polynomial, tup: RootTuple, m, scale):
    """DecompositionFailed unless composed is scale times the charge of xi of gen's roots.

    That charge is charge_of_poly of the monic p / p_t, where
    p(x) = f(x) - f(x - m) for the generator f and t is p's degree, so its
    weight k is sign k! p_k / (t! p_t), with sign -1 when t drops below the
    ambient n - 1.  On exact input the weights must be equal; they are
    compared on integers, composed and scale over one denominator.  On float
    input the restricted tuple tup is rounded, so its charge must match
    within WEIGHT_MATCH_TOL relative.
    """
    if composed.is_exact():
        p = integer_shift_difference(gen.coeffs, m)
        t = max(k for k, c in enumerate(p) if c)
        sign = 1 if t == gen.ambient - 1 else -1
        (*weights, s), _ = integer_scaled(composed.weights + (scale,))
        lead = math.factorial(t) * p[t]
        if any(w * lead != sign * s * math.factorial(k) * p[k] for k, w in enumerate(weights)):
            raise DecompositionFailed(
                f"composed part {composed.weights} does not match {scale} * B of "
                f"the monic f(x) - f(x - {m})")
        return
    predicted = reduced_charge(tup).scaled(scale)
    ref = max(abs(float(w)) for w in composed.weights) or 1.0
    for a, b in zip(composed.weights, predicted.weights):
        if abs(float(a) - float(b)) > WEIGHT_MATCH_TOL * ref:
            raise DecompositionFailed(
                f"composed part {tuple(map(float, composed.weights))} does not match "
                f"{float(scale)} * B over {tuple(map(float, tup.entries))}")
