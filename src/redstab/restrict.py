"""Hypersurface restriction on parameters and charges.

Passing to a degree-m hypersurface sends a parameter tuple t to the roots of
the restricted member f(x) - f(x - m) of f = prod(x - t_i), one ambient
lower; the separation hypothesis sep(t) > m makes f(x) and f(x - m)
interlace, so the image keeps separation above m.  On charges the same move
is composition with the pushforward matrix M (M gamma_(n-1)(x) = gamma_n(x)
- gamma_n(x - m)); the composed parts are m times the charges of the
restricted members of the line's generators.  Both build f(x) - f(x - m)
by _restricted_member; exact xi calls its integer part on the root product.

The map is onto the separation-above-m tuples one ambient lower only for
small ambients (up to 4); no inverse or section is provided here, and none
is known to be numerically stable.
"""

import math
from dataclasses import dataclass

from .charge import CentralCharge, ReducedCharge, charge_of_poly, split_central
from .errors import DecompositionFailed, InvalidAmbient, SepViolation
from .exact import all_exact, coerce, integer_scaled, is_exact
from .interlace import Polynomial, RootTuple, roots_to_poly, sep_exceeds
from .poly import integer_root_product, integer_shift_difference


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

    The roots of the restricted member of roots_to_poly(t), at ambient n-1,
    built on exact t and m from poly.integer_root_product with no Fraction in
    between.  Requires sep(t) > m strictly.  An infinite last entry makes f
    and its restricted member drop degree, so the output keeps the +inf slot.
    """
    t = t if isinstance(t, RootTuple) else RootTuple(tuple(t))
    if t.n < 2:
        raise InvalidAmbient("restriction needs ambient >= 2")
    if not m > 0:
        raise SepViolation(f"degree must be positive, got {m}")
    if not t.sep() > m:
        raise SepViolation(f"sep(t) = {t.sep()} must exceed m = {m}")
    if all_exact(t.finite) and is_exact(m):
        diff = integer_shift_difference(integer_root_product(*integer_scaled(t.finite)), m)
        return Polynomial(tuple(diff[: t.n]), t.n - 1).roots()
    return _restricted_member(roots_to_poly(t), m).roots()


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
    The restricted tuples are the roots of the generators' restricted
    members; DecompositionFailed flags composed parts other than c_i m times
    their charges (an internal-consistency alarm; see _verify_prediction).
    """
    if Z.ambient < 2:
        raise InvalidAmbient("restriction needs ambient >= 2")
    c1, c2, line = split_central(Z)
    if not sep_exceeds(line, m):
        raise SepViolation(f"sep of the spanned line must exceed {m}")
    matrix = pushforward_matrix(Z.ambient, m)
    parts = []
    for B, gen, c in ((Z.real, line.gen_a, c1), (Z.imag, line.gen_b, c2)):
        composed, member = compose_with_pushforward(B, matrix), _restricted_member(gen, m).monic()
        _verify_prediction(composed, member, c * m)
        parts.append((composed, member.roots()))
    (real_c, s_r), (imag_c, t_r) = parts
    return RestrictedCharge(CentralCharge(real_c, imag_c), s_r, t_r, c1 * m, c2 * m)


def _restricted_member(f: Polynomial, m) -> Polynomial:
    """A positive multiple of f(x) - f(x - m), at ambient n - 1.

    On exact f and m it has integer coefficients
    (poly.integer_shift_difference); otherwise coefficient j is the float
    sum -sum_(k > j) f_k C(k, j) (-m)^(k - j), free of the cancellation in
    f(x) - f(x - m).  Float xi reads only its roots; restrict_charge takes
    it monic to compare charges.
    """
    if all_exact(f.coeffs) and is_exact(m):
        p = integer_shift_difference(f.coeffs, m)
    else:
        c, m = [float(x) for x in f.coeffs], float(m)
        p = [-sum(c[k] * math.comb(k, j) * (-m) ** (k - j) for k in range(j + 1, len(c)))
             for j in range(f.ambient)]
    return Polynomial(tuple(p[: f.ambient]), f.ambient - 1)


def _verify_prediction(composed: ReducedCharge, member: Polynomial, scale):
    """DecompositionFailed unless composed is scale times the charge of the restricted member.

    Equal weights on exact input; on float input within WEIGHT_MATCH_TOL
    relative to the largest composed weight.
    """
    predicted = charge_of_poly(member).scaled(scale)
    tol = 0
    if not composed.is_exact():
        tol = WEIGHT_MATCH_TOL * (max(abs(float(w)) for w in composed.weights) or 1.0)
    if any(abs(a - b) > tol for a, b in zip(composed.weights, predicted.weights)):
        raise DecompositionFailed(f"composed part {composed.weights} does not match "
                                  f"{scale} * B of the restricted member {member.coeffs}")
