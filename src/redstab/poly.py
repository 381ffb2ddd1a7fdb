"""Exact univariate polynomial arithmetic on ascending coefficient sequences.

Index k holds the coefficient of x^k.  The helpers take ints, Fractions and
floats and keep the representation of their input: exact in, exact out.

The hot kernels ``poly_from_roots`` and ``poly_shift_arg`` run on integer
numerators over one common denominator (exact.integer_scaled) when their
input is exact, and form one Fraction per coefficient at the end; on float
input they keep the float operation order of the plain product and Horner
loops.  ``integer_root_product`` (behind exact ``poly_from_roots``,
``charge.decompose`` and ``restrict.xi``), ``integer_shift_difference``
(behind restrict's f(x) - f(x - m)) and ``shift_wronskian`` return positive
integer multiples of their polynomials.

The integer Horner value ``scaled_value``, the Sturm chain and its sign
variations serve exact root certification (interlace) and the Sturm count of
the brute-force oracles, whose Sylvester resultant and Lagrange
interpolation live in redstab.oracles.
"""

from fractions import Fraction
from math import gcd, inf

from .exact import all_exact, integer_scaled, is_exact


def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_add(a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return tuple(x + y for x, y in zip(a, b))


def poly_scale(a, c):
    return tuple(c * x for x in a)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_derivative(coeffs):
    return tuple(k * c for k, c in enumerate(coeffs))[1:] or (0,)


def poly_from_roots(roots) -> tuple:
    """Coefficients of the monic prod (x - r), all Fraction or all float.

    Exact roots p_i / D multiply the integer factors (D x - p_i) and divide
    once by D^k; float roots multiply the factors (-r, 1) in turn, starting
    from 1.0.
    """
    if not all_exact(roots):
        coeffs = (1.0,)
        for r in roots:
            coeffs = poly_mul(coeffs, (-r, 1))
        return coeffs
    ints, den = integer_scaled(roots)
    scale = den ** len(ints)
    return tuple(Fraction(c, scale) for c in integer_root_product(ints, den))


def integer_root_product(ints, den) -> list:
    """Integer coefficients of prod (den x - p) over p in ints, den^k times prod (x - p / den)."""
    out = [1]
    for p in ints:
        # (den x - p) * out: coefficient j is den out[j-1] - p out[j]
        out = [den * a - p * b for a, b in zip([0] + out, out + [0])]
    return out


def poly_shift_arg(coeffs, m):
    """Coefficients of p(x + m); exact when inputs are exact.

    On exact input, with p = sum N_k x^k / D and m = a / b, Horner on the
    integers R(y) = sum N_k b^(d-k) (y + a)^k gives the coefficient of x^j as
    R_j / (D b^(d-j)).  Otherwise Horner with (x + m) on the coefficients.
    """
    if not (all_exact(coeffs) and is_exact(m)):
        out = (coeffs[-1],)
        for c in reversed(coeffs[:-1]):
            out = poly_add(poly_mul(out, (m, 1)), (c,))
        return out
    ints, den = integer_scaled(coeffs)
    b = m.denominator
    acc = _integer_shift(ints, m.numerator, b)
    d = len(acc) - 1
    return tuple(Fraction(r, den * b ** (d - j)) for j, r in enumerate(acc))


def _integer_shift(ints, a, b) -> list:
    """Integer coefficients of R(y) = sum N_k b^(d-k) (y + a)^k for N = ints.

    At y = b x, R is b^d times f(x + a / b) for f = sum N_k x^k.
    """
    acc = [ints[-1]]
    bk = 1
    for n_k in reversed(ints[:-1]):
        bk *= b
        # acc * (y + a) + n_k b^(d-k): coefficient j is acc[j-1] + a acc[j]
        acc = [y + a * x for x, y in zip(acc + [0], [0] + acc)]
        acc[0] += n_k * bk
    return acc


def _scaled_shift(ints, m) -> list:
    """Integer coefficients of b^d f(x + m) for f = sum ints[k] x^k and m = a / b."""
    b = m.denominator
    return [r * b ** j for j, r in enumerate(_integer_shift(ints, m.numerator, b))]


def integer_shift_difference(coeffs, m) -> list:
    """Integer coefficients of a positive multiple of f(x) - f(x - m), for exact f and m."""
    ints, _ = integer_scaled(coeffs)
    bd = m.denominator ** (len(ints) - 1)
    return [bd * c - r for c, r in zip(ints, _scaled_shift(ints, -m))]


def shift_wronskian(f, h, m) -> tuple:
    """Integer coefficients of a positive multiple of f(x) h(x + m) - f(x + m) h(x).

    For exact f, h of one length and exact m; the multiple is b^d times the
    common denominators of f and h, for m = a / b and degree bound d.
    """
    (fi, _), (hi, _) = integer_scaled(f), integer_scaled(h)
    return poly_add(poly_mul(fi, _scaled_shift(hi, m)),
                    poly_scale(poly_mul(_scaled_shift(fi, m), hi), -1))


# ---------------------------------------------------------------------------
# integer sign evaluation and Sturm sequences


def trim(p):
    """Drop vanishing leading coefficients, keeping at least the constant."""
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def scaled_value(ints, p, q) -> int:
    """q^d f(p/q) by integer Horner, for f with integer coefficients ints (degree d).

    For q > 0 its sign is the sign of f(p/q).
    """
    acc, qk = ints[-1], 1
    for c in reversed(ints[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return acc


def sturm_chain(p) -> list:
    """Sturm sequence p, p', -rem, ... of a nonconstant rational polynomial, on integers.

    Each remainder is a pseudo-remainder divided by its content, a positive
    factor that keeps every sign.  The last member is gcd(p, p') up to a
    constant, so p has a repeated root exactly when it is not constant.
    """
    chain = [integer_scaled(trim(list(p)))[0]]
    chain.append(list(poly_derivative(chain[0])))
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        lead, sign = abs(b[-1]), 1 if b[-1] > 0 else -1
        while len(a) >= len(b) and any(a):
            # |lead| a - sign(lead) a_top x^shift b cancels a's top term
            top, shift = sign * a[-1], len(a) - len(b)
            a = [lead * x for x in a]
            for i, y in enumerate(b):
                a[i + shift] -= top * y
            a = trim(a[:-1])
        if not any(a):
            break
        content = gcd(*a)
        chain.append([-x // content for x in a])
    return chain


def sign_variations(chain, p, q=1) -> int:
    """Sign changes along a Sturm chain at p / q (q > 0), or at p = +-inf.

    For a squarefree polynomial, V(a) - V(b) counts its roots in (a, b].
    """
    if p in (inf, -inf):
        values = [c[-1] if p > 0 or len(c) % 2 else -c[-1] for c in chain]
    else:
        values = [scaled_value(c, p, q) for c in chain]
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sturm_count_real(p) -> int:
    """Number of distinct real roots of a rational polynomial (Sturm)."""
    if len(trim(list(p))) == 1:
        return 0
    chain = sturm_chain(p)
    return sign_variations(chain, -inf) - sign_variations(chain, inf)
