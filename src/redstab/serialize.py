"""JSON codecs for the external interfaces.

Polynomials serialize as arrays of exact rational strings in ascending
coefficient order; root tuples as arrays with "inf" in the infinite slot;
lattice vectors and charge weights as arrays of rational strings; Gram
matrices as 2-d arrays of rational strings.  Only a root tuple takes +inf
("inf"); every other slot rejects NaN and +-inf, so a number that overflows
JSON's float range is an error where it enters.  Values that were computed in
floating point serialize as decimal strings with 17 significant digits and
are marked by the enclosing document's mode field.
"""

import math
from fractions import Fraction

from .charge import ReducedCharge
from .exact import is_exact
from .interlace import PLUS_INFINITY, Polynomial, RootTuple
from .quadform import QuadraticForm

FLOAT_MODE = "float64:17sig"
EXACT_MODE = "exact"
# largest |decimal exponent| of a numeric string: the exact value 10^e is
# built digit by digit, and an integer of more than 4300 digits cannot be
# printed back (Python's int/str conversion limit)
MAX_EXPONENT = 4300


def number_to_str(x) -> str:
    if x == PLUS_INFINITY:
        return "inf"
    if is_exact(x):
        return str(Fraction(x))
    return format(float(x), ".17g")


def number_from_str(s):
    """A finite JSON number or numeric string.

    ValueError for NaN, +-inf (also a JSON number beyond the float range),
    a zero denominator, a decimal exponent beyond MAX_EXPONENT, and a JSON
    value that is not a number or a string (null, true/false, an array, an
    object).
    """
    if isinstance(s, bool) or not isinstance(s, (int, float, str)):
        raise ValueError(f"not a number: {s!r}")
    if isinstance(s, (int, float)):
        x = s
    else:
        s = s.strip()
        _, e, exponent = s.lower().partition("e")
        if e and exponent.lstrip("+-").isdigit() and abs(int(exponent)) > MAX_EXPONENT:
            raise ValueError(f"decimal exponent beyond {MAX_EXPONENT} in {s!r}")
        try:
            x = Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {s!r}") from None
        except ValueError:
            x = float(s)
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"not a finite number: {s!r}")
    return x


def _root_from_str(s):
    """A root-tuple entry: a finite number, or +inf as "inf", "+inf", "Infinity"."""
    if s == PLUS_INFINITY or (isinstance(s, str) and s.strip() in ("inf", "+inf", "Infinity")):
        return PLUS_INFINITY
    return number_from_str(s)


def array_from_json(data) -> list:
    """A JSON array as a list; ValueError for any other JSON value."""
    if not isinstance(data, list):
        raise ValueError(f"expected a JSON array, got {data!r}")
    return data


def mode_of(values) -> str:
    return EXACT_MODE if all(is_exact(x) for x in values) else FLOAT_MODE


def poly_from_json(data, ambient=None) -> Polynomial:
    coeffs = tuple(number_from_str(c) for c in array_from_json(data))
    return Polynomial(coeffs, len(coeffs) - 1 if ambient is None else ambient)


def roots_to_json(t: RootTuple) -> list:
    return [number_to_str(x) for x in t.entries]


def roots_from_json(data) -> RootTuple:
    return RootTuple(tuple(_root_from_str(x) for x in array_from_json(data)))


def vector_from_json(data) -> tuple:
    return tuple(number_from_str(x) for x in array_from_json(data))


def charge_to_json(B: ReducedCharge) -> list:
    return [number_to_str(w) for w in B.weights]


def charge_from_json(data) -> ReducedCharge:
    return ReducedCharge(vector_from_json(data))


def gram_to_json(Q: QuadraticForm) -> list:
    return [[number_to_str(x) for x in row] for row in Q.gram]


def gram_from_json(rows) -> QuadraticForm:
    return QuadraticForm(tuple(vector_from_json(row) for row in array_from_json(rows)))
