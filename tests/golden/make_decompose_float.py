"""Regenerate ``decompose_float.json``: ``charge.decompose`` on float data.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_decompose_float.py

The inputs are tuples t and vectors v with n = 1..8, drawn once from a fixed
seed, of which three in ten end in +inf: v in the kernel of B_t up to
rounding, v nudged off it, coefficients near the sign and boundary
tolerances, and float t against rational v or rational t against float v.
They are stored with their results (the coefficients, verdict and boundary
flag by ``repr``, or the error and its message).  ``tests/test_charge.py``
recomputes every entry from the stored inputs and compares the rendered
document byte for byte; it never writes the file.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from redstab.charge import decompose, gamma
from redstab.errors import NotInKernel

PATH = Path(__file__).resolve().parent / "decompose_float.json"
SEED = 2510
CASES = 400


def _draw(rng, case):
    n = rng.randint(1, 8)
    t = sorted(Fraction(x, 8) for x in rng.sample(range(-60, 60), n))
    if rng.random() < 0.3:
        t[-1] = float("inf")
    a = [Fraction(rng.randint(-40, 40), rng.choice((1, 3, 8))) for _ in range(n)]
    if case % 5 == 1:
        a[rng.randrange(n)] = Fraction(rng.choice((1, 3, 50)), 10 ** rng.choice((9, 12, 13)))
    cols = [gamma(x, n) for x in t]
    v = [sum((-1) ** (i + 1) * a[i] * cols[i][r] for i in range(n)) for r in range(n + 1)]
    if case % 5 == 2:
        v[rng.randrange(n + 1)] += Fraction(rng.randint(1, 9), 10 ** rng.choice((3, 8)))
    if case % 5 != 3:
        t = [float(x) for x in t]
    if case % 5 != 4:
        v = [float(x) for x in v]
    return t, v


def draw_inputs():
    """The inputs as pairs of lists of strings: a float's repr, or a Fraction's str."""
    rng = random.Random(SEED)
    return [([repr(x) if isinstance(x, float) else str(x) for x in t],
             [repr(x) if isinstance(x, float) else str(x) for x in v])
            for t, v in (_draw(rng, case) for case in range(CASES))]


def _number(s):
    return Fraction(s) if set(s) <= set("-0123456789/") else float(s)


def entry(t, v):
    """The golden record of decompose(v, t), inputs given as by draw_inputs."""
    try:
        dec = decompose([_number(x) for x in v], [_number(x) for x in t])
        out = repr((dec.coeffs, dec.verdict, dec.boundary))
    except NotInKernel as exc:
        out = f"NotInKernel: {exc}"
    return {"t": t, "v": v, "out": out}


def render(entries):
    return json.dumps({"cases": entries}, indent=1) + "\n"


def main():
    entries = [entry(t, v) for t, v in draw_inputs()]
    PATH.write_text(render(entries))
    print(f"wrote {len(entries)} cases to {PATH}")


if __name__ == "__main__":
    main()
