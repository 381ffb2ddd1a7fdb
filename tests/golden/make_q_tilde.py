"""Regenerate ``q_tilde.json``: the support-form weight and Gram matrix of fixed lines.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_q_tilde.py

The lines are criterion-6-style interlaced pairs of quarter-integer tuples,
three per ambient n = 2..5, drawn once from a fixed seed and stored in the
file with their results.  ``tests/test_golden.py`` recomputes every entry
from the stored lines and compares the rendered document byte for byte; it
never writes the file.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from redstab.interlace import Pencil
from redstab.quadform import q_tilde
from redstab.serialize import gram_to_json, number_to_str, roots_from_json

PATH = Path(__file__).resolve().parent / "q_tilde.json"
SEED = 2506
AMBIENTS = (2, 3, 4, 5)
PER_AMBIENT = 3
SAMPLES = 50


def _rand_tuple(rng, n):
    t = [Fraction(rng.randint(-24, -16), 4)]
    for _ in range(n - 1):
        t.append(t[-1] + Fraction(1, 2) + Fraction(rng.randint(0, 11), 4))
    return t


def _rand_interlaced_pair(rng, n):
    t = _rand_tuple(rng, n)
    s = []
    for i, x in enumerate(t):
        left = t[i - 1] if i else x - 2
        s.append(left + (x - left) * Fraction(rng.randint(1, 7), 8))
    return s, t


def draw_lines():
    """The lines as pairs of root lists in rational strings."""
    rng = random.Random(SEED)
    pairs = [_rand_interlaced_pair(rng, n) for n in AMBIENTS for _ in range(PER_AMBIENT)]
    return [([str(x) for x in s], [str(x) for x in t]) for s, t in pairs]


def entry(s, t):
    """The golden record of the line through the members with roots s and t."""
    s, t = roots_from_json(s), roots_from_json(t)
    Q = q_tilde(Pencil.from_tuples(s, t), samples=SAMPLES)
    return {"n": s.n,
            "s": [number_to_str(x) for x in s],
            "t": [number_to_str(x) for x in t],
            "alpha": number_to_str(Q.meta["alpha"]),
            "gram": gram_to_json(Q)}


def render(entries):
    doc = {"samples": SAMPLES, "lines": entries}
    return json.dumps(doc, indent=1) + "\n"


def main():
    entries = [entry(s, t) for s, t in draw_lines()]
    PATH.write_text(render(entries))
    print(f"wrote {len(entries)} lines to {PATH}")


if __name__ == "__main__":
    main()
