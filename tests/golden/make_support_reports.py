"""Regenerate ``support_reports.json``: ``q_tilde`` and ``verify_support`` on fixed lines.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_support_reports.py

The lines are interlaced pairs of quarter-integer tuples, PER_AMBIENT per
ambient n = 2..5, drawn once from a fixed seed; one in five ends in +inf, so
that a generator is the canonical member itself.  Each line is stored twice:
with rational entries and with their float copies.  A record holds q_tilde's
weight and Gram matrix (or the error it raised) and the ``repr`` of
verify_support's report, failures included, for three forms:

- the form q_tilde found, at the samples of q_tilde;
- the rung below it, Q - (alpha / 2) q_line, which the weight search
  rejected (kernel and pairing records);
- Q with 1 added to its last diagonal entry, on a short grid and few
  members (vanishing, kernel, pairing and pairing-inf records).

``tests/test_golden.py`` recomputes every record from the stored lines and
compares the rendered document byte for byte; it never writes the file.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from redstab.errors import RedstabError
from redstab.interlace import PLUS_INFINITY, Pencil
from redstab.quadform import QuadraticForm, q_line, q_tilde, verify_support
from redstab.serialize import gram_to_json, number_to_str, roots_from_json

PATH = Path(__file__).resolve().parent / "support_reports.json"
SEED = 2707
AMBIENTS = (2, 3, 4, 5)
PER_AMBIENT = 50
SAMPLES = 50
SHORT = 4           # grid points and members of the third report


def _rand_interlaced_pair(rng, n):
    t = [Fraction(rng.randint(-24, -16), 4)]
    for _ in range(n - 1):
        t.append(t[-1] + Fraction(1, 2) + Fraction(rng.randint(0, 11), 4))
    s = []
    for i, x in enumerate(t):
        left = t[i - 1] if i else x - 2
        s.append(left + (x - left) * Fraction(rng.randint(1, 7), 8))
    if rng.random() < 0.2:
        t[-1] = PLUS_INFINITY
    return s, t


def draw_lines():
    """The lines as pairs of root lists: rational strings, then the float copy by repr."""
    rng = random.Random(SEED)
    pairs = [_rand_interlaced_pair(rng, n) for n in AMBIENTS for _ in range(PER_AMBIENT)]
    out = []
    for s, t in pairs:
        out.append(([number_to_str(x) for x in s], [number_to_str(x) for x in t]))
        out.append(([repr(float(x)) for x in s], [repr(float(x)) for x in t]))
    return out


def _form(rows):
    return QuadraticForm(tuple(tuple(row) for row in rows))


def entry(s, t):
    """The golden record of the line through the members with roots s and t."""
    line = Pencil.from_tuples(roots_from_json(s), roots_from_json(t))
    record = {"s": s, "t": t}
    try:
        Q = q_tilde(line, samples=SAMPLES)
    except RedstabError as exc:     # the error is the recorded outcome
        record["error"] = repr(exc)
        return record
    n = line.ambient
    half = Q.meta["alpha"] / 2
    below = _form([[a - half * b for a, b in zip(r1, r2)]
                   for r1, r2 in zip(Q.gram, q_line(line).gram)])
    bumped = [list(row) for row in Q.gram]
    bumped[n][n] += 1
    record["alpha"] = number_to_str(Q.meta["alpha"])
    record["gram"] = gram_to_json(Q)
    record["reports"] = [repr(verify_support(Q, line, samples=SAMPLES)),
                         repr(verify_support(below, line, samples=SAMPLES)),
                         repr(verify_support(_form(bumped), line, samples=SHORT, grid=SHORT))]
    return record


def render(entries):
    """The document, one line record per text line."""
    lines = ",\n".join(json.dumps(e) for e in entries)
    return f'{{"samples": {SAMPLES}, "short": {SHORT}, "lines": [\n{lines}\n]}}\n'


def main():
    entries = [entry(s, t) for s, t in draw_lines()]
    PATH.write_text(render(entries))
    print(f"wrote {len(entries)} lines to {PATH}")


if __name__ == "__main__":
    main()
