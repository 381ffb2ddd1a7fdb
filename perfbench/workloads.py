"""The four benchmark workloads: seeded inputs, one op each, and its check.

Every input is generated here from the workload seed as plain rationals
(tuples of ``Fraction``); every redstab object is built inside the op, so no
root cache or other per-object state carries from one op to the next.  Ops
call redstab through module attributes (``quadform.q_tilde``), never through
names bound at import, so the tracer's wrappers see every call.

Checks run outside an op's timed interval.  They use the benchmark's own
exact arithmetic (``expand``, ``gamma``, ``weights_of``) wherever the paper
gives a closed form, and redstab itself only to compare two of its routes
(``restrict_charge`` against ``xi``, ``xi_multi`` in both orders) or to
re-verify a claim (a ``stabilizing_shift`` result through ``sep_pencil``).
"""

import json
import math
import os
import random
import re
import resource
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from time import process_time

from redstab import charge, geometry, interlace, quadform, restrict, walls

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SLACK = 1e-9         # separation slack of criteria 2 and 10


# ---------------------------------------------------------------------------
# the benchmark's own exact arithmetic


def expand(roots):
    """Ascending coefficients of the monic product of (x - r)."""
    c = [F(1)]
    for r in roots:
        c = [F(0)] + c
        for k in range(len(c) - 1):
            c[k] -= r * c[k + 1]
    return c


def weights_of(t, n=None):
    """Weights of the normalized charge B_t (finite t) at ambient n."""
    n = len(t) if n is None else n
    c = expand(t)
    return [F(math.factorial(k)) * c[k] / math.factorial(n) for k in range(n + 1)]


def gamma(x, n):
    return [F(x) ** k / math.factorial(k) for k in range(n + 1)]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def quad(gram, v):
    return sum(v[i] * dot(row, v) for i, row in enumerate(gram))


def is_exact(x):
    return isinstance(x, (int, F)) and not isinstance(x, bool)


def hilb_closed_form(m):
    """(N, M) of hilb_bounds by the definitions, with integer cube roots."""
    n = max(1, round((6 * m) ** (1 / 3)) - 4)
    while (n + 1) * (n + 2) * (n + 3) <= 6 * m:
        n += 1
    while n > 1 and n * (n + 1) * (n + 2) > 6 * m:
        n -= 1
    big = min(m + 2, round((6 * m) ** (1 / 3)) + 8)
    while big > 1 and not big * big * (big - 4) < 6 * m:
        big -= 1
    return n, big


def sep_of(t):
    return min(b - a for a, b in zip(t, t[1:]))


def rand_tuple(rng, n, min_gap=F(1, 2), lo=-6):
    """Criterion-6 generator: increasing quarter-integers, gaps >= min_gap."""
    t = [F(rng.randint(lo * 4, (lo + 2) * 4), 4)]
    for _ in range(n - 1):
        t.append(t[-1] + min_gap + F(rng.randint(0, 11), 4))
    return tuple(t)


def rand_interlaced_pair(rng, n):
    t = rand_tuple(rng, n)
    s = []
    for i, x in enumerate(t):
        left = t[i - 1] if i else x - 2
        s.append(left + (x - left) * F(rng.randint(1, 7), 8))
    return tuple(s), t


# ---------------------------------------------------------------------------


class Workload:
    """A closed-loop op stream: a fixed cycle of (kind, ambient) slots.

    Op i takes slot ``cycle[i % len(cycle)]`` and an instance drawn from a
    generator seeded by (workload, seed, i), so the op mix per ambient is
    fixed, only the values change with the seed, and no instance repeats
    within a run.  Instances are drawn outside the op's timed interval.
    """

    name = ""
    cycle = ()
    trace_ops = 0           # fixed op count of a traced run, so counts repeat
    clock = staticmethod(process_time)     # CPU seconds an op is timed with

    def __init__(self, seed):
        self.seed = seed

    def input(self, i):
        slot = self.cycle[i % len(self.cycle)]
        return slot, self.make(random.Random(f"{self.name}:{self.seed}:{i}"), *slot)

    def make(self, rng, kind, n):
        raise NotImplementedError

    def run(self, slot, inst):
        raise NotImplementedError

    def check(self, slot, inst, out):
        raise NotImplementedError

    def fingerprint(self, slot, out):
        """The outputs a traced run must reproduce exactly."""
        return out


class Support(Workload):
    """q_tilde then verify_support at the criterion-6 grid and member counts."""

    name = "support"
    cycle = tuple(("line", n) for n in (2, 3, 4, 5))   # criterion 6: n uniform in 2..5
    trace_ops = 12
    MEMBERS = 50
    GRID = 100

    def make(self, rng, kind, n):
        s, t = rand_interlaced_pair(rng, n)
        probes = tuple(F(rng.randint(-90, 90), 7) for _ in range(3))
        return s, t, probes

    def run(self, slot, inst):
        s, t, _ = inst
        line = interlace.Pencil.from_tuples(s, t)
        Q = quadform.q_tilde(line, samples=self.MEMBERS)
        rep = quadform.verify_support(Q, line, samples=self.MEMBERS, grid=self.GRID)
        return Q, rep

    def check(self, slot, inst, out):
        Q, rep = out
        gram = Q.gram
        n = len(gram) - 1
        return (rep.ok
                and all(is_exact(x) for row in gram for x in row)
                and all(gram[i][j] == gram[j][i] for i in range(n + 1) for j in range(i))
                and all(quad(gram, gamma(x, n)) == 0 for x in inst[2]))

    def fingerprint(self, slot, out):
        Q, rep = out
        return Q.meta["alpha"], Q.gram, rep.ok, rep.max_vanishing_residual


class Pencil(Workload):
    """sep_pencil on derivative and shift pencils and the decisions it gates."""

    name = "pencil"
    cycle = tuple((kind, n) for kind in ("deriv", "shift", "in_un", "restrict", "stab")
                  for n in (2, 3, 4, 5))
    trace_ops = 200

    def make(self, rng, kind, n):
        t = rand_tuple(rng, n)
        sep = sep_of(t)
        m = sep * F(rng.randint(4, 36), 40)
        bound = min(m, sep - m)                    # criterion-2 shift-pencil bound
        c1, c2 = F(rng.randint(1, 12), 4), F(rng.randint(1, 12), 4)
        below = bound * F(rng.randint(1, 3), 4)    # d, or the section degree m'
        # Z = c1*B_(t-m) + i*c2*B_t lies in the interlaced cone
        return {"t": t, "m": m, "bound": bound, "below": below, "c1": c1, "c2": c2,
                "up": tuple(x + m for x in t), "down": tuple(x - m for x in t),
                "real": tuple(c1 * w for w in weights_of([x - m for x in t])),
                "imag": tuple(c2 * w for w in weights_of(t))}

    def run(self, slot, inst):
        kind, _ = slot
        if kind == "deriv":
            f = interlace.Polynomial.from_roots(inst["t"])
            return interlace.sep_pencil(interlace.Pencil(f, f.derivative()))
        if kind == "shift":
            f = interlace.Polynomial.from_roots(inst["t"])
            return interlace.sep_pencil(interlace.shift_pencil(f, inst["m"]))
        if kind == "stab":
            f = interlace.Polynomial.from_roots(inst["t"])
            g = interlace.Polynomial.from_roots(inst["up"])
            return interlace.stabilizing_shift(f, g, inst["below"])
        Z = charge.CentralCharge(charge.ReducedCharge(inst["real"]),
                                 charge.ReducedCharge(inst["imag"]))
        if kind == "in_un":
            return charge.in_Un(Z, inst["below"])
        rc = restrict.restrict_charge(Z, inst["below"])
        return rc.s.entries, rc.t.entries, rc.scale_real, rc.scale_imag

    def check(self, slot, inst, out):
        kind, _ = slot
        t, below = inst["t"], inst["below"]
        if kind == "deriv":
            return out >= float(sep_of(t)) - SLACK
        if kind == "shift":
            return out > float(inst["bound"]) - SLACK
        if kind == "in_un":
            return out is True
        if kind == "stab":
            if not (out >= 1 and math.frexp(out)[0] == 0.5):
                return False
            n = len(t)
            f_up = interlace.Polynomial(tuple(expand(t)) + (0,), n + 1)
            shifted = interlace.Polynomial(
                tuple(interlace.poly_mul((out, 1), tuple(expand(inst["up"])))), n + 1)
            return interlace.sep_pencil(interlace.Pencil(f_up, shifted)) > below
        s_r, t_r, scale_real, scale_imag = out
        want_s = restrict.xi(inst["down"], below).entries
        want_t = restrict.xi(t, below).entries
        close = all(abs(float(a) - float(b)) <= 1e-9 * max(1.0, abs(float(b)))
                    for a, b in zip(s_r + t_r, want_s + want_t))
        return (close and len(s_r) == len(want_s) and len(t_r) == len(want_t)
                and scale_real == inst["c1"] * below and scale_imag == inst["c2"] * below)


class Charges(Workload):
    """Exact and float reduced charges, kernel signs, restriction, slice, hilb_bounds.

    ``reduced_charge`` runs on the same kind of tuples as exact rationals
    (``rc``) and as floats (``rcf``), so a route change that speeds one input
    kind and slows the other shows on this workload.
    """

    name = "charges"
    cycle = (tuple(("rc", n) for n in (2, 3, 4, 5, 8))
             + tuple(("rcf", n) for n in (2, 3, 4, 5, 8))
             + tuple(("dec", n) for n in (2, 3, 4, 5))
             + tuple(("xi", n) for n in (2, 3, 4, 5))
             + tuple(("xim", n) for n in (3, 4, 5))
             + (("geom", 3), ("geom", 3)) + (("hilb", 3),) * 4)
    trace_ops = 27 * 40

    def make(self, rng, kind, n):
        if kind == "rc":
            return rand_tuple(rng, n)
        if kind == "rcf":
            t = rand_tuple(rng, n)
            return t, tuple(float(x) for x in t)
        if kind == "dec":
            t = rand_tuple(rng, n)
            sign = rng.choice((1, -1, 0))          # 0: mixed signs
            a = [F(rng.randint(1, 32), 8) for _ in range(n)]
            if sign:
                a = [sign * x for x in a]
            else:
                a[0], a[-1] = a[0], -a[-1]
            cols = [gamma(x, n) for x in t]
            v = tuple(sum((-1) ** (i + 1) * a[i] * cols[i][r] for i in range(n))
                      for r in range(n + 1))
            return t, v, tuple(a)
        if kind in ("xi", "xim"):
            t = rand_tuple(rng, n, min_gap=F(1))
            m1 = sep_of(t) * F(rng.randint(2, 8), 10)
            m2 = sep_of(t) * F(rng.randint(1, 4), 20)
            return t, m1, m2
        if kind == "geom":
            t = rand_tuple(rng, 3)
            alpha = F(rng.randint(1, 32), 8)
            return t, alpha
        return int(round(10 ** rng.uniform(0, 4)))   # hilb: m log-uniform

    def run(self, slot, inst):
        kind, _ = slot
        if kind == "rc":
            return charge.reduced_charge(inst).weights
        if kind == "rcf":
            return charge.reduced_charge(inst[1]).weights
        if kind == "dec":
            t, v, _ = inst
            dec = charge.decompose(v, t)
            return dec.verdict, tuple(dec.coeffs)
        if kind == "xi":
            t, m1, _ = inst
            return restrict.xi(t, m1).entries
        if kind == "xim":
            t, m1, m2 = inst
            return restrict.xi_multi(t, (m1, m2)).entries
        if kind == "geom":
            t, alpha = inst
            p = geometry.params_from_tuples(t)
            verdict = geometry.validity_iff_interlaced(geometry.ThreefoldParams(
                alpha=alpha, beta=p.beta, a=p.a, b=p.b))
            return (p.beta, p.a, p.b), verdict
        return walls.hilb_bounds(inst)

    def check(self, slot, inst, out):
        kind, n = slot
        if kind == "rc":
            w = list(out)
            return (w[n] == 1 and w == weights_of(inst)
                    and all(dot(w, gamma(x, n)) == 0 for x in inst))
        if kind == "rcf":
            want = weights_of(inst[0])
            scale = max(abs(float(x)) for x in want)
            return all(abs(float(a) - float(b)) <= 1e-9 * scale for a, b in zip(out, want))
        if kind == "dec":
            t, v, a = inst
            verdict, coeffs = out
            want = (charge.ALL_NONNEG if all(x >= 0 for x in a) else
                    charge.ALL_NONPOS if all(x <= 0 for x in a) else charge.MIXED)
            return verdict == want and coeffs == a
        if kind in ("xi", "xim"):
            t, m1, m2 = inst
            if kind == "xim":
                if len(out) != n - 2:
                    return False
                other = restrict.xi_multi(t, (m2, m1)).entries
                return all(abs(float(x) - float(y)) <= 1e-9 for x, y in zip(out, other))
            f = expand(t)
            g = expand([x + m1 for x in t])
            for r in out:
                fr, gr = _horner(f, float(r)), _horner(g, float(r))
                if abs(fr - gr) > 1e-8 * (abs(fr) + abs(gr) + 1.0):
                    return False
            return (len(out) == n - 1
                    and all(float(b - a) > float(m1) - SLACK for a, b in zip(out, out[1:])))
        if kind == "geom":
            t, alpha = inst
            (beta, a, b), (valid, interlaced) = out
            want_valid = a > alpha * alpha / 6 + abs(b) * alpha / 2
            return (beta == t[1] and 3 * b == t[0] + t[2] - 2 * t[1]
                    and 24 * a == (t[2] - t[0]) ** 2 - 9 * b * b
                    and valid == want_valid == interlaced)
        return tuple(out) == hilb_closed_form(inst)


def _horner(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + float(c)
    return acc


# ---------------------------------------------------------------------------


def _cpu_with_children():
    """CPU seconds of this process and of its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


class Cli(Workload):
    """One fresh ``python -m redstab.cli`` process per op, README verbs.

    An op's time is the CPU time of the child plus this process's share
    (starting it, reading its output).
    """

    name = "cli"
    cycle = (("walls-hilb", 3), ("charge-eval", 3), ("interlace-check", 3),
             ("sep-pencil", 3), ("quadform-build", 3), ("geom-threefold", 3),
             ("restrict-xi", 3), ("walls-plot", 3), ("walls-numerical", 3))
    trace_ops = 9
    clock = staticmethod(_cpu_with_children)

    def __init__(self, seed):
        super().__init__(seed)
        OUT.mkdir(exist_ok=True)
        self.figure = OUT / f"figure-{os.getpid()}.svg"
        self.traced = False
        self.child_reports = []
        self.child_stderr = []

    def make(self, rng, kind, n):
        js = lambda xs: json.dumps([str(x) for x in xs])  # noqa: E731
        if kind == "walls-hilb":
            m = int(round(10 ** rng.uniform(0, 4)))
            return ["walls", "hilb", "--m", str(m)], m
        if kind == "charge-eval":
            t = rand_tuple(rng, n)
            v = [F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n + 1)]
            return ["charge", "eval", "--roots", js(t), "--v", js(v)], dot(weights_of(t), v)
        if kind == "interlace-check":
            s, t = rand_interlaced_pair(rng, n)
            return ["interlace", "check", "--f", js(expand(s)), "--g", js(expand(t))], True
        if kind == "sep-pencil":
            t = rand_tuple(rng, n)
            f = expand(t)
            df = [k * c for k, c in enumerate(f)][1:] + [F(0)]
            return ["interlace", "sep-pencil", "--f", js(f), "--g", js(df)], sep_of(t)
        if kind == "quadform-build":
            s, t = rand_interlaced_pair(rng, n)
            probes = tuple(F(rng.randint(-90, 90), 7) for _ in range(3))
            return ["quadform", "build", "--s", js(s), "--t", js(t)], probes
        if kind == "geom-threefold":
            alpha, b = F(rng.randint(1, 16), 4), F(rng.randint(-8, 8), 4)
            a = (alpha * alpha / 6 + abs(b) * alpha / 2) * F(rng.randint(11, 30), 10)
            beta = F(rng.randint(-8, 8), 4)
            argv = ["geom", "threefold"]
            for k, x in (("alpha", alpha), ("beta", beta), ("a", a), ("b", b)):
                argv.append(f"--{k}={x}")             # "=" lets a value start with "-"
            return argv, (alpha, beta, a, b)
        if kind == "restrict-xi":
            t = rand_tuple(rng, n, min_gap=F(1))
            m = sep_of(t) * F(rng.randint(2, 8), 10)
            return ["restrict", "xi", "--roots", js(t), "--m", str(m)], m
        if kind == "walls-plot":
            m = rng.randint(1, 64)
            return ["walls", "plot", "--figure", "4", "--m", str(m)], m
        # a wall through a rational tuple: v and w vanish on its twisted vectors
        t0 = rand_tuple(rng, n, min_gap=F(1))
        g = [gamma(x, n) for x in t0]
        a, b = F(rng.randint(1, 8), 4), F(rng.randint(1, 8), 4)
        v = [x - a * y for x, y in zip(g[0], g[1])]
        w = [x + b * y for x, y in zip(g[1], g[2])]
        box = [[float(x) - 1.0, float(x) + 1.0] for x in t0]
        return ["walls", "numerical", "--v", js(v), "--w", js(w), "--box", json.dumps(box),
                "--samples", "64"], None

    def command(self, slot, argv):
        argv = list(argv)
        if slot[0] == "walls-plot":
            argv += ["--out", str(self.figure)]
        if not self.traced:
            return [sys.executable, "-m", "redstab.cli"] + argv
        report = OUT / f"cli-child-{len(self.child_reports)}.json"
        self.child_reports.append(report)
        return ([sys.executable, "-X", "importtime",
                 str(Path(__file__).with_name("cli_child.py")), str(report)] + argv)

    def run(self, slot, inst):
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        proc = subprocess.Popen(self.command(slot, inst[0]), cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            stdout, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if self.traced:
            self.child_stderr.append(stderr.decode())
        figure = None
        if slot[0] == "walls-plot":
            figure = self.figure.read_text()
            self.figure.unlink()
        return proc.returncode, stdout.decode(), figure, stderr.decode()

    def fingerprint(self, slot, out):
        return out[:3]

    def check(self, slot, inst, out):
        kind, n = slot
        code, stdout, figure, _ = out
        if code != 0:
            return False
        if kind == "walls-plot":
            desc = re.search(r"<desc>(.*)</desc>", figure or "")
            meta = json.loads(desc.group(1)) if desc else {}
            return stdout == "" and (meta.get("N"), meta.get("M")) == hilb_closed_form(inst[1])
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        if stdout.count("\n") != 1 or "result" not in doc:
            return False
        res = doc["result"]
        want = inst[1]
        if kind == "walls-hilb":
            return (res["N"], res["M"], res["m"]) == hilb_closed_form(want) + (want,)
        if kind == "walls-numerical":
            # the wall is sampled, so an empty sample is a valid answer; what
            # is returned must lie on both kernels
            return res["codimension"] == 2 and float(res["residual_max"]) <= 1e-9
        if kind == "charge-eval":
            return F(res["value"]) == want and doc["mode"] == "exact"
        if kind == "interlace-check":
            return res["interlaced"] is want
        if kind == "sep-pencil":
            return res["certified"] is False and F(res["sep"]) >= want - SLACK
        if kind == "quadform-build":
            gram = [[F(x) for x in row] for row in res["gram"]]
            return (res["construction"] == "inductive" and doc["mode"] == "exact"
                    and all(gram[i][j] == gram[j][i] for i in range(n + 1) for j in range(i))
                    and all(quad(gram, gamma(x, n)) == 0 for x in want))
        if kind == "geom-threefold":
            alpha, beta, a, b = want
            real = [beta ** 3 / 6 + b * beta ** 2 / 2 - a * beta, a - b * beta - beta ** 2 / 2,
                    beta + b, F(-1)]
            imag = [(beta ** 2 - alpha ** 2) / 2, -beta, F(1), F(0)]
            return ([F(x) for x in res["real_weights"]] == real
                    and [F(x) for x in res["imag_weights"]] == imag)
        roots = [F(x) for x in res["roots"]]    # exact strings when the roots are rational
        return (len(roots) == n - 1
                and all(b - a > want - SLACK for a, b in zip(roots, roots[1:])))


WORKLOADS = {w.name: w for w in (Support, Pencil, Charges, Cli)}
