"""Span tracing of redstab's public functions, installed from outside.

Each wrapped call records one span: name, start, end, parent span and the op
id the harness set.  Spans stay in memory (parallel arrays) until the run
ends; self time is then derived from them as a span's duration minus the
time its child spans cover.  A few counters that need the call's arguments
or result (root-cache hits, exact-input root extraction, verify_support
passes, alpha doublings) are taken at the same boundary.

Wrappers replace the function in every ``redstab`` module namespace that
binds it (``exact.inertia`` is also ``quadform.inertia`` and
``redstab.inertia``), so calls through any import path are seen.
"""

import functools
import sys
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

INF = float("inf")

# (module, attribute) pairs; a dotted attribute names a method on a class
TARGETS = (
    ("interlace", "Polynomial.roots"),
    ("interlace", "is_interlaced"),
    ("interlace", "sep_pencil"),
    ("interlace", "pencil_canonical"),
    ("interlace", "pencil_project"),
    ("interlace", "stabilizing_shift"),
    ("charge", "reduced_charge"),
    ("charge", "charge_of_poly"),
    ("charge", "poly_of_charge"),
    ("charge", "in_Bn"),
    ("charge", "in_Un"),
    ("charge", "decompose"),
    ("quadform", "q_line"),
    ("quadform", "q_tilde"),
    ("quadform", "verify_support"),
    ("quadform", "QuadraticForm.pair"),
    ("quadform", "QuadraticForm.pair_float_with_scale"),
    ("quadform", "QuadraticForm.pair_exact"),
    ("exact", "bareiss_det"),
    ("exact", "inertia"),
    ("exact", "is_negative_definite"),
    ("exact", "nullspace"),
    ("exact", "solve"),
    ("exact", "inv"),
    ("geometry", "params_from_tuples"),
    ("geometry", "threefold_charge"),
    ("geometry", "validity_iff_interlaced"),
    ("walls", "hilb_bounds"),
    ("walls", "numerical_wall"),
    ("walls", "hilb_locus"),
    ("restrict", "xi"),
    ("restrict", "pushforward_matrix"),
    ("restrict", "restrict_charge"),
    ("plots", "figure_hilb"),
)


def metric_key(module, attr):
    """Layer name used in metric names: ``interlace.roots``, ``exact.inv``."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


KEYS = tuple(metric_key(m, a) for m, a in TARGETS)


def _is_exact(x):
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _charge_variant(args, kwargs):
    t = args[0] if args else kwargs["t"]
    entries = tuple(getattr(t, "entries", t))
    exact = all(_is_exact(x) for x in entries if x != INF)
    return f"{'exact' if exact else 'float'}.n{len(entries)}"


def _ambient_variant(pos):
    """Variant naming the ambient of the pencil passed at position ``pos``."""
    def variant(args, kwargs):
        line = args[pos] if len(args) > pos else kwargs["l"]
        return f"n{line.ambient}"
    return variant


VARIANTS = {
    "charge.reduced_charge": _charge_variant,
    "quadform.verify_support": _ambient_variant(1),
    "interlace.sep_pencil": _ambient_variant(0),
}


def _count_roots_path(counts, args):
    poly = args[0]
    if "_certified_roots" in poly.__dict__:
        counts["roots.cache_hit"] += 1
    elif poly.degree >= 3 and all(_is_exact(c) for c in poly.coeffs):
        counts["roots.exact_input"] += 1


def _count_pass(counts, out):
    counts["verify_support.pass"] += bool(out.ok)


def _count_doublings(counts, out):
    alpha = out.meta.get("alpha")
    if alpha is not None:
        counts["alpha_doublings"] += Fraction(alpha).numerator.bit_length() - 1


BEFORE = {"interlace.roots": _count_roots_path}     # counters taken from the arguments
AFTER = {"quadform.verify_support": _count_pass,     # ... and from the result
         "quadform.q_tilde": _count_doublings}


class Tracer:
    """Installs span-recording wrappers into the loaded redstab modules."""

    def __init__(self):
        self.names = []            # interned "key" or "key|variant" strings
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts = Counter()
        self.op_id = -1
        self.enabled = False
        self._stack = [-1]
        self._patches = []         # (namespace, attribute, original)

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, key, fn):
        variant = VARIANTS.get(key)
        before, after = BEFORE.get(key), AFTER.get(key)
        base_id = self._intern(key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            nid = base_id if variant is None else tracer._intern(
                f"{key}|{variant(args, kwargs)}")
            if before is not None:
                before(tracer.counts, args)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer.counts, out)
            return out

        return wrapper

    def install(self):
        """Wrap every target in each redstab namespace that binds it.

        Wrappers record nothing until ``enabled`` is set, so the harness can
        keep its own checks out of the trace.
        """
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "redstab" or name.startswith("redstab."))]
        for module, attr in TARGETS:
            key = metric_key(module, attr)
            owner = sys.modules[f"redstab.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(key, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(key, original)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapped)

    def uninstall(self):
        for ns, name, original in reversed(self._patches):
            setattr(ns, name, original)
        self._patches.clear()
        self.enabled = False

    def self_times(self):
        """Per span name: (calls, self seconds), derived from the spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += (self.end[i] - self.start[i]) - child[i]
        return calls, self_s

    def write_spans(self, path):
        """Write all spans as tab-separated rows: name, start, end, parent, op."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\t{self.op[i]}\n")


def layer_metrics(calls, self_s, counts):
    """Per-layer metric values from aggregated span and counter totals.

    ``calls``/``self_s`` map span names (``key`` or ``key|variant``) to
    totals; variants roll up into their key.
    """
    by_key_calls = Counter()
    by_key_self = Counter()
    by_variant_calls = Counter()
    by_variant_self = Counter()
    for name, c in calls.items():
        key, _, variant = name.partition("|")
        by_key_calls[key] += c
        by_key_self[key] += self_s[name]
        if variant:
            by_variant_calls[(key, variant)] += c
            by_variant_self[(key, variant)] += self_s[name]
    out = {}
    for key in KEYS:
        out[f"{key}.calls"] = (by_key_calls[key], "count")
        out[f"{key}.self_s"] = (by_key_self[key], "s")
    for kind in ("exact", "float"):
        kc = sum(c for (k, v), c in by_variant_calls.items()
                 if k == "charge.reduced_charge" and v.startswith(kind + "."))
        ks = sum(s for (k, v), s in by_variant_self.items()
                 if k == "charge.reduced_charge" and v.startswith(kind + "."))
        out[f"charge.reduced_charge.{kind}.calls"] = (kc, "count")
        out[f"charge.reduced_charge.{kind}.self_s"] = (ks, "s")
        for n in (2, 3, 4, 5, 8):
            out[f"charge.reduced_charge.{kind}.self_s.n{n}"] = (
                by_variant_self[("charge.reduced_charge", f"{kind}.n{n}")], "s")
    for n in (2, 3, 4, 5):
        out[f"quadform.verify_support.self_s.n{n}"] = (
            by_variant_self[("quadform.verify_support", f"n{n}")], "s")
    for n in (2, 3, 4, 5, 6):
        out[f"interlace.sep_pencil.self_s.n{n}"] = (
            by_variant_self[("interlace.sep_pencil", f"n{n}")], "s")
    roots = by_key_calls["interlace.roots"]
    out["interlace.roots.cache_hit_ratio"] = (
        counts["roots.cache_hit"] / roots if roots else 0.0, "ratio")
    out["interlace.roots.exact_input_calls"] = (counts["roots.exact_input"], "count")
    vs = by_key_calls["quadform.verify_support"]
    out["quadform.verify_support.pass_ratio"] = (
        counts["verify_support.pass"] / vs if vs else 0.0, "ratio")
    out["quadform.alpha_doublings"] = (counts["alpha_doublings"], "count")
    pf = by_key_calls["quadform.pair_float_with_scale"]
    out["quadform.pair_exact_fallback_ratio"] = (
        by_key_calls["quadform.pair_exact"] / pf if pf else 0.0, "ratio")
    return out
