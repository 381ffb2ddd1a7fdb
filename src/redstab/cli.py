"""Command-line front end.

Verb families mirror the library modules; payloads are JSON (arrays of exact
rational strings, "inf" for the infinite slot).  Exit codes: 0 success, 1
domain error (typed error name in the JSON document; OverflowError names an
exact input beyond the float range in a float step, and an unexpected
exception is reported as "InternalError"), 2 usage error (a "UsageError"
document on stdout, the usage line on stderr).  Every run prints one
document.  Output
bytes are deterministic for fixed argv and seed: sorted keys, fixed float
formatting, no timestamps or timings.
"""

import argparse
import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction

from . import plots, selftest, serialize, walls
from .charge import CentralCharge, decompose, eval_charge, in_Bn, reduced_charge
from .errors import RedstabError
from .geometry import (
    NSLattice,
    NSVector,
    ThreefoldParams,
    ab_delta,
    ab_twist,
    criterion_bayer_step,
    criterion_neg_def,
    criterion_restrict,
    family_equiv_check,
    threefold_charge,
    threefold_kernel_tuples,
    validity_iff_interlaced,
)
from .interlace import Pencil, is_interlaced, sep, sep_pencil
from .quadform import q_line, q_tilde, verify_support
from .restrict import RestrictionSpec, restrict_charge, xi, xi_multi

N2S = serialize.number_to_str


def _parse_vec(s):
    return serialize.vector_from_json(json.loads(s))


def _parse_roots(s):
    return serialize.roots_from_json(json.loads(s))


def _emit(doc, args, exit_code=0):
    doc = dict(doc)
    doc["config"] = _config_echo(args)
    text = json.dumps(doc, sort_keys=True, separators=(",", ": "), default=str) + "\n"
    _write_out(text, args)
    return exit_code


def _write_out(text, args):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_echo(args):
    skip = {"func", "out"}
    return {k: (str(v) if isinstance(v, Fraction) else v)
            for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


# ---------------------------------------------------------------------------
# verb implementations


def cmd_interlace_check(args):
    f = serialize.poly_from_json(json.loads(args.f), args.ambient)
    g = serialize.poly_from_json(json.loads(args.g), args.ambient)
    return _emit({"result": {"interlaced": is_interlaced(f, g)}}, args)


def cmd_interlace_sep(args):
    if args.roots:
        val = sep(_parse_roots(args.roots))
    elif args.poly:
        val = sep(serialize.poly_from_json(json.loads(args.poly), args.ambient))
    else:
        raise ValueError("sep needs --roots or --poly")
    return _emit({"result": {"sep": N2S(val)}, "mode": serialize.mode_of((val,))}, args)


def cmd_interlace_sep_pencil(args):
    f = serialize.poly_from_json(json.loads(args.f), args.ambient)
    g = serialize.poly_from_json(json.loads(args.g), args.ambient)
    val = sep_pencil(Pencil(f, g), angles=args.samples)
    return _emit({"result": {"sep": N2S(val), "certified": False},
                  "warnings": ["sep over a pencil is sampling-certified only"],
                  "mode": serialize.FLOAT_MODE}, args)


def cmd_charge_eval(args):
    if args.weights:
        B = serialize.charge_from_json(json.loads(args.weights))
    elif args.roots:
        B = reduced_charge(_parse_roots(args.roots))
    else:
        raise ValueError("charge eval needs --roots or --weights")
    v = _parse_vec(args.v)
    val = eval_charge(B, v)
    return _emit({"result": {"value": N2S(val)}, "mode": serialize.mode_of((val,))}, args)


def cmd_charge_weights(args):
    t = _parse_roots(args.roots)
    B = reduced_charge(t)
    return _emit({"result": {"weights": serialize.charge_to_json(B)},
                  "mode": serialize.mode_of(B.weights)}, args)


def cmd_charge_decompose(args):
    t = _parse_roots(args.roots)
    v = _parse_vec(args.v)
    dec = decompose(v, t)
    return _emit({"result": {"coefficients": [N2S(a) for a in dec.coeffs],
                             "verdict": dec.verdict, "boundary": dec.boundary},
                  "mode": serialize.mode_of(dec.coeffs)}, args)


def cmd_charge_in_bn(args):
    B = serialize.charge_from_json(json.loads(args.weights))
    d = serialize.number_from_str(args.d)
    decd = in_Bn(B, d)
    result = {"member": decd is not None}
    if decd is not None:
        result["scale"] = N2S(decd[0])
        result["roots"] = serialize.roots_to_json(decd[1])
    return _emit({"result": result}, args)


def cmd_quadform_build(args):
    line = Pencil.from_tuples(_parse_roots(args.s), _parse_roots(args.t))
    Q = q_line(line) if args.line else q_tilde(line, samples=args.samples)
    result = {"gram": serialize.gram_to_json(Q),
              "construction": Q.meta.get("construction")}
    if "alpha" in Q.meta:
        result["alpha"] = N2S(Q.meta["alpha"])
    return _emit({"result": result, "mode": serialize.mode_of(
        [x for row in Q.gram for x in row])}, args)


def cmd_quadform_verify(args):
    line = Pencil.from_tuples(_parse_roots(args.s), _parse_roots(args.t))
    if args.gram:
        Q = serialize.gram_from_json(json.loads(args.gram))
    else:
        Q = q_tilde(line, samples=args.samples)
    rep = verify_support(Q, line, samples=args.samples, vanish_tol=args.tol)
    return _emit({"result": {
        "ok": rep.ok,
        "vanishing": rep.vanishing_ok,
        "kernel_negative_definite": rep.kernel_negative_ok,
        "alternating_pairing": rep.pairing_ok,
        "max_vanishing_residual": N2S(rep.max_vanishing_residual),
        "failures": [str(f) for f in rep.failures[:5]],
    }}, args)


def _threefold_params(args):
    return ThreefoldParams(*(serialize.number_from_str(getattr(args, name))
                             for name in ("alpha", "beta", "a", "b")))


def cmd_geom_threefold(args):
    p = _threefold_params(args)
    Z = threefold_charge(p)
    real_t, imag_t = threefold_kernel_tuples(p)
    return _emit({"result": {
        "real_weights": serialize.charge_to_json(Z.real),
        "imag_weights": serialize.charge_to_json(Z.imag),
        "real_kernel_roots": serialize.roots_to_json(real_t) if real_t else None,
        "imag_kernel_roots": serialize.roots_to_json(imag_t) if imag_t else None,
    }, "mode": serialize.mode_of(Z.real.weights + Z.imag.weights)}, args)


def cmd_geom_params(args):
    from .geometry import params_from_tuples

    p = params_from_tuples(_parse_roots(args.roots))
    out = {k: (N2S(v) if v is not None else None)
           for k, v in (("alpha", p.alpha), ("beta", p.beta), ("a", p.a), ("b", p.b))}
    return _emit({"result": out}, args)


def cmd_geom_validity(args):
    p = _threefold_params(args)
    valid, inter = validity_iff_interlaced(p)
    return _emit({"result": {"validity_inequality": valid, "kernels_interlaced": inter,
                             "agree": valid == inter}}, args)


def cmd_geom_family(args):
    beta = serialize.number_from_str(args.beta) if args.beta else None
    rep = family_equiv_check(_parse_vec(args.v), _parse_roots(args.roots),
                             beta=beta, grid=args.grid)
    return _emit({"result": {
        "verdict": rep.verdict, "coherent": rep.coherent,
        "inequalities_hold": rep.inequalities_hold, "agree": rep.agree,
        "scan": rep.scan,
        "K_range": [N2S(rep.K_range[0]), N2S(rep.K_range[1])] if rep.K_range else None,
        "K_failures": [[N2S(k), N2S(b)] for k, b in rep.K_failures[:5]],
        "boundary": rep.boundary,
    }}, args)


def _ns_vector(lat, text):
    data = serialize.array_from_json(json.loads(text))
    if len(data) != 3:
        raise ValueError(f"expected [r, [D...], s], got {data!r}")
    return NSVector(serialize.number_from_str(data[0]), serialize.vector_from_json(data[1]),
                    serialize.number_from_str(data[2]), lat)


def cmd_geom_ab(args):
    lat = NSLattice(tuple(serialize.vector_from_json(row)
                          for row in serialize.array_from_json(json.loads(args.gram))))
    v = _ns_vector(lat, args.v)
    if args.verb == "ab-delta":
        if args.w:
            val = ab_delta(v, _ns_vector(lat, args.w))
        else:
            val = ab_delta(v)
        return _emit({"result": {"delta": N2S(val)}, "mode": serialize.mode_of((val,))}, args)
    if args.verb == "ab-twist":
        tw = ab_twist(v, _parse_vec(args.G))
        return _emit({"result": {"twisted": [N2S(tw.r), [N2S(x) for x in tw.D], N2S(tw.s)]}}, args)
    if args.verb == "ab-negdef":
        return _emit({"result": {"holds": criterion_neg_def(v, _ns_vector(lat, args.w))}}, args)
    if args.verb == "ab-bayer":
        return _emit({"result": {"holds": criterion_bayer_step(v, _parse_vec(args.G))}}, args)
    if args.verb == "ab-restrict":
        return _emit({"result": {"holds": criterion_restrict(
            v, _ns_vector(lat, args.w), _parse_vec(args.H))}}, args)
    raise RedstabError(f"unknown ab verb {args.verb}")


def cmd_walls_hilb(args):
    n_bound, m_bound = walls.hilb_bounds(args.m)
    return _emit({"result": {"N": n_bound, "M": m_bound, "m": args.m}}, args)


def cmd_walls_surface(args):
    loc = walls.sb_v_surface(_parse_vec(args.v), samples=args.samples)
    if args.format == "csv":
        _write_out(plots.emit_csv([loc], {"verb": "walls surface"}), args)
        return 0
    return _emit({"result": _locus_doc(loc)}, args)


def cmd_walls_numerical(args):
    region = json.loads(args.box) if args.box else None
    loc = walls.numerical_wall(_parse_vec(args.v), _parse_vec(args.w),
                               region, grid=args.samples)
    if args.format == "csv":
        _write_out(plots.emit_csv([loc], {"verb": "walls numerical"}), args)
        return 0
    return _emit({"result": _locus_doc(loc)}, args)


def _locus_doc(loc):
    return {
        "coord_system": loc.coord_system,
        "label": loc.label,
        "implicit": {k: str(v) for k, v in (loc.implicit or {}).items()},
        "points": [[plots._fmt(x), plots._fmt(y)] for x, y in loc.points[:2000]],
        "residual_max": plots._fmt(max(loc.residuals, default=0.0)),
        "empty": loc.empty,
        "dimension": loc.dimension,
        "codimension": loc.codimension,
        "clip": loc.clip,
    }


def cmd_walls_plot(args):
    fmt = args.format if args.format in ("svg", "csv") else "svg"
    if args.figure == "1":
        doc = plots.figure_surface(c=args.c, fmt=fmt)
    elif args.figure == "4":
        doc = plots.figure_hilb(args.m, fmt=fmt)
    else:
        raise RedstabError(f"unknown figure {args.figure!r} (choose 1 or 4)")
    _write_out(doc, args)
    return 0


def cmd_restrict_xi(args):
    out = xi(_parse_roots(args.roots), serialize.number_from_str(args.m))
    return _emit({"result": {"roots": serialize.roots_to_json(out)},
                  "mode": serialize.mode_of(out.finite)}, args)


def cmd_restrict_chain(args):
    degrees = _parse_vec(args.spec)
    t = _parse_roots(args.roots)
    out = xi_multi(t, RestrictionSpec(degrees, t.n))
    return _emit({"result": {"roots": serialize.roots_to_json(out)},
                  "mode": serialize.mode_of(out.finite)}, args)


def cmd_restrict_charge(args):
    s = _parse_roots(args.s)
    t = _parse_roots(args.t)
    Z = CentralCharge(reduced_charge(s).scaled(serialize.number_from_str(args.c1)),
                      reduced_charge(t).scaled(serialize.number_from_str(args.c2)))
    rc = restrict_charge(Z, serialize.number_from_str(args.m))
    return _emit({"result": {
        "real_weights": serialize.charge_to_json(rc.charge.real),
        "imag_weights": serialize.charge_to_json(rc.charge.imag),
        "s_restricted": serialize.roots_to_json(rc.s),
        "t_restricted": serialize.roots_to_json(rc.t),
        "scale_real": N2S(rc.scale_real),
        "scale_imag": N2S(rc.scale_imag),
    }}, args)


def cmd_selftest(args):
    include = None
    if args.criteria:
        include = {int(x) for x in args.criteria.split(",")}
    report = selftest.run_selftest(seed=args.seed, reduced=not args.full,
                                   include=include)
    code = 0 if report["all_pass"] else 1
    return _emit({"result": report}, args, exit_code=code)


# ---------------------------------------------------------------------------


def build_parser():
    ap = _Parser(prog="redstab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None, help="write the document to a file")

    def add(parent, name, fn, **kw):
        p = parent.add_parser(name, parents=[common], **kw)
        p.set_defaults(func=fn)
        return p

    inter = sub.add_parser("interlace").add_subparsers(dest="verb", required=True)
    p = add(inter, "check", cmd_interlace_check)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--ambient", type=int, default=None)
    p = add(inter, "sep", cmd_interlace_sep)
    p.add_argument("--roots")
    p.add_argument("--poly")
    p.add_argument("--ambient", type=int, default=None)
    p = add(inter, "sep-pencil", cmd_interlace_sep_pencil)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--ambient", type=int, default=None)
    p.add_argument("--samples", type=int, default=720)

    charge = sub.add_parser("charge").add_subparsers(dest="verb", required=True)
    p = add(charge, "eval", cmd_charge_eval)
    p.add_argument("--roots", default=None)
    p.add_argument("--weights", default=None, help="serialized charge instead of roots")
    p.add_argument("--v", required=True)
    p = add(charge, "weights", cmd_charge_weights)
    p.add_argument("--roots", required=True)
    p = add(charge, "decompose", cmd_charge_decompose)
    p.add_argument("--roots", required=True)
    p.add_argument("--v", required=True)
    p = add(charge, "in-bn", cmd_charge_in_bn)
    p.add_argument("--weights", required=True)
    p.add_argument("--d", default="0")

    quad = sub.add_parser("quadform").add_subparsers(dest="verb", required=True)
    p = add(quad, "build", cmd_quadform_build)
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--line", action="store_true", help="line form only, no induction")
    p.add_argument("--samples", type=int, default=50)
    p = add(quad, "verify", cmd_quadform_verify)
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--gram", default=None)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-8)

    geom = sub.add_parser("geom").add_subparsers(dest="verb", required=True)
    p = add(geom, "threefold", cmd_geom_threefold)
    for name in ("alpha", "beta", "a", "b"):
        p.add_argument(f"--{name}", required=True)
    p = add(geom, "params", cmd_geom_params)
    p.add_argument("--roots", required=True)
    p = add(geom, "validity", cmd_geom_validity)
    for name in ("alpha", "beta", "a", "b"):
        p.add_argument(f"--{name}", required=True)
    p = add(geom, "family", cmd_geom_family)
    p.add_argument("--roots", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--beta", default=None)
    p.add_argument("--grid", type=int, default=64)
    for verb in ("ab-delta", "ab-twist", "ab-negdef", "ab-bayer", "ab-restrict"):
        p = add(geom, verb, cmd_geom_ab)
        p.add_argument("--gram", required=True)
        p.add_argument("--v", required=True)
        p.add_argument("--w", default=None)
        p.add_argument("--G", default=None)
        p.add_argument("--H", default=None)

    wl = sub.add_parser("walls").add_subparsers(dest="verb", required=True)
    p = add(wl, "hilb", cmd_walls_hilb)
    p.add_argument("--m", type=int, required=True)
    p = add(wl, "surface", cmd_walls_surface)
    p.add_argument("--v", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p = add(wl, "numerical", cmd_walls_numerical)
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--box", default=None)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p = add(wl, "plot", cmd_walls_plot)
    p.add_argument("--figure", required=True, choices=("1", "4"))
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--format", default="svg", choices=("svg", "csv"))

    rs = sub.add_parser("restrict").add_subparsers(dest="verb", required=True)
    p = add(rs, "xi", cmd_restrict_xi)
    p.add_argument("--roots", required=True)
    p.add_argument("--m", required=True)
    p = add(rs, "chain", cmd_restrict_chain)
    p.add_argument("--roots", required=True)
    p.add_argument("--spec", required=True)
    p = add(rs, "charge", cmd_restrict_charge)
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--c1", default="1")
    p.add_argument("--c2", default="1")

    p = add(sub, "selftest", cmd_selftest)
    p.add_argument("--full", action="store_true")
    p.add_argument("--criteria", default=None)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (RedstabError, ValueError, KeyError, OverflowError) as exc:
        return _error_doc(type(exc).__name__, str(exc), _config_echo(args))
    except Exception as exc:  # a bug: still one document, typed as internal
        return _error_doc("InternalError", f"{type(exc).__name__}: {exc}", _config_echo(args))


def _error_doc(name, message, config):
    doc = {"error": name, "message": message}
    if config is not None:
        doc["config"] = config
    sys.stdout.write(json.dumps(doc, sort_keys=True, default=str) + "\n")
    return 1


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors print one JSON document before exiting with 2."""

    def error(self, message):
        _error_doc("UsageError", message, None)
        self.print_usage(sys.stderr)
        self.exit(2)


def run_capture(argv):
    """Run the CLI in-process, capturing stdout; returns (exit_code, text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


if __name__ == "__main__":
    sys.exit(main())
