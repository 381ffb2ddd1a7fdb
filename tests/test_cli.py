import argparse
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from redstab.charge import gamma
from redstab.cli import build_parser, main, run_capture
from redstab.interlace import RootTuple, roots_to_poly


def run_json(argv):
    code, text = run_capture(argv)
    return code, json.loads(text)


class TestVerbs:
    def test_walls_hilb(self):
        code, doc = run_json(["walls", "hilb", "--m", "1"])
        assert code == 0
        assert doc["result"] == {"N": 1, "M": 3, "m": 1}

    def test_charge_eval_normalization(self):
        code, doc = run_json(["charge", "eval", "--roots", '["0","2"]',
                              "--v", '["0","0","1"]'])
        assert code == 0
        assert doc["result"]["value"] == "1"
        assert doc["mode"] == "exact"

    def test_interlace_check_false(self):
        code, doc = run_json(["interlace", "check", "--f", "[0,-1,1]",
                              "--g", "[12,-7,1]"])
        assert code == 0
        assert doc["result"]["interlaced"] is False

    def test_interlace_check_true(self):
        code, doc = run_json(["interlace", "check", "--f", "[0,-2,1]",
                              "--g", "[3,-4,1]"])
        assert doc["result"]["interlaced"] is True

    def test_interlace_check_beyond_the_float_range(self):
        # f's roots 1e-200 and 1e200 both lie between g's roots 0 and +inf
        code, doc = run_json(["interlace", "check", "--f", '[1,"-1e200",1]',
                              "--g", "[0,1,0]"])
        assert code == 0
        assert doc["result"] == {"interlaced": False}

    def test_sep_pencil_flags_uncertified(self):
        code, doc = run_json(["interlace", "sep-pencil", "--f", "[0,-2,1]",
                              "--g", "[3,-4,1]"])
        assert code == 0
        assert doc["result"]["certified"] is False
        assert doc["warnings"]

    def test_charge_decompose(self):
        code, doc = run_json(["charge", "decompose", "--roots", '["0","2"]',
                              "--v", '["0","2","2"]'])
        assert doc["result"]["verdict"] == "ALL_NONNEG"
        assert doc["result"]["coefficients"] == ["1", "1"]

    def test_quadform_build_line(self):
        code, doc = run_json(["quadform", "build", "--s", '["0","2"]',
                              "--t", '["1","inf"]', "--line"])
        assert code == 0
        assert doc["result"]["gram"] == [["0", "0", "-1"], ["0", "1", "0"],
                                         ["-1", "0", "0"]]

    def test_quadform_verify(self):
        code, doc = run_json(["quadform", "verify", "--s", '["0","2"]',
                              "--t", '["1","inf"]'])
        assert code == 0 and doc["result"]["ok"] is True

    def test_quadform_verify_corrupted_gram(self):
        # a corrupted Gram fixture fails verification, with witnesses
        bad = '[["0","0","-1"],["0","2","0"],["-1","0","0"]]'
        code, doc = run_json(["quadform", "verify", "--s", '["0","2"]',
                              "--t", '["1","inf"]', "--gram", bad])
        assert doc["result"]["ok"] is False
        assert doc["result"]["failures"]

    def test_geom_threefold(self):
        code, doc = run_json(["geom", "threefold", "--alpha", "1", "--beta", "0",
                              "--a", "1", "--b", "0"])
        assert code == 0
        assert doc["result"]["imag_kernel_roots"] == ["-1", "1", "inf"]

    def test_geom_validity(self):
        code, doc = run_json(["geom", "validity", "--alpha", "1", "--beta", "0",
                              "--a", "1/6", "--b", "0"])
        assert doc["result"] == {"validity_inequality": False,
                                 "kernels_interlaced": False, "agree": True}

    def test_geom_ab_delta(self):
        code, doc = run_json(["geom", "ab-delta", "--gram", "[[2]]",
                              "--v", '["1", ["0"], "-3"]'])
        assert doc["result"]["delta"] == "6"

    def test_restrict_xi(self):
        code, doc = run_json(["restrict", "xi", "--roots", '["0","3"]', "--m", "1"])
        assert doc["result"]["roots"] == ["2"]
        assert doc["mode"] == "exact"

    def test_restrict_chain(self):
        code, doc = run_json(["restrict", "chain", "--roots", '["0","3","6"]',
                              "--spec", '["1","1"]'])
        assert code == 0 and len(doc["result"]["roots"]) == 1

    def test_restrict_charge(self):
        code, doc = run_json(["restrict", "charge", "--s", '["-1","3"]',
                              "--t", '["0","4"]', "--m", "1"])
        assert doc["result"]["s_restricted"] == ["3/2"]
        assert doc["result"]["t_restricted"] == ["5/2"]

    def test_walls_surface_csv(self):
        code, text = run_capture(["walls", "surface", "--v", '["1","0","-1"]',
                                  "--format", "csv", "--samples", "12"])
        assert code == 0
        assert "coord1,coord2,residual" in text


class TestContract:
    def test_config_echoed(self):
        _, doc = run_json(["walls", "hilb", "--m", "7"])
        assert doc["config"]["m"] == 7
        assert doc["config"]["command"] == "walls"

    def test_domain_error_exit_one(self):
        code, doc = run_json(["restrict", "xi", "--roots", '["0","3"]', "--m", "3"])
        assert code == 1
        assert doc["error"] == "SepViolation"
        assert "sep" in doc["message"]

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as err:
            main(["walls", "hilb", "--nope"])
        assert err.value.code == 2

    def test_unknown_verb_exit_two(self):
        with pytest.raises(SystemExit) as err:
            main(["walls", "frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize("bad", ['"1/0"', '"nan"', "NaN", '"inf"', '"-inf"', "1e999",
                                     "null", "true", "[1]", '{"a": 1}'])
    def test_bad_number_is_one_error_document(self, bad):
        # a zero denominator, NaN or an infinity in a finite slot, as a string
        # or as a JSON float; a JSON value that is not a number
        code, text = run_capture(["charge", "eval", "--roots", '["0","2"]',
                                  "--v", f"[{bad},\"0\",\"1\"]"])
        assert code == 1 and text.count("\n") == 1
        assert json.loads(text)["error"] == "ValueError"

    @pytest.mark.parametrize("roots", ["[null,2]", "[[1],2]", "[true,2]", "5", '"0"', "{}"])
    def test_bad_root_payload_is_one_error_document(self, roots):
        # null, nested and boolean entries, and a payload that is not an array
        code, text = run_capture(["charge", "weights", "--roots", roots])
        assert code == 1 and text.count("\n") == 1
        assert json.loads(text)["error"] == "ValueError"

    def test_usage_error_is_one_document(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["walls", "hilb", "--m", "x"])
        assert exc.value.code == 2 and out.getvalue().count("\n") == 1
        assert json.loads(out.getvalue())["error"] == "UsageError"
        assert err.getvalue().startswith("usage:")

    def test_unexpected_exception_is_internal_error_document(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("a bug")

        monkeypatch.setattr("redstab.cli.walls.hilb_bounds", broken)
        code, text = run_capture(["walls", "hilb", "--m", "1"])
        assert code == 1 and text.count("\n") == 1
        doc = json.loads(text)
        assert doc["error"] == "InternalError" and doc["message"] == "TypeError: a bug"

    def test_determinism(self):
        a = run_capture(["quadform", "build", "--s", '["0","2","4"]',
                         "--t", '["1","3","5"]'])
        b = run_capture(["quadform", "build", "--s", '["0","2","4"]',
                         "--t", '["1","3","5"]'])
        assert a == b

    def test_out_file(self, tmp_path):
        path = tmp_path / "doc.json"
        code, text = run_capture(["walls", "hilb", "--m", "2", "--out", str(path)])
        assert code == 0 and text == ""
        assert json.loads(path.read_text())["result"]["N"] == 1

    def test_plot_svg(self):
        code, text = run_capture(["walls", "plot", "--figure", "1"])
        assert code == 0 and text.startswith('<?xml version="1.0"')

    def test_plot_csv(self):
        code, text = run_capture(["walls", "plot", "--figure", "4", "--m", "1",
                                  "--format", "csv"])
        assert code == 0 and "coord1,coord2,residual" in text


_AB = ["--gram", '[["0","1","0"],["1","0","0"],["0","0","-2"]]',
       "--v", '["1",["1","1","0"],"1/2"]']
_W = '["0",["1","-1","1"],"-5/2"]'
_BOX = ["--v", '["1/2","-1","-1","-2/3"]', "--w", '["7/4","23/4","91/8","407/24"]',
        "--box", "[[-1.0,1.0],[1.0,3.0],[4.0,6.0]]", "--samples", "16"]

# at least one successful case per verb, and every output format
VERB_CASES = [
    ["interlace", "check", "--f", "[0,-1,1]", "--g", "[12,-7,1]"],
    ["interlace", "sep", "--roots", '["0","2","5"]'],
    ["interlace", "sep-pencil", "--f", "[0,-2,1]", "--g", "[3,-4,1]", "--samples", "60"],
    ["charge", "eval", "--roots", '["0","2"]', "--v", '["0","0","1"]'],
    ["charge", "weights", "--roots", '["0","2"]'],
    ["charge", "decompose", "--roots", '["0","2"]', "--v", '["0","2","2"]'],
    ["charge", "in-bn", "--weights", '["-3/2","1/2","1"]'],
    ["quadform", "build", "--s", '["0","2"]', "--t", '["1","inf"]'],
    ["quadform", "verify", "--s", '["0","2"]', "--t", '["1","inf"]'],
    ["geom", "threefold", "--alpha", "1", "--beta", "0", "--a", "1", "--b", "0"],
    ["geom", "params", "--roots", '["-1","1","3"]'],
    ["geom", "validity", "--alpha", "1", "--beta", "0", "--a", "1/6", "--b", "0"],
    ["geom", "family", "--roots", '["-2","1/3","3"]',
     "--v", '["1/2","7/6","-149/36","-293/324"]', "--grid", "8"],
    ["geom", "ab-delta", *_AB],
    ["geom", "ab-delta", *_AB, "--w", _W],
    ["geom", "ab-twist", *_AB, "--G", '["1","0","1"]'],
    ["geom", "ab-negdef", *_AB, "--w", _W],
    ["geom", "ab-bayer", *_AB, "--G", '["1","0","1"]'],
    ["geom", "ab-restrict", *_AB, "--w", _W, "--H", '["1","1","0"]'],
    ["walls", "hilb", "--m", "1"],
    ["walls", "surface", "--v", '["1","0","-1"]', "--samples", "12"],
    ["walls", "surface", "--v", '["1","0","-1"]', "--samples", "12", "--format", "csv"],
    ["walls", "numerical", *_BOX],
    ["walls", "numerical", *_BOX, "--format", "csv"],
    ["walls", "plot", "--figure", "1"],
    ["walls", "plot", "--figure", "4", "--format", "csv"],
    ["restrict", "xi", "--roots", '["0","3"]', "--m", "1"],
    ["restrict", "chain", "--roots", '["0","3","6"]', "--spec", '["1","1"]'],
    ["restrict", "charge", "--s", '["-1","3"]', "--t", '["0","4"]', "--m", "1"],
    ["selftest", "--criteria", "1"],
]


def _subparsers(parser):
    """The choices of a parser's subcommand action: name -> parser ({} if none)."""
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


class TestEveryVerb:
    def test_every_parser_verb_has_a_case(self):
        verbs = set()
        for command, parser in _subparsers(build_parser()).items():
            verbs |= {(command, verb) for verb in _subparsers(parser)} or {(command, None)}
        covered = {(argv[0], argv[1] if (argv[0], argv[1]) in verbs else None)
                   for argv in VERB_CASES}
        assert len(verbs) > 20 and covered == verbs

    @pytest.mark.parametrize("argv", VERB_CASES, ids=" ".join)
    def test_case_prints_one_document(self, argv):
        code, text = run_capture(argv)
        assert code == 0, text
        if "csv" in argv:
            assert text.startswith("# {") and text.count("coord1,coord2,residual") == 1
        elif argv[:2] == ["walls", "plot"]:
            assert text.startswith('<?xml version="1.0"') and text.count("<svg") == 1
        else:
            assert text.endswith("\n") and text.count("\n") == 1
            doc = json.loads(text)
            assert "result" in doc and "error" not in doc

    def test_ab_twist(self):
        code, doc = run_json(["geom", "ab-twist", *_AB, "--G", '["1","0","1"]'])
        assert doc["result"]["twisted"] == ["1", ["2", "1", "1"], "1/2"]


class TestSelftest:
    def test_reduced_selftest_passes_and_stable(self):
        a = run_capture(["selftest", "--seed", "0", "--criteria", "1,4,5,8,11"])
        b = run_capture(["selftest", "--seed", "0", "--criteria", "1,4,5,8,11"])
        assert a == b
        assert a[0] == 0
        doc = json.loads(a[1])
        assert doc["result"]["all_pass"] is True
        assert "seconds" not in json.dumps(doc)


_ROOT = Path(__file__).resolve().parents[1]


def _span_target_modules():
    spec = importlib.util.spec_from_file_location("spans", _ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {f"redstab.{module}" for module, _ in spans.TARGETS}


_LOADED_AFTER = """import json, sys
from redstab.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
sys.exit(code)
"""


class TestColdImports:
    """A fresh interpreter loads the verification harness only for ``selftest``."""

    @pytest.mark.parametrize("argv", (
        ["walls", "hilb", "--m", "1"],
        ["charge", "eval", "--roots", '["0","2"]', "--v", '["0","0","1"]'],
    ))
    def test_verbs_leave_selftest_and_oracles_unloaded(self, argv):
        proc = subprocess.run([sys.executable, "-c", _LOADED_AFTER, *argv], env=_child_env(None),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout.splitlines()[-1]))
        assert not {"redstab.selftest", "redstab.oracles"} & loaded
        # the benchmark's span tracer and import timer need these loaded
        assert {"numpy"} | _span_target_modules() <= loaded


def _child_env(blas_threads):
    """This environment with src on PYTHONPATH and OPENBLAS_NUM_THREADS set to
    blas_threads (unset for None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src")] + [x for x in (env.get("PYTHONPATH"),) if x])
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def _thread_argvs(seed):
    """Float and exact queries for each verb that reaches numpy's BLAS, n = 2..8."""
    rng = random.Random(seed)
    out = []
    for n in range(2, 9):
        xs = sorted({Fraction(rng.randint(-90, 90), rng.randint(1, 6)) for _ in range(3 * n)})
        s, t = xs[0:2 * n:2], xs[1:2 * n:2]
        f, g = (roots_to_poly(RootTuple(tuple(r))).coeffs for r in (s, t))
        df = tuple(k * c for k, c in enumerate(f))[1:] + (0,)
        # a wall through the integer tuple t0: v and w vanish on its twisted vectors
        t0 = sorted(rng.sample(range(-3 * n, 3 * n), n))
        gs = [gamma(Fraction(x), n) for x in t0]
        a, b = Fraction(rng.randint(1, 8), 4), Fraction(rng.randint(1, 8), 4)
        v = [x - a * y for x, y in zip(gs[0], gs[1])]
        w = [x + b * y for x, y in zip(gs[1], gs[-1])]
        box = json.dumps([[x - 1, x + 1] for x in t0])
        for enc in (lambda xs: json.dumps([str(x) for x in xs]),
                    lambda xs: json.dumps([float(x) for x in xs])):
            out += [["interlace", "check", "--f", enc(f), "--g", enc(g)],
                    ["interlace", "sep-pencil", "--f", enc(f), "--g", enc(df)],
                    ["quadform", "build", "--s", enc(s), "--t", enc(t)],
                    ["walls", "numerical", "--v", enc(v), "--w", enc(w), "--box", box,
                     "--samples", "64"]]
    return out


_RUN_ALL = """import json, sys
from redstab.cli import main
for argv in json.load(sys.stdin):
    print(main(argv))
"""

_THREADS = """
import os
status = open("/proc/self/status").read()
print(status.split("Threads:")[1].split()[0], os.environ.get("OPENBLAS_NUM_THREADS"))
"""


class TestBlasThreads:
    """redstab loads OpenBLAS with one thread unless told otherwise, and prints the same bytes."""

    def test_outputs_equal_across_thread_counts(self):
        argvs = _thread_argvs(29)
        outs = [subprocess.run([sys.executable, "-c", _RUN_ALL], input=json.dumps(argvs).encode(),
                               env=_child_env(threads), capture_output=True, timeout=300)
                for threads in ("1", "2")]
        assert outs[0].returncode == 0, outs[0].stderr
        assert outs[0].stdout.count(b"\n0\n") == len(argvs)     # every call exits 0
        assert outs[0].stdout == outs[1].stdout

    @pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                        reason="reads /proc/self/status; needs two cores")
    @pytest.mark.parametrize("imports, preset, threads, value", (
        ("import redstab.cli", None, "1", "1"),
        ("import redstab.cli", "2", "2", "2"),
        # numpy loaded first: the environment is left alone, whatever runs
        ("import numpy; import redstab", None, None, "None"),
    ))
    def test_default_keeps_a_preset_and_a_loaded_numpy(self, imports, preset, threads, value):
        proc = subprocess.run([sys.executable, "-c", imports + _THREADS], env=_child_env(preset),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        got_threads, got_value = proc.stdout.split()
        assert got_value == value
        assert threads is None or got_threads == threads


# ---------------------------------------------------------------------------
# fuzzing: every verb with valid, malformed and out-of-domain payloads

_ATOMS = ['"0"', '"1"', '"-2"', '"1/3"', '"5/2"', "3", "-1", "0.25", '"0.1"',
          '"1/0"', '"nan"', "NaN", '"inf"', '"-inf"', "Infinity", "1e999", '"1e999"',
          '"-1e-999"', '"1e4301"', '"2.5e300"', '"abc"', '""', "null", "true", "[1]", "{}"]
_JSON = (st.lists(st.sampled_from(_ATOMS), max_size=3).map(lambda xs: "[" + ",".join(xs) + "]")
         | st.sampled_from(_ATOMS + ["[1,", "{", "", "nul", "[[]]", '[["1"]]']))
_ROOTS = st.sampled_from(['["0","2"]', '["1","3"]', '["1","inf"]', '["0","2","4"]',
                          '["1","3","5"]', '["-1","3"]', '["0","3","6"]']) | _JSON
_VEC = st.sampled_from(['["0","0","1"]', '["0","2","2"]', '["1","0","-1"]',
                        '["1","-3","0","5"]']) | _JSON
_NUM = st.sampled_from(["1", "0", "-1", "1/2", "3", "1/0", "nan", "inf", "-inf", "1e999",
                        "1e-999", "1e4301", "abc", "", "0.1", "2", "[1]"])
_NS = st.sampled_from(['["1", ["0"], "-3"]', '["2", ["1"], "1"]', '["1"]', '"x"']) | _JSON
_INT = st.sampled_from(["1", "7", "0", "-3", "x", "1e3", "99999"])

# each verb: argv template, None marking a slot filled from the strategy after it
_VERBS = [
    (["interlace", "check", "--f", None, "--g", None], _VEC, _VEC),
    (["interlace", "sep", "--roots", None], _ROOTS),
    (["interlace", "sep", "--poly", None], _VEC),
    (["interlace", "sep-pencil", "--samples", "16", "--f", None, "--g", None], _VEC, _VEC),
    (["charge", "eval", "--roots", None, "--v", None], _ROOTS, _VEC),
    (["charge", "eval", "--weights", None, "--v", None], _VEC, _VEC),
    (["charge", "weights", "--roots", None], _ROOTS),
    (["charge", "decompose", "--roots", None, "--v", None], _ROOTS, _VEC),
    (["charge", "in-bn", "--weights", None, "--d", None], _VEC, _NUM),
    (["quadform", "build", "--samples", "8", "--s", None, "--t", None], _ROOTS, _ROOTS),
    (["quadform", "build", "--line", "--s", None, "--t", None], _ROOTS, _ROOTS),
    (["quadform", "verify", "--samples", "8", "--s", None, "--t", None, "--gram", None],
     _ROOTS, _ROOTS, st.sampled_from(['[["0","0","-1"],["0","1","0"],["-1","0","0"]]']) | _JSON),
    (["geom", "threefold", "--alpha", None, "--beta", None, "--a", None, "--b", None],
     _NUM, _NUM, _NUM, _NUM),
    (["geom", "validity", "--alpha", None, "--beta", None, "--a", None, "--b", None],
     _NUM, _NUM, _NUM, _NUM),
    (["geom", "params", "--roots", None], _ROOTS),
    (["geom", "family", "--grid", "8", "--roots", None, "--v", None], _ROOTS, _VEC),
    (["geom", "ab-delta", "--gram", None, "--v", None], st.sampled_from(["[[2]]"]) | _JSON, _NS),
    (["geom", "ab-twist", "--gram", "[[2]]", "--v", None, "--G", None], _NS, _VEC),
    (["geom", "ab-negdef", "--gram", "[[2]]", "--v", None, "--w", None], _NS, _NS),
    (["geom", "ab-bayer", "--gram", "[[2]]", "--v", None, "--G", None], _NS, _VEC),
    (["geom", "ab-restrict", "--gram", "[[2]]", "--v", None, "--w", None, "--H", None],
     _NS, _NS, _VEC),
    (["walls", "hilb", "--m", None], _INT),
    (["walls", "surface", "--samples", "12", "--v", None], _VEC),
    (["walls", "numerical", "--samples", "12", "--v", None, "--w", None], _VEC, _VEC),
    (["walls", "plot", "--figure", None, "--m", None],
     st.sampled_from(["1", "4", "5"]), st.sampled_from(["1", "2", "0", "-1", "x"])),
    (["restrict", "xi", "--roots", None, "--m", None], _ROOTS, _NUM),
    (["restrict", "chain", "--roots", None, "--spec", None], _ROOTS, _VEC),
    (["restrict", "charge", "--s", None, "--t", None, "--m", None, "--c1", None],
     _ROOTS, _ROOTS, _NUM, _NUM),
    (["selftest", "--criteria", None], st.sampled_from(["4", "9", "12", "99", "x", "1,,2"])),
]


@st.composite
def _argv(draw):
    template, *slots = draw(st.sampled_from(_VERBS))
    fills = iter([draw(slot) for slot in slots])
    return [next(fills) if arg is None else arg for arg in template]


@given(_argv())
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_every_run_prints_one_document(argv):
    """Exactly one document, exit code 0, 1 or 2, and never an internal error."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    assert code in (0, 1, 2)
    if argv[:2] == ["walls", "plot"] and code == 0:
        assert text.startswith('<?xml version="1.0"') and text.count("<svg") == 1
        return
    assert text.endswith("\n") and text.count("\n") == 1, text
    doc = json.loads(text)
    if code == 0:
        assert "result" in doc and "error" not in doc
    elif code == 2:
        assert doc["error"] == "UsageError"
    else:
        assert doc.get("error", "InternalError") != "InternalError" or (
            argv[0] == "selftest" and doc["result"]["all_pass"] is False), doc
