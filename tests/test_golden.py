"""Byte comparison against golden files under ``tests/golden/``.

The files are regenerated only by the scripts next to them; these tests read.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, GOLDEN / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_q_tilde_alpha_and_gram():
    make = _script("make_q_tilde")
    stored = make.PATH.read_text()
    lines = json.loads(stored)["lines"]
    assert len(lines) == 12 and {e["n"] for e in lines} == {2, 3, 4, 5}
    assert make.render([make.entry(e["s"], e["t"]) for e in lines]) == stored


_CLI = _script("make_cli")


@pytest.mark.parametrize("name", sorted(_CLI.CASES))
def test_cli_output(name):
    assert _CLI.render(_CLI.CASES[name]) == (_CLI.DIR / name).read_text()


def test_every_cli_golden_has_a_case():
    assert sorted(p.name for p in _CLI.DIR.iterdir()) == sorted(_CLI.CASES)
