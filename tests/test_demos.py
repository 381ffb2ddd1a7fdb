"""Every script under ``demos/`` runs to the end in-process and prints its golden output.

Each demo runs as ``__main__`` in a fresh temporary working directory, so the
files a demo writes (demo 05's SVG figures) land there and not in the
repository.  Its standard output must equal ``tests/golden/demos/<stem>.txt``
byte for byte; ``tests/golden/make_demos.py`` regenerates those files.
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent
DEMOS = sorted((ROOT.parent / "demos").glob("*.py"))
GOLDEN = ROOT / "golden" / "demos"


def test_demos_found():
    assert len(DEMOS) == 6
    assert sorted(p.name for p in GOLDEN.iterdir()) == [f"{p.stem}.txt" for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{path.stem}.txt").read_bytes()
