"""Regenerate ``demos/*.txt``: the standard output of every script under ``demos/``.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_demos.py

Each demo runs as ``__main__`` in a fresh temporary working directory, as
``tests/test_demos.py`` runs it, and its output is stored as
``demos/<script stem>.txt``.  The test compares a demo's output with its file
byte for byte; it never writes the files.
"""

import contextlib
import io
import os
import runpy
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEMOS = sorted((HERE.parent.parent / "demos").glob("*.py"))
OUT = HERE / "demos"


def demo_output(path) -> str:
    """What the demo at path prints when run as __main__ in a temporary directory."""
    cwd = os.getcwd()
    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(buf):
                runpy.run_path(str(path), run_name="__main__")
        finally:
            os.chdir(cwd)
    return buf.getvalue()


def main():
    OUT.mkdir(exist_ok=True)
    for path in DEMOS:
        (OUT / f"{path.stem}.txt").write_text(demo_output(path))


if __name__ == "__main__":
    main()
