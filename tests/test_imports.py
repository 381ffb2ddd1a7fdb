"""Production modules never import the oracles, and numpy stays at its boundary.

``redstab.oracles`` holds the brute-force cross-checks and the exact routines
only they use (the Sylvester resultant, Lagrange interpolation, the
dispatching determinant).  Every other module, apart from ``selftest``, which
runs the oracles, must compute without them.  Linear algebra is exact, so
numpy enters only where floats are computed: the float root solver and pencil
sampling (``interlace``), the float member pairings (``quadform``), and the
seeded generators of ``selftest`` and ``oracles``.  The checks read each
module's imports with ``ast``, those inside functions included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "redstab"
PRODUCTION = sorted(p for p in SRC.glob("*.py") if p.name not in ("oracles.py", "selftest.py"))
ORACLES = {".oracles", "redstab.oracles"}
NUMPY_MODULES = {"interlace", "quadform", "selftest", "oracles"}


def _imported_modules(tree):
    """Every module an import statement names, relative ones as '.name'."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            # ``from . import oracles`` and ``from redstab import oracles``
            sep = "." if node.module else ""
            yield from (base + sep + alias.name for alias in node.names)


def test_production_modules_found():
    assert len(PRODUCTION) >= 10
    assert {"quadform.py", "exact.py", "poly.py", "cli.py"} <= {p.name for p in PRODUCTION}


@pytest.mark.parametrize("path", PRODUCTION, ids=lambda p: p.stem)
def test_no_oracle_import(path):
    names = set(_imported_modules(ast.parse(path.read_text(), filename=str(path))))
    assert not names & ORACLES, f"{path.name} imports the oracles"


def test_detector_sees_each_form():
    for src in ("from . import oracles", "from .oracles import det",
                "import redstab.oracles", "from redstab import oracles",
                "from redstab.oracles import det",
                "def f():\n    from . import oracles\n"):
        assert set(_imported_modules(ast.parse(src))) & ORACLES, src
    assert not set(_imported_modules(ast.parse("from . import exact\nimport numpy"))) & ORACLES


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_numpy_only_at_its_boundary(path):
    names = set(_imported_modules(ast.parse(path.read_text(), filename=str(path))))
    uses_numpy = any(name == "numpy" or name.startswith("numpy.") for name in names)
    assert not uses_numpy or path.stem in NUMPY_MODULES, f"{path.name} imports numpy"
