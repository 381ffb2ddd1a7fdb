"""Every function the benchmark's span tracer wraps is still defined in redstab.

``perfbench/spans.py`` names its targets as (module, attribute) pairs and
wraps them by name; a renamed or deleted function would otherwise surface
only when the benchmark self-check runs.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_resolves():
    missing = []
    for module, attr in _targets():
        owner = importlib.import_module(f"redstab.{module}")
        if "." in attr:
            # a method: looked up in the class __dict__, as the tracer does
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert missing == []
