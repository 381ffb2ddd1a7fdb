"""A traced CLI call: ``python -X importtime cli_child.py REPORT ARGV...``.

Runs ``redstab.cli.main(ARGV)`` with every layer wrapped and writes the
call counts, self times and counters derived from its spans to REPORT (a
JSON file); the spans themselves go next to it as a .tsv file.  The parent
reads the import split from this process's ``-X importtime`` output, so
``redstab.cli`` is imported first: its line then covers everything the CLI
loads, as in a plain ``python -m redstab.cli``.
"""

import redstab.cli  # noqa: I001  (first import, see above)

import json
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer


def main(report, argv):
    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    tracer.enabled = True
    t0 = perf_counter()
    try:
        code = redstab.cli.main(argv)
    finally:
        run_s = perf_counter() - t0
        tracer.uninstall()
    calls, self_s = tracer.self_times()
    tracer.write_spans(Path(report).with_suffix(".tsv"))
    Path(report).write_text(json.dumps({"calls": calls, "self_s": self_s,
                                        "counts": tracer.counts, "run_s": run_s}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
