"""Regenerate the CLI goldens under ``cli/``: the exact bytes of fixed commands.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_cli.py

Each case is one argv; its stdout is stored in ``cli/<name>.<ext>``.  The
cases are the JSON examples of the README (the reduced selftest report
carries no timings), both figures (the surface figure and the point-class
figure) as SVG, the exact weights of a four-entry tuple, a degree-3
restriction whose roots go through the exact Newton polish, and the
discriminant-family check twice: the default pencil-family scan on a
coherent kernel vector and a fixed-beta scan on a mixed one.
``tests/test_golden.py`` runs every case in-process and compares the output
byte for byte; it never writes the files.
"""

from pathlib import Path

from redstab.cli import run_capture

DIR = Path(__file__).resolve().parent / "cli"

CASES = {
    "walls_hilb.json": ["walls", "hilb", "--m", "1"],
    "charge_eval.json": ["charge", "eval", "--roots", '["0","2"]', "--v", '["0","0","1"]'],
    "interlace_check.json": ["interlace", "check", "--f", "[0,-1,1]", "--g", "[12,-7,1]"],
    "quadform_build.json": ["quadform", "build", "--s", '["0","2","4"]',
                            "--t", '["1","3","5"]'],
    "geom_threefold.json": ["geom", "threefold", "--alpha", "1", "--beta", "0",
                            "--a", "1", "--b", "0"],
    "restrict_xi.json": ["restrict", "xi", "--roots", '["0","2","4"]', "--m", "1"],
    "selftest.json": ["selftest", "--seed", "0"],
    "walls_plot_figure1.svg": ["walls", "plot", "--figure", "1"],
    "walls_plot_figure4.svg": ["walls", "plot", "--figure", "4", "--m", "2"],
    "charge_weights.json": ["charge", "weights", "--roots", '["-2","1/3","5/2","4"]'],
    "restrict_xi_degree3.json": ["restrict", "xi", "--roots", '["0","2","4","7"]',
                                 "--m", "1"],
    "geom_family.json": ["geom", "family", "--roots", '["-2","1/3","3"]',
                         "--v", '["1/2","7/6","-149/36","-293/324"]'],
    "geom_family_beta.json": ["geom", "family", "--roots", '["-2","1/3","3"]',
                              "--v", '["5/2","-17/6","-5/36","-1157/324"]',
                              "--beta", "1/3"],
}


def render(argv):
    """The stdout of one successful run."""
    code, text = run_capture(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}: {text}")
    return text


def main():
    DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (DIR / name).write_text(render(argv))
    print(f"wrote {len(CASES)} files to {DIR}")


if __name__ == "__main__":
    main()
