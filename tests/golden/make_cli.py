"""Regenerate the CLI goldens under ``cli/``: the exact bytes of fixed commands.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_cli.py

Each case is one argv; its stdout is stored in ``cli/<name>.<ext>``.  The
cases are the JSON examples of the README (the reduced selftest report
carries no timings), both figures as SVG (the surface figure, and the
point-class figure at m = 2 and at m = 50, whose curves need a viewport taller
than wide), the exact weights of a four-entry tuple, a degree-3 restriction
with irrational roots, an interlacing check of an exact quartic and its
derivative (irrational roots at degrees 4 and 3), an interlacing check of
exact quadratics where an irrational root rounds to the other's rational
root, the sampled separation of a float cubic pencil, the
discriminant-family check twice (the default pencil-family scan on a
coherent kernel vector and a fixed-beta scan on a mixed one), the
restriction of an exact interlaced charge, and the cone membership of an
exact quadratic charge with irrational roots.  The support check is pinned
twice on one line: its own ``q_tilde`` form passes, and the negated form
fails with a ``kernel`` record and float ``pairing`` records.  Three cases pin
the exact linear algebra: the decomposition of a kernel vector with mixed
signs (an exact ``solve``), the dual-cone criterion on a rank-3 lattice with a
hyperbolic block (its signature check by exact ``inertia``), and a numerical
wall through a rational tuple (``nullspace`` and ``particular_solution``).
Two cases sit a power of two away from a tie: the cone membership at d = 1
of the exact charge of (0, 1 + 2^-60, 3), whose roots round to (0, 1, 3),
and the slice validity at a = 8/3 + 2^-62 on the boundary alpha^2 / 6 = 8/3.
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
    "interlace_check_quartic.json": ["interlace", "check", "--f", "[1,0,-10,0,1]",
                                     "--g", "[0,-20,0,4,0]"],
    "interlace_check_tie.json": ["interlace", "check", "--f", "[0,-1,3]", "--g",
                                 '["1999999999999999997/30000000000000000000","-8/15","1"]'],
    "interlace_sep_pencil_float.json": ["interlace", "sep-pencil",
                                        "--f", "[0.25,-1.5,0.5,1.0]",
                                        "--g", "[-1.5,1.0,3.0,0.0]"],
    "quadform_build.json": ["quadform", "build", "--s", '["0","2","4"]',
                            "--t", '["1","3","5"]'],
    "geom_threefold.json": ["geom", "threefold", "--alpha", "1", "--beta", "0",
                            "--a", "1", "--b", "0"],
    "restrict_xi.json": ["restrict", "xi", "--roots", '["0","2","4"]', "--m", "1"],
    "selftest.json": ["selftest", "--seed", "0"],
    "walls_plot_figure1.svg": ["walls", "plot", "--figure", "1"],
    "walls_plot_figure4.svg": ["walls", "plot", "--figure", "4", "--m", "2"],
    "walls_plot_figure4_m50.svg": ["walls", "plot", "--figure", "4", "--m", "50"],
    "charge_weights.json": ["charge", "weights", "--roots", '["-2","1/3","5/2","4"]'],
    "restrict_xi_degree3.json": ["restrict", "xi", "--roots", '["0","2","4","7"]',
                                 "--m", "1"],
    "geom_family.json": ["geom", "family", "--roots", '["-2","1/3","3"]',
                         "--v", '["1/2","7/6","-149/36","-293/324"]'],
    "geom_family_beta.json": ["geom", "family", "--roots", '["-2","1/3","3"]',
                              "--v", '["5/2","-17/6","-5/36","-1157/324"]',
                              "--beta", "1/3"],
    "quadform_verify.json": ["quadform", "verify", "--s", '["0","2","4"]',
                             "--t", '["1","3","5"]'],
    "restrict_charge.json": ["restrict", "charge", "--s", '["-1","1","3"]',
                             "--t", '["0","2","4"]', "--m", "1/2", "--c1", "1", "--c2", "2"],
    "charge_in_bn.json": ["charge", "in-bn", "--weights", '["-3/2","1/2","1"]'],
    "quadform_verify_negated.json": [
        "quadform", "verify", "--s", '["0","2","4"]', "--t", '["1","3","5"]',
        "--gram", '[["0","0","17/2","-15/2"],["0","-17/2","5/2","3"],'
                  '["17/2","5/2","-4","0"],["-15/2","3","0","0"]]'],
    "charge_decompose_mixed.json": ["charge", "decompose", "--roots", '["-1","1/2","3"]',
                                    "--v", '["-9/2","-3","-63/8","-103/16"]'],
    "geom_ab_negdef_rank3.json": ["geom", "ab-negdef",
                                  "--gram", '[["0","1","0"],["1","0","0"],["0","0","-2"]]',
                                  "--v", '["1",["1","1","0"],"1/2"]',
                                  "--w", '["2",["1","-1","1"],"-5/2"]'],
    "walls_numerical_rational.json": ["walls", "numerical",
                                      "--v", '["1/2","-1","-1","-2/3"]',
                                      "--w", '["7/4","23/4","91/8","407/24"]',
                                      "--box", "[[-1.0,1.0],[1.0,3.0],[4.0,6.0]]",
                                      "--samples", "64"],
    "charge_in_bn_near_tie.json": [
        "charge", "in-bn", "--d", "1", "--weights",
        '["0","1152921504606846977/2305843009213693952",'
        '"-4611686018427387905/3458764513820540928","1"]'],
    "geom_validity_near_boundary.json": ["geom", "validity", "--alpha", "4", "--beta", "1/4",
                                         "--a", "36893488147419103235/13835058055282163712",
                                         "--b", "0"],
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
