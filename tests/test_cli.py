import json

import pytest

from redstab.cli import main, run_capture


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

    @pytest.mark.parametrize("bad", ['"1/0"', '"nan"', "NaN", '"inf"', '"-inf"', "1e999"])
    def test_bad_number_is_one_error_document(self, bad):
        # a zero denominator, NaN or an infinity in a finite slot, as a string
        # or as a JSON float
        code, text = run_capture(["charge", "eval", "--roots", '["0","2"]',
                                  "--v", f"[{bad},\"0\",\"1\"]"])
        assert code == 1 and text.count("\n") == 1
        assert json.loads(text)["error"] == "ValueError"

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


class TestSelftest:
    def test_reduced_selftest_passes_and_stable(self):
        a = run_capture(["selftest", "--seed", "0", "--criteria", "1,4,5,8,11"])
        b = run_capture(["selftest", "--seed", "0", "--criteria", "1,4,5,8,11"])
        assert a == b
        assert a[0] == 0
        doc = json.loads(a[1])
        assert doc["result"]["all_pass"] is True
        assert "seconds" not in json.dumps(doc)
