"""Front-end behavior: flag parsing, exit codes, file round trips."""
import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import json_document_oracle, resolvent_norm_oracle
import pseudolab
from pseudolab import (
    DenseOperator,
    GridRegion,
    MaskSet,
    cli,
    compute_norm_field,
    hausdorff_distance,
    level_set,
    read_mask_csv,
)
from pseudolab.cli import parse_and_dispatch


def run(argv):
    return parse_and_dispatch(argv)


def run_module(argv):
    """python -m pseudolab.cli argv in a child process, output captured."""
    # the child imports the same package as this interpreter, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(pseudolab.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pseudolab.cli", *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture()
def diag_matrix_file(tmp_path):
    p = tmp_path / "mat.csv"
    p.write_text("2,0,0,0\n0,0,6,0\n")
    return str(p)


class TestDocumentedInvocations:
    def test_constant_field_window(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = run([
            "field", "--model", "shargorodsky",
            "--region", "-0.4,0.4,-0.4,0.4", "--nx", "9", "--ny", "9",
            "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["re", "im", "value"]
        assert len(rows) == 82
        assert all(abs(float(r[2]) - 1.0) <= 1e-9 for r in rows[1:])

    def test_global_min_floor(self, capsys):
        assert run(["verify", "global-min", "--model", "shargorodsky", "--M", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"

    def test_hausdorff_self_distance_prints_zero(self, tmp_path, capsys):
        mask = tmp_path / "a.csv"
        code = run([
            "levelset", "--model", "shargorodsky",
            "--region", "-0.4,0.4,-0.4,0.4", "--nx", "9", "--ny", "9",
            "--out", str(mask),
        ])
        assert code == 0
        assert run(["hausdorff", "--a", str(mask), "--b", str(mask)]) == 0
        assert capsys.readouterr().out.strip() == "0"


class TestCachedParser:
    def test_no_value_leaks_between_calls(self, diag_matrix_file, tmp_path):
        grid = ["--model", diag_matrix_file, "--region", "1,3,-1,1", "--nx", "3", "--ny", "3"]
        first = ["levelset", *grid, "--n", "1", "--epsilon", "0.5", "--strictness", "open",
                 "--format", "json", "--out", str(tmp_path / "m1.json")]
        second = ["field", *grid, "--out", str(tmp_path / "f.csv")]
        third = ["levelset", *grid, "--format", "json", "--out", str(tmp_path / "m2.json")]
        for argv in (first, second, third):
            assert run(argv) == 0
        m1 = json.loads((tmp_path / "m1.json").read_text())
        m2 = json.loads((tmp_path / "m2.json").read_text())
        assert (m1["epsilon"], m1["n"], m1["strictness"]) == (0.5, 1, "open_sigma")
        assert (m2["epsilon"], m2["n"], m2["strictness"]) == (1.0, 0, "closed_Sigma")
        assert (tmp_path / "f.csv").read_text().startswith("re,im,value\n")
        # the cached parser gives the namespaces a freshly built one gives
        assert cli._build_parser() is cli._build_parser()
        fresh = cli._build_parser.__wrapped__()
        for argv in (second, third, first):
            assert vars(cli._build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))


class TestHelpText:
    def test_lists_every_named_example_and_study(self, capsys):
        assert run(["--help"]) == 0
        text = capsys.readouterr().out
        for name in ("diag_pair", "shargorodsky", "empty_resolvent", "nonconstant",
                     "decay", "remark_n1"):
            assert name in text
        for study in ("convergence", "counterexample-K", "counterexample-const",
                      "global-min", "constant-region", "decay", "empty-resolvent"):
            assert study in text

    def test_verify_lists_its_studies(self, capsys):
        assert run(["verify", "--help"]) == 0
        text = capsys.readouterr().out
        assert "global-min" in text and "empty-resolvent" in text


class TestExitCodeMatrix:
    def test_valid_matrix_model(self, diag_matrix_file, tmp_path):
        out = tmp_path / "f.csv"
        code = run(["field", "--model", diag_matrix_file,
                    "--region", "1,3,-1,1", "--nx", "3", "--ny", "3",
                    "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(out.open()))[1:]
        assert rows[4][2] == "inf"  # z = 2 sits in the spectrum

    def test_verdict_fail_is_one(self, capsys):
        assert run(["verify", "constant-region", "--model", "nonconstant"]) == 1

    def test_constant_region_refuses_a_four_by_four_family(self, capsys):
        # the region is shargorodsky's at n = 0; remark_n1's claim is at n = 1
        assert run(["verify", "constant-region", "--model", "remark_n1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n = 1" in err

    def test_empty_resolvent_takes_no_model(self, capsys):
        assert run(["verify", "empty-resolvent", "--model", "empty_resolvent"]) == 2
        assert "unrecognized arguments: --model" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert run(["bogus"]) == 2

    def test_unknown_flag(self, capsys):
        assert run(["field", "--model", "shargorodsky",
                    "--region", "0,1,0,1", "--nx", "3", "--ny", "3",
                    "--badflag", "2"]) == 2

    def test_region_count_never_defaulted(self, capsys):
        assert run(["field", "--model", "shargorodsky",
                    "--region", "0,1,0", "--nx", "3", "--ny", "3"]) == 2

    def test_grid_spec_required(self, capsys):
        assert run(["field", "--model", "shargorodsky", "--region", "0,1,0,1"]) == 2

    def test_grid_spec_exclusive(self, capsys):
        assert run(["field", "--model", "shargorodsky", "--region", "0,1,0,1",
                    "--h", "0.5", "--nx", "3", "--ny", "3"]) == 2

    def test_unknown_model(self, capsys):
        assert run(["field", "--model", "nosuch",
                    "--region", "0,1,0,1", "--nx", "3", "--ny", "3"]) == 2

    def test_missing_required_flag(self, capsys):
        assert run(["verify", "global-min", "--model", "shargorodsky"]) == 2

    def test_missing_mask_file(self, capsys):
        assert run(["hausdorff", "--a", "nope.csv", "--b", "nope.csv"]) == 2

    def test_ragged_matrix_file(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("1,0,2,0\n3,0\n")
        assert run(["field", "--model", str(p),
                    "--region", "0,1,0,1", "--nx", "3", "--ny", "3"]) == 2

    @pytest.mark.parametrize("entry", ["inf", "nan"])
    def test_non_finite_matrix_entry(self, tmp_path, capsys, entry):
        p = tmp_path / "bad.csv"
        p.write_text(f"{entry},0,1,0\n0,0,1,0\n")
        assert run(["field", "--model", str(p),
                    "--region", "0,1,0,1", "--nx", "2", "--ny", "2"]) == 2
        err = capsys.readouterr().err
        assert "non-finite entry" in err and str(p) in err

    @pytest.mark.parametrize("command", ["hausdorff", "field"])
    def test_oversized_csv_field_is_two(self, tmp_path, capsys, command):
        # a field over the csv module's size limit fails inside csv.reader
        big = "1" * (csv.field_size_limit() + 1)
        p = tmp_path / "big.csv"
        if command == "hausdorff":
            p.write_text(f"re,im,member\n0,0,1\n0,1,{big}\n")
            argv = ["hausdorff", "--a", str(p), "--b", str(p)]
        else:
            p.write_text(f"1,0,{big},0\n0,0,1,0\n")
            argv = ["field", "--model", str(p),
                    "--region", "0,1,0,1", "--nx", "2", "--ny", "2"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "field larger than field limit" in err

    def test_odd_column_matrix_file(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("1,0,2\n")
        assert run(["field", "--model", str(p),
                    "--region", "0,1,0,1", "--nx", "3", "--ny", "3"]) == 2

    def test_nonpositive_epsilon(self, capsys):
        assert run(["levelset", "--model", "shargorodsky",
                    "--region", "0,1,0,1", "--nx", "3", "--ny", "3",
                    "--epsilon", "0"]) == 2

    def test_truncation_needs_block_family(self, diag_matrix_file, capsys):
        assert run(["converge", "--model", diag_matrix_file,
                    "--region", "1,7,-1.5,1.5", "--h", "0.5", "--ks", "2,4"]) == 2

    def test_reference_truncation_flag_is_gone(self, capsys):
        # a truncation sequence's limit is its family, with no block count
        assert run(["converge", "--model", "decay", "--limit-blocks", "64",
                    "--region", "0,3,0.1,1.5", "--h", "0.1", "--ks", "2,4"]) == 2
        assert "--limit-blocks" in capsys.readouterr().err

    def test_inverse_symbol_truncations_have_no_anchor(self, capsys):
        assert run(["converge", "--model", "empty_resolvent",
                    "--region", "0,3,0.1,1.5", "--h", "0.1", "--ks", "2,4"]) == 2
        assert "spectrum of limit" in capsys.readouterr().err

    def test_beta_is_only_for_the_decay_example(self, capsys):
        assert run(["field", "--model", "shargorodsky", "--beta", "0.5",
                    "--region", "0,1,0,1", "--nx", "2", "--ny", "2"]) == 2
        assert "not valid for example" in capsys.readouterr().err

    def test_decay_beta_without_growth_is_two(self, capsys):
        # x^0.001 grows by about 1 % from the weight at k = 10 to the one at 10^6
        assert run(["field", "--model", "decay", "--beta", "0.001",
                    "--region", "0,1,0,1", "--nx", "2", "--ny", "2"]) == 2
        assert "shows no growth" in capsys.readouterr().err

    def test_anchor_on_the_limit_spectrum_is_two(self, capsys):
        # 2 is an eigenvalue of diag_pair, the limit of every sequence of it
        assert run(["converge", "--model", "diag_pair", "--sequence", "shrink",
                    "--anchor", "2,0", "--region", "1,7,-1.5,1.5", "--h", "0.1"]) == 2
        assert "spectrum of limit" in capsys.readouterr().err

    def test_anchor_on_the_evaluated_term_is_two(self, capsys):
        # 1.5 clears the limit diag(2, 6) but is an eigenvalue of shrink's term 4
        assert run(["converge", "--model", "diag_pair", "--sequence", "shrink",
                    "--anchor", "1.5,0", "--ks", "4",
                    "--region", "1,7,-1.5,1.5", "--h", "0.1"]) == 2
        assert "spectrum of term k=4" in capsys.readouterr().err

    def test_unknown_sequence_name(self, capsys):
        assert run(["converge", "--model", "shargorodsky", "--sequence", "shrink",
                    "--region", "1,7,-1.5,1.5", "--h", "0.5", "--ks", "2,4"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--r-min", "0"],
            ["--r-min", "-1"],
            ["--r-min", "nan"],
            ["--r-max", "inf"],
            ["--samples", "-3"],
            ["--samples", "2"],
        ],
    )
    def test_bad_decay_radii_or_samples_are_two(self, capsys, flags):
        assert run(["decay", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flags[0] in err

    def test_non_finite_point_is_two(self, capsys):
        assert run(["verify", "empty-resolvent", "--lam", "nan,0"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("probe", ["nan,0", "inf,0"])
    def test_non_finite_constant_region_probe_is_two(self, capsys, probe):
        assert run(["verify", "constant-region", "--model", "shargorodsky",
                    "--probe", "0.2,0", "--probe", probe]) == 2
        assert "finite" in capsys.readouterr().err

    def test_mask_too_wide_to_lay_out_is_two(self, tmp_path, capsys):
        # its step overflowed, and the distance between two copies printed nan
        mask = tmp_path / "wide.csv"
        mask.write_text("re,im,member\n-1e308,-1e308,1\n-1e308,1e308,1\n"
                        "1e308,-1e308,1\n1e308,1e308,0\n")
        assert run(["hausdorff", "--a", str(mask), "--b", str(mask)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_memory_error_is_two(self, tmp_path, monkeypatch, capsys):
        # no lattice is allocated: the distance itself runs out of memory
        mask = tmp_path / "m.csv"
        mask.write_text("re,im,member\n0,0,1\n0,1,0\n1,0,0\n1,1,1\n")

        def exhausted(a, b):
            raise MemoryError("cannot allocate the distances")

        monkeypatch.setattr(cli, "hausdorff_distance", exhausted)
        assert run(["hausdorff", "--a", str(mask), "--b", str(mask)]) == 2
        assert capsys.readouterr().err == "error: cannot allocate the distances\n"

    def test_non_normal_dense_field_is_exact(self, tmp_path, capsys):
        # a Jordan block: not diagonal, so every cell takes the dense kernel,
        # which has no iteration that could fail
        p = tmp_path / "jordan.csv"
        p.write_text("1,0,1,0\n0,0,1,0\n")
        assert run(["field", "--model", str(p),
                    "--region", "0,0.1,0,0.1", "--nx", "2", "--ny", "2"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        jordan = [[1.0, 1.0], [0.0, 1.0]]
        assert len(rows) == 4
        for re, im, value in rows:
            want = resolvent_norm_oracle(jordan, complex(float(re), float(im)))
            assert float(value) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("n", ["65", "1100"])
    def test_power_index_beyond_the_limit_is_two(self, capsys, n):
        # at n = 1100, 2^n overflowed a double and escaped as a traceback
        assert run(["field", "--model", "shargorodsky", "--region", "0,1,0,1",
                    "--nx", "2", "--ny", "2", "--n", n]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "power index" in err

    def test_point_beyond_the_block_range_is_two(self, capsys):
        assert run(["field", "--model", "remark_n1", "--region", "1e76,2e76,0,1e76",
                    "--nx", "2", "--ny", "2"]) == 2
        assert "block arithmetic" in capsys.readouterr().err


DIAG_CONVERGE = ["converge", "--model", "diag_pair", "--region", "1,7,-1.5,1.5", "--h", "0.5"]


@pytest.mark.parametrize(
    "argv",
    [
        ["field", "--model", "shargorodsky", "--region", "-1,1,-1,1", "--h", "nan"],
        [*DIAG_CONVERGE, "--sequence", "scale", "--ks", "0"],
        [*DIAG_CONVERGE, "--sequence", "shrink", "--defect-threshold", "nan"],
        [*DIAG_CONVERGE, "--sequence", "grow", "--anchor", "6,0"],
        [*DIAG_CONVERGE, "--sequence", "grow", "--anchor", "2.5,0", "--ks", "4"],
        # windows no lattice can lay out; they escaped as tracebacks or warned
        ["field", "--model", "shargorodsky", "--region", "0,1,0,1", "--h", "1e-300"],
        ["field", "--model", "shargorodsky", "--region", "0,1,0,1",
         "--nx", str(10**20), "--ny", "3"],
        ["field", "--model", "diag_pair", "--region", "-1e308,1e308,0,1", "--nx", "3", "--ny", "3"],
        ["verify", "counterexample-const", "--h", "1e-300"],
    ],
    ids=["step-nan", "index-zero", "threshold-nan", "anchor-on-limit", "anchor-on-term",
         "step-too-fine", "too-many-points", "step-overflows", "study-step-too-fine"],
)
def test_malformed_numeric_input_is_one_error_line(argv):
    proc = run_module(argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


class TestStudies:
    def test_converge_shrink_passes(self, capsys):
        code = run(["converge", "--model", "diag_pair", "--sequence", "shrink",
                    "--region", "1,7,-1.5,1.5", "--h", "0.1", "--ks", "2,4,8"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"
        assert doc["series"][0] == [2.0, 1.0]

    def test_decay_sparse_passes(self, capsys):
        code = run(["decay", "--grid", "sparse", "--samples", "5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"

    def test_decay_sparse_grid_holds_the_maximizer(self, capsys):
        # the successor grid is sized from the closed-form maximizer, 3.0e4 at
        # r = 100: sized as 4 r^(2/(1+beta)) it stopped at 17320 weights
        assert run(["decay", "--beta", "0.1", "--grid", "sparse"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"

    def test_counterexample_const_passes(self, capsys):
        code = run(["verify", "counterexample-const", "--ks", "2,4"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"

    def test_empty_resolvent_probe_passes(self, capsys):
        code = run(["verify", "empty-resolvent", "--sizes", "10,40"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"
        assert [x for x, _ in doc["series"]] == [10.0, 40.0]


class TestRoundTrip:
    def test_mask_export_reimport_keeps_distances(self, diag_matrix_file, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        common = ["--model", diag_matrix_file, "--region", "0,8,-2,2", "--h", "0.5"]
        assert run(["levelset", *common, "--epsilon", "1", "--out", str(a)]) == 0
        assert run(["levelset", *common, "--epsilon", "0.5", "--out", str(b)]) == 0
        with a.open() as fh:
            set_a = MaskSet.from_level_set(read_mask_csv(fh))
        with b.open() as fh:
            set_b = MaskSet.from_level_set(read_mask_csv(fh))
        expected = hausdorff_distance(set_a, set_b)
        assert run(["hausdorff", "--a", str(a), "--b", str(b)]) == 0
        assert float(capsys.readouterr().out) == expected

    def test_field_json_matches_csv(self, diag_matrix_file, tmp_path):
        fc, fj = tmp_path / "f.csv", tmp_path / "f.json"
        common = ["field", "--model", diag_matrix_file,
                  "--region", "1,3,-1,1", "--nx", "3", "--ny", "3"]
        assert run([*common, "--out", str(fc)]) == 0
        assert run([*common, "--format", "json", "--out", str(fj)]) == 0
        doc = json.loads(fj.read_text())
        rows = list(csv.reader(fc.open()))[1:]
        flat = [v for row in doc["values"] for v in row]
        for rec, jv in zip(rows, flat):
            assert float(rec[2]) == (float("inf") if jv == "inf" else jv)

    def test_levelset_json_matches_csv(self, diag_matrix_file, tmp_path):
        mc, mj = tmp_path / "m.csv", tmp_path / "m.json"
        common = ["levelset", "--model", diag_matrix_file,
                  "--region", "1,3,-1,1", "--nx", "3", "--ny", "3", "--epsilon", "1"]
        assert run([*common, "--out", str(mc)]) == 0
        assert run([*common, "--format", "json", "--out", str(mj)]) == 0
        doc = json.loads(mj.read_text())
        rows = list(csv.reader(mc.open()))[1:]
        flat = [v for row in doc["member"] for v in row]
        assert [int(rec[2]) for rec in rows] == flat
        assert set(flat) == {0, 1}
        assert (doc["epsilon"], doc["n"], doc["strictness"]) == (1.0, 0, "closed_Sigma")

    def test_field_and_levelset_json_bytes(self, diag_matrix_file, tmp_path):
        grid = ["--model", diag_matrix_file, "--region", "1,3,-1,1",
                "--nx", "3", "--ny", "5"]
        fj, mj = tmp_path / "f.json", tmp_path / "m.json"
        assert run(["field", *grid, "--format", "json", "--out", str(fj)]) == 0
        assert run(["levelset", *grid, "--epsilon", "1", "--format", "json",
                    "--out", str(mj)]) == 0
        model = DenseOperator(np.diag([2.0, 6.0]))
        field = compute_norm_field(model, GridRegion(1.0, 3.0, -1.0, 1.0, 3, 5), 0)
        assert math.isinf(field.values[1, 2])  # z = 2, an eigenvalue
        assert fj.read_bytes() == json_document_oracle(field).encode()
        mask = level_set(field, 1.0, "closed_Sigma")
        assert mj.read_bytes() == json_document_oracle(mask).encode()


def test_module_entry_point_runs():
    proc = run_module(["verify", "empty-resolvent", "--sizes", "5,20"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"
