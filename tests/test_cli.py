"""Command-line front end tests (all through main(), no subprocesses)."""

import csv
import json
import math

import pytest

from gapdims import GapdimsError
from gapdims.cli import check_thresholds, main, parse_phi, parse_sequence


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("GAPDIMS_OUT_DIR", str(tmp_path))
    return tmp_path


def test_parse_sequence_specs(tmp_path):
    assert parse_sequence("middle-third").ratios == (1.0 / 3.0,)
    assert parse_sequence("central:0.25").ratios == (0.25,)
    assert parse_sequence("blocks:0.2,0.45").schedule == "blocks"
    assert parse_sequence("periodic:0.3,0.4").schedule == "periodic"
    path = tmp_path / "gaps.txt"
    path.write_text("0.5\n0.3\n0.2\n")
    assert parse_sequence(f"file:{path}").kind == "explicit"


def test_parse_phi_specs():
    assert parse_phi("zero").family == "zero"
    assert parse_phi("const:0.5").param == 0.5
    assert parse_phi("invlog:2").family == "inverse-log"
    assert parse_phi("powerlog:0.5").family == "power-log"


def test_dims_command(outdir, capsys):
    assert main(["dims", "--seq", "middle-third", "--phi", "const:0.5",
                 "--levels", "64", "--out", "d"]) == 0
    rep = json.loads((outdir / "d.json").read_text())
    want = math.log(2.0) / math.log(3.0)
    assert rep["upper"]["beta_limit"] == pytest.approx(want, abs=1e-3)
    assert rep["lower"]["beta_limit"] == pytest.approx(want, abs=1e-3)
    assert rep["schema_version"] == 1
    assert "0.630930" in capsys.readouterr().out


def test_dims_quarter_ratio(outdir):
    assert main(["dims", "--seq", "central:0.25", "--out", "q"]) == 0
    rep = json.loads((outdir / "q.json").read_text())
    assert rep["upper"]["beta_limit"] == pytest.approx(0.5, abs=1e-9)
    assert rep["lower"]["beta_limit"] == pytest.approx(0.5, abs=1e-9)


def test_dims_shallow_explicit_fails_cleanly(outdir, tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0.5\n0.3\n0.2\n")
    assert main(["dims", "--seq", f"file:{path}", "--out", "x"]) == 2
    assert "error:" in capsys.readouterr().err


def test_sample_command_gap_table(outdir):
    assert main(["sample", "--seq", "middle-third", "--w", "10",
                 "--seed", "42", "--out", "s"]) == 0
    with open(outdir / "s.gaps.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["schema_version", "1"]
    assert rows[1] == ["index", "left", "length"]
    assert len(rows) == 2 + 1023
    total = math.fsum(float(r[2]) for r in rows[2:])
    rep = json.loads((outdir / "s.json").read_text())
    assert total + rep["tail_mass"] == pytest.approx(1.0, abs=1e-12)
    assert rep["config"]["seed"] == 42


def test_estimate_command_and_rerun_identical(outdir):
    args = ["estimate", "--seq", "middle-third", "--phi", "zero", "--w", "14",
            "--arrangement", "cantor", "--out", "e"]
    assert main(args) == 0
    first = ((outdir / "e.json").read_bytes(),
             (outdir / "e.windows-upper.csv").read_bytes())
    assert main(args) == 0
    assert ((outdir / "e.json").read_bytes(),
            (outdir / "e.windows-upper.csv").read_bytes()) == first
    rep = json.loads(first[0])
    want = math.log(2.0) / math.log(3.0)
    assert rep["upper"]["beta_hat"] == pytest.approx(want, abs=1e-6)
    with open(outdir / "e.windows-upper.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["n", "x", "R", "r", "N", "exponent"]


def test_estimate_decreasing_zero_upper_near_one(outdir):
    # the decreasing arrangement piles big gaps to the right, leaving a
    # near-solid left end: Assouad-type upper estimate well above box
    assert main(["estimate", "--seq", "middle-third", "--phi", "zero", "--w", "16",
                 "--arrangement", "decreasing", "--direction", "upper",
                 "--out", "dec"]) == 0
    rep = json.loads((outdir / "dec.json").read_text())
    assert rep["upper"]["beta_hat"] > 0.7


def test_config_file_and_flag_override(outdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seq": "middle-third", "levels": 64, "phi": "zero"}))
    assert main(["dims", "--config", str(cfg), "--phi", "const:1", "--out", "c"]) == 0
    rep = json.loads((outdir / "c.json").read_text())
    assert rep["config"]["phi"] == "const:1"  # flag beats file
    assert rep["config"]["levels"] == 64      # file fills the gap


def test_tailcheck_default_grid(outdir):
    assert main(["tailcheck", "--grid", "default", "--out", "t"]) == 0
    rep = json.loads((outdir / "t.json").read_text())
    assert rep["pass"]
    assert all(r["exact_two_sided_tail"] <= r["dml_bound"]
               for r in rep["rows"] if r["in_hypothesis"])


def test_experiment_manifest_small(outdir, tmp_path):
    manifest = {
        "schema_version": 1,
        "sequence": {"kind": "middle-third"},
        "w": 12,
        "trials": 4,
        "master_seed": 5,
        "experiments": [
            {"name": "ml", "kind": "max_load", "w": 12, "n": 8, "phi_n": 2,
             "min_frequency": 0.5},
            {"name": "eb", "kind": "empty_bin", "n_bins_log2": 6, "balls": 64,
             "min_frequency": 0.9},
        ],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    rc = main(["experiment", "--manifest", str(path), "--out", "r"])
    rep = json.loads((outdir / "r.json").read_text())
    assert rc == (0 if rep["pass"] else 1)
    assert {x["name"] for x in rep["results"]} == {"ml", "eb"}
    # re-run is byte-identical
    blob = (outdir / "r.json").read_bytes()
    main(["experiment", "--manifest", str(path), "--out", "r"])
    assert (outdir / "r.json").read_bytes() == blob


def test_missing_required_flag(outdir, capsys):
    assert main(["sample", "--seq", "middle-third", "--out", "x"]) == 2
    assert "missing required option" in capsys.readouterr().err


LADDER = [{"median_up": 0.9, "median_low": 0.2, "sandwich_violations": 0},
          {"median_up": 0.8, "median_low": 0.3, "sandwich_violations": 0}]


def test_thresholds_with_target_pass_and_fail():
    rules = {"upper": {"drift": "toward", "target": "formula_upper",
                       "final_distance_max": 0.06}}
    checks = check_thresholds(rules, LADDER, {"formula_upper": 0.75})
    assert [c["pass"] for c in checks] == [True, True]
    checks = check_thresholds(rules, LADDER, {"formula_upper": 0.95})
    assert [c["pass"] for c in checks] == [False, False]


@pytest.mark.parametrize("rule", [
    {"drift": "toward"},
    {"final_distance_max": 0.1},
    {"drift": "toward", "final_distance_max": 0.1, "target": None},
])
def test_threshold_distance_rule_without_target_raises(rule):
    with pytest.raises(GapdimsError, match="no target"):
        check_thresholds({"lower": rule}, LADDER, {})


def test_threshold_unknown_drift_raises():
    # a typo must not turn the rule into zero checks that pass vacuously
    with pytest.raises(GapdimsError, match="unknown upper drift"):
        check_thresholds({"upper": {"drift": "decreasing"}}, LADDER, {})


def test_estimate_has_no_workers_flag(outdir, capsys):
    with pytest.raises(SystemExit):
        main(["estimate", "--seq", "middle-third", "--w", "10", "--workers", "2"])
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
