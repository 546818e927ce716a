"""Command-line front end tests (all through main(), no subprocesses)."""

import csv
import json
import math

import pytest

from gapdims import experiments
from gapdims.cli import main, parse_phi, parse_sequence, write_json


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
    assert rows[1] == ["n", "k", "x", "R", "r", "N", "exponent"]


def test_estimate_windows_csv_carries_k(outdir):
    # r = s_(n + phi(n) + k), and phi = 0 for Phi = 0, so r = 3^-(n + k) here
    assert main(["estimate", "--seq", "middle-third", "--w", "14", "--arrangement", "cantor",
                 "--direction", "upper", "--out", "k"]) == 0
    with open(outdir / "k.windows-upper.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["n", "k", "x", "R", "r", "N", "exponent"]
    ks = {int(row[1]) for row in rows[2:]}
    assert ks == {1, 2, 3}                     # the default policy's k range
    for row in rows[2:]:
        n, k, r = int(row[0]), int(row[1]), float(row[4])
        assert r == pytest.approx(3.0 ** -(n + k), rel=1e-12)


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


def test_config_values_are_read_by_the_flag_parsers(outdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seq": "middle-third", "levels": "64"}))
    assert main(["dims", "--config", str(cfg), "--out", "c"]) == 0
    assert json.loads((outdir / "c.json").read_text())["config"]["levels"] == 64
    # the file's arrangement replaces the flag's default, as --arrangement cantor would
    cfg.write_text(json.dumps({"seq": "middle-third", "w": 8, "arrangement": "cantor"}))
    assert main(["sample", "--config", str(cfg), "--out", "s"]) == 0
    assert main(["sample", "--seq", "middle-third", "--w", "8", "--arrangement", "cantor",
                 "--out", "f"]) == 0
    assert json.loads((outdir / "s.json").read_text())["config"]["arrangement"] == "cantor"
    assert (outdir / "s.gaps.csv").read_bytes() == (outdir / "f.gaps.csv").read_bytes()


@pytest.mark.parametrize("command,cfg,flag", [
    ("sample", {"w": 10.5, "seed": 1}, "--w"),
    ("estimate", {"w": 10.0, "seed": 1}, "--w"),
    ("estimate", {"w": 10, "seed": True}, "--seed"),
    ("dims", {"levels": False}, "--levels"),
    ("sample", {"w": 8, "arrangement": "spiral"}, "--arrangement"),
])
def test_config_value_the_flag_refuses_exits_2(outdir, tmp_path, capsys, command, cfg, flag):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seq": "middle-third", **cfg}))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path), "--out", "c"])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert list(outdir.glob("c.*")) == []


def test_tailcheck_default_grid(outdir, capsys):
    assert main(["tailcheck", "--grid", "default", "--out", "t"]) == 0
    rep = json.loads((outdir / "t.json").read_text())
    assert rep["pass"]
    assert all(r["exact_two_sided_tail"] <= r["dml_bound"]
               for r in rep["rows"] if r["in_hypothesis"])
    assert [r["pass"] for r in rep["rows"]] == [True] * 5
    assert [line[:6] for line in capsys.readouterr().out.splitlines()] == ["[PASS]"] * 5


def test_tailcheck_fails_a_row_that_breaks_only_the_corollary(outdir, monkeypatch, capsys):
    exact = experiments.binomial_tail_mass

    def heavy_one_sided_tails(m, p, lo, hi):
        # a one-sided tail (one bound None) over exp(-Mp/432); two-sided tails stay exact
        if lo is None or hi is None:
            return 1.5 * math.exp(-m * p / 432.0)
        return exact(m, p, lo, hi)
    monkeypatch.setattr(experiments, "binomial_tail_mass", heavy_one_sided_tails)
    assert main(["tailcheck", "--grid", "default", "--out", "t"]) == 1
    rep = json.loads((outdir / "t.json").read_text())
    assert rep["pass"] is False
    assert all(r["in_hypothesis"] and r["corollary_in_hypothesis"] for r in rep["rows"])
    assert all(r["exact_two_sided_tail"] <= r["dml_bound"] for r in rep["rows"])
    assert [r["pass"] for r in rep["rows"]] == [False] * 5
    assert [line[:6] for line in capsys.readouterr().out.splitlines()] == ["[FAIL]"] * 5


def test_tailcheck_skipped_row(outdir, capsys):
    assert main(["tailcheck", "--grid", "10:4", "--out", "t"]) == 0
    rep = json.loads((outdir / "t.json").read_text())
    assert rep["pass"] is True
    assert [r["pass"] for r in rep["rows"]] == [None]
    assert capsys.readouterr().out.startswith("[SKIP] M=10 N=4")


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{path.name} holds {constant}, which strict JSON has no token for")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("argv,nulls", [
    (["tailcheck", "--grid", "10:4"], lambda rep: [rep["rows"][0][key] for key in (
        "exact_two_sided_tail", "exact_upper_tail", "exact_lower_tail", "dml_bound",
        "corollary_bound", "pass")]),
    (["dims", "--seq", "middle-third", "--levels", "20"],   # a one-rung k0 ladder
     lambda rep: [rep["upper"]["stability"], rep["lower"]["stability"]]),
], ids=["skipped_tail_row", "one_rung_ladder"])
def test_skipped_values_are_null_in_strict_json(outdir, argv, nulls):
    assert main([*argv, "--out", "s"]) == 0
    assert all(value is None for value in nulls(_strict_json(outdir / "s.json")))


def test_write_json_refuses_nan_before_making_the_file(tmp_path):
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(str(tmp_path / "x.json"), {"value": math.nan})
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("grid,named", [
    ("0:5,-3:2,100:0", "M must be an integer in [1, inf), got 0"),
    ("100:0", "N must be an integer in [1, inf), got 0"),
    ("8:3:4", "grid entry '8:3:4' is not M:N"),
    ("10:4,64", "grid entry '64' is not M:N"),
    ("10:x", "grid entry '10:x' is not M:N"),
])
def test_tailcheck_refuses_a_malformed_grid(outdir, capsys, grid, named):
    assert main(["tailcheck", "--grid", grid, "--out", "t"]) == 2
    assert named in _one_error_line(capsys)
    assert not (outdir / "t.json").exists()


def test_tailcheck_refuses_a_count_past_the_deepest_draw(outdir, capsys):
    # no experiment draws more than 2^26 labels; M = 2^32 is refused before any tail
    assert main(["tailcheck", "--grid", "4294967296:1", "--out", "t"]) == 2
    assert "M must be an integer in [1, 67108864], got 4294967296" in _one_error_line(capsys)
    assert not (outdir / "t.json").exists()


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


def test_random_sample_without_seed_exits_2(outdir, capsys):
    assert main(["sample", "--seq", "middle-third", "--w", "8", "--arrangement", "random",
                 "--out", "x"]) == 2
    assert "requires a seed" in capsys.readouterr().err


def test_estimate_has_no_workers_flag(outdir, capsys):
    with pytest.raises(SystemExit):
        main(["estimate", "--seq", "middle-third", "--w", "10", "--workers", "2"])
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    return err


def test_config_file_unknown_key_fails(outdir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seq": "middle-third", "level": 64}))
    assert main(["dims", "--config", str(cfg), "--out", "c"]) == 2
    assert "'level'" in _one_error_line(capsys)
    assert not (outdir / "c.json").exists()


def test_config_file_not_an_object_or_not_json_fails(outdir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for text in ('["middle-third"]', '{"seq": "middle-third",'):
        cfg.write_text(text)
        assert main(["dims", "--config", str(cfg), "--out", "c"]) == 2
        _one_error_line(capsys)


def test_commands_without_config_reject_the_flag(outdir, tmp_path, capsys):
    # experiment and tailcheck read no config file, so --config would be ignored
    for argv in (["tailcheck"], ["experiment", "--manifest", "m.json"]):
        with pytest.raises(SystemExit):
            main(argv + ["--config", str(tmp_path / "cfg.json")])
        assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_estimate_unknown_policy_key_fails(outdir, capsys):
    assert main(["estimate", "--seq", "middle-third", "--w", "10", "--seed", "1",
                 "--policy", '{"n_value": [4]}', "--out", "p"]) == 2
    assert "'n_value'" in _one_error_line(capsys)


@pytest.mark.parametrize("policy,key", [
    ('{"k_min": "1"}', "k_min"), ('{"n_values": 4}', "n_values"),
    ('{"n_values": [4.5]}', "n_values"), ('{"n_values": []}', "n_values"),
    ('{"max_centers": true}', "max_centers"), ('{"k_auto": true}', "k_auto"),
    ("0", "window policy")])
def test_estimate_malformed_policy_fails(outdir, capsys, policy, key):
    assert main(["estimate", "--seq", "middle-third", "--w", "10", "--seed", "1",
                 "--policy", policy, "--out", "p"]) == 2
    assert key in _one_error_line(capsys)
    assert not (outdir / "p.json").exists()


@pytest.mark.parametrize("argv", [
    ["tailcheck", "--eta", "0"],
    ["dims", "--seq", "middle-third", "--levels", "0"],
    ["estimate", "--seq", "middle-third", "--w", "10", "--seed", "1", "--levels", "0"],
])
def test_zero_flag_values_are_checked_not_defaulted(outdir, capsys, argv):
    assert main(argv + ["--out", "z"]) == 2
    _one_error_line(capsys)
    assert not (outdir / "z.json").exists()


def test_phi_spec_with_a_parameter_its_family_ignores_exits_2(outdir, capsys):
    assert main(["dims", "--seq", "middle-third", "--phi", "zero:5", "--out", "z"]) == 2
    assert "zero takes no parameter" in _one_error_line(capsys)
    assert not (outdir / "z.json").exists()


def test_sequence_spec_without_ratios_exits_2(outdir, capsys):
    assert main(["dims", "--seq", "periodic:", "--out", "z"]) == 2
    assert "periodic schedule takes at least 1 ratio" in _one_error_line(capsys)
    assert not (outdir / "z.json").exists()


def test_sequence_spec_with_ratios_its_kind_ignores_exits_2(outdir, capsys):
    assert main(["dims", "--seq", "middle-third:0.3", "--out", "z"]) == 2
    assert "middle-third sequence takes no ratios" in _one_error_line(capsys)
    assert not (outdir / "z.json").exists()


@pytest.mark.parametrize("argv,message", [
    (["--seq", "bogus"], "unknown sequence spec 'bogus'"),
    (["--seq", "middle-third", "--phi", "bogus:1"], "unknown dimension-function spec 'bogus:1'"),
])
def test_unknown_spec_exits_2(outdir, capsys, argv, message):
    assert main(["dims", *argv, "--out", "z"]) == 2
    assert message in _one_error_line(capsys)
    assert not (outdir / "z.json").exists()


def test_estimate_window_exponents_are_capped_at_one(outdir):
    # N = 3 balls at R/r = 2.5 gave ln 3 / ln 2.5 = 1.199, above the dimension of the line
    assert main(["estimate", "--seq", "blocks:0.2,0.4", "--w", "16", "--arrangement", "cantor",
                 "--direction", "both", "--out", "cap"]) == 0
    rep = json.loads((outdir / "cap.json").read_text())
    assert rep["upper"]["beta_hat"] == 1.0
    assert rep["lower"]["beta_hat"] == pytest.approx(0.651816, abs=1e-6)
    with open(outdir / "cap.windows-upper.csv") as fh:
        rows = list(csv.reader(fh))[2:]
    exponents = [float(row[6]) for row in rows]
    assert max(exponents) == 1.0 and len(exponents) == 576
    assert any(int(row[5]) == 3 and float(row[3]) / float(row[4]) < 2.6 for row in rows)
