import json
import math

import numpy as np
import pytest

import levyspec.cli
import levyspec.estimator
from levyspec.cli import main, read_values_csv

CAUCHY_FLAGS = ["--alpha", "1", "--P", "0.3183098861837907", "--Q", "0.3183098861837907"]


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# sample

def test_sample_deterministic_output(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", *CAUCHY_FLAGS, "--delta", "1", "--n", "1000",
            "--seed", "7", "--no-meta"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "index,value"
    assert len(rows) == 1001


def test_sample_meta_has_timestamp_only_without_no_meta(tmp_path):
    out = tmp_path / "a.csv"
    run(["sample", *CAUCHY_FLAGS, "--delta", "1", "--n", "10", "--seed", "1",
         "--out", str(out)])
    text = out.read_text()
    assert "generated=" in text
    run(["sample", *CAUCHY_FLAGS, "--delta", "1", "--n", "10", "--seed", "1",
         "--out", str(out), "--no-meta"])
    assert "generated=" not in out.read_text()


def test_sample_env_seed_fallback(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("LEVYSPEC_SEED", "7")
    run(["sample", *CAUCHY_FLAGS, "--delta", "1", "--n", "20", "--no-meta",
         "--out", str(out1)])
    monkeypatch.delenv("LEVYSPEC_SEED")
    run(["sample", *CAUCHY_FLAGS, "--delta", "1", "--n", "20", "--seed", "7",
         "--no-meta", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# estimate

@pytest.fixture()
def increments_file(tmp_path):
    out = tmp_path / "inc.csv"
    run(["sample", *CAUCHY_FLAGS, "--delta", "1", "--n", "2000", "--seed", "7",
         "--no-meta", "--out", str(out)])
    return out


def test_estimate_auto_kappa(increments_file, tmp_path, capsys):
    out = tmp_path / "dens.csv"
    code = run(["estimate", "--data", str(increments_file), "--delta", "1",
                "--umax", "10", "--kappa", "auto", "--out", str(out), "--no-meta"])
    assert code == 0
    printed = capsys.readouterr().out
    kappa = float(printed.split("kappa=")[1].splitlines()[0])
    assert 0.0 < kappa <= 5.0
    dens_lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert dens_lines[0] == "x,f_hat"
    assert len(dens_lines) == 513
    ecf_path = tmp_path / "dens_ecf.csv"
    ecf_lines = [l for l in ecf_path.read_text().splitlines() if not l.startswith("#")]
    assert ecf_lines[0] == "u,re,im"
    assert len(ecf_lines) == 402


def test_estimate_fixed_kappa_idempotent(increments_file, tmp_path, capsys):
    out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    base = ["estimate", "--data", str(increments_file), "--delta", "1",
            "--umax", "10", "--kappa", "0.8", "--no-meta"]
    assert run(base + ["--out", str(out1)]) == 0
    assert run(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_estimate_difference_flag(tmp_path, capsys):
    rng = np.random.default_rng(0)
    levels = np.cumsum(rng.standard_cauchy(500))
    lv = tmp_path / "levels.csv"
    lv.write_text("value\n" + "\n".join(f"{v}" for v in levels) + "\n")
    inc = tmp_path / "incs.csv"
    inc.write_text("value\n" + "\n".join(f"{v}" for v in np.diff(levels)) + "\n")
    out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
    assert run(["estimate", "--data", str(lv), "--difference", "--delta", "1",
                "--kappa", "1.0", "--no-meta", "--out", str(out1)]) == 0
    assert run(["estimate", "--data", str(inc), "--delta", "1",
                "--kappa", "1.0", "--no-meta", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_estimate_from_model_flags(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = run(["estimate", *CAUCHY_FLAGS, "--n", "500", "--seed", "3",
                "--delta", "1", "--kappa", "auto", "--fallback",
                "--out", str(out), "--no-meta"])
    assert code == 0


def test_estimate_computes_the_ecf_once(increments_file, tmp_path, monkeypatch):
    calls = []
    real_ecf = levyspec.estimator.ecf

    def counted_ecf(*args, **kwargs):
        calls.append(args)
        return real_ecf(*args, **kwargs)

    for module in (levyspec.cli, levyspec.estimator):
        monkeypatch.setattr(module, "ecf", counted_ecf)
    assert run(["estimate", "--data", str(increments_file), "--delta", "1",
                "--kappa", "auto", "--out", str(tmp_path / "d.csv"), "--no-meta"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("flags, message", [
    (["--xgrid", "0"], "--xgrid must be at least 2, got 0"),
    (["--xgrid", "1"], "--xgrid must be at least 2, got 1"),
    (["--kappa-count", "2"], "count must be at least 3"),
    (["--kappa-step", "0"], "delta_step must be positive"),
    (["--kappa", "abc"], "--kappa must be 'auto' or a number, got 'abc'"),
    (["--kappa", "-1"], "--kappa must be a finite number >= 0, got -1"),
], ids=["xgrid-0", "xgrid-1", "kappa-count-2", "kappa-step-0", "kappa-abc", "kappa--1"])
def test_estimate_rejects_bad_grid_flags_before_reading_data(
        flags, message, increments_file, tmp_path, monkeypatch, capsys):
    def refuse_read(*args, **kwargs):
        raise AssertionError("data read before the flags were validated")

    monkeypatch.setattr(levyspec.cli, "read_values_csv", refuse_read)
    out = tmp_path / "d.csv"
    code = run(["estimate", "--data", str(increments_file), "--delta", "1",
                *flags, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "d_ecf.csv").exists()


# ---------------------------------------------------------------------------
# calibrate

def test_calibrate_prints_kappa_and_writes_profile(increments_file, tmp_path, capsys):
    out = tmp_path / "chi.csv"
    code = run(["calibrate", "--data", str(increments_file), "--delta", "1",
                "--umax", "10", "--kappa-step", "0.05", "--kappa-count", "100",
                "--out", str(out), "--no-meta"])
    assert code == 0
    printed = capsys.readouterr().out
    kappa = float(printed.split("kappa=")[1].splitlines()[0])
    assert 0.0 < kappa <= 5.0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "kappa,chi"
    assert len(lines) == 102


def test_calibrate_without_out_prints_profile(increments_file, capsys):
    code = run(["calibrate", "--data", str(increments_file), "--delta", "1",
                "--umax", "10", "--kappa-count", "10"])
    printed = capsys.readouterr().out
    assert printed.splitlines()[0] == "kappa,chi"
    assert code in (0, 4)


def test_calibrate_no_stabilization_exit_code(tmp_path, capsys):
    # coarse kappa grid on heavy-tailed data: chi keeps changing
    data = tmp_path / "stable07.csv"
    run(["sample", "--alpha", "0.7", "--P", "2", "--Q", "1", "--delta", "0.1",
         "--n", "500", "--seed", "1", "--no-meta", "--out", str(data)])
    code = run(["calibrate", "--data", str(data), "--delta", "0.1",
                "--umax", "100", "--kappa-step", "0.02", "--kappa-count", "3",
                "--out", str(tmp_path / "chi.csv")])
    assert code == 4
    # with --fallback the command succeeds and reports 2*sqrt(2)
    code = run(["calibrate", "--data", str(data), "--delta", "0.1",
                "--umax", "100", "--kappa-step", "0.02", "--kappa-count", "3",
                "--fallback"])
    assert code == 0
    assert "fallback" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# risk-table

def test_risk_table_runs_config(tmp_path):
    cfg = {
        "model": {"b": 0.0, "sigma2": 0.0,
                  "jumps": {"P": 0.3183098861837907, "Q": 0.3183098861837907,
                            "alpha": 1.0}},
        "delta_t": 1.0, "n_list": [300], "trials": 3,
        "kappa_mode": "auto", "master_seed": 5, "label": "cauchy",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([cfg]))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run(["risk-table", "--config", str(cfg_path), "--out", str(out1),
                "--no-meta"]) == 0
    assert run(["risk-table", "--config", str(cfg_path), "--out", str(out2),
                "--no-meta"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].startswith("model,alpha,delta,n,")
    assert lines[1].split(",")[0] == "cauchy"


def test_risk_table_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = {"model": {"sigma2": 1.0}, "delta_t": 1.0, "n_list": [300], "trails": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.csv"
    assert run(["risk-table", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "'trails'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("n_list", 5), ("n_list", "55"), ("delta_t", None), ("trials", 2.7),
    pytest.param("n_list", [500.9], id="n_list-500.9"), ("master_seed", True),
    pytest.param("model", {"sigma2": True}, id="sigma2-true"),
    pytest.param("model", {"jumps": {"P": 1, "Q": 1, "alpha": "1"}}, id="alpha-str"),
    pytest.param("delta_t", "1", id="delta_t-str"),
    pytest.param("delta_t", math.inf, id="delta_t-inf"),
    pytest.param("u_max", math.nan, id="u_max-nan"),
    pytest.param("u_step", 10 ** 400, id="u_step-overflow"),
    pytest.param("kappa_mode", "0.5", id="kappa_mode-str"),
    pytest.param("label", 7, id="label-int")])
def test_risk_table_wrongly_typed_config_value_exits_2(key, value, tmp_path, capsys):
    cfg = {"model": {"sigma2": 1.0}, "delta_t": 1.0, "n_list": [300], key: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.csv"
    assert run(["risk-table", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc, problem", [
    (5, "got 5"),
    ({"experiments": 5}, "got 5"),
    ({"experiments": [{"model": {"sigma2": 1.0}, "delta_t": 1.0, "n_list": [300]}],
      "trails": 5}, "unknown document key(s): 'trails'"),
], ids=["number", "experiments-number", "experiments-beside-unknown-key"])
def test_risk_table_malformed_document_exits_2(doc, problem, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    assert run(["risk-table", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert problem in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# check-bounds

def test_check_bounds_thm1(capsys):
    assert run(["check-bounds", "--which", "thm1", "--delta", "1", "--n", "300",
                "--trials", "10", "--seed", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_bounds_thm4(capsys):
    assert run(["check-bounds", "--which", "thm4", "--delta", "1", "--n", "300",
                "--trials", "10", "--seed", "2"]) == 0


@pytest.mark.parametrize("which", ["thm1", "thm4"])
def test_check_bounds_zero_trials_is_a_validation_error(which, capsys):
    assert run(["check-bounds", "--which", which, "--delta", "1", "--n", "300",
                "--trials", "0"]) == 2
    assert "trials must be at least 1, got 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validation failures

def test_malformed_csv_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("index,value\n0,1.5\n1,oops\n")
    code = run(["estimate", "--data", str(bad), "--delta", "1", "--kappa", "1",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "bad.csv:3" in capsys.readouterr().err


def test_non_finite_csv_exits_2_without_output(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.1\nnan\n0.3\n-0.2\ninf\n")
    out = tmp_path / "x.csv"
    code = run(["estimate", "--data", str(bad), "--delta", "1", "--out", str(out)])
    assert code == 2
    assert "bad.csv:2: non-finite cell 'nan'" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "x_ecf.csv").exists()


def test_wrong_column_count(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1.5,2.0\n")
    code = run(["estimate", "--data", str(bad), "--delta", "1", "--kappa", "1",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "bad.csv:1" in capsys.readouterr().err


NON_FINITE_BASE = {
    "sample": ["sample", "--delta", "1", "--n", "10", "--out", "{out}"],
    "estimate": ["estimate", "--data", "{data}", "--delta", "1", "--out", "{out}"],
    "calibrate": ["calibrate", "--data", "{data}", "--delta", "1", "--out", "{out}"],
    "check-bounds": ["check-bounds", "--which", "thm4", "--delta", "1", "--n", "300",
                     "--trials", "5"],
}


@pytest.mark.parametrize("command, flag, value", [
    ("estimate", "--delta", "nan"), ("estimate", "--delta", "inf"),
    ("estimate", "--umax", "inf"), ("estimate", "--umax", "nan"),
    ("estimate", "--step", "nan"), ("estimate", "--step", "-inf"),
    ("estimate", "--kappa-step", "inf"), ("estimate", "--alpha", "nan"),
    ("estimate", "--P", "inf"), ("estimate", "--Q", "nan"),
    ("estimate", "--sigma2", "inf"), ("estimate", "--b", "-inf"),
    ("calibrate", "--umax", "nan"), ("calibrate", "--kappa-step", "nan"),
    ("calibrate", "--delta", "inf"),
    ("sample", "--delta", "inf"), ("sample", "--alpha", "nan"),
    ("check-bounds", "--kappa", "nan"), ("check-bounds", "--kappa", "inf"),
    ("check-bounds", "--delta", "nan"),
])
def test_non_finite_float_flag_exits_2_before_any_work(
        command, flag, value, increments_file, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the flags were validated")

    for name in ("read_values_csv", "sample_increments", "cutoff_risk_bound_check",
                 "adaptive_risk_bound_check"):
        monkeypatch.setattr(levyspec.cli, name, refuse)
    out = tmp_path / "out.csv"
    argv = [a.format(data=increments_file, out=out) for a in NON_FINITE_BASE[command]]
    assert run([*argv, f"{flag}={value}"]) == 2  # "--b -inf" would read as a flag
    assert f"argument {flag}: must be a finite number, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, rule", [
    ("estimate", "--delta", "0", "delta_t must be positive"),
    ("estimate", "--delta", "-1", "delta_t must be positive"),
    ("estimate", "--umax", "0", "u_max must be positive"),
    ("estimate", "--umax", "-10", "u_max must be positive"),
    ("estimate", "--step", "0", "step must be positive"),
    ("estimate", "--step", "-0.05", "step must be positive"),
    ("estimate", "--kappa-step", "-0.05", "delta_step must be positive"),
    ("calibrate", "--delta", "-1", "delta_t must be positive"),
    ("calibrate", "--umax", "-1", "u_max must be positive"),
    ("calibrate", "--step", "0", "step must be positive"),
    ("calibrate", "--kappa-step", "0", "delta_step must be positive"),
    ("sample", "--delta", "0", "delta_t must be positive"),
    ("check-bounds", "--delta", "-1", "delta_t must be positive"),
    ("check-bounds", "--kappa", "-1", "kappa must be nonnegative"),
    ("check-bounds", "--kappa", "-1e-300", "kappa must be nonnegative"),
])
def test_out_of_range_float_flag_exits_2_before_any_work(
        command, flag, value, rule, increments_file, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the flags were validated")

    for name in ("read_values_csv", "sample_increments", "cutoff_risk_bound_check",
                 "adaptive_risk_bound_check"):
        monkeypatch.setattr(levyspec.cli, name, refuse)
    out = tmp_path / "out.csv"
    argv = [a.format(data=increments_file, out=out) for a in NON_FINITE_BASE[command]]
    assert run([*argv, f"{flag}={value}"]) == 2
    assert f"argument {flag}: {rule}, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


def test_range_checked_flags_accept_their_boundary():
    args = levyspec.cli.build_parser().parse_args(
        ["check-bounds", "--which", "thm4", "--delta", "1e-300", "--n", "300",
         "--kappa", "0"])
    assert (args.delta, args.kappa) == (1e-300, 0.0)


def test_estimate_past_the_alias_half_period_exits_2_without_output(tmp_path, capsys):
    # N(0, 100^2) at the default step 0.05: the x-grid (+-8 IQR, about +-1079) reaches
    # far past pi/step = 62.8, where the inversion would repeat with period 2 pi/step.
    data = tmp_path / "wide.csv"
    values = np.random.default_rng(4).normal(0.0, 100.0, 5000)
    data.write_text("value\n" + "\n".join(f"{v:.17g}" for v in values) + "\n")
    out = tmp_path / "d.csv"
    assert run(["estimate", "--data", str(data), "--delta", "1", "--kappa", "1",
                "--out", str(out)]) == 2
    assert "x-grid must lie within the alias half-period" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "d_ecf.csv").exists()


def test_estimate_with_its_bulk_past_the_alias_half_period_exits_2_without_output(
        tmp_path, capsys):
    # N(1000, 1): the x-grid (+-8 IQR, about +-10.8) lies inside pi/step = 62.8, but
    # the data sit at 1000, which the inversion would fold to 1000 mod 2 pi/step = -5.3.
    data = tmp_path / "far.csv"
    values = np.random.default_rng(5).normal(1000.0, 1.0, 5000)
    data.write_text("value\n" + "\n".join(f"{v:.17g}" for v in values) + "\n")
    out = tmp_path / "d.csv"
    assert run(["estimate", "--data", str(data), "--delta", "1",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--step" in err and "|median| + 8 IQR = 101" in err
    assert not out.exists()
    assert not (tmp_path / "d_ecf.csv").exists()


def test_unknown_flag_exits_2(capsys):
    assert run(["sample", "--bogus", "1"]) == 2


def test_missing_data_and_model(tmp_path, capsys):
    assert run(["estimate", "--delta", "1", "--kappa", "1",
                "--out", str(tmp_path / "x.csv")]) == 2


def test_read_values_csv_variants(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("# comment\nvalue\n1.0\n2.5\n")
    np.testing.assert_allclose(read_values_csv(str(p)), [1.0, 2.5])
    p.write_text("index,value\n0,1.0\n1,2.5\n")
    np.testing.assert_allclose(read_values_csv(str(p)), [1.0, 2.5])
    np.testing.assert_allclose(read_values_csv(str(p), difference=True), [1.5])
    p.write_text("")
    with pytest.raises(ValueError):
        read_values_csv(str(p))
