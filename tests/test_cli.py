import argparse
import contextlib
import inspect
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import levyspec.calibration
import levyspec.cli
import levyspec.estimator
import levyspec.risk
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


def test_estimate_of_increments_sampled_from_model_flags(tmp_path, capsys):
    # the model flags go to sample, the one command that simulates; estimate reads its file
    inc = tmp_path / "inc.csv"
    assert run(["sample", *CAUCHY_FLAGS, "--n", "500", "--seed", "3", "--delta", "1",
                "--no-meta", "--out", str(inc)]) == 0
    assert run(["estimate", "--data", str(inc), "--delta", "1", "--kappa", "auto",
                "--fallback", "--out", str(tmp_path / "d.csv"), "--no-meta"]) == 0


SIMULATION_FLAGS = {"--alpha": "1", "--P": "0.3", "--Q": "0.3", "--sigma2": "1", "--b": "0",
                    "--n": "7", "--seed": "9", "--trial": "4"}


@pytest.mark.parametrize("flag", sorted(SIMULATION_FLAGS))
def test_estimate_refuses_the_flags_of_sample(flag, increments_file, tmp_path, capsys):
    # estimate reads --data only, so a model, size or seed flag is an unknown argument,
    # not a flag that is silently ignored
    out = tmp_path / "d.csv"
    assert run(["estimate", "--data", str(increments_file), "--delta", "1", "--kappa", "1",
                flag, SIMULATION_FLAGS[flag], "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: unrecognized arguments: {flag} {SIMULATION_FLAGS[flag]}\n")
    assert list(tmp_path.iterdir()) == [increments_file]


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


def test_estimate_calibrates_once_through_the_calibration_module(
        increments_file, tmp_path, monkeypatch):
    calls = []
    real = levyspec.calibration.select_kappa

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(levyspec.calibration, "select_kappa", counted)
    base = ["estimate", "--data", str(increments_file), "--delta", "1",
            "--out", str(tmp_path / "d.csv"), "--no-meta"]
    assert run(base + ["--kappa", "auto"]) == 0
    assert len(calls) == 1
    assert run(base + ["--kappa", "0.8"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("flags, message", [
    (["--xgrid", "0"], "argument --xgrid: points must be at least 2, got 0"),
    (["--xgrid", "1"], "argument --xgrid: points must be at least 2, got 1"),
    (["--kappa-count", "2"], "argument --kappa-count: count must be at least 3, got 2"),
    (["--kappa-step", "0"], "argument --kappa-step: delta_step must be finite and positive, "
                            "got 0.0"),
    (["--kappa", "abc"], "argument --kappa: must be 'auto' or a number, got 'abc'"),
    (["--kappa", "-1"], "argument --kappa: kappa must be finite and nonnegative, got -1.0"),
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
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert not (tmp_path / "d_ecf.csv").exists()


@pytest.mark.parametrize("ecf_out", ["same.csv", "./same.csv"])
def test_estimate_out_and_ecf_out_naming_one_file_exits_2_before_reading_data(
        ecf_out, increments_file, tmp_path, monkeypatch, capsys):
    # the ECF would overwrite the density; both flags are named and nothing is written
    def refuse_read(*args, **kwargs):
        raise AssertionError("data read before the output paths were validated")

    monkeypatch.setattr(levyspec.cli, "read_values_csv", refuse_read)
    monkeypatch.chdir(tmp_path)
    code = run(["estimate", "--data", str(increments_file), "--delta", "1", "--kappa", "1",
                "--out", "same.csv", "--ecf-out", ecf_out])
    assert code == 2
    assert f"--out same.csv and --ecf-out {ecf_out} name the same file" in capsys.readouterr().err
    assert not (tmp_path / "same.csv").exists()


@pytest.mark.parametrize("command, outputs, named", [
    ("estimate", ["--out", "inc_ecf.csv"], "--out inc_ecf.csv"),
    ("estimate", ["--out", "d.csv", "--ecf-out", "./inc_ecf.csv"], "--ecf-out ./inc_ecf.csv"),
    ("estimate", ["--out", "inc.csv"], "--ecf-out inc_ecf.csv"),  # the derived ECF path
    ("calibrate", ["--out", "sub/../inc_ecf.csv"], "--out sub/../inc_ecf.csv"),
], ids=["estimate-out", "estimate-ecf-out", "estimate-derived-ecf-out", "calibrate-out"])
def test_an_output_that_names_the_data_exits_2_before_reading_it(
        command, outputs, named, increments_file, tmp_path, monkeypatch, capsys):
    def refuse_read(*args, **kwargs):
        raise AssertionError("data read before the output paths were validated")

    data = increments_file.rename(tmp_path / "inc_ecf.csv")
    text = data.read_bytes()
    monkeypatch.setattr(levyspec.cli, "read_values_csv", refuse_read)
    monkeypatch.chdir(tmp_path)
    assert run([command, "--data", "inc_ecf.csv", "--delta", "1", *outputs]) == 2
    assert f"--data inc_ecf.csv and {named} name the same file" in capsys.readouterr().err
    assert data.read_bytes() == text
    assert [p.name for p in tmp_path.iterdir()] == ["inc_ecf.csv"]


def test_an_output_hard_linked_to_the_data_exits_2_and_leaves_it(increments_file, tmp_path,
                                                                  monkeypatch, capsys):
    # a hard link has its own real path but shares the data's inode
    data = increments_file.rename(tmp_path / "d.csv")
    text = data.read_bytes()
    os.link(data, tmp_path / "link.csv")
    monkeypatch.chdir(tmp_path)
    assert run(["calibrate", "--data", "d.csv", "--delta", "1", "--fallback",
                "--out", "link.csv"]) == 2
    assert "--data d.csv and --out link.csv name the same file" in capsys.readouterr().err
    assert data.read_bytes() == text


@pytest.mark.parametrize("out", ["cfg.json", "./cfg.json", "link.json"])
def test_risk_table_out_naming_its_config_exits_2_before_any_trial(out, tmp_path, monkeypatch,
                                                                   capsys):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the output path was validated")

    monkeypatch.setattr(levyspec.cli, "risk_table", no_trials)
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(_BASE_CONFIG))
    text = config.read_bytes()
    os.link(config, tmp_path / "link.json")
    assert run(["risk-table", "--config", "cfg.json", "--out", out]) == 2
    assert f"--config cfg.json and --out {out} name the same file" in capsys.readouterr().err
    assert config.read_bytes() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "link.json"]


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


def test_calibrate_prints_the_rows_of_its_out_file(increments_file, tmp_path, capsys):
    # one row formatter: the printed profile is the chi file's header and rows
    flags = ["calibrate", "--data", str(increments_file), "--delta", "1", "--no-meta",
             "--fallback"]
    assert run(flags) == 0
    printed = capsys.readouterr().out
    assert run([*flags, "--out", str(tmp_path / "chi.csv")]) == 0
    capsys.readouterr()
    rows = [line for line in (tmp_path / "chi.csv").read_text().splitlines(keepends=True)
            if not line.startswith("#")]
    assert printed.startswith("".join(rows))
    assert printed[len("".join(rows)):].startswith("kappa=")


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


@pytest.fixture()
def unstable_file(tmp_path):
    """Heavy-tailed data whose chi keeps changing on a three-step kappa grid."""
    data = tmp_path / "stable07.csv"
    run(["sample", "--alpha", "0.7", "--P", "2", "--Q", "1", "--delta", "0.1",
         "--n", "500", "--seed", "1", "--no-meta", "--out", str(data)])
    return data


@pytest.mark.parametrize("command", ["estimate", "calibrate"])
def test_no_stabilization_exits_4_with_the_select_kappa_message(
        command, unstable_file, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = [command, "--data", str(unstable_file), "--delta", "0.1", "--umax", "100",
            "--kappa-step", "0.02", "--kappa-count", "3", "--out", str(out)]
    assert run(argv) == 4
    assert capsys.readouterr().err == (
        "error: chi never stable over three consecutive kappas (grid step 0.02, count 3)\n")
    assert run(argv + ["--fallback", "--no-meta"]) == 0
    assert capsys.readouterr().out.startswith(f"kappa={2.0 * math.sqrt(2.0):.17g}")


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


def test_a_mixed_law_with_a_vanishing_gaussian_part_writes_a_finite_risk(tmp_path, capsys):
    # its norm ||f||^2 was integrated as 0, so the row read nan after two numpy warnings
    config = tmp_path / "mixed.json"
    config.write_text(json.dumps({
        "model": {"sigma2": 1e-12, "jumps": {"P": 1, "Q": 1, "alpha": 1.5}},
        "delta_t": 1e10, "n_list": [1000], "trials": 5, "master_seed": 3}))
    out = tmp_path / "risk.csv"
    assert run(["risk-table", "--config", str(config), "--out", str(out), "--no-meta"]) == 0
    assert capsys.readouterr().err == ""
    header, row = out.read_text().splitlines()[-2:]
    cells = dict(zip(header.split(","), row.split(",")))
    assert all(math.isfinite(float(cells[key])) for key in ("mean_risk", "sd_risk"))


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


@pytest.mark.parametrize("bad, named", [
    ({"u_step": 0}, "u_step 0.0"), ({"u_max": -1}, "u_max -1.0"),
    ({"n_list": [500, 1], "u_step": 2}, "step 2 must be at most n")],
    ids=["u_step-0", "u_max-negative", "cut-empty"])
def test_risk_table_refuses_a_later_configs_grid_before_any_trial(
        bad, named, tmp_path, capsys, monkeypatch):
    # the second config's grid is checked when the document is parsed, not when its
    # turn comes after the first config's 3000 trials
    def no_trials(configs):
        raise AssertionError("trials ran before the document was checked")
    monkeypatch.setattr(levyspec.cli, "risk_table", no_trials)
    first = {"model": {"sigma2": 1.0}, "delta_t": 1.0, "n_list": [500], "trials": 3000}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([first, {**first, "trials": 2, **bad}]))
    out = tmp_path / "r.csv"
    assert run(["risk-table", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"], ids=["comma", "quote", "CR", "LF"])
def test_risk_table_label_that_would_break_the_csv_exits_2(char, tmp_path, capsys):
    # the label is written unquoted as the first cell of each row
    cfg = {"model": {"sigma2": 1.0}, "delta_t": 1.0, "n_list": [300], "label": f"a{char}b"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.csv"
    assert run(["risk-table", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "label must not contain" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("how", ["flag", "env", "flag-over-env"])
def test_risk_table_seed_overrides_every_config_master_seed(how, tmp_path, monkeypatch):
    # --seed, else LEVYSPEC_SEED, replaces the master_seed of each config in the document
    cfg = {"model": {"sigma2": 1.0}, "delta_t": 1.0, "n_list": [50], "trials": 2}
    given, want = tmp_path / "given.json", tmp_path / "want.json"
    given.write_text(json.dumps([{**cfg, "master_seed": 5}, {**cfg, "label": "b"}]))
    want.write_text(json.dumps([{**cfg, "master_seed": 9}, {**cfg, "master_seed": 9,
                                                              "label": "b"}]))
    monkeypatch.delenv("LEVYSPEC_SEED", raising=False)
    assert run(["risk-table", "--config", str(want), "--out", str(tmp_path / "want.csv"),
                "--no-meta"]) == 0
    if how != "flag":
        monkeypatch.setenv("LEVYSPEC_SEED", "9" if how == "env" else "3")
    flag = [] if how == "env" else ["--seed", "9"]
    assert run(["risk-table", "--config", str(given), "--out", str(tmp_path / "got.csv"),
                "--no-meta", *flag]) == 0

    def rows(name):  # the meta lines name the config file, so compare the table only
        return [l for l in (tmp_path / name).read_text().splitlines() if not l.startswith("#")]

    assert rows("got.csv") == rows("want.csv")
    assert [row.split(",")[-1] for row in rows("got.csv")[1:]] == ["9", "9"]


def test_non_integer_env_seed_exits_2_naming_the_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LEVYSPEC_SEED", "abc")
    out = tmp_path / "out.csv"
    assert run(["sample", *CAUCHY_FLAGS, "--delta", "1", "--n", "20", "--out", str(out)]) == 2
    assert "LEVYSPEC_SEED must be an integer, got 'abc'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("env, flags, config_seed, message", [
    ("1.5", [], None, "LEVYSPEC_SEED must be an integer, got '1.5'"),
    ("-3", [], None, "LEVYSPEC_SEED must be at least 0, got -3"),
    (None, ["--seed", "-1"], None, "argument --seed: master_seed must be at least 0, got -1"),
    (None, [], -5, "master_seed must be at least 0, got -5"),
    (None, [], 2 ** 64 + 5, f"master_seed must lie in [0, 2^64), got {2 ** 64 + 5}"),
    (str(2 ** 64), [], None, f"LEVYSPEC_SEED must lie in [0, 2^64), got {2 ** 64}"),
    (None, ["--seed", str(2 ** 64)], None,
     f"argument --seed: master_seed must lie in [0, 2^64), got {2 ** 64}"),
], ids=["env-1.5", "env--3", "flag--1", "config--5", "config-2^64+5", "env-2^64",
        "flag-2^64"])
def test_risk_table_bad_seed_exits_2_naming_it(env, flags, config_seed, message, tmp_path,
                                               monkeypatch, capsys):
    monkeypatch.delenv("LEVYSPEC_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("LEVYSPEC_SEED", env)
    cfg = {"model": {"sigma2": 1.0}, "delta_t": 1.0, "n_list": [50], "trials": 2}
    if config_seed is not None:
        cfg["master_seed"] = config_seed
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert run(["risk-table", "--config", str(tmp_path / "cfg.json"), *flags,
                "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


SEED_COMMANDS = {  # every subcommand with --seed but risk-table, which has its own test
    "sample": ["sample", *CAUCHY_FLAGS, "--delta", "1", "--n", "20"],
    "check-bounds": ["check-bounds", "--which", "thm4", "--delta", "1", "--n", "300",
                     "--trials", "5"],
}


@pytest.mark.parametrize("source, seed", [("flag", -1), ("flag", 2 ** 64), ("env", -3),
                                          ("env", 2 ** 64)])
@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_out_of_range_seed_exits_2_naming_its_source(command, source, seed, tmp_path,
                                                     monkeypatch, capsys):
    # the rule of test_risk_table_bad_seed_exits_2_naming_it, in every other subcommand
    # with a seed, checked before anything is simulated or written
    argv = list(SEED_COMMANDS[command])
    out = tmp_path / "out.csv"
    if command != "check-bounds":
        argv += ["--out", str(out)]
    monkeypatch.delenv("LEVYSPEC_SEED", raising=False)
    if source == "env":
        monkeypatch.setenv("LEVYSPEC_SEED", str(seed))
    else:
        argv += ["--seed", str(seed)]
    name = "LEVYSPEC_SEED" if source == "env" else "argument --seed: master_seed"
    rule = "be at least 0" if seed < 0 else "lie in [0, 2^64)"
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {name} must {rule}, got {seed}\n"
    assert not out.exists()


def test_estimate_from_data_writes_no_seed(increments_file, tmp_path, monkeypatch):
    # estimate draws nothing: it reads no LEVYSPEC_SEED, not even one that sample
    # refuses, and writes no seed into its meta lines
    monkeypatch.setenv("LEVYSPEC_SEED", "abc")
    out = tmp_path / "dens.csv"
    assert run(["estimate", "--data", str(increments_file), "--delta", "1", "--kappa", "1",
                "--no-meta", "--out", str(out)]) == 0
    assert "# seed=" not in out.read_text()
    assert "# seed=" not in (tmp_path / "dens_ecf.csv").read_text()


@pytest.mark.parametrize("doc, problem", [
    (5, "got 5"),
    ({"experiments": 5}, "got 5"),
    ({"experiments": [{"model": {"sigma2": 1.0}, "delta_t": 1.0, "n_list": [300]}],
      "trails": 5}, "unknown document key(s): 'trails'"),
    ({"model": {"sigma2": 1.0}, "delta_t": 1.0, "n_list": [0]},
     "n_list[0] must be at least 1, got 0"),
    ({"model": {"sigma2": 1.0}, "delta_t": 0, "n_list": [50], "trials": 2},
     "delta_t must be finite and positive, got 0.0"),
    ({"model": {"sigma2": 1.0}, "delta_t": -1, "n_list": [50], "trials": 2},
     "delta_t must be finite and positive, got -1.0"),
], ids=["number", "experiments-number", "experiments-beside-unknown-key", "n_list-0",
        "delta_t-0", "delta_t--1"])
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
    argv = ["check-bounds", "--which", "thm4", "--delta", "1", "--n", "300", "--trials", "10",
            "--seed", "2"]
    assert run(argv) == 0
    default = capsys.readouterr().out
    assert run(argv + ["--kappa", repr(2.0 * math.sqrt(2.0))]) == 0
    assert capsys.readouterr().out == default  # kappa defaults to 2 sqrt(2)


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
    "risk-table": ["risk-table", "--config", "{data}", "--out", "{out}"],
}


@pytest.mark.parametrize("command, flag, value", [
    ("estimate", "--delta", "nan"), ("estimate", "--delta", "inf"),
    ("estimate", "--umax", "inf"), ("estimate", "--umax", "nan"),
    ("estimate", "--step", "nan"), ("estimate", "--step", "-inf"),
    ("estimate", "--kappa-step", "inf"),
    ("calibrate", "--umax", "nan"), ("calibrate", "--kappa-step", "nan"),
    ("calibrate", "--delta", "inf"),
    ("sample", "--delta", "inf"), ("sample", "--alpha", "nan"), ("sample", "--alpha", "inf"),
    ("sample", "--P", "inf"), ("sample", "--Q", "nan"), ("sample", "--sigma2", "inf"),
    ("sample", "--b", "-inf"),
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
    name, _, kind = rule.partition(" must be ")
    said = f"argument {flag}: {name} must be finite and {kind}, got {float(value)!r}"
    assert said in capsys.readouterr().err
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


@pytest.mark.xfail(strict=True, reason=(
    "default_x_grid spans +-8 IQR around 0, not around the data; centring it at the "
    "median moves the estimate_csv goldens, so it waits for ROADMAP item 5"))
def test_estimate_far_from_zero_with_a_fine_step_puts_unit_mass_on_its_x_grid(tmp_path):
    # N(1000, 1) passes the bulk check at --step 0.003 (pi/step = 1047), but the
    # x-grid covers +-10.9 only, so the density written there has mass about 0
    data = tmp_path / "far.csv"
    values = np.random.default_rng(5).normal(1000.0, 1.0, 5000)
    data.write_text("value\n" + "\n".join(f"{v:.17g}" for v in values) + "\n")
    out = tmp_path / "d.csv"
    assert run(["estimate", "--data", str(data), "--delta", "1", "--step", "0.003",
                "--kappa", "1", "--out", str(out), "--no-meta"]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "x,f_hat"
    x, f = np.array([[float(c) for c in l.split(",")] for l in rows[1:]]).T
    assert abs(np.trapezoid(f, x) - 1.0) < 0.05


@pytest.mark.parametrize("outlier", [1e300, 1e307], ids=["1e300", "mean-overflows"])
def test_estimate_on_an_ecf_of_rounding_noise_exits_3_without_output(
        outlier, tmp_path, capsys):
    # a fifth of the rows at +-outlier leaves the median and IQR of N(0, 1), so the
    # bulk check passes; eps * u_max * mean|x| (inf once the sum overflows) is far
    # past 1/sqrt(n), and the phases u*x are rounding noise
    data = tmp_path / "huge.csv"
    values = np.random.default_rng(6).normal(0.0, 1.0, 1000)
    values[:200] = outlier * np.where(np.arange(200) % 2, 1.0, -1.0)
    data.write_text("value\n" + "\n".join(f"{v:.17g}" for v in values) + "\n")
    out = tmp_path / "d.csv"
    assert run(["estimate", "--data", str(data), "--delta", "1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "eps * u_max * mean|x|" in err and "1/sqrt(n) = 0.0316228" in err
    assert not out.exists()
    assert not (tmp_path / "d_ecf.csv").exists()


@pytest.mark.parametrize("which, delta", [("thm1", "1e16"), ("thm4", "1e16"), ("thm4", "1e20")])
def test_check_bounds_on_an_ecf_of_rounding_noise_exits_3(which, delta, capsys):
    # Cauchy increments at scale delta put eps * u_max * mean|x| past 1/sqrt(n), as
    # estimate refuses; the trials' ECFs would be rounding noise, not a bound check
    assert run(["check-bounds", "--which", which, "--delta", delta, "--n", "1000",
                "--trials", "5"]) == 3
    captured = capsys.readouterr()
    assert "eps * u_max * mean|x|" in captured.err
    assert "1/sqrt(n) = 0.0316228" in captured.err
    assert "VIOLATED" not in captured.out and "PASS" not in captured.out


def test_risk_table_on_an_ecf_of_rounding_noise_exits_3_without_output(tmp_path, capsys):
    cfg = {"model": {"jumps": {"P": 0.3183098861837907, "Q": 0.3183098861837907,
                               "alpha": 1.0}},
           "delta_t": 1e16, "u_max": 10, "n_list": [1000], "trials": 5}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "risk.csv"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["risk-table", "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "eps * u_max * mean|x|" in err and "1/sqrt(n) = 0.0316228" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "calibrate"])
def test_a_grid_past_the_cap_exits_2_without_output(
        command, increments_file, tmp_path, capsys):
    # 10^13 frequencies, whose moment table would be 9 PiB: the grid refuses its
    # half-count before any array exists and names the smallest step that fits
    out = tmp_path / "d.csv"
    assert run([command, "--data", str(increments_file), "--delta", "1", "--step", "1e-12",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: u_max=10.0 over step=1e-12 gives 1e+13 frequencies per side, more than the "
        "1000000 a grid holds: the smallest step that fits is 1e-05\n")
    assert list(tmp_path.iterdir()) == [increments_file]


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


# ---------------------------------------------------------------------------
# exit-code contract: one row per malformed-input class that README lists

def _not_a_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


def _is_json(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def _write(d, text: str) -> str:
    """The input file of one example, in its own directory ``d``."""
    path = d / "in.csv"
    path.write_text(text)
    return str(path)


def _write_bytes(d, data: bytes, name: str = "in.csv") -> str:
    path = d / name
    path.write_bytes(data)
    return str(path)


def _directory(d) -> str:
    """A directory named as an input file."""
    path = d / "in.csv"
    path.mkdir()
    return str(path)


# a byte above 0x7f followed by an ASCII one is never UTF-8
_NOT_UTF8 = st.integers(0x80, 0xFF).map(lambda byte: bytes([byte]))


_ASCII = st.characters(codec="ascii", exclude_characters=",#\r\n")
_NOT_A_NUMBER = st.text(_ASCII, min_size=1, max_size=8).filter(
    lambda t: t.strip() and _not_a_float(t) and t != "auto")  # estimate --kappa takes auto
_NON_FINITE = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400",
                               "-1e999"])
_SEED = st.integers(0, 2 ** 32 - 1)
_FLOAT_FLAGS = [(c, f) for c in ("estimate", "calibrate")
                for f in ("--delta", "--umax", "--step", "--kappa-step")] + [
    ("estimate", "--kappa")] + [
    ("sample", f) for f in ("--delta", "--alpha", "--P", "--Q", "--sigma2", "--b")] + [
    ("check-bounds", "--delta"), ("check-bounds", "--kappa")]
_POSITIVE_FLAGS = [(c, f) for c, f in _FLOAT_FLAGS
                   if f in ("--delta", "--umax", "--step", "--kappa-step")]
_CONFIG_KEYS = ["model", "delta_t", "n_list", "trials", "u_max", "u_step", "kappa_mode",
                "master_seed", "label"]
_BASE_CONFIG = {"model": {"sigma2": 1.0}, "delta_t": 1.0, "n_list": [50], "trials": 2}


def _normal_csv(d, draw, center=0.0, scale=1.0, n=200, outlier=None) -> str:
    """N(center, scale^2) rows; with an outlier, a fifth of them at +-outlier, which
    leaves the median and IQR in the bulk."""
    values = np.random.default_rng(draw(_SEED)).normal(center, scale, n)
    if outlier is not None:
        values[:n // 5] = outlier * np.where(np.arange(n // 5) % 2, 1.0, -1.0)
    return _write(d, "value\n" + "\n".join(f"{v!r}" for v in values.tolist()) + "\n")


def _with_bad_row(draw, d, row: str) -> list:
    """estimate or calibrate on a CSV of numbers with ``row`` put after the first one."""
    rows = [f"{v!r}" for v in draw(st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=40))]
    rows.insert(draw(st.integers(1, len(rows))), row)
    return [draw(st.sampled_from(["estimate", "calibrate"])), "--data",
            _write(d, "value\n" + "\n".join(rows) + "\n"), "--delta", "1"]


def _with_flag(draw, d, pairs, value) -> list:
    command, flag = draw(st.sampled_from(pairs))
    data = _normal_csv(d, draw) if command in ("estimate", "calibrate") else ""
    argv = [a.format(data=data, out=d / "out.csv") for a in NON_FINITE_BASE[command]]
    return argv + [f"{flag}={value}"]


def _risk_table(d, doc) -> list:
    return ["risk-table", "--config", _write(d, json.dumps(doc))]


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def _bad_value(draw, key):
    """A JSON value that the converter of config key ``key`` rejects."""
    value = draw(st.one_of(st.booleans(), st.text(max_size=5), st.sampled_from(
        [math.nan, math.inf, -math.inf]), st.lists(st.text(max_size=3), min_size=1,
                                                   max_size=2)))
    allowed = (key == "label" and isinstance(value, str)) or (
        key == "kappa_mode" and value == "auto")
    assume(not allowed)
    return value


def _step_past_n(draw, d) -> list:
    """estimate or calibrate on n <= 3 rows at a step above n, so that the grid cut
    to [-n, n] keeps only u = 0."""
    n = draw(st.integers(1, 3))
    return [draw(st.sampled_from(["estimate", "calibrate"])), "--delta", "1",
            "--data", _write(d, "value\n" + "0.5\n" * n), "--step",
            repr(draw(st.floats(1.01 * n, 1e3))), *draw(st.sampled_from([[], ["--umax", "10"]]))]


def _unstable_csv(d) -> str:
    """The data of ``unstable_file``: chi keeps changing on a three-step kappa grid."""
    path = d / "in.csv"
    run(["sample", "--alpha", "0.7", "--P", "2", "--Q", "1", "--delta", "0.1",
         "--n", "500", "--seed", "1", "--no-meta", "--out", str(path)])
    return str(path)


EXIT_CONTRACT = {
    # malformed --data CSV: exit 2 naming file and line
    "csv-non-numeric-cell": (2, lambda draw, d: _with_bad_row(draw, d, draw(_NOT_A_NUMBER))),
    "csv-non-finite-cell": (2, lambda draw, d: _with_bad_row(draw, d, draw(_NON_FINITE))),
    "csv-column-count": (2, lambda draw, d: _with_bad_row(
        draw, d, ",".join(["1"] * draw(st.integers(3, 6))))),
    "csv-no-numeric-row": (2, lambda draw, d: [
        "estimate", "--delta", "1", "--data",
        _write(d, "\n".join(draw(st.lists(st.sampled_from(["# c", "value", "", "x,y"]),
                                           max_size=4))) + "\n")]),
    "difference-one-level": (2, lambda draw, d: [
        "estimate", "--delta", "1", "--difference", "--data",
        _write(d, f"level\n{draw(st.floats(-9.0, 9.0))!r}\n")]),
    "no-data-nor-model": (2, lambda draw, d: ["estimate", "--delta", "1"]),
    # an input file that cannot be read: named by its flag and path, a CSV also by line
    "data-not-utf8": (2, lambda draw, d: [
        draw(st.sampled_from(["estimate", "calibrate"])), "--delta", "1", "--data",
        _write_bytes(d, draw(st.sampled_from([b"val%bue\n", b"value\n1.5\n# caf%b\n"]))
                     % draw(_NOT_UTF8) + b"2.5\n3.5\n")],
        "error: --data ", "in.csv: not UTF-8 text (", " on line "),
    "data-is-a-directory": (2, lambda draw, d: [
        draw(st.sampled_from(["estimate", "calibrate"])), "--delta", "1",
        "--data", _directory(d)], "error: --data ", "in.csv: "),
    "config-not-utf8": (2, lambda draw, d: [
        "risk-table", "--config", _write_bytes(d, json.dumps(
            {**_BASE_CONFIG, "label": "caf?"}).encode().replace(b"?", draw(_NOT_UTF8)),
            "in.json")], "error: --config ", "in.json: not UTF-8 text ("),
    # flags: rejected by the argument parser, naming the flag
    "flag-non-finite": (2, lambda draw, d: _with_flag(draw, d, _FLOAT_FLAGS, draw(_NON_FINITE))),
    "flag-not-a-number": (2, lambda draw, d: _with_flag(
        draw, d, _FLOAT_FLAGS + [("sample", "--n"), ("estimate", "--xgrid")],
        draw(_NOT_A_NUMBER))),
    "flag-nonpositive": (2, lambda draw, d: _with_flag(
        draw, d, _POSITIVE_FLAGS, repr(draw(st.floats(max_value=0.0, allow_nan=False,
                                                      allow_infinity=False))))),
    "check-bounds-kappa-negative": (2, lambda draw, d: _with_flag(
        draw, d, [("check-bounds", "--kappa")],
        repr(draw(st.floats(max_value=-1e-300, allow_infinity=False))))),
    # thm4's bound (1 + (kappa + 2) sqrt(log n))^2 past the largest double
    "check-bounds-kappa-overflows": (2, lambda draw, d: [
        "check-bounds", "--which", "thm4", "--delta", "1", "--n", "300", "--trials", "2",
        "--kappa", repr(draw(st.floats(1e155, 1.7e308)))]),
    # a stable increment's scale (delta_t C)^(1/alpha) that underflows to 0
    "sample-delta-scale-underflows": (2, lambda draw, d: [
        "sample", "--alpha", "0.7", "--P", "1", "--Q", "0", "--n", "5",
        "--delta", repr(draw(st.floats(1e-320, 1e-250)))]),
    # ... or overflows: through the power, or through C ~ 2/alpha
    "sample-delta-scale-overflows": (2, lambda draw, d: [
        "sample", "--alpha", "0.3", "--P", "1", "--Q", "0", "--n", "5",
        "--delta", repr(draw(st.floats(1e200, 1e300)))], "gamma", "overflows"),
    "sample-alpha-scale-overflows": (2, lambda draw, d: [
        "sample", "--alpha", repr(draw(st.floats(5e-324, 1e-300))), "--P", "1", "--Q", "1",
        "--n", "5", "--delta", "1"], "gamma", "overflows"),
    # a stable law so concentrated that its reference ||f||^2 overflows: no NaN risk
    "risk-table-reference-overflows": (2, lambda draw, d: _risk_table(d, {
        **_BASE_CONFIG, **draw(st.sampled_from([
            {"model": {"jumps": {"P": 1, "Q": 1, "alpha": 0.7}}, "delta_t": 1e-218},
            *({"model": {"jumps": {"P": 1 / math.pi, "Q": 1 / math.pi, "alpha": 1}},
               "delta_t": dt} for dt in (5e-324, 1e-320, 1e-310))]))}),
        "is not finite at delta_t="),
    "check-bounds-reference-overflows": (2, lambda draw, d: [
        "check-bounds", "--which", draw(st.sampled_from(["thm1", "thm4"])),
        "--delta", "5e-324", "--n", "50", "--trials", "2"], "is not finite at delta_t=5e-324"),
    # a law without jumps whose variance sigma2 * delta_t underflows: a point mass
    "gaussian-variance-underflows": (2, lambda draw, d: draw(st.sampled_from([
        ["sample", "--n", "3", "--sigma2", "1e-300", "--delta", "1e-300"],
        _risk_table(d, {**_BASE_CONFIG, "model": {"sigma2": 1e-300}, "delta_t": 1e-300})])),
        "the increment's variance sigma2 * delta_t must be finite and positive, got 0.0"),
    # thm1 checks fixed cutoffs: a kappa there would be ignored, not used
    "check-bounds-kappa-with-thm1": (2, lambda draw, d: [
        "check-bounds", "--which", "thm1", "--delta", "1", "--n", "300", "--trials", "5",
        "--kappa", repr(draw(st.floats(0.0, 100.0)))]),
    "estimate-kappa": (2, lambda draw, d: _with_flag(
        draw, d, [("estimate", "--kappa")], draw(st.one_of(
            _NOT_A_NUMBER, _NON_FINITE,
            st.floats(max_value=-1e-300, allow_infinity=False).map(repr))))),
    "xgrid-below-2": (2, lambda draw, d: _with_flag(
        draw, d, [("estimate", "--xgrid")], draw(st.integers(-9, 1)))),
    "kappa-count-below-3": (2, lambda draw, d: _with_flag(
        draw, d, [("estimate", "--kappa-count"), ("calibrate", "--kappa-count")],
        draw(st.integers(-9, 2)))),
    # a grid past the 10^6 cap fails at once, naming its flag, before any array exists
    "xgrid-above-cap": (2, lambda draw, d: _with_flag(
        draw, d, [("estimate", "--xgrid")], 10 ** 13),
        "argument --xgrid: points must be at most 1000000"),
    "kappa-count-above-cap": (2, lambda draw, d: _with_flag(
        draw, d, [("estimate", "--kappa-count"), ("calibrate", "--kappa-count")], 10 ** 13),
        "argument --kappa-count: count must be at most 1000000"),
    # the work a command asks for is capped at parse time, naming its flag
    "n-above-cap": (2, lambda draw, d: _with_flag(
        draw, d, [("sample", "--n"), ("check-bounds", "--n")],
        draw(st.integers(10 ** 7 + 1, 10 ** 30))),
        "error: argument --n: n must be at most 10000000, got "),
    "trials-above-cap": (2, lambda draw, d: _with_flag(
        draw, d, [("check-bounds", "--trials")], draw(st.integers(10 ** 6 + 1, 10 ** 30))),
        "error: argument --trials: trials must be at most 1000000, got "),
    "trials-below-1": (2, lambda draw, d: _with_flag(
        draw, d, [("check-bounds", "--trials")], draw(st.integers(-9, 0))),
        "error: argument --trials: trials must be at least 1, got "),
    "sample-n-below-1": (2, lambda draw, d: _with_flag(
        draw, d, [("sample", "--n")], draw(st.integers(-9, 0))),
        "error: argument --n: n must be at least 1, got "),
    "sample-trial-negative": (2, lambda draw, d: _with_flag(
        draw, d, [("sample", "--trial")], draw(st.integers(-9, -1))),
        "error: argument --trial: trial_index must be at least 0, got "),
    # thm4's threshold level takes log n: an n below 1 is named, not a math domain error
    # a law past the float range: its CF is 0 there, with no warning, and the
    # sampler's overflow is a numeric failure
    "check-bounds-delta-past-float-range": (3, lambda draw, d: [
        "check-bounds", "--which", draw(st.sampled_from(["thm1", "thm4"])), "--delta",
        repr(draw(st.sampled_from([1.7976931348623157e308, 1e308]))), "--n", "10",
        "--trials", "2"], "non-finite variate"),
    "check-bounds-thm4-n-0": (2, lambda draw, d: [
        "check-bounds", "--which", "thm4", "--delta", "1", "--n", "0", "--trials", "2"],
        "error: argument --n: n must be at least 1, got 0\n"),
    "check-bounds-thm4-n-negative": (2, lambda draw, d: [
        "check-bounds", "--which", "thm4", "--delta", "1", "--n", "-3", "--trials", "2"],
        "error: argument --n: n must be at least 1, got -3\n"),
    "unknown-flag": (2, lambda draw, d: _with_flag(
        draw, d, [(c, "--zz") for c in NON_FINITE_BASE],
        draw(st.text(_ASCII, max_size=5)))),
    # a prefix of a flag is not that flag: --n once ran as --no-meta
    "flag-prefix": (2, lambda draw, d: [
        "estimate", "--data", _normal_csv(d, draw), "--delta", "1", "--kappa", "1",
        "--no-meta"[:draw(st.integers(3, 8))], "--out", d / "d.csv"]),
    # risk-table documents: exit 2 naming the key
    "config-not-json": (2, lambda draw, d: ["risk-table", "--config", _write(
        d, draw(st.text(max_size=8).filter(lambda t: not _is_json(t))))]),
    "config-document-shape": (2, lambda draw, d: _risk_table(d, draw(st.one_of(
        st.integers(), st.text(max_size=4), st.booleans(), st.none(),
        st.lists(st.integers(), min_size=1, max_size=2),
        st.fixed_dictionaries({"experiments": st.one_of(st.integers(), st.text(max_size=3))}),
        st.just({"experiments": [_BASE_CONFIG], "trails": 5}))))),
    "config-unknown-key": (2, lambda draw, d: _risk_table(d, {
        **_BASE_CONFIG, draw(st.text(min_size=1, max_size=6).filter(
            lambda k: k not in _CONFIG_KEYS)): 1})),
    "config-missing-key": (2, lambda draw, d: _risk_table(d, _without(
        _BASE_CONFIG, draw(st.sampled_from(["model", "delta_t", "n_list"]))))),
    "config-wrong-type": (2, lambda draw, d: _risk_table(d, {
        **_BASE_CONFIG, (key := draw(st.sampled_from(_CONFIG_KEYS))): _bad_value(draw, key)})),
    "config-n-below-1": (2, lambda draw, d: _risk_table(d, {
        **_BASE_CONFIG, "n_list": draw(st.lists(st.integers(1, 60), max_size=2))
        + [draw(st.integers(-10 ** 6, 0))]})),
    "config-trials-below-1": (2, lambda draw, d: _risk_table(d, {
        **_BASE_CONFIG, "trials": draw(st.integers(-10 ** 6, 0))})),
    # the work a config asks for is capped as the CLI's flags are, before any trial runs
    "config-trials-above-cap": (2, lambda draw, d: _risk_table(d, {
        "model": {"sigma2": 1}, "delta_t": 1, "n_list": [100],
        "trials": draw(st.one_of(st.just(1e20), st.integers(10 ** 6 + 1, 10 ** 30)))}),
        "error: trials must be at most 1000000, got "),
    "config-n-above-cap": (2, lambda draw, d: _risk_table(d, {
        "model": {"sigma2": 1}, "delta_t": 1,
        "n_list": [draw(st.one_of(st.just(10 ** 12), st.integers(10 ** 7 + 1, 10 ** 30)))]}),
        "error: n_list[0] must be at most 10000000, got "),
    "config-empty-experiment-list": (2, lambda draw, d: _risk_table(
        d, draw(st.sampled_from([[], {"experiments": []}])))),
    "config-label-breaks-csv": (2, lambda draw, d: _risk_table(d, {
        **_BASE_CONFIG, "label": draw(st.text(max_size=3)) + draw(
            st.sampled_from([",", '"', "\r", "\n"])) + draw(st.text(max_size=3))})),
    # a grid whose cut to [-n, n] keeps only u = 0, or a nonpositive u_max or u_step
    "config-grid": (2, lambda draw, d: _risk_table(d, {**_BASE_CONFIG, **draw(st.one_of(
        st.builds(lambda key, value: {key: value}, st.sampled_from(["u_max", "u_step"]),
                  st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)),
        st.builds(lambda step: {"n_list": [50, 1], "u_step": step}, st.floats(1.01, 1e3))))})),
    # data the estimator cannot represent
    "frequency-cut-empty": (2, lambda draw, d: _step_past_n(draw, d)),
    "bulk-past-alias-half-period": (2, lambda draw, d: [
        "estimate", "--delta", "1", "--data", _normal_csv(
            d, draw, draw(st.floats(-1e4, 1e4)), draw(st.floats(10.0, 100.0)))]),
    "ecf-rounding-noise": (3, lambda draw, d: [
        "estimate", "--delta", "1", "--data", _normal_csv(
            d, draw, outlier=draw(st.floats(1e300, 1e308)))]),
    "calibrate-ecf-rounding-noise": (3, lambda draw, d: [
        "calibrate", "--delta", "1", "--fallback", "--data", _normal_csv(
            d, draw, outlier=draw(st.floats(1e300, 1e308)))]),
    "config-master-seed-negative": (2, lambda draw, d: _risk_table(d, {
        **_BASE_CONFIG, "master_seed": draw(st.integers(-2 ** 70, -1))})),
    "risk-table-seed-negative": (2, lambda draw, d: [
        *_risk_table(d, _BASE_CONFIG), "--seed", draw(st.integers(-2 ** 70, -1))]),
    # an output that cannot be written: exit 2, and the other output is not left behind
    "estimate-ecf-out-unwritable": (2, lambda draw, d: [
        "estimate", "--delta", "1", "--kappa", "1", "--data", _normal_csv(d, draw),
        "--out", d / "out.csv", "--ecf-out", d / "missing" / "ecf.csv"]),
    # two outputs in one file: the ECF would overwrite the density
    "estimate-out-is-ecf-out": (2, lambda draw, d: [
        "estimate", "--delta", "1", "--kappa", "1", "--data", _normal_csv(d, draw),
        "--out", d / "same.csv", "--ecf-out", draw(st.sampled_from(
            [d / "same.csv", d / "." / "same.csv", d / "sub" / ".." / "same.csv"]))]),
    # an output in the config's file would replace it
    "risk-table-out-is-config": (2, lambda draw, d: [
        *(argv := _risk_table(d, _BASE_CONFIG)), "--out", draw(st.sampled_from(
            [argv[-1], os.path.join(os.path.dirname(argv[-1]), ".", "in.csv")]))],
        "name the same file"),
    # a grid past the cap on u_max / step fails at once, before any array exists
    "grid-too-large-to-allocate": (2, lambda draw, d: [
        draw(st.sampled_from(["estimate", "calibrate"])), "--delta", "1",
        "--data", _normal_csv(d, draw), "--step", repr(draw(st.one_of(
            st.just(1e-300), st.floats(5e-324, 1e-12))))],
        "u_max=", "step=", "the smallest step that fits is"),
    # a seed outside the master-seed range [0, 2^64)
    "seed-out-of-range": (2, lambda draw, d: _with_flag(
        draw, d, [(c, "--seed") for c in SEED_COMMANDS],
        draw(st.one_of(st.sampled_from([-1, 2 ** 64]), st.integers(max_value=-1),
                       st.integers(min_value=2 ** 64))))),
    # a kappa grid whose top kappa count * delta_step overflows
    "kappa-grid-overflows": (2, lambda draw, d: _with_flag(
        draw, d, [("estimate", "--kappa-step"), ("calibrate", "--kappa-step")],
        repr(draw(st.floats(1e307, 1.7e308))))),
    # a valid law whose sampler loses variates: near alpha = 1 with beta = +-1 the
    # CMS cosine rounds below 0 and its power is NaN, about 2% of draws at 1 + 1e-15
    "sample-non-finite-variate": (3, lambda draw, d: [
        "sample", "--alpha", repr(draw(st.sampled_from([1 + 1e-15, 1 + 2e-15]))),
        *draw(st.sampled_from([("--P", "1", "--Q", "0"), ("--P", "0", "--Q", "1")])),
        "--delta", "1", "--n", "2000", "--seed", draw(st.integers(0, 2 ** 64 - 1))]),
    "no-stabilization": (4, lambda draw, d: [
        draw(st.sampled_from(["estimate", "calibrate"])), "--data", _unstable_csv(d),
        "--delta", "0.1", "--umax", "100", "--kappa-step", "0.02", "--kappa-count", "3"]),
}


@pytest.mark.parametrize("case", sorted(EXIT_CONTRACT))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_malformed_input_exits_with_its_documented_code_and_writes_nothing(case, data):
    code, argv_of, *said = EXIT_CONTRACT[case]  # said: what stderr must hold, if given
    with tempfile.TemporaryDirectory() as tmp:
        d = pathlib.Path(tmp)
        argv = [str(a) for a in argv_of(data.draw, d)]
        if argv[0] != "check-bounds" and "--out" not in argv:
            argv += ["--out", str(d / "out.csv")]
        inputs = set(d.iterdir())
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            got = main(argv)  # an exception escaping main fails the test
        assert got in (0, 2, 3, 4)
        assert got == code, err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert all(text in err.getvalue() for text in said), err.getvalue()
        assert set(d.iterdir()) == inputs, "an output file was written"


def _subcommands() -> dict:
    """Each subcommand of ``build_parser()`` with its parser."""
    ap = levyspec.cli.build_parser()
    return next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices


def _refuses_nan(action) -> bool:
    """Whether the option's type refuses 'nan' as not a finite number: a float flag."""
    try:
        action.type("nan") if action.type else None
    except argparse.ArgumentTypeError as exc:
        return str(exc) == "must be a finite number, got 'nan'"
    except ValueError:
        pass
    return False


def test_float_flag_rows_are_the_float_options_of_the_parser():
    # a row for a flag the parser lacks passes on argparse's own exit 2 and tests
    # nothing, and a float flag without a row goes untested
    options = [(c, a.option_strings[0]) for c, p in _subcommands().items()
               for a in p._actions if _refuses_nan(a)]
    assert sorted(_FLOAT_FLAGS) == sorted(options)


# every numeric option of the parser, with a value its check refuses and that check's
# message; an int flag refuses 'nan' as not an integer, a float flag as not finite
NUMERIC_FLAG_RULES = {
    **{(c, f): rule for c in ("estimate", "calibrate") for f, rule in {
        "--delta": ("0", "delta_t must be finite and positive, got 0.0"),
        "--umax": ("-1", "u_max must be finite and positive, got -1.0"),
        "--step": ("0", "step must be finite and positive, got 0.0"),
        "--kappa-step": ("-0.05", "delta_step must be finite and positive, got -0.05"),
        "--kappa-count": ("1000001", "count must be at most 1000000, got 1000001"),
    }.items()},
    ("estimate", "--kappa"): ("-1", "kappa must be finite and nonnegative, got -1.0"),
    ("estimate", "--xgrid"): ("1", "points must be at least 2, got 1"),
    ("sample", "--alpha"): ("2", "alpha must lie in (0, 2), got 2.0"),
    ("sample", "--P"): ("-1", "P must be finite and nonnegative, got -1.0"),
    ("sample", "--Q"): ("-1e-300", "Q must be finite and nonnegative, got -1e-300"),
    ("sample", "--sigma2"): ("-2", "sigma2 must be finite and nonnegative, got -2.0"),
    ("sample", "--b"): ("1e400", "must be a finite number, got '1e400'"),
    ("sample", "--delta"): ("-1", "delta_t must be finite and positive, got -1.0"),
    ("sample", "--n"): ("0", "n must be at least 1, got 0"),
    ("sample", "--seed"): ("-1", "master_seed must be at least 0, got -1"),
    ("sample", "--trial"): ("-1", "trial_index must be at least 0, got -1"),
    ("risk-table", "--seed"): (str(2 ** 64), f"master_seed must lie in [0, 2^64), got {2 ** 64}"),
    ("check-bounds", "--delta"): ("0", "delta_t must be finite and positive, got 0.0"),
    ("check-bounds", "--n"): ("-3", "n must be at least 1, got -3"),
    ("check-bounds", "--trials"): ("0", "trials must be at least 1, got 0"),
    ("check-bounds", "--kappa"): ("-1", "kappa must be finite and nonnegative, got -1.0"),
    ("check-bounds", "--seed"): (str(2 ** 64),
                                 f"master_seed must lie in [0, 2^64), got {2 ** 64}"),
}
_INT_FLAGS = {"--n", "--trials", "--trial", "--seed", "--xgrid", "--kappa-count"}


def test_numeric_flag_rules_are_the_numeric_options_of_the_parser():
    # an option with a type is numeric: one added without a rule fails here
    options = [(c, a.option_strings[0]) for c, p in _subcommands().items()
               for a in p._actions if a.type is not None]
    assert sorted(options) == sorted(NUMERIC_FLAG_RULES)


@pytest.mark.parametrize("refused", ["nan", "out-of-range"])
@pytest.mark.parametrize("command, flag", sorted(NUMERIC_FLAG_RULES))
def test_every_numeric_option_is_checked_at_parse_time(
        command, flag, refused, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the flags were validated")

    for name in ("read_values_csv", "sample_increments", "cutoff_risk_bound_check",
                 "adaptive_risk_bound_check", "risk_table"):
        monkeypatch.setattr(levyspec.cli, name, refuse)
    value, message = NUMERIC_FLAG_RULES[command, flag]
    if refused == "nan":
        value = "nan"
        message = f"must be {'an integer' if flag in _INT_FLAGS else 'a finite number'}, got 'nan'"
    argv = [a.format(data=tmp_path / "missing.csv", out=tmp_path / "out.csv")
            for a in NON_FINITE_BASE[command]]
    assert run([*argv, f"{flag}={value}"]) == 2
    assert capsys.readouterr() == ("", f"error: argument {flag}: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_seed_rows_are_the_subcommands_with_a_seed():
    with_seed = {c for c, p in _subcommands().items() if "--seed" in p._option_string_actions}
    assert with_seed == set(SEED_COMMANDS) | {"risk-table"}


def test_each_cli_default_is_the_library_default_it_restates(monkeypatch):
    # the seeds are left out: the CLI's and the library's differ by design
    def default(command, flag):
        return _subcommands()[command]._option_string_actions[flag].default

    def parameter(function, name):
        return inspect.signature(function).parameters[name].default

    grid = levyspec.calibration.KappaGrid()
    for command in ("estimate", "calibrate"):
        assert default(command, "--kappa-step") == grid.delta_step
        assert default(command, "--kappa-count") == grid.count
    assert default("estimate", "--xgrid") == parameter(levyspec.estimator.default_x_grid,
                                                       "points")
    for check in (levyspec.risk.cutoff_risk_bound_check,
                  levyspec.risk.adaptive_risk_bound_check):
        assert default("check-bounds", "--trials") == parameter(check, "trials")
    called = {}

    def record(delta_t, n, **kwargs):
        called.update(kwargs)
        return levyspec.risk.BoundCheckReport(True, ())

    monkeypatch.setattr(levyspec.cli, "adaptive_risk_bound_check", record)
    assert run(["check-bounds", "--which", "thm4", "--delta", "1", "--n", "10"]) == 0
    assert called["kappa"] == levyspec.calibration.FALLBACK_KAPPA == parameter(
        levyspec.risk.adaptive_risk_bound_check, "kappa")


# ---------------------------------------------------------------------------
# scipy is imported only by the numerical integrals and the root finder,
# numpy.random only by the first random generator, and numpy.ma by nothing

_LOADED_MODULES = """
import json, sys
{body}
print(json.dumps([m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m.split(".")[:2] in (["numpy", "random"], ["numpy", "ma"])]))
"""


def _modules_after(body: str, cwd) -> list:
    """The scipy, numpy.random and numpy.ma modules loaded in a fresh interpreter
    after running ``body``."""
    src = os.path.dirname(os.path.dirname(levyspec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _LOADED_MODULES.format(body=body)],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _main_exits_0(argv) -> str:
    return f"import levyspec.cli\nassert levyspec.cli.main({argv!r}) == 0"


_SEEDED = {"sample", "risk-table", "risk-table-stable", "check-bounds-thm1", "risk-table-mixed"}


@pytest.mark.parametrize("case", ["import", "import-cli", "config", "sample", "estimate",
                                  "calibrate", "risk-table", "risk-table-stable",
                                  "check-bounds-thm1", "risk-table-mixed"])
def test_only_the_reference_quantities_load_scipy(case, increments_file, tmp_path):
    # only a mixed law's tail integrates numerically, through the quad imported inside
    # models._spectral_tail, so a broken one fails here; Gaussian and stable laws have
    # closed forms in math
    data = ["--data", str(increments_file), "--delta", "1", "--no-meta"]
    stable = {"P": 0.5, "Q": 0.5, "alpha": 1.7}
    for name, model in (("gauss", {"sigma2": 1.0}), ("stable", {"jumps": stable}),
                        ("mixed", {"sigma2": 0.5, "jumps": stable})):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"model": model, "delta_t": 1.0, "n_list": [300], "trials": 2}))
    body = {
        "import": "import levyspec",
        "import-cli": "import levyspec.cli",
        "config": "import levyspec\n"
                  "levyspec.ExperimentConfig(levyspec.cauchy_triplet(), 1.0, (300,))",
        "sample": _main_exits_0(["sample", *CAUCHY_FLAGS, "--delta", "1", "--n", "100",
                                 "--seed", "1", "--out", "s.csv"]),
        "estimate": _main_exits_0(["estimate", *data, "--kappa", "auto", "--out", "d.csv"]),
        "calibrate": _main_exits_0(["calibrate", *data, "--fallback"]),
        "risk-table": _main_exits_0(["risk-table", "--config", "gauss.json", "--out", "r.csv"]),
        "risk-table-stable": _main_exits_0(["risk-table", "--config", "stable.json",
                                            "--out", "r.csv"]),
        "check-bounds-thm1": _main_exits_0(["check-bounds", "--which", "thm1", "--delta", "1",
                                            "--n", "300", "--trials", "5"]),
        "risk-table-mixed": _main_exits_0(["risk-table", "--config", "mixed.json",
                                           "--out", "r.csv"]),
    }[case]
    modules = _modules_after(body, tmp_path)
    scipy = [m for m in modules if m.startswith("scipy")]
    # numpy.ma (masked arrays, which np.percentile imports) comes only with scipy.integrate
    if not scipy:
        assert not [m for m in modules if m.startswith("numpy.ma")]
    if case == "risk-table-mixed":
        assert "scipy.integrate" in scipy
    else:
        assert scipy == []
    # numpy.random (about 16 ms of a fresh process) comes with the first generator, so
    # importing the package, building a config, estimating or calibrating loads none of it
    assert ("numpy.random" in modules) == (case in _SEEDED)
    if case not in _SEEDED:
        assert modules == scipy
