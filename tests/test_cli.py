"""Command-line behavior: catalog, one experiment per run, verify, exit
codes, and the pinned set of options."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stabstep.cli import _parser, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_prints_catalog(capsys):
    code, out, _ = run_cli(["run", "--list"], capsys)
    assert code == 0
    for name in ("stiff-6.14", "boundary-4.27", "advection", "nlp-qp"):
        assert name in out


def test_stiff_run_summary(tmp_path, capsys):
    code, out, _ = run_cli(["run", "stiff-6.14", "--out", str(tmp_path)],
                           capsys)
    assert code == 0
    assert "t_final=12.713" in out
    assert (tmp_path / "stiff-6.14-trajectory.csv").exists()
    assert (tmp_path / "stiff-6.14-certification.csv").exists()


def test_param_override(tmp_path, capsys):
    code, out, _ = run_cli(["run", "stiff-6.14", "--lambda", "0.9",
                            "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "t_final=3.798" in out


def test_override_before_the_name(tmp_path, capsys):
    # --key value may stand before the experiment name as well as after it
    outs = {}
    for where, argv in (("before", ["run", "--lambda", "0.9", "stiff-6.14"]),
                        ("after", ["run", "stiff-6.14", "--lambda", "0.9"])):
        code, outs[where], _ = run_cli(
            argv + ["--out", str(tmp_path / where)], capsys)
        assert code == 0
    assert outs["before"] == outs["after"]
    assert "t_final=3.798" in outs["before"]
    written = sorted(p.name for p in (tmp_path / "after").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "before").iterdir())
    for name in written:
        assert (tmp_path / "before" / name).read_bytes() \
            == (tmp_path / "after" / name).read_bytes()


@pytest.mark.parametrize("out", ["x", "x/y/z"])
def test_refused_run_leaves_no_directory(out, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, text, _ = run_cli(["run", "stiff-6.14", "--r", "-1", "--out", out],
                            capsys)
    assert code == 1
    assert "stiff-6.14: FAILED (r must be positive and finite)" in text
    assert list(tmp_path.iterdir()) == []


def test_refused_run_keeps_an_existing_directory(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    code, _, _ = run_cli(["run", "stiff-6.14", "--r", "-1", "--out", str(out)],
                         capsys)
    assert code == 1
    assert out.is_dir()


@pytest.mark.parametrize("name, flag, value, message", [
    pytest.param("nlp-qp", "lambda", "1.0", "lam must lie in (0, 1)",
                 id="nlp-qp"),
    pytest.param("stiff-6.14", "lambda", "1.0", "lam must lie in (0, 1)",
                 id="stiff-6.14"),
    pytest.param("halving-f1", "h_init", "nan",
                 "h_init must be positive and finite", id="halving-f1"),
    pytest.param("stiff-6.14", "r", "nan", "r must be positive and finite",
                 id="stiff-6.14-r"),
])
def test_bad_lambda_is_named(name, flag, value, message, tmp_path, capsys):
    # a bad setting is refused before the first step and named, not
    # reported as a step-size fault
    code, out, _ = run_cli(["run", name, f"--{flag}", value,
                            "--out", str(tmp_path)], capsys)
    assert code == 1
    assert f"{name}: FAILED ({message})" in out


def test_unknown_experiment_exits_2(capsys):
    code, _, err = run_cli(["run", "does-not-exist"], capsys)
    assert code == 2
    assert "unknown experiment" in err


def test_unknown_parameter_exits_2(tmp_path, capsys):
    code, _, err = run_cli(["run", "stiff-6.14", "--bogus", "3",
                            "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "bogus" in err


def test_byte_identical_reruns(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out_dir in (a, b):
        code, _, _ = run_cli(["run", "error-budget", "--out", str(out_dir)],
                             capsys)
        assert code == 0
    for name in ("error-budget-report.csv", "error-budget-trajectory.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_changes_randomized_output(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    _, out1, _ = run_cli(["run", "error-budget", "--out", str(a)], capsys)
    _, out2, _ = run_cli(["run", "error-budget", "--out", str(b),
                          "--seed", "99"], capsys)
    assert (a / "error-budget-report.csv").read_bytes() \
        != (b / "error-budget-report.csv").read_bytes()


def test_run_config_file_exits_2(tmp_path, capsys, monkeypatch):
    # run takes no settings file: one experiment per call, its flags only
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.ini").write_text("[advection]\nsteps = 2\n")
    code, out, err = run_cli(["run", "--config", "f.ini"], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["f.ini"]


def test_a_run_does_not_depend_on_an_earlier_run(tmp_path, capsys):
    # each experiment draws from SeedSequence([seed, catalog index]), so a
    # shell loop of runs writes what each run writes alone
    alone = tmp_path / "alone"
    shared = tmp_path / "shared"
    argv = ["run", "error-budget", "--t_end", "2.0", "--seed", "7"]
    code, solo, _ = run_cli(argv + ["--out", str(alone)], capsys)
    assert code == 0
    for first in (["run", "iss-trials", "--trials", "20"],
                  ["run", "advection", "--steps", "5"]):
        assert run_cli(first + ["--seed", "7", "--out", str(shared)],
                       capsys)[0] == 0
    code, after, _ = run_cli(argv + ["--out", str(shared)], capsys)
    assert code == 0
    assert after == solo
    written = sorted(path.name for path in alone.iterdir())
    assert written == ["error-budget-report.csv",
                       "error-budget-trajectory.csv"]
    for name in written:
        assert (shared / name).read_bytes() == (alone / name).read_bytes()


def test_name_with_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[global]\nout = {tmp_path}\n")
    code, out, err = run_cli(["run", "halving-f1", "--config", str(cfg)],
                             capsys)
    assert code == 2
    assert err.startswith("error:") and "halving-f1" in err
    assert "nothing selected" not in out
    assert not (tmp_path / "halving-f1-trajectory.csv").exists()


def test_verify_single_criterion(capsys):
    code, out, _ = run_cli(["verify", "--filter", "1"], capsys)
    assert code == 0
    assert "criterion 1" in out
    assert "PASS" in out


def test_verify_writes_no_file(tmp_path, capsys, monkeypatch):
    # criterion 3 reads four catalog runs, which `run` would write as CSVs
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["verify", "--filter", "3"], capsys)
    assert "criterion 3" in out
    assert code == 1  # its f3 clause fails, as documented
    assert list(tmp_path.iterdir()) == []


def test_verify_name_filter(capsys):
    code, out, _ = run_cli(["verify", "--filter", "agreement"], capsys)
    assert code == 0
    assert "criterion 8" in out


def test_verify_empty_filter_is_not_an_error(capsys):
    code, out, _ = run_cli(["verify", "--filter", "qqqq"], capsys)
    assert code == 0
    assert "nothing selected" in out


def test_verify_takes_no_config_file(tmp_path, capsys):
    # the pinned tolerances are not settable from outside the program
    cfg = tmp_path / "acc.ini"
    cfg.write_text("[acceptance]\ndecay_target = 1.0\n")
    code, out, err = run_cli(["verify", "--filter", "3",
                              "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("error:") and "--config" in err
    assert "criterion" not in out


def test_run_negative_seed_flag_exits_2(tmp_path, capsys):
    code, out, err = run_cli(["run", "advection", "--seed", "-1",
                              "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "-1" in err
    assert out == ""
    assert not list(tmp_path.iterdir())


def test_verify_negative_seed_exits_2(capsys):
    code, out, err = run_cli(["verify", "--filter", "8", "--seed", "-1"],
                             capsys)
    assert code == 2
    assert err.startswith("error:") and "-1" in err
    assert out == ""


def test_console_script_entry_point(tmp_path):
    # the checkout's src comes first, so an installed copy is not run
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "stabstep.cli", "run", "halving-f1",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "halving-f1:" in proc.stdout
    assert "certified=True" in proc.stdout


def _options(parser: argparse.ArgumentParser) -> set:
    return {max(a.option_strings, key=len) if a.option_strings else a.dest
            for a in parser._actions if a.dest != "help"}


def test_command_line_options_are_pinned():
    """Every option of every command is listed here: adding a knob has to
    change this test."""
    (sub,) = [a for a in _parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {"run", "verify"}
    assert _options(sub.choices["run"]) == {"name", "--list", "--out",
                                            "--seed"}
    assert _options(sub.choices["verify"]) == {"--filter", "--seed"}


def test_no_command_prints_help(capsys):
    code, out, _ = run_cli([], capsys)
    assert code == 2
    assert "run" in out and "verify" in out
