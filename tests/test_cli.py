"""Command-line behavior: catalog, runs, config files, verify, exit codes."""

import subprocess
import sys

import pytest

from stabstep.cli import main


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


def test_config_file_drives_runs(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    out_dir = tmp_path / "results"
    cfg.write_text(
        f"[global]\nout = {out_dir}\nseed = 11\n\n"
        "[advection]\nn = 4\nsteps = 20\n\n"
        "[stiff-6.14]\nlambda = 0.6\n"
    )
    code, out, _ = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 0
    assert "advection:" in out
    assert "stiff-6.14: t_final=12.713" in out
    assert (out_dir / "advection-chain.csv").exists()


def test_explicit_flags_override_config_global(tmp_path, capsys,
                                              monkeypatch):
    # flag, then [global], then default; a flag equal to its default
    # still counts as given
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[global]\nout = results\nseed = 11\n\n"
                   "[error-budget]\nt_end = 1.0\n")
    csv = "error-budget-report.csv"
    assert run_cli(["run", "error-budget", "--t_end", "1.0",
                    "--out", "ref"], capsys)[0] == 0
    assert run_cli(["run", "--config", str(cfg)], capsys)[0] == 0
    assert (tmp_path / "results" / csv).read_bytes() \
        != (tmp_path / "ref" / csv).read_bytes()
    assert run_cli(["run", "--config", str(cfg), "--out", "out",
                    "--seed", "20240501"], capsys)[0] == 0
    assert (tmp_path / "out" / csv).read_bytes() \
        == (tmp_path / "ref" / csv).read_bytes()


def test_config_with_unknown_section_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[no-such-experiment]\nfoo = 1\n")
    code, _, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2
    assert "no-such-experiment" in err


def test_config_with_a_malformed_global_seed_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[global]\nout = {tmp_path}\nseed = abc\n\n"
                   "[advection]\nsteps = 2\n")
    code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("error:") and "'abc'" in err
    assert out == ""
    cfg.write_text("[global]\nseed = abc\n")
    assert run_cli(["run", "--config", str(cfg)], capsys)[0] == 2


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


def test_run_config_with_an_acceptance_section_exits_2(tmp_path, capsys):
    cfg = tmp_path / "acc.ini"
    cfg.write_text(f"[global]\nout = {tmp_path}\n\n"
                   "[acceptance]\ndecay_target = 1.0\n\n"
                   "[advection]\nsteps = 2\n")
    code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("error:") and "acceptance" in err
    assert out == ""


def test_run_negative_seed_flag_exits_2(tmp_path, capsys):
    code, out, err = run_cli(["run", "advection", "--seed", "-1",
                              "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "-1" in err
    assert out == ""
    assert not list(tmp_path.iterdir())


def test_config_with_a_negative_global_seed_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    out_dir = tmp_path / "results"
    cfg.write_text(f"[global]\nout = {out_dir}\nseed = -3\n\n"
                   "[advection]\nsteps = 2\n")
    code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("error:") and "-3" in err
    assert out == ""
    assert not out_dir.exists()


def test_verify_negative_seed_exits_2(capsys):
    code, out, err = run_cli(["verify", "--filter", "8", "--seed", "-1"],
                             capsys)
    assert code == 2
    assert err.startswith("error:") and "-1" in err
    assert out == ""


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "stabstep.cli", "run", "halving-f1",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "halving-f1:" in proc.stdout
    assert "certified=True" in proc.stdout


def test_no_command_prints_help(capsys):
    code, out, _ = run_cli([], capsys)
    assert code == 2
    assert "run" in out and "verify" in out
