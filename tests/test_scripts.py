"""The runnable scripts under scripts/, called in-process through main(argv)."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def script_main(name):
    return runpy.run_path(str(SCRIPTS / name))["main"]


def test_run_synthetic_writes_variants_and_sweep(tmp_path, monkeypatch):
    monkeypatch.delenv("RESOM_CACHE_DIR", raising=False)
    script_main("run_synthetic.py")(["--seeds", "1", "--out-dir", str(tmp_path)])
    variants = (tmp_path / "convergence_variants.csv").read_text().splitlines()
    sweep = (tmp_path / "prune_sweep.csv").read_text().splitlines()
    assert len(variants) == 1 + 8
    assert len(sweep) == 1 + 6


def test_run_digits_without_data_returns_3(tmp_path):
    assert script_main("run_digits.py")(["--data-dir", str(tmp_path)]) == 3


def test_run_digits_refuses_zero_jobs(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        script_main("run_digits.py")(["--data-dir", str(tmp_path), "--jobs", "0"])
    assert exit_info.value.code == 2
    assert "--jobs must be at least 1, got 0" in capsys.readouterr().err


def test_ig_scaling_prints_one_row_per_grid(capsys):
    assert script_main("ig_scaling.py")(["--verify-trials", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    grids = [line.split()[0] for line in lines[1:] if line and "x" in line.split()[0]]
    assert grids == [f"{k}x{k}" for k in (2, 4, 8, 16, 32, 64)]
    assert lines[-1] == "verification on 12x12: 5 trials, 0 mismatches"


def test_ig_scaling_refuses_zero_trials():
    with pytest.raises(ValueError, match="trials must be at least 1"):
        script_main("ig_scaling.py")(["--verify-trials", "0"])
