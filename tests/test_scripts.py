"""The runnable scripts under scripts/, called in-process through main(argv).

The scripts exit through ``resom``'s CLI mapping: 2 for a configuration
error, 3 for a data error and 4 for a failed verification, each reported as
one line on stderr.
"""

import runpy
from pathlib import Path

import resom.som
from resom import grid as ig

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def script_main(name):
    return runpy.run_path(str(SCRIPTS / name))["main"]


def one_line_error(capsys, prefix: str, message: str = "") -> None:
    """stderr holds one line: ``prefix`` then a message containing ``message``."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix) and message in lines[0], lines


def test_run_synthetic_writes_variants_and_sweep(tmp_path, monkeypatch):
    monkeypatch.delenv("RESOM_CACHE_DIR", raising=False)
    assert script_main("run_synthetic.py")(["--seeds", "1", "--out-dir", str(tmp_path)]) == 0
    variants = (tmp_path / "convergence_variants.csv").read_text().splitlines()
    sweep = (tmp_path / "prune_sweep.csv").read_text().splitlines()
    assert len(variants) == 1 + 8
    assert len(sweep) == 1 + 6


def test_run_synthetic_opens_its_outputs_before_training(tmp_path, monkeypatch, capsys):
    # Both files were opened after every seed was built and evaluated.
    def refuse(*args, **kwargs):
        raise AssertionError("trained before opening the outputs")

    monkeypatch.setattr(resom.som, "train_many", refuse)
    (tmp_path / "convergence_variants.csv").write_text("an earlier run\n")
    (tmp_path / "prune_sweep.csv").mkdir()
    assert script_main("run_synthetic.py")(["--seeds", "2", "--out-dir", str(tmp_path)]) == 3
    one_line_error(capsys, "data error: ", "Is a directory")
    assert (tmp_path / "convergence_variants.csv").read_text() == "an earlier run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "convergence_variants.csv", "prune_sweep.csv"
    ]


def test_run_synthetic_refuses_zero_seeds_before_creating_out_dir(tmp_path, capsys):
    out = tmp_path / "results"
    assert script_main("run_synthetic.py")(["--seeds", "0", "--out-dir", str(out)]) == 2
    one_line_error(capsys, "config error: ", "at least one seed required")
    assert not out.exists()


def test_ig_scaling_prints_one_row_per_grid(capsys):
    assert script_main("ig_scaling.py")(["--verify-trials", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    grids = [line.split()[0] for line in lines[1:] if line and "x" in line.split()[0]]
    assert grids == [f"{k}x{k}" for k in (2, 4, 8, 16, 32, 64)]
    assert lines[-1] == "verification on 12x12: 5 trials, 0 mismatches"


def test_ig_scaling_refuses_zero_trials(capsys):
    assert script_main("ig_scaling.py")(["--verify-trials", "0"]) == 2
    one_line_error(capsys, "config error: ", "trials must be at least 1")


def test_ig_scaling_mismatch_exits_4(monkeypatch, capsys):
    # Returned 1, where `resom ig-verify` exits 4.
    monkeypatch.setattr(ig, "check_waves", lambda rows, cols, trials, seed: (2, None))
    assert script_main("ig_scaling.py")(["--verify-trials", "5"]) == 4
    one_line_error(capsys, "verification failed: ", "2 wave/oracle mismatches")
