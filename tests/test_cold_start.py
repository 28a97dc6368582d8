"""What a fresh interpreter loads: scipy only at the first distance.

Each case runs in its own interpreter, so what an earlier test imported
cannot hide what a command loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from resom.data import FeatureMatrix, save_rsm1
from resom.som import make_som, save_som

ROOT = Path(__file__).resolve().parent.parent

# Runs argv through resom's main, or through a script's when one is named,
# then prints the exit status and every scipy module loaded.
COMMAND_PROBE = """
import json, runpy, sys
argv, script = json.loads(sys.argv[1])
if script is None:
    from resom.cli import main
else:
    main = runpy.run_path(script)["main"]
try:
    status = main(argv)
except SystemExit as e:
    status = e.code
print(status, *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

# The process's first distance takes the row-split path on two CPUs.
POOL_PROBE = """
import sys, threading
import numpy as np
from resom import som

importers = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.spatial.distance":
            importers.append(threading.current_thread() is threading.main_thread())

sys.meta_path.insert(0, Watch())
som.cpu_count = lambda: 2
splits = []
run_all = som._run_all
som._run_all = lambda calls: splits.append(len(calls)) or run_all(calls)
grid = som.make_som(10, 10, 100, seed=0)
values = np.random.default_rng(0).random((3000, 100))
assert len(values) * grid.n_neurons * grid.dim >= som.PARALLEL_MIN_NKD
got = som.distances(grid, values)
from scipy.spatial.distance import cdist
assert splits == [2], splits
assert importers == [True], importers
assert np.array_equal(got, cdist(values, grid.weights))
print("ok")
"""


def fresh_python(*args, cwd=None) -> str:
    """Last stdout line of a fresh interpreter that imports resom from src/."""
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def cold_run(argv, script=None, cwd=None) -> tuple[int, list[str]]:
    """Exit status of a command in a fresh interpreter, and the scipy modules it loaded."""
    status, *modules = fresh_python(
        "-c", COMMAND_PROBE, json.dumps([[str(a) for a in argv], script]), cwd=cwd,
    ).split()
    return int(status), modules


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A tiny RSM1, a 2x2 map over it, a record CSV and a repeated-seeds spec."""
    d = tmp_path_factory.mktemp("cold")
    rng = np.random.default_rng(0)
    save_rsm1(FeatureMatrix(rng.random((20, 3)).astype(np.float32),
                            np.arange(20, dtype=np.uint16) % 2), d / "x.rsm1")
    save_som(make_som(2, 2, 3, seed=0), d / "x.rsom")
    (d / "record.csv").write_text("seed,uni_x,uni_y,convergence\n0,0.5,0.6,0.7\n")
    (d / "repeated.txt").write_text("epochs = 1\nseeds = 0,0\n")
    return d


def test_import_loads_no_scipy():
    # Importing resom.cli alone loaded 175 scipy modules.
    assert fresh_python("-c", "import sys, resom, resom.cli; print(*sorted("
                        "m for m in sys.modules if m.split('.')[0] == 'scipy'))") == ""


@pytest.mark.parametrize("argv, script, status", [
    pytest.param(["--help"], None, 0, id="help"),
    pytest.param(["ig-verify", "--grid", "4x4", "--trials", "3"], None, 0, id="ig-verify"),
    pytest.param(["train", "--modality", "x.rsm1", "--grid", "2x2", "--epochs", "1",
                  "--out", "trained.rsom"], None, 0, id="train"),
    pytest.param(["report", "--records", "record.csv"], None, 0, id="report"),
    pytest.param(["pipeline", "--spec", "repeated.txt", "--out", "r.csv"], None, 2,
                 id="repeated-seeds"),
    pytest.param(["--verify-trials", "0"], "ig_scaling.py", 2, id="ig_scaling"),
])
def test_commands_without_a_distance_load_no_scipy(files, argv, script, status):
    script = script and str(ROOT / "scripts" / script)
    assert cold_run(argv, script, cwd=files) == (status, [])


def test_label_loads_scipy_at_its_first_distance(files):
    status, modules = cold_run(["label", "--som", "x.rsom", "--data", "x.rsm1",
                                "--subset-frac", "0.5", "--out", "labeled.rsom"], cwd=files)
    assert status == 0 and "scipy.spatial.distance" in modules


def test_first_distance_on_the_pool_imports_scipy_on_the_calling_thread():
    assert fresh_python("-c", POOL_PROBE) == "ok"
