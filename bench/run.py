#!/usr/bin/env python3
"""Benchmark of resom: one command, three workloads, optional per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload synth-seeds --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all

The program is imported from ``src/`` of the same checkout.  With
``--trace 0`` the workload runs through the public entry points of
``resom.experiments`` and ``resom.grid`` and the end-to-end metrics are
reported; with ``--trace 1`` it also runs a replay that calls each layer
directly with a span around every call, and the per-layer metrics are
reported.  Metric names and units come from ``BENCHMARK.json``.  The last
line of standard output is one JSON object; every earlier line is a
human-readable report.  Exit code 0 means every correctness check passed,
1 that one failed, 2 that the benchmark could not start.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import spans as spanlib  # the benchmark's span recorder, next to this file

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_COVERAGE = 0.95
WORKLOAD_NAMES = ("synth-seeds", "digits-sweep", "cellular")
REPORT_ONLY = {"wall_run_s": "s", "wall_setup_s": "s", "host_speed": "x"}


def cap_blas_threads() -> None:
    """Never more BLAS threads than cores; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= NPROC:
            os.environ[var] = str(NPROC)


def fail_to_start(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_metric_lists() -> dict:
    """Metric name -> unit for the end-to-end and per-layer lists."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail_to_start(f"cannot read BENCHMARK.json: {e}")
    return {
        key: {m["name"]: m["unit"] for m in bench[key]}
        for key in ("end_to_end", "per_layer")
    }


def import_program():
    """Import the benchmark's workloads against this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "resom", "__init__.py")):
        fail_to_start(f"no resom sources under {SRC}")
    sys.path.insert(0, SRC)
    import workloads  # noqa: E402  (imports resom, numpy, scipy)
    import resom

    if os.path.dirname(os.path.dirname(os.path.abspath(resom.__file__))) != SRC:
        fail_to_start(f"resom imported from {resom.__file__}, not from {SRC}")
    return workloads


IMPORT_PROBE = (
    "import sys, time; started = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import workloads; print(time.perf_counter() - started)"
)


def import_seconds() -> list[float]:
    """Import time of the program in fresh interpreters, one per set-up."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout))
    return out


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    def blas_version(module) -> str:
        config = module.show_config(mode="dicts")
        return config.get("Build Dependencies", {}).get("blas", {}).get("version", "unknown")

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": 1,
        "processes": 1,
    }


class Checks:
    def __init__(self):
        self.items: list[tuple[str, bool]] = []

    def add(self, name: str, ok) -> None:
        self.items.append((name, bool(ok)))

    def extend(self, items) -> None:
        for name, ok in items:
            self.add(name, ok)

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok in self.items if not ok)

    def failed_names(self) -> list[str]:
        return sorted({name for name, ok in self.items if not ok})


def medians(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def keep_going(times: list[float], started: float, seconds: float, minimum: int) -> bool:
    """Another repeat fits in the measuring window (or the minimum is unmet)."""
    if len(times) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(times) <= seconds


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def plain_measure(fn):
    started = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - started


class HostSpeedMeter:
    """Times each unit of work, then the host-speed reference right after it.

    ``scaled`` sums each unit's wall time scaled by the reference blocks on
    either side of it, i.e. seconds at the reference host speed.
    """

    def __init__(self, hostspeed):
        self.hostspeed = hostspeed
        self.blocks = [hostspeed.block()]
        self.wall = 0.0
        self.scaled = 0.0

    def __call__(self, fn):
        out, seconds = plain_measure(fn)
        self.blocks.append(self.hostspeed.block())
        self.wall += seconds
        self.scaled += seconds * self.hostspeed.scale(self.blocks[-2], self.blocks[-1])
        return out, seconds


def run_untraced(wl, args, checks, hostspeed):
    before_setup = hostspeed.block()
    import_s = import_seconds()
    generate_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = wl.setup(args.seed, spanlib.Tracer("setup"))
        generate_s.append(time.perf_counter() - t0)
    setup_wall = statistics.median(import_s) + statistics.median(generate_s)
    meter = HostSpeedMeter(hostspeed)

    times, scaled, timings, first = [], [], [], None
    started = time.perf_counter()
    while keep_going(times, started, args.seconds, minimum=2):
        wall0, scaled0 = meter.wall, meter.scaled
        out, timing = wl.run(inputs, meter)
        times.append(meter.wall - wall0)
        scaled.append(meter.scaled - scaled0)
        timings.append(timing)
        if first is None:
            first, ref = out, wl.digest(out)
            checks.extend(wl.checks(inputs, out))
        else:
            checks.add("repeat_identical", wl.digest(out) == ref)
    results = wl.results(first, medians(timings))
    samples = [t for b in [before_setup, *meter.blocks] for t in b]
    results.update({
        "wall_run_s": statistics.median(times),
        "wall_setup_s": setup_wall,
        "host_speed": hostspeed.REFERENCE_S / statistics.median(samples),
    })
    metrics = {
        "run_s": statistics.median(scaled),
        "setup_s": setup_wall * hostspeed.scale(before_setup, meter.blocks[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"repeats": len(times), "wall_run_s_all": times, "run_s_all": scaled,
              "setup_import_s": import_s, "setup_generate_s": generate_s,
              "reference_block_medians_s": [statistics.median(b) for b in
                                            [before_setup, *meter.blocks]]}
    return metrics, results, detail


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics from the replay
# ---------------------------------------------------------------------------

def layer_metrics(spans, wall, counts) -> dict:
    tot = spanlib.totals(spans)
    m = {f"{name}_s": t for name, t in tot.items() if name != "grid.wave"}
    for layer, t in spanlib.self_times(spans).items():
        m[f"{layer}.self_s"] = t
    m.update(counts)
    train_s = tot.get("som.train", 0.0)
    m["som.train_us_per_sample"] = (
        1e6 * train_s / counts["som.train_samples"] if counts["som.train_samples"] else 0.0
    )
    convergence_s = tot.get("inference.afferent", 0.0) + tot.get("inference.decide", 0.0)
    m["inference.pairs_per_s"] = counts["inference.pairs"] / convergence_s if convergence_s else 0.0
    ig_s = tot.get("grid.ig_train", 0.0)
    m["grid.us_per_sim_sample"] = (
        1e6 * ig_s / counts["grid.sim_samples"] if counts["grid.sim_samples"] else 0.0
    )
    waves_ms = sorted(1e3 * s.duration for s in spans if s.name == "grid.wave")
    m["grid.wave_ms_p50"] = statistics.median(waves_ms) if waves_ms else 0.0
    m["grid.wave_ms_p95"] = (
        statistics.quantiles(waves_ms, n=20)[-1] if len(waves_ms) >= 2 else 0.0
    )
    covered = spanlib.covered(spans)
    m["experiments.unattributed_s"] = wall - covered
    m["trace.coverage"] = covered / wall
    return m


def run_traced(wl, args, checks, lists):
    tracer = spanlib.Tracer("setup")
    inputs = wl.setup(args.seed, tracer)

    started = time.perf_counter()
    ref_out, timing = wl.run(inputs, plain_measure)
    checks.extend(wl.checks(inputs, ref_out))
    ref = wl.digest(ref_out)
    results = wl.results(ref_out, timing)

    walls, rows, first_counts = [], [], None
    while keep_going(walls, started, args.seconds, minimum=1):
        tracer.run = f"replay{len(walls)}"
        t0 = time.perf_counter()
        out, counts = wl.replay(inputs, tracer)
        wall = time.perf_counter() - t0
        walls.append(wall)
        spans = tracer.of_run(tracer.run)
        row = layer_metrics(spans, wall, counts)
        row["trace.overhead_s"] = spanlib.span_cost() * len(spans)
        rows.append(row)
        checks.add("replay_equals_untraced", wl.digest(out) == ref)
        checks.add("layer_spans_cover_95pct", row["trace.coverage"] >= MIN_COVERAGE)
        if first_counts is None:
            first_counts = counts
        else:
            checks.add("counts_repeat", counts == first_counts)

    names = lists["per_layer"]
    metrics = {k: v for k, v in medians(rows).items() if k in names}
    setup_gen = spanlib.totals(tracer.of_run("setup")).get("synthetic.generate", 0.0)
    metrics["synthetic.generate_s"] = metrics.get("synthetic.generate_s", 0.0) + setup_gen
    for name in names:
        metrics.setdefault(name, 0.0)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_jsonl(os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-spans.jsonl"))
    detail = {"replays": len(walls), "replay_wall_s": walls, "counts": first_counts}
    return metrics, results, detail


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def run_one(args) -> int:
    cap_blas_threads()
    lists = load_metric_lists()
    workloads = import_program()
    import hostspeed  # numpy-based, so only after the BLAS thread cap

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    checks = Checks()
    os.makedirs(OUT_DIR, exist_ok=True)
    metrics, results, detail = {}, {}, {}
    crashed = False
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as work_dir:
        wl = workloads.make(args.workload, work_dir)
        try:
            if args.trace:
                metrics, results, detail = run_traced(wl, args, checks, lists)
            else:
                metrics, results, detail = run_untraced(wl, args, checks, hostspeed)
        except Exception:  # a crash is a failed run; report it and exit non-zero
            traceback.print_exc()
            crashed = True

    attempted = max(checks.attempted, 1)
    failed = checks.failed + (1 if crashed else 0)
    results["fail_frac"] = failed / attempted
    if args.trace and not crashed:
        metrics.update({k: v for k, v in results.items() if k in lists["per_layer"]})
    units = {**lists["per_layer"], **lists["end_to_end"]}
    wanted = lists["per_layer"] if args.trace else lists["end_to_end"]
    reported = {k: {"value": metrics[k], "unit": units[k]} for k in wanted if k in metrics}
    if not crashed and set(reported) != set(wanted):
        missing = sorted(set(wanted) - set(reported))
        raise SystemExit(f"bench: metrics missing from the report: {missing}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} {json.dumps(detail)}")
    shown = {**metrics, **results}
    for name in [*lists["end_to_end"], *lists["per_layer"], *REPORT_ONLY]:
        if name in shown:
            print(f"metric {name} = {shown[name]!r} {units.get(name) or REPORT_ONLY[name]}")
    for name in checks.failed_names():
        print(f"check FAILED {name}")
    print(f"checks attempted {attempted} failed {failed}")
    record = {"env": env, "metrics": metrics, "results": results, "detail": detail,
              "attempted": attempted, "failed": failed}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process, one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"bench: workload {name} printed no result", file=sys.stderr)
            return 2
        summary["correct"] = summary["correct"] and last["correct"] and proc.returncode == 0
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
