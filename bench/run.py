"""Benchmark of taylorlab: time to verdict per experiment, traced cost per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.
Each workload is a closed loop with one client: verdicts of one config run
back to back in one fresh process, with `jobs = 1` and one BLAS thread.
The seed reaches the program only through the config's `seed` key.

--trace 0 prints the end-to-end metrics verdict_s, setup_s and peak_rss_mb;
--trace 1 prints the per-layer metrics of traced verdicts (tracing.py),
with the untraced verdict time of the same process and the tracing
overhead.  Cold starts are scaled to reference seconds by calibration
bursts (calibrate.py); verdict times are raw wall seconds.

Every verdict must pass and give the same report.json bytes as the first
one of its run, and the count metrics must repeat exactly between traced
verdicts, or "correct" is false.  The last line of standard output is one
JSON object.  README.md has the metric, layer and workload table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

# One BLAS thread (nproc is 2 on the reference sandbox), set before numpy
# loads here and inherited by every child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import calibrate  # noqa: E402  (after the thread pin)
from worker import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")

COLD_STARTS = 5
DEADLINE_S = 170.0


def run_worker(mode: str, args, scratch: str, deadline: float) -> tuple[float, str]:
    """Run worker.py once; (wall seconds, standard output).  Raises on failure."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scratch", scratch, "--src", SRC,
    ]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return wall, proc.stdout


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


# Per-layer metrics from one traced verdict's span summary: name -> (unit, fn).
def _field(name, key):
    return lambda t: t["per_name"].get(name, {}).get(key, 0)


def _sum(prefixes, key):
    return lambda t: sum(v[key] for n, v in t["per_name"].items() if n.startswith(prefixes))


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


TIMED = (
    "operators.assemble_matrix",
    "operators.constraint_null_basis",
    "operators.divergence_null_basis",
    "evolution.build_propagator",
    "evolution.exponential",
    "evolution.step",
    "evolution.induction_power",
    "evolution.abscissa_sweep",
    "spectral.build_eigenbasis",
    "spectral.high_mode_gap",
    "normal_form.build_normal_form",
    "checks.numerical_radius",
    "svg.line_chart",
)
COUNTED = (
    "operators.assemble_matrix",
    "evolution.build_propagator",
    "evolution.initial_state",
    "fourier.multiply",
)
KERNELS = ("expm", "eig", "eigvals", "eigvalsh", "svd")

PER_LAYER = {}
for _name in TIMED:
    PER_LAYER[f"{_name}.s"] = ("s", _field(_name, "s"))
    PER_LAYER[f"{_name}.self_s"] = ("s", _field(_name, "self_s"))
for _name in COUNTED:
    PER_LAYER[f"{_name}.calls"] = ("count", _field(_name, "calls"))
PER_LAYER["operators.applies_per_assembly"] = (
    "count", _ratio(lambda t: t["applies"], _field("operators.assemble_matrix", "calls")))
PER_LAYER["evolution.exponential.hit_ratio"] = (
    "ratio", _ratio(_field("evolution.exponential", "calls_without_expm"),
                    _field("evolution.exponential", "calls")))
for _kernel in KERNELS:
    PER_LAYER[f"linalg.{_kernel}.calls"] = ("count", _field(f"linalg.{_kernel}", "calls"))
    PER_LAYER[f"linalg.{_kernel}.s"] = ("s", _field(f"linalg.{_kernel}", "s"))
PER_LAYER["linalg.dense_n3_computed"] = ("count", lambda t: t["dense_n3"])
PER_LAYER["checks.runner_self_s"] = ("s", _sum(("checks.run_", "checks.execute"), "self_s"))
PER_LAYER["report.write.s"] = ("s", _sum(("report.write",), "s"))
PER_LAYER["report.bytes_written"] = ("count", lambda t: t["bytes_written"])

EXACT_UNITS = ("count", "ratio")


def traced_metrics(result: dict) -> tuple[dict, bool]:
    """Each per-layer metric over the traced verdicts (the median for times,
    the value for counts), and whether every count repeated exactly."""
    summaries = [dict(s["trace"], bytes_written=s["bytes_written"]) for s in result["samples"]]
    metrics, repeat = {}, True
    for name, (unit, fn) in PER_LAYER.items():
        values = [fn(t) for t in summaries]
        if unit in EXACT_UNITS and len(set(values)) > 1:
            print(f"count {name} differs between traced verdicts: {values}", file=sys.stderr)
            repeat = False
        value = values[0] if unit in EXACT_UNITS else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    traced = min(s["wall_s"] for s in result["samples"])
    untraced = min(s["wall_s"] for s in result["untraced"])
    metrics["verdict_traced_s"] = {"value": traced, "unit": "s"}
    metrics["verdict_untraced_s"] = {"value": untraced, "unit": "s"}
    metrics["trace_overhead_s"] = {"value": traced - untraced, "unit": "s"}
    return metrics, repeat


def print_span_table(result: dict) -> None:
    """Calls, inclusive and self seconds of every traced span name (medians)."""
    summaries = [s["trace"]["per_name"] for s in result["samples"]]
    first = summaries[0]
    names = sorted(set().union(*summaries), key=lambda n: -first.get(n, {}).get("self_s", 0))
    print(f"{'span':40s} {'calls':>9s} {'s':>10s} {'self_s':>10s}")
    for name in names:
        rows = [s.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0}) for s in summaries]
        print(
            f"{name:40s} {rows[0]['calls']:9d} "
            f"{statistics.median(r['s'] for r in rows):10.4f} "
            f"{statistics.median(r['self_s'] for r in rows):10.4f}"
        )


def cold_starts(args, scratch: str, deadline: float) -> tuple[list, list]:
    """Wall seconds of COLD_STARTS cold starts, and the calibration bursts
    taken around them."""
    run_worker("setup", args, scratch, deadline)  # writes bytecode caches; untimed
    walls, bursts = [], [calibrate.burst()]
    for _ in range(COLD_STARTS):
        walls.append(run_worker("setup", args, scratch, deadline)[0])
        bursts.append(calibrate.burst())
    return walls, bursts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "taylorlab", "__init__.py")):
        print(f"error: no taylorlab sources under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the running worker is killed and
    # waited for and the scratch tree removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    scratch = os.path.join(RUNS_DIR, str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        setup, setup_bursts = ([], []) if args.trace else cold_starts(args, scratch, deadline)
        _, out = run_worker("trace" if args.trace else "time", args, scratch, deadline)
        result = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if os.path.isdir(RUNS_DIR) and not os.listdir(RUNS_DIR):
            os.rmdir(RUNS_DIR)

    attempted, failed = result["attempted"], result["failed"]
    for key, value in result["machine"].items():
        print(f"machine.{key}: {value}")
    print(f"workload: {args.workload}  seed: {args.seed}  report.json sha256: {result['digest']}")
    print(f"fail_ratio: {failed / attempted:.4f} ratio ({failed} of {attempted} verdicts)")
    correct = failed == 0 and bool(result["samples"])
    metrics = {}
    if correct and args.trace:
        correct = bool(result["untraced"])
    if correct:
        walls = [s["wall_s"] for s in result["samples"]]
        q1, median, q3 = quartiles(walls)
        label = "traced verdict wall" if args.trace else "verdict wall"
        print(f"{label}: median {median:.4f} s, quartiles {q1:.4f} / {q3:.4f} s, "
              f"fastest {min(walls):.4f} s, n = {len(walls)}")
    if correct and args.trace:
        print_span_table(result)
        metrics, correct = traced_metrics(result)
        for name, m in metrics.items():
            print(f"{name}: {m['value']} {m['unit']}")
    elif correct:
        q1, median, q3 = quartiles(setup)
        scale = calibrate.scale(setup_bursts)
        print(f"cold start wall: median {median:.4f} s, quartiles {q1:.4f} / {q3:.4f} s, "
              f"n = {len(setup)}; fastest calibration burst {min(setup_bursts):.4f} s, "
              f"scale {scale:.4f}")
        metrics = {
            "verdict_s": {"value": min(walls), "unit": "s"},
            "setup_s": {"value": median * scale, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.4f} {m['unit']}")
    if not correct:
        print("error: a verdict failed or a count did not repeat", file=sys.stderr)
    last = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
