"""One fresh process that runs a workload's verdicts and reports what it saw.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and the
BLAS thread count pinned in the environment.  Modes:

  setup   import taylorlab.checks, validate the configs, resolve the
          background, exit: the cold start a CLI user pays on every run;
  time    warm up, then run untraced verdicts for --seconds;
  trace   warm up, then alternate traced and untraced verdicts for
          --seconds (at least two traced, so counts can be compared, and
          one untraced, for the tracing overhead).

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

JOBS = 1

# Workloads: the raw configs one verdict executes in sequence.  The seed
# reaches the program only through the config's "seed" key.
WORKLOADS = {
    "evolve": [{"kind": "evolve"}],
    "sweep": [{"kind": "abscissa-sweep"}],
    "long-window": [
        {"kind": "evolve", "modes": [[1, 0]], "t_final": 1.0, "output_step": 1 / 2048}
    ],
    "structure": [
        {"kind": "scaling-study"},
        {"kind": "normalform-check"},
        {"kind": "spectral-check"},
        {"kind": "constraint-check"},
    ],
}

# Warm-up: the same kinds, small, so lazy imports, BLAS start-up and
# first-call costs are paid before timing without spending a full verdict.
# (truncation 40 / band 2 is the smallest window scaling-study resolves.)
WARMUP = {"truncation": 40, "band": 2, "eps_modes": [2, 8], "modes": [[2, 0]]}


def configs(workload: str, seed: int, out_root: str, warmup: bool = False) -> list:
    from taylorlab.config import validate

    cfgs = []
    for i, raw in enumerate(WORKLOADS[workload]):
        if warmup:
            raw = dict(WARMUP, kind=raw["kind"])
        out_dir = os.path.join(out_root, f"{i}-{raw['kind']}")
        cfgs.append(validate(dict(raw, seed=seed, jobs=JOBS, out_dir=out_dir)))
    return cfgs


def report_digest(cfgs) -> str:
    digest = hashlib.sha256()
    for cfg in cfgs:
        with open(os.path.join(cfg.out_dir, "report.json"), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files)


class Verdicts:
    """Runs the verdicts of one workload and keeps the correctness tally.

    A verdict fails if it raises, if any outcome fails, or if its
    report.json bytes differ from the first verdict of this process.
    """

    def __init__(self, workload: str, seed: int, scratch: str):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def run(self, tracer=None) -> dict | None:
        """One verdict: its wall seconds, the bytes its report tree holds and,
        when traced, the span summary.  None when it failed."""
        from taylorlab.checks import execute

        out_root = os.path.join(self.scratch, f"v{self.attempted}")
        cfgs = configs(self.workload, self.seed, out_root)
        self.attempted += 1
        sample = None
        if tracer is not None:
            tracer.clear()
        try:
            start = time.perf_counter()
            reports = [execute(cfg) for cfg in cfgs]
            elapsed = time.perf_counter() - start
            failed = [o.name for r in reports for o in r.outcomes if not o.passed]
            digest = report_digest(cfgs)
            self.digest = self.digest or digest
            if failed or not all(r.passed for r in reports):
                print(f"verdict failed outcomes: {failed}", file=sys.stderr)
            elif digest != self.digest:
                print(f"report.json digest {digest} differs from {self.digest}", file=sys.stderr)
            else:
                sample = {
                    "wall_s": elapsed,
                    "bytes_written": tree_bytes(out_root),
                    "trace": tracer.summary() if tracer is not None else None,
                }
        except Exception:  # a verdict that raises is a failed verdict, not a crash
            traceback.print_exc()
        finally:
            shutil.rmtree(out_root, ignore_errors=True)
        if sample is None:
            self.failed += 1
        return sample

    def warm_up(self) -> None:
        from taylorlab.checks import execute

        out_root = os.path.join(self.scratch, "warmup")
        try:
            for cfg in configs(self.workload, self.seed, out_root, warmup=True):
                execute(cfg)
        finally:
            shutil.rmtree(out_root, ignore_errors=True)


def timed_loop(seconds: float, run, enough) -> None:
    """Call run() until enough() holds and the next call would end past
    `seconds`; stop early when run() returns None (a failed verdict)."""
    begin = time.perf_counter()
    last = 0.0
    while not enough() or time.perf_counter() - begin + last <= seconds:
        sample = run()
        if sample is None:
            return
        last = sample["wall_s"]


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "jobs": JOBS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "time", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--src", required=True)
    args = parser.parse_args(argv)

    import taylorlab.checks  # the cold-start import
    from taylorlab.config import resolve_background

    imported = os.path.abspath(taylorlab.checks.__file__)
    if not imported.startswith(os.path.abspath(args.src) + os.sep):
        print(f"taylorlab imported from {imported}, not {args.src}", file=sys.stderr)
        return 2
    for cfg in configs(args.workload, args.seed, args.scratch):
        resolve_background(cfg)
    if args.mode == "setup":
        return 0

    verdicts = Verdicts(args.workload, args.seed, args.scratch)
    verdicts.warm_up()
    samples, untraced = [], []
    if args.mode == "time":

        def run():
            sample = verdicts.run()
            samples.append(sample)
            return sample

        timed_loop(args.seconds, run, lambda: bool(samples))
    else:
        import tracing

        tracer = tracing.Tracer()

        def run():
            # traced and untraced verdicts alternate, T U T U ..., so both
            # see the same stretches of machine speed
            if len(samples) > len(untraced):
                sample = verdicts.run()
                untraced.append(sample)
                return sample
            uninstall = tracing.install(tracer)
            try:
                sample = verdicts.run(tracer)
            finally:
                uninstall()
            samples.append(sample)
            return sample

        timed_loop(args.seconds, run, lambda: len(samples) >= 2 and bool(untraced))
    result = {
        "machine": machine(),
        "samples": [s for s in samples if s is not None],
        "untraced": [s for s in untraced if s is not None],
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "digest": verdicts.digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
