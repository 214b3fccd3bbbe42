#!/usr/bin/env python3
"""rarerisk benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; rarerisk is imported from its
`src/` directory and from nowhere else. The workload's inputs are built
from the seed once untimed and five times timed (`setup_s` is the
median), then jobs run back to back until the next one would end after
`--seconds`; every job's outputs are checked. With `--trace 0` the last line of stdout is a JSON
object with the end-to-end metrics of BENCHMARK.json; with `--trace 1`
one untraced and one traced job run and the per-layer metrics are
reported instead, and the spans are written under `.bench_run/`. The lines
before it give the environment, every timed sample, and the output
digests next to the reference recorded at the seed commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# One process, no helper threads: BLAS thread pools must be fixed before
# numpy is first imported.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up runs once untimed, so lazy imports and first-call costs are paid,
# then this many timed times. More repeats would leave peak memory to heap
# fragmentation rather than to the job.
SETUP_REPEATS = 5


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "rarerisk" / "__init__.py").is_file():
        raise SystemExit(f"error: no rarerisk sources under {src}")
    sys.path.insert(0, str(src))
    import rarerisk

    if Path(rarerisk.__file__).resolve().parent != (src / "rarerisk").resolve():
        raise SystemExit(f"error: rarerisk imported from {rarerisk.__file__}, not {src}")


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "loadavg_1m": os.getloadavg()[0],
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.digests: dict | None = None
        self.samples: dict[str, list[float]] = {}

    def setup(self):
        return self.workload.setup(self.seed, self.workdir / "inputs")

    def job(self, inputs, before_check=None) -> float:
        """Run, time and check one job; returns its wall time."""
        out = self.workdir / f"job{self.attempted}"
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            try:
                result = self.workload.job(inputs, out)
                wall = time.perf_counter() - t0
            finally:
                if before_check is not None:
                    before_check()
            problems = self.workload.check(inputs, result)
            digests = self.workload.digests(inputs, result)
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                problems.append("outputs differ from the first job's")
        except Exception:  # a job that raises is a failed job; keep measuring
            wall = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            problems = ["job raised"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"job {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        return wall

    def measure(self) -> dict:
        self.setup()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = self.setup()
            setup_times.append(time.perf_counter() - t0)
        walls = []
        start = time.perf_counter()
        while True:
            walls.append(self.job(inputs))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > self.seconds:
                break
        self.samples = {"setup_s": setup_times, "wall_s": walls}
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    def measure_traced(self, run_id: str, spans_path: Path) -> dict:
        import tracing

        tracer = tracing.Tracer(run_id)
        tracer.install()
        try:
            inputs = self.setup()
        finally:
            tracer.uninstall()
        wall_untraced = self.job(inputs)
        tracer.phase = "job"
        tracer.install()
        wall_traced = self.job(inputs, before_check=tracer.uninstall)
        self.samples = {"wall_s_untraced": [wall_untraced], "wall_s_traced": [wall_traced]}
        tracer.dump(spans_path)
        return tracing.layer_metrics(tracer.spans, wall_untraced, wall_traced)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the benchmark's tests")
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](tiny=args.size == "tiny")
    run_id = f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    out_root = ROOT / ".bench_run"
    run = Run(workload, args.seed, args.seconds, out_root / run_id)
    try:
        if args.trace:
            metrics = run.measure_traced(run_id, out_root / f"spans-{run_id}.json")
        else:
            metrics = run.measure()
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    reference = json.loads((HERE / "reference.json").read_text("utf-8"))
    expected = reference["digests"].get(args.workload, {}).get(str(args.seed), {})
    if args.size == "tiny":
        expected = {}
    print("env " + json.dumps(_environment(), sort_keys=True))
    print("samples " + json.dumps(run.samples))
    print("digests " + json.dumps(
        {k: {"value": v, "reference": expected.get(k),
             "matches": expected.get(k) == v if k in expected else None}
         for k, v in (run.digests or {}).items()},
        sort_keys=True,
    ))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
