#!/usr/bin/env python3
"""Run one benchmark workload of ttstokes and print its result.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify_small --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the environment and the figures behind the metrics.
The exit code is 0 when every output check held, 1 when one failed, and 2
when the program or the arguments are missing.

The run is a closed loop with one client: this single process, which starts
no threads or processes of its own, calls the package in-process and waits
for each call.  BLAS is pinned to ``BLAS_THREADS`` threads before numpy is
imported.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True  # the run writes nothing into the checkout

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from layertrace import Tracer, layer_metric_names  # noqa: E402
from workloads import (  # noqa: E402
    RESIDUAL_FLOOR, WORKLOADS, import_program, residual_digits)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # set-ups per run at least ...
SETUP_MIN_S = 2.0  # ... and until their raw times add up to this
MIN_PASSES = 2  # two passes at least, so their outputs can be compared
REF_PROBE_S = 0.03  # the probe's typical time on the 2-core host the bench was written on
PROBE_REPS = 3  # probes per probe point

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("pass_share", "ratio"),
    ("residual_digits", "digits"),
    ("peak_rss_mb", "MB"),
)
TRACE_OVERHEAD = (("trace.overhead_s", "s"), ("trace.overhead_share", "ratio"))


def per_layer_names() -> list[tuple[str, str]]:
    return layer_metric_names() + list(TRACE_OVERHEAD)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def check_passes(passes) -> list[str]:
    """Every failed output check of the passes, and a mismatch between passes
    over the same inputs (traced or not) if there is one."""
    problems = [x for p in passes for x in p.problems]
    if any(p.output != passes[0].output for p in passes[1:]):
        problems.append("passes over the same inputs gave different outputs")
    return problems


def probe() -> float:
    """Seconds taken by a fixed piece of work of the program's own kind: small
    complex matrix products and traces driven from a Python loop.  It does not
    touch ttstokes, so only the speed of the host moves it."""
    a = np.eye(6, dtype=complex) * 1.0001
    acc = 0.0
    t0 = perf_counter()
    for _ in range(3000):
        acc += abs(np.trace(a @ a))
        acc += len([j * j for j in range(40)])
    return perf_counter() - t0


class Clock:
    """Scales measured times to a reference host speed.

    The host's speed drifts by a third over minutes (other tenants share its
    cores), which no statistic inside one run removes.  A fixed probe of the
    program's kind of work runs before and after every timed step, and the
    step's times are multiplied by ``REF_PROBE_S`` over the median probe
    time around it, so runs compare the program and not the moment they ran.
    The raw times go to the line before the result.
    """

    def __init__(self):
        self.points = [self._probe()]

    @staticmethod
    def _probe() -> list[float]:
        return [probe() for _ in range(PROBE_REPS)]

    def measure(self, step):
        """Run ``step`` between two probe points; return its result and the
        factor that scales its times to the reference speed."""
        result = step()
        self.points.append(self._probe())
        return result, REF_PROBE_S / statistics.median(self.points[-2] + self.points[-1])

    @property
    def scale(self) -> float:
        """The factor for the whole run so far."""
        return REF_PROBE_S / statistics.median(x for pt in self.points for x in pt)


def run_end_to_end(workload, seconds: float):
    def setup():
        t0 = perf_counter()
        workload.setup(import_program())
        return perf_counter() - t0

    clock = Clock()
    setups = []
    while len(setups) < SETUP_REPEATS or sum(t for t, _ in setups) < SETUP_MIN_S:
        setups.append(clock.measure(setup))
    passes = []
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        passes.append(clock.measure(workload.run_pass))

    attempted = sum(p.attempted for p, _ in passes)
    failed = sum(p.failed for p, _ in passes)
    missed = sum(p.missed for p, _ in passes)
    walls = [k * p.wall_s for p, k in passes]
    lats = [sorted(k * x for x in p.latencies_s) for p, k in passes]
    first = passes[0][0]
    metrics = {
        "setup_s": statistics.median(k * t for t, k in setups),
        "wall_s": statistics.median(walls),
        "queries_per_s": sum(map(len, lats)) / sum(walls),
        # percentiles within a pass, whose 1040 queries leave ten beyond the
        # 99th; the median over passes keeps one disturbed pass from setting it
        "query_p50_ms": 1e3 * statistics.median(percentile(x, 50) for x in lats),
        "query_p99_ms": 1e3 * statistics.median(percentile(x, 99) for x in lats),
        "pass_share": 1.0 - (failed + missed) / attempted,
        "residual_digits": residual_digits(first.residuals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    worst = max([RESIDUAL_FLOOR, *first.residuals])
    info = {
        "raw_setup_s": [t for t, _ in setups],
        "raw_pass_wall_s": [p.wall_s for p, _ in passes],
        "time_scale": [k for _, k in setups + passes],
        "probe_s": clock.points,
        "latency_samples": sum(map(len, lats)),
        "fail_share": (failed + missed) / attempted,
        "worst_residual": worst,
        "residual_headroom_digits": math.log10(first.tol / worst),
        "tol": first.tol,
    }
    problems = check_passes([p for p, _ in passes])
    return metrics, attempted, failed, problems, info


def run_traced(workload, seconds: float):
    workload.setup(import_program())
    clock = Clock()
    tracer = Tracer()

    def traced_pass():
        with tracer:
            return workload.run_pass()

    plain, traced = [], []
    deadline = perf_counter() + seconds
    while not plain or perf_counter() < deadline:
        plain.append(clock.measure(workload.run_pass))
        traced.append(clock.measure(traced_pass))

    scale = clock.scale
    metrics = {k: scale * v if k.endswith("_s") else v
               for k, v in tracer.metrics(len(traced)).items()}
    plain_wall = statistics.median(k * p.wall_s for p, k in plain)
    overhead = statistics.median(k * p.wall_s for p, k in traced) - plain_wall
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / plain_wall
    passes = [p for p, _ in plain + traced]
    info = {"raw_untraced_pass_wall_s": [p.wall_s for p, _ in plain],
            "raw_traced_pass_wall_s": [p.wall_s for p, _ in traced],
            "time_scale": scale}
    return (metrics, sum(p.attempted for p in passes),
            sum(p.failed for p in passes), check_passes(passes), info)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if ns.seed < 0 or ns.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ttstokes" / "__init__.py").is_file():
        print(f"error: no ttstokes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if ns.workload not in WORKLOADS:
        ap.error(f"unknown workload {ns.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[ns.workload](ns.seed)
    run = run_traced if ns.trace else run_end_to_end
    values, attempted, failed, problems, info = run(workload, ns.seconds)

    units = dict(per_layer_names() if ns.trace else END_TO_END)
    print(json.dumps({"workload": ns.workload, "seed": ns.seed, "trace": ns.trace,
                      "environment": environment(), "problems": problems, **info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
