#!/usr/bin/env python3
"""Size sweep: how calibration time, suite time and worst residual scale.

For each matrix size n+1 from ``START`` upward, times ``calibrate`` on its
own and each verify suite on its own (``--samples SAMPLES --seed SEED``),
and prints one row per size with the worst residual and pass/fail of every
suite.  The sweep stops after the first size whose total time exceeds
``CAP_S`` seconds.  It is a report, not a gate: the exit code is 0 whatever
the cells say.

    python3 bench/sweep.py
"""

from __future__ import annotations

import sys
from time import perf_counter

import run  # pins the BLAS threads before numpy is imported

START = 3
CAP_S = 60.0
SAMPLES = 50
SEED = 7


def sweep_size(tt, n1: int) -> dict:
    t0 = perf_counter()
    tt.calibrate(n1)
    row = {"n_plus_1": n1, "calibrate_s": perf_counter() - t0, "suites": {}}
    for suite in sorted(tt.verify.SUITES):
        t0 = perf_counter()
        (res,) = tt.run_suites([n1], samples=SAMPLES, seed=SEED, suites=[suite])
        row["suites"][suite] = {"seconds": perf_counter() - t0,
                                "worst_residual": res.max_residual,
                                "passed": bool(res.passed)}
    row["total_s"] = row["calibrate_s"] + sum(s["seconds"] for s in row["suites"].values())
    return row


def main() -> int:
    if not (run.SRC / "ttstokes" / "__init__.py").is_file():
        print(f"error: no ttstokes package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import ttstokes as tt

    print(run.environment())
    suites = sorted(tt.verify.SUITES)
    print(f"{'n+1':>4} {'calibrate':>10} " + " ".join(f"{s:>24}" for s in suites)
          + f" {'total':>8}")
    n1 = START
    while True:
        row = sweep_size(tt, n1)
        cells = " ".join(
            f"{c['seconds']:8.3f}s {c['worst_residual']:8.1e} {'pass' if c['passed'] else 'FAIL'}"
            for c in (row["suites"][s] for s in suites))
        print(f"{n1:>4} {row['calibrate_s']:9.3f}s {cells} {row['total_s']:7.2f}s",
              flush=True)
        if row["total_s"] > CAP_S:
            return 0
        n1 += 1


if __name__ == "__main__":
    sys.exit(main())
