"""The benchmark's workloads: inputs made from a seed, one timed pass each.

A pass is the unit that repeats within a run.  Every pass of a run works
on the same inputs, so its outputs must come back identical, and its
counts and worst residual are fixed by the seed alone.

An operation ends in one of three ways: it passes; it misses the program's
tolerance (a numeric residual at or above it, which the accuracy metrics
count); or it fails (it raised something other than the program's own
tolerance errors, or a discrete fact came out wrong).  Only the last counts
as ``failed``.

- ``verify_small`` / ``verify_mid``: one in-process call of
  ``ttstokes verify --n SIZES --samples 50 --seed S --format json``.  The
  operation is a cell (one suite at one size); the latency sample is the
  whole command.
- ``gamma_queries``: a fixed batch of from-gamma queries, each followed by
  its spectral check, over prebuilt calibrations.  The operation and the
  latency sample are one query.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter as _now

import numpy as np

from layertrace import SUITES

VERIFY_SAMPLES = 50
VERIFY_TOL = 1e-9  # the verify command's default --tol
GAMMA_SIZES = range(4, 17)
GAMMA_PER_SIZE = 80
GAMMA_TOL = 1e-8  # acceptance criterion 5 checks spectra at 1e-8
UNIT_MODULUS_TOL = 1e-8
RESIDUAL_FLOOR = 1e-16  # residuals below it (zeros too) count as this
# verify scores a wrong discrete fact as residual 1, so a cell at or above it
# is a failed cell, not a numeric miss
WRONG_FACT = 1.0
# a bytecode cache directory that is never created: with bytecode writing off,
# the package's import finds no cached bytecode, whatever its __pycache__ holds
NO_PYCACHE = str(Path(__file__).resolve().parent / ".no_pycache")
# verify writes a suite verdict that numpy computed with str(), so a cell's
# "passed" arrives as the string "True" or "False" instead of a JSON boolean
VERDICTS = {True: True, False: False, "True": True, "False": False}


def import_program():
    """Import the ttstokes package afresh, dropping any copy imported before
    and compiling its source, so each set-up pays the full import and starts
    from empty module state."""
    for name in [m for m in sys.modules
                 if m == "ttstokes" or m.startswith("ttstokes.")]:
        del sys.modules[name]
    saved = sys.pycache_prefix, sys.dont_write_bytecode
    sys.pycache_prefix, sys.dont_write_bytecode = NO_PYCACHE, True
    try:
        importlib.import_module("ttstokes.cli")
    finally:
        sys.pycache_prefix, sys.dont_write_bytecode = saved
    return sys.modules["ttstokes"]


@dataclass
class Pass:
    """Outcome of one pass: what must repeat, and what is measured."""

    output: object
    wall_s: float
    latencies_s: list[float]
    attempted: int
    failed: int
    missed: int  # completed, but outside the program's tolerance
    residuals: list[float]  # finite residuals of the operations, each vs ``tol``
    tol: float
    problems: list[str] = field(default_factory=list)  # failed output checks


class VerifyWorkload:
    """The verify command over a fixed size range."""

    def __init__(self, lo: int, hi: int, seed: int):
        self.sizes = list(range(lo, hi + 1))
        self.argv = ["verify", "--n", f"{lo}..{hi}", "--samples",
                     str(VERIFY_SAMPLES), "--seed", str(seed), "--format", "json"]
        # warm-up: the same command at the smallest size only, so every code
        # path and numpy's lazy set-up run once without filling anything the
        # timed sizes could reuse
        self.warm_argv = self.argv[:2] + [str(lo)] + self.argv[3:]
        self.tt = None

    def setup(self, tt) -> None:
        self.tt = tt
        self._call(self.warm_argv)

    def _call(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.tt.cli.main(argv)  # looked up per call so a tracer sees it
        return code, buf.getvalue()

    def run_pass(self) -> Pass:
        t0 = _now()
        try:
            code, text = self._call(self.argv)
        except Exception as exc:  # a raised command fails all its cells
            wall = _now() - t0
            cells = len(self.sizes) * len(SUITES)
            return Pass(f"raised {type(exc).__name__}", wall, [wall], cells,
                        cells, 0, [], VERIFY_TOL)
        wall = _now() - t0
        rows, problems = check_verify_output(code, text, self.sizes)
        failed, missed = count_cells(rows)
        residuals = [r["max_residual"] for r in rows
                     if isinstance(r["max_residual"], (int, float))]
        return Pass(text, wall, [wall], len(rows), failed, missed, residuals,
                    VERIFY_TOL, problems)


def count_cells(rows) -> tuple[int, int]:
    """Failed and missed cells of checked verify rows: a cell fails when its
    residual is not a number below ``WRONG_FACT`` (NaN is not), and misses
    when it did not pass otherwise."""
    def wrong(r):
        res = r["max_residual"]
        return not (isinstance(res, (int, float)) and res < WRONG_FACT)

    failed = sum(map(wrong, rows))
    return failed, sum(not r["passed"] and not wrong(r) for r in rows)


def check_verify_output(code: int, text: str, sizes) -> tuple[list, list[str]]:
    """Parse verify's JSON and list every way it disagrees with itself."""
    problems = []
    try:
        rows = json.loads(text)["payload"]["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return [], [f"unparseable verify output: {exc}"]
    cells = sorted((r["suite"], r["n_plus_1"]) for r in rows)
    if cells != sorted((s, n) for s in SUITES for n in sizes):
        problems.append("verify rows do not cover every suite and size once")
    for r in rows:
        res = r["max_residual"]
        below = isinstance(res, (int, float)) and res < VERIFY_TOL
        verdict = VERDICTS.get(r["passed"])
        if verdict != below:
            problems.append(f"{r['suite']}/n{r['n_plus_1']}: passed={r['passed']!r} "
                            f"but residual {res}")
        r["passed"] = verdict
    if code != (0 if all(r["passed"] for r in rows) else 1):
        problems.append(f"exit code {code} disagrees with the cells")
    return rows, problems


class GammaWorkload:
    """From-gamma queries with their spectral check, sizes 4..16."""

    def __init__(self, seed: int):
        self.seed = seed
        self.queries = gamma_queries(seed)
        self.tt = None
        self.cals = {}

    def setup(self, tt) -> None:
        self.tt = tt
        self.cals = {n: tt.steinberg.calibrate(n) for n in GAMMA_SIZES}
        self.tol = tt.linalg.Tolerance(GAMMA_TOL, GAMMA_TOL)
        # the spectra have unit modulus, so the match tolerance is bound(1)
        self.bound = self.tol.bound(1.0)
        warm = np.random.default_rng([self.seed, 1])
        for n in GAMMA_SIZES:
            try:
                self._query(n, warm)
            except Exception:  # a failed query warms up as well as a passed one
                pass

    def _query(self, n1, rng):
        tt = self.tt
        g = tt.solutions.random_polytope_gamma(n1, rng)
        m0 = tt.solutions.gamma_to_m0(self.cals[n1], g)
        got = tt.linalg.eigenvalues(m0.matrix, self.tol)
        worst = tt.linalg.match_multisets(got, tt.solutions.eigenvalues_from_gamma(g),
                                          self.tol)
        return worst, got

    def run_pass(self) -> Pass:
        tt = self.tt
        # the eigenvalue gate and the spectral match raise these when the
        # numbers miss the tolerance; any other exception is a failed query
        tolerance_errors = (tt.linalg.NumericalError, tt.linalg.ConsistencyError)
        rngs = [np.random.default_rng(entropy) for _, entropy in self.queries]
        outcomes, latencies, residuals = [], [], []
        failed = missed = 0
        t0 = _now()
        for (n1, _), rng in zip(self.queries, rngs):
            q0 = _now()
            try:
                worst, got = self._query(n1, rng)
            except Exception as exc:
                latencies.append(_now() - q0)
                outcomes.append(type(exc).__name__)
                if isinstance(exc, tolerance_errors):
                    missed += 1
                else:
                    failed += 1
                continue
            latencies.append(_now() - q0)
            if float(np.max(np.abs(np.abs(got) - 1.0))) > UNIT_MODULUS_TOL:
                outcomes.append("not unit modulus")
                missed += 1
                continue
            outcomes.append(worst)
            residuals.append(worst)
        wall = _now() - t0
        return Pass(tuple(outcomes), wall, latencies, len(outcomes), failed,
                    missed, residuals, self.bound)


def gamma_queries(seed: int) -> list[tuple[int, tuple[int, int, int]]]:
    """The fixed query batch for a seed: ``GAMMA_PER_SIZE`` queries at each
    size in shuffled order, each with the entropy of its own generator."""
    sizes = np.repeat(np.array(GAMMA_SIZES), GAMMA_PER_SIZE)
    np.random.default_rng([seed, 0]).shuffle(sizes)
    return [(int(n1), (seed, 2, i)) for i, n1 in enumerate(sizes)]


# workload name -> constructor taking the seed
WORKLOADS = {
    "verify_small": partial(VerifyWorkload, 3, 10),
    "verify_mid": partial(VerifyWorkload, 11, 16),
    "gamma_queries": GammaWorkload,
}


def residual_digits(residuals) -> float:
    """Mean digits of agreement over the operations: the mean of
    -log10(residual), with residuals below ``RESIDUAL_FLOOR`` raised to it.
    The mean, not the worst case, because the worst residual of a pass swings
    by two orders between seeds at sizes 11..16."""
    if not residuals:
        return 0.0
    return sum(-math.log10(max(RESIDUAL_FLOOR, r)) for r in residuals) / len(residuals)
