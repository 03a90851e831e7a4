"""Outside-in per-layer tracer for the ttstokes package.

The tracer rebinds public functions in every ``ttstokes.*`` namespace that
holds them, so calls made through any module (``verify`` calling
``calibrate``, ``linalg.eigenvalues`` calling ``char_poly``, ...) pass
through a wrapper.  Nothing under ``src/`` is edited, and ``uninstall``
puts every original object back.

Each timed wrapper is a span: its self time is its duration minus the time
of the traced spans it called.  Work done in untraced helpers and in numpy
counts towards the nearest traced caller.  ``linalg.omega_pow`` runs about
a quarter of a million times per ``verify --n 3..10`` pass, so it is only
counted; timing it would multiply the tracing overhead.
"""

from __future__ import annotations

import inspect
import sys
import time

# module -> functions timed as spans (calls and self time)
TIMED = {
    "linalg": ("char_poly", "eigenvalues", "match_multisets", "poly_from_roots"),
    "roots": ("supported_roots", "table_supported_roots", "simple_system_check"),
    "stokes": ("q_pattern", "q_family", "build_m0", "random_stokes_params"),
    "steinberg": ("calibrate", "steinberg_section", "chi", "cross_section_check",
                  "regular_centralizer_dim"),
    "solutions": ("gamma_to_m0", "eigenvalues_from_gamma", "random_polytope_gamma"),
    "connections": ("symmetry_report", "diagonalizer_check",
                    "omega_hat_symmetry_report"),
    "cli": ("main",),
}
# module -> functions whose calls are counted but not timed
COUNTED = {"linalg": ("omega_pow",)}
# traced function -> number of leading arguments that identify distinct work;
# calls per pass over distinct keys is the function's repeat ratio
KEYED = {"steinberg.calibrate": 1, "stokes.q_pattern": 2}
# the five verify suites are spans too: inclusive wall time and worst residual
SUITES = ("connections", "roots", "solutions", "steinberg", "stokes")


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer reports, as (name, unit)."""
    out = []
    for mod, fns in TIMED.items():
        for fn in fns:
            if (mod, fn) != ("cli", "main"):
                out.append((f"{mod}.{fn}.calls", "count"))
            out.append((f"{mod}.{fn}.self_s", "s"))
    for mod, fns in COUNTED.items():
        out.extend((f"{mod}.{fn}.calls", "count") for fn in fns)
    out.extend((f"{name}.repeat_ratio", "ratio") for name in KEYED)
    for suite in SUITES:
        out.append((f"verify.{suite}.wall_s", "s"))
        out.append((f"verify.{suite}.worst_residual", "abs"))
    return out


def program_modules() -> list:
    """The imported ``ttstokes`` package and its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ttstokes" or name.startswith("ttstokes."))]


class Tracer:
    """Collects calls, self time and argument keys while installed."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.keys: dict[str, set] = {}
        self.suite_wall: dict[str, float] = {s: 0.0 for s in SUITES}
        self.suite_worst: dict[str, float] = {s: 0.0 for s in SUITES}
        self._stack: list[list[float]] = []  # [start, time spent in child spans]
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def _enter(self) -> list[float]:
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list[float]) -> float:
        dur = time.perf_counter() - frame[0]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def _timed(self, name: str, fn):
        nkey = KEYED.get(name)
        sig = inspect.signature(fn) if nkey else None

        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            if nkey:
                bound = sig.bind(*args, **kwargs).arguments
                self.keys.setdefault(name, set()).add(tuple(bound.values())[:nkey])
            frame = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = self._leave(frame)
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _suite(self, suite: str, fn):
        def wrapper(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.suite_wall[suite] += self._leave(frame)
            if result.max_residual < float("inf"):
                self.suite_worst[suite] = max(self.suite_worst[suite],
                                              result.max_residual)
            return result
        return wrapper

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Rebind every traced function in every ttstokes namespace."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        mods = {m.__name__: m for m in program_modules()}
        wrappers = {}
        for kinds, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for mod, fns in kinds.items():
                home = mods[f"ttstokes.{mod}"]
                for fn in fns:
                    orig = getattr(home, fn)
                    wrappers[id(orig)] = (orig, make(f"{mod}.{fn}", orig))
        for m in mods.values():
            for attr, val in list(vars(m).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._saved.append((m, attr, val))
                    setattr(m, attr, hit[1])
        table = mods["ttstokes.verify"].SUITES
        for suite in SUITES:
            self._saved.append((table, suite, table[suite]))
            table[suite] = self._suite(suite, table[suite])

    def uninstall(self) -> None:
        """Put back every object ``install`` replaced."""
        for target, attr, orig in reversed(self._saved):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- report -----------------------------------------------------------
    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass averages of everything collected over ``passes`` passes."""
        out = {}
        for name, unit in layer_metric_names():
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls.get(base, 0) / passes
            elif kind == "self_s":
                out[name] = self.self_s.get(base, 0.0) / passes
            elif kind == "repeat_ratio":
                keys = self.keys.get(base, ())
                out[name] = (self.calls.get(base, 0) / passes / len(keys)
                             if keys else 0.0)
            elif kind == "wall_s":
                out[name] = self.suite_wall[base.split(".")[1]] / passes
            else:
                out[name] = self.suite_worst[base.split(".")[1]]
        return out
