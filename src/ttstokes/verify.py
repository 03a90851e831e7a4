"""Randomized invariant suites behind the command line's verify subcommand.

Each suite bundles the structural identities of one module into a single
(max residual, pass) summary for a given size.  Every suite is called as
``suite(size, samples, seed, tol)`` with the :class:`SizeTables` that
:func:`run_suites` makes once per size and call, whose tables are built on
their first read.  Discrete facts (set
equalities, pattern membership, dimension counts) contribute 0 or 1 to the
residual, and tolerances are at most 1, so a failed one never passes.
Residuals are accumulated with :func:`~ttstokes.linalg.nan_max`, so a NaN
anywhere makes the cell's residual NaN and the cell fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connections import (
    OmegaHatData,
    TodaField,
    _diagonalizer_check,
    _member_draws,
    _omega_hat_symmetry_report,
    _symmetry_report,
    _Tables,
    _tables,
    toda_rhs,
)
from .linalg import _in_chunks, char_poly, max_abs, nan_max, rel_residuals
from .roots import order_diagram, simple_system_check, table_agreement
from .solutions import (
    _section_from_gamma,
    alcove_coords,
    alcove_to_gamma,
    polytope_contains,
    random_polytope_gamma,
    s_formulas,
)
from .steinberg import SectionCalibration, _cross_section_check, calibrate
from .stokes import (
    StokesParams,
    _Layout,
    _q_family,
    _reality_partner,
    _stokes_from_normals,
    _stokes_layout,
    build_m0,
    build_q,
    full_monodromy,
    reality_residual,
)


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    n_plus_1: int
    checks: int
    max_residual: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class SizeTables:
    """What one size's suites share, each built on its first read: the
    size's Stokes layout, its connection tables, and its calibration or the
    error that :meth:`calibrated` raises, kept so that each calibrated cell
    gets its note.  The run drops them when it moves to the next size."""

    n_plus_1: int

    @cached_property
    def connections(self) -> _Tables:
        return _tables(self.n_plus_1)

    @cached_property
    def layout(self) -> _Layout:
        return _stokes_layout(self.n_plus_1)

    @cached_property
    def calibration(self) -> SectionCalibration | Exception:
        try:
            return calibrate(self.n_plus_1)
        except Exception as exc:
            return exc

    def calibrated(self) -> SectionCalibration:
        if isinstance(self.calibration, Exception):
            raise self.calibration
        return self.calibration


def _suite_roots(size, samples, seed, tol):
    n1, slot_dir = size.n_plus_1, size.layout.directions
    # one check per direction, then the simple system and the diagram order
    agree = table_agreement(slot_dir, (size.layout.head, size.layout.second))
    bad = int(np.count_nonzero(~agree))
    diag = order_diagram(n1)
    head_part, tail_part = diag.simple_roots()
    # the half-period positive system: the roots on the first n+1 directions
    pos = (slot_dir >= 0) & (slot_dir < n1)
    rows, cols = np.nonzero(pos)
    bad += not simple_system_check(n1, head_part + tail_part,
                                   zip(rows.tolist(), cols.tolist())).ok
    # (i, j) is positive in the diagram order when i ranks above j
    rank = np.empty(n1, dtype=int)
    rank[list(diag.order)] = np.arange(n1)
    bad += not np.array_equal(rank[:, None] > rank, pos)
    return SuiteResult("roots", n1, 2 * n1 + 2, float(bad), bad == 0)


def _stokes_trials(layout, z):
    """Worst residual of the stokes suite's trials whose standard normals
    are the rows of ``z``: a trial's complex draw, then its real draw.
    Only the generators' directions 0 and 1 and their partners are built:
    every other direction's residual equals its generator's bit for bit
    (see the :mod:`~ttstokes.stokes` module docstring)."""
    n1 = layout.n_plus_1
    width = layout.width(real=False)
    p = _stokes_from_normals(layout, z[:, :width], False, 0.7)
    m0 = build_m0(p)
    # the modulus of each scalar: numpy's array modulus of a complex can
    # differ from the scalar one in the last bit
    worst = nan_max(0.0, *(abs(d - 1.0) for d in m0.det))
    fam = _q_family(layout, *m0.factors, (0, 1, n1, n1 + 1))
    # every factor is I + N with N^2 = 0: its inverse is 2I - q
    for ell in (0, 1):
        rhs = 2.0 * np.eye(n1) - fam[ell].swapaxes(-1, -2)
        worst = nan_max(worst, *rel_residuals(fam[ell + n1], rhs).tolist())
    # the complex factors are freed before the real ones are built
    del fam, rhs, m0
    pr = _stokes_from_normals(layout, z[:, width:], True, 0.7)
    fam = _q_family(layout, build_q(n1, "head", pr.head_coeffs),
                    build_q(n1, "second", pr.second_coeffs),
                    (0, 1, _reality_partner(n1, 0), _reality_partner(n1, 1)))
    return nan_max(worst, reality_residual(fam))


def _suite_stokes(size, samples, seed, tol):
    # each trial draws its complex coefficients, then its real ones, so one
    # draw is split by columns; the trials are checked as sample stacks
    n_plus_1, layout = size.n_plus_1, size.layout
    rng = np.random.default_rng([seed, n_plus_1, 1])
    trials = max(1, samples // 5)
    z = rng.normal(size=(trials, layout.width(real=False) + layout.width(real=True)))
    # at its peak a trial holds about ten complex (n+1)^2 stacks (the factors
    # and the monodromy, the generators, their partners and the residuals'
    # temporaries), counted here in float64 entries
    worst = _in_chunks(trials, 20 * n_plus_1 ** 2,
                       lambda a, b: _stokes_trials(layout, z[a:b]))
    zero = [dict.fromkeys(roots, 0.0) for roots in (layout.head, layout.second)]
    trivial = full_monodromy(build_m0(StokesParams(n_plus_1, *zero)))
    worst = nan_max(worst, max_abs(trivial - np.eye(n_plus_1)))
    checks = trials * (n_plus_1 + 3) + 1
    return SuiteResult("stokes", n_plus_1, checks, worst, worst < tol)


def _suite_steinberg(size, samples, seed, tol):
    rep = _cross_section_check(size.calibrated(), size.layout, samples, seed)
    worst = nan_max(rep.section_residual, rep.monodromy_residual)
    # the + 1 is calibrate's integer proof that s(t) is regular and chi exact
    return SuiteResult("steinberg", size.n_plus_1, 2 * samples + 1, worst, worst < tol)


def _solutions_trials(cal, g):
    """Worst residual of the solutions suite over the gamma stack ``g``."""
    p = alcove_coords(g)
    worst = 0.0
    if np.any(polytope_contains(g) != p.in_alcove()):
        worst = 1.0
    worst = nan_max(worst, float(np.max(np.abs(alcove_to_gamma(p).gamma - g.gamma))))
    lams, coeffs, m0 = _section_from_gamma(cal, g)
    worst = nan_max(worst, float(np.max(np.abs(np.abs(lams) - 1.0))))
    # each monodromy's char poly against the polynomial of its eigenvalue
    # list and, at sizes 4 and 5, against the closed form
    polys = char_poly(m0)
    worst = nan_max(worst, *np.max(np.abs(polys - coeffs), axis=1).tolist())
    if g.n_plus_1 in (4, 5):
        s1, s2 = s_formulas(g.n_plus_1, g)
        one = np.ones(len(s1))
        if g.n_plus_1 == 4:
            closed = np.stack([one, s1, -s2, s1, one], axis=1)
        else:
            closed = np.stack([-one, s1, s2, -s2, -s1, one], axis=1)
        worst = nan_max(worst, *np.max(np.abs(polys - closed), axis=1).tolist())
    return worst


def _suite_solutions(size, samples, seed, tol):
    # the samples in row blocks of at most one chunk of monodromies, drawn
    # block by block from one generator: the same rows as one stacked draw
    n_plus_1, cal = size.n_plus_1, size.calibrated()
    rng = np.random.default_rng([seed, n_plus_1, 3])
    worst = _in_chunks(samples, n_plus_1 ** 2, lambda a, b: _solutions_trials(
        cal, random_polytope_gamma(n_plus_1, rng, b - a)))
    checks = 5 * samples if n_plus_1 in (4, 5) else 4 * samples
    return SuiteResult("solutions", n_plus_1, checks, worst, worst < tol)


def _connection_reports(f, d, seed, tables):
    """``symmetry_report(f, 5, seed)`` and ``omega_hat_symmetry_report(d, 5,
    seed)`` of a stack of trials with the size's ``tables``, from one draw
    per trial: trial t's ten lambda uniforms are the first of the fifteen
    its zeta samples take from ``default_rng(seed + t)``."""
    trials = len(f.w)
    u = _member_draws(seed, trials, 5, 3)
    lam_u = u.reshape(trials, 15)[:, :10].reshape(trials, 5, 2)
    return _symmetry_report(f, u, tables), _omega_hat_symmetry_report(d, lam_u, tables)


def _connection_trials(n1, u, seed, tables):
    """Worst residual of the connections suite's trials whose uniforms are
    the rows of ``u``, with the size's ``tables``, trial t's zeta and lambda
    samples drawn from ``seed + t``; values are taken in the per-trial order."""
    m = n1 // 2
    trials = len(u)
    # the field: (w_i, x w_x,i) pairs for i < m, mirrored with a sign, then x
    w, v = np.zeros((2, trials, n1))
    for h, x in enumerate((w, v)):
        x[:, :m] = u[:, h:2 * m:2]
        x[:, n1 - m:] = -x[:, m - 1::-1]
    f = TodaField(n1, w, np.exp(u[:, 2 * m]), v)
    # then (k_j, c_j) pairs for j <= m, mirrored to n+1-j, then z
    k, c = np.empty((2, trials, n1))
    for h, x in enumerate((k, c)):
        x[:, :m + 1] = u[:, 2 * m + 1 + h:4 * m + 3:2]
        x[:, n1 - m:] = x[:, m:0:-1]
    d = OmegaHatData(n1, c, k, u[:, -2] + 1j * u[:, -1])

    rep, orep = _connection_reports(f, d, seed, tables)
    drep = _diagonalizer_check(f, tables)
    # one column per check; [W^T, W] is diagonal by construction (see the
    # connections module docstring), so only its trace is checked
    res = np.stack([
        rep.cyclic, rep.anti, rep.reality, rep.conj, rep.real_form,
        drep.fourier_residual, drep.w_residual, drep.wt_residual, drep.bridge_residual,
        np.where(drep.pattern_ok, 0.0, 1.0),
        np.abs(np.sum(toda_rhs(f), axis=1)),
        orep.cyclic, orep.anti,
    ], axis=1)
    return nan_max(0.0, *res.ravel().tolist())


def _suite_connections(size, samples, seed, tol):
    # each trial draws its field, then k and c, then z, a fixed number of
    # uniforms in all, so one draw with per-column bounds is the loop's stream
    n_plus_1, tables = size.n_plus_1, size.connections
    rng = np.random.default_rng([seed, n_plus_1, 4])
    trials = max(1, samples // 5)
    m = n_plus_1 // 2
    lows = [-1.0] * (2 * m) + [-0.5] + [-0.5, 0.5] * (m + 1) + [0.5, -1.0]
    highs = [1.0] * (2 * m) + [0.5] + [2.0] * (2 * m + 2) + [2.0, 1.0]
    u = rng.uniform(lows, highs, size=(trials, len(lows)))
    # at its peak a trial holds about 20 (n+1)^2 complex entries (a report's
    # dense tau samples with their two products, the diagonalizer's stacks),
    # counted here as 30 for a margin
    worst = _in_chunks(trials, 30 * n_plus_1 ** 2,
                       lambda a, b: _connection_trials(n_plus_1, u[a:b], seed + a, tables))
    return SuiteResult("connections", n_plus_1, 13 * trials, worst, worst < tol)


SUITES = {
    "connections": _suite_connections,
    "roots": _suite_roots,
    "solutions": _suite_solutions,
    "steinberg": _suite_steinberg,
    "stokes": _suite_stokes,
}


def run_suites(
    sizes,
    samples: int = 25,
    seed: int = 0,
    tol: float = 1e-9,
    suites=None,
) -> list[SuiteResult]:
    """Run the named suites (all by default) over the given sizes.

    Each size runs once, its suites sharing one :class:`SizeTables`, which
    builds only the tables that they read.
    Results come back sorted by suite name then size.  A suite that raises
    is reported as failed with an infinite residual instead of aborting the
    whole run.  No size, no suite, fewer than one sample or a tolerance
    that is not positive and finite, or is above 1, is a ValueError: such a
    verdict is vacuous.  A negative seed, which no suite's generator takes,
    is one too.
    """
    sizes = sorted(set(sizes))  # a repeated size runs once
    if not sizes:
        raise ValueError("need at least one size")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if seed < 0:  # numpy's generators take no negative seed
        raise ValueError(f"seed must be at least 0, got {seed}")
    if not 0 < tol < float("inf"):  # also false for NaN
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if tol > 1:  # a failed discrete fact's residual of 1 would pass
        raise ValueError(f"tol must be at most 1, got {tol}")
    names = sorted(SUITES if suites is None else set(suites))
    if not names:
        raise ValueError("need at least one suite")
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}; "
                         f"available: {', '.join(sorted(SUITES))}")
    out = []
    for n1 in sizes:
        size = SizeTables(n1)
        for name in names:
            try:
                out.append(SUITES[name](size, samples, seed, tol))
            except Exception as exc:  # suite bug, genuine violation or no tables
                out.append(SuiteResult(name, n1, 0, float("inf"), False,
                                       f"{type(exc).__name__}: {exc}"))
    return sorted(out, key=lambda r: (r.suite, r.n_plus_1))
