"""Randomized invariant suites behind the command line's verify subcommand.

Each suite bundles the structural identities of one module into a single
(max residual, pass) summary for a given size.  Discrete facts (set
equalities, pattern membership, dimension counts) contribute 0 or 1 to the
residual so a failed one can never pass any tolerance.  Residuals are
accumulated with :func:`~ttstokes.linalg.nan_max`, so a NaN anywhere makes
the cell's residual NaN and the cell fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connections import (
    OmegaHatData,
    TodaField,
    build_W,
    diagonalizer_check,
    omega_hat_symmetry_report,
    symmetry_report,
    toda_rhs,
)
from .linalg import (
    ConsistencyError,
    NumericalError,
    char_poly,
    max_abs,
    nan_max,
)
from .roots import (
    _roots_on,
    direction_map,
    half_period_roots,
    order_diagram,
    shifted_table_roots,
    simple_system_check,
    table_supported_roots,
)
from .solutions import (
    _section_from_gamma,
    alcove_coords,
    alcove_to_gamma,
    polytope_contains,
    random_polytope_gamma,
    s_formulas,
)
from .steinberg import calibrate, cross_section_check
from .stokes import (
    StokesParams,
    _stokes_from_normals,
    _stokes_layout,
    build_m0,
    build_q,
    full_monodromy,
    q_family,
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


def _suite_roots(n_plus_1, samples, seed, tol):
    bad = 0
    checks = 0
    slot_dir = direction_map(n_plus_1)
    for ell in range(2 * n_plus_1):
        checks += 1
        if set(_roots_on(slot_dir, ell)) != shifted_table_roots(n_plus_1, ell):
            bad += 1
    diag = order_diagram(n_plus_1)
    head_part, tail_part = diag.simple_roots()
    positive = half_period_roots(n_plus_1)
    cert = simple_system_check(n_plus_1, head_part + tail_part, positive)
    checks += 1
    if not cert.ok:
        bad += 1
    pos = set(positive)
    checks += 1
    if any(diag.is_positive(r) != (r in pos) for r in
           [(i, j) for i in range(n_plus_1) for j in range(n_plus_1) if i != j]):
        bad += 1
    return SuiteResult("roots", n_plus_1, checks, float(bad), bad == 0)


# complex entries in one chunk's largest stack (2 MB): the stokes and
# connections suites check their trials in chunks of about this size, so
# their memory does not grow with the sample count
_CHUNK_ENTRIES = 1 << 17


def _in_chunks(trials, chunk, check):
    """Worst of ``check(start, stop)`` over consecutive chunks of at most
    ``chunk`` trials; an error in a later chunk names its trials."""
    worst = 0.0
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        try:
            worst = nan_max(worst, check(start, stop))
        except (ConsistencyError, NumericalError) as exc:
            if not start:
                raise
            raise type(exc)(
                f"{exc} (in trials {start}..{stop - 1}; member 0 is trial {start})"
            ) from exc
    return worst


def _stokes_trials(layout, z):
    """Worst residual of the stokes suite's trials whose standard normals
    are the rows of ``z``: a trial's complex draw, then its real draw."""
    n1 = layout.n_plus_1
    width = layout.width(real=False)
    p = _stokes_from_normals(layout, z[:, :width], False, 0.7)
    m0 = build_m0(p)
    # the modulus of each scalar: numpy's array modulus of a complex can
    # differ from the scalar one in the last bit
    worst = nan_max(0.0, *(abs(d - 1.0) for d in np.linalg.det(m0.matrix)))
    fam = q_family(n1, *m0.factors)
    # every factor is I + N with N^2 = 0: its inverse is 2I - q
    for ell in range(n1):
        rhs = 2.0 * np.eye(n1) - fam[ell].swapaxes(-1, -2)
        err = np.abs(fam[ell + n1] - rhs).max(axis=(-2, -1))
        err /= np.maximum(1.0, np.abs(rhs).max(axis=(-2, -1)))
        worst = nan_max(worst, *err.tolist())
    # the complex family is freed before the real one is built
    del fam, rhs, m0
    pr = _stokes_from_normals(layout, z[:, width:], True, 0.7)
    fam = q_family(n1, build_q(n1, "head", pr.head_coeffs),
                   build_q(n1, "second", pr.second_coeffs))
    return nan_max(worst, reality_residual(fam))


def _suite_stokes(n_plus_1, samples, seed, tol):
    # each trial draws its complex coefficients, then its real ones, so one
    # draw is split by columns; the trials are checked as sample stacks
    rng = np.random.default_rng([seed, n_plus_1, 1])
    trials = max(1, samples // 5)
    layout = _stokes_layout(n_plus_1)
    z = rng.normal(size=(trials, layout.width(real=False) + layout.width(real=True)))
    chunk = max(1, _CHUNK_ENTRIES // (2 * n_plus_1 ** 3))
    worst = _in_chunks(trials, chunk, lambda a, b: _stokes_trials(layout, z[a:b]))
    checks = trials * (n_plus_1 + 3)
    zero_head = {r: 0.0 for r in table_supported_roots(n_plus_1, "head")}
    zero_second = {r: 0.0 for r in table_supported_roots(n_plus_1, "second")}
    trivial = full_monodromy(build_m0(StokesParams(n_plus_1, zero_head, zero_second)))
    worst = nan_max(worst, max_abs(trivial - np.eye(n_plus_1)))
    checks += 1
    return SuiteResult("stokes", n_plus_1, checks, worst, worst < tol)


def _suite_steinberg(n_plus_1, samples, seed, tol, cal):
    rep = cross_section_check(cal, samples=samples, seed=seed)
    worst = nan_max(rep.section_residual, rep.monodromy_residual)
    # the + 1 is calibrate's integer proof that s(t) is regular and chi exact
    return SuiteResult("steinberg", n_plus_1, 2 * samples + 1, worst, worst < tol)


def _suite_solutions(n_plus_1, samples, seed, tol, cal):
    # the samples as one stack (S, n+1), every function called once on it
    rng = np.random.default_rng([seed, n_plus_1, 3])
    g = random_polytope_gamma(n_plus_1, rng, samples)
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
    checks = 4 * samples
    if n_plus_1 in (4, 5):
        s1, s2 = s_formulas(n_plus_1, g)
        one = np.ones(samples)
        if n_plus_1 == 4:
            closed = np.stack([one, s1, -s2, s1, one], axis=1)
        else:
            closed = np.stack([-one, s1, s2, -s2, -s1, one], axis=1)
        worst = nan_max(worst, *np.max(np.abs(polys - closed), axis=1).tolist())
        checks += samples
    return SuiteResult("solutions", n_plus_1, checks, worst, worst < tol)


def _connection_trials(n_plus_1, u, seed):
    """Worst residual of the connections suite's trials whose uniforms are
    the rows of ``u``, trial t's zeta and lambda samples drawn from
    ``seed + t``; the values are taken in the per-trial loop's order."""
    n1 = n_plus_1
    m = n1 // 2
    trials = len(u)
    # the field: (w_i, x w_x,i) pairs for i < m, mirrored with a sign, then x
    w = np.zeros((trials, n1))
    v = np.zeros((trials, n1))
    w[:, :m] = u[:, 0:2 * m:2]
    v[:, :m] = u[:, 1:2 * m:2]
    w[:, n1 - m:] = -w[:, m - 1::-1]
    v[:, n1 - m:] = -v[:, m - 1::-1]
    f = TodaField(n1, w, np.exp(u[:, 2 * m]), v)
    # then (k_j, c_j) pairs for j <= m, mirrored to n+1-j, then z
    k = np.empty((trials, n1))
    c = np.empty((trials, n1))
    k[:, :m + 1] = u[:, 2 * m + 1:4 * m + 3:2]
    c[:, :m + 1] = u[:, 2 * m + 2:4 * m + 3:2]
    k[:, n1 - m:] = k[:, m:0:-1]
    c[:, n1 - m:] = c[:, m:0:-1]
    d = OmegaHatData(n1, c, k, u[:, -2] + 1j * u[:, -1])

    rep = symmetry_report(f, zeta_samples=5, seed=seed)
    drep = diagonalizer_check(f)
    w_mat = build_W(f)
    comm = np.swapaxes(w_mat, -1, -2) @ w_mat - w_mat @ np.swapaxes(w_mat, -1, -2)
    i = np.arange(n1)
    on_diag = np.zeros_like(comm)
    on_diag[:, i, i] = comm[:, i, i]
    orep = omega_hat_symmetry_report(d, lambda_samples=5, seed=seed)
    res = np.stack([
        rep.cyclic, rep.anti, rep.reality, rep.conj, rep.real_form,
        drep.fourier_residual, drep.w_residual, drep.wt_residual, drep.bridge_residual,
        np.where(drep.pattern_ok, 0.0, 1.0),
        np.max(np.abs(comm - on_diag), axis=(1, 2)),
        np.abs(np.sum(toda_rhs(f), axis=1)),
        orep.cyclic, orep.anti,
    ], axis=1)
    return nan_max(0.0, *res.ravel().tolist())


def _suite_connections(n_plus_1, samples, seed, tol):
    # each trial draws its field, then k and c, then z, a fixed number of
    # uniforms in all, so one draw with per-column bounds is the loop's stream
    rng = np.random.default_rng([seed, n_plus_1, 4])
    trials = max(1, samples // 5)
    m = n_plus_1 // 2
    lows = [-1.0] * (2 * m) + [-0.5] + [-0.5, 0.5] * (m + 1) + [0.5, -1.0]
    highs = [1.0] * (2 * m) + [0.5] + [2.0] * (2 * m + 2) + [2.0, 1.0]
    u = rng.uniform(lows, highs, size=(trials, len(lows)))
    # the largest stack of a chunk is alpha_hat at 30 zetas per trial
    chunk = max(1, _CHUNK_ENTRIES // (30 * n_plus_1 ** 2))
    worst = _in_chunks(trials, chunk,
                       lambda a, b: _connection_trials(n_plus_1, u[a:b], seed + a))
    return SuiteResult("connections", n_plus_1, 13 * trials, worst, worst < tol)


SUITES = {
    "connections": _suite_connections,
    "roots": _suite_roots,
    "solutions": _suite_solutions,
    "steinberg": _suite_steinberg,
    "stokes": _suite_stokes,
}


# the suites that take the size's calibration as a fifth argument
_CALIBRATED = ("solutions", "steinberg")


def _calibration(cals, n_plus_1):
    """``calibrate(n_plus_1)``, built at most once per ``cals`` dict: a size
    whose calibration raised raises the same error again."""
    if n_plus_1 not in cals:
        try:
            cals[n_plus_1] = calibrate(n_plus_1)
        except Exception as exc:  # reported by run_suites for each suite
            cals[n_plus_1] = exc
    if isinstance(cals[n_plus_1], Exception):
        raise cals[n_plus_1]
    return cals[n_plus_1]


def run_suites(
    sizes,
    samples: int = 25,
    seed: int = 0,
    tol: float = 1e-9,
    suites=None,
) -> list[SuiteResult]:
    """Run the named suites (all by default) over the given sizes.

    Results come back sorted by suite name then size.  A suite that raises
    is reported as failed with an infinite residual instead of aborting the
    whole run.  Fewer than one sample or a tolerance that is not positive
    and finite is a ValueError: such a verdict would be vacuous.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not 0 < tol < float("inf"):  # also false for NaN
        raise ValueError(f"tol must be positive and finite, got {tol}")
    names = sorted(SUITES) if suites is None else sorted(suites)
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}; "
                         f"available: {', '.join(sorted(SUITES))}")
    out = []
    cals = {}  # this call's calibrations, each size's built once
    for name in names:
        for n1 in sorted(sizes):
            try:
                args = (n1, samples, seed, tol)
                if name in _CALIBRATED:
                    args += (_calibration(cals, n1),)
                out.append(SUITES[name](*args))
            except Exception as exc:  # suite bug or genuine violation
                out.append(SuiteResult(name, n1, 0, float("inf"), False,
                                       f"{type(exc).__name__}: {exc}"))
    return out
