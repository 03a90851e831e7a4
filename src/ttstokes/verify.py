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
from .linalg import char_poly, max_abs, nan_max, poly_from_roots
from .roots import (
    half_period_roots,
    order_diagram,
    shifted_table_roots,
    simple_system_check,
    supported_roots,
    table_supported_roots,
)
from .solutions import (
    alcove_coords,
    alcove_to_gamma,
    eigenvalues_from_gamma,
    gamma_to_m0,
    polytope_contains,
    random_polytope_gamma,
    s_formulas,
)
from .steinberg import calibrate, cross_section_check, regular_centralizer_dim
from .stokes import (
    build_m0,
    build_q,
    full_monodromy,
    q_family,
    random_stokes_params,
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
    for ell in range(2 * n_plus_1):
        checks += 1
        if set(supported_roots(n_plus_1, ell)) != shifted_table_roots(n_plus_1, ell):
            bad += 1
    diag = order_diagram(n_plus_1)
    head_part, tail_part = diag.simple_roots()
    cert = simple_system_check(n_plus_1, head_part + tail_part)
    checks += 1
    if not cert.ok:
        bad += 1
    pos = set(half_period_roots(n_plus_1))
    checks += 1
    if any(diag.is_positive(r) != (r in pos) for r in
           [(i, j) for i in range(n_plus_1) for j in range(n_plus_1) if i != j]):
        bad += 1
    return SuiteResult("roots", n_plus_1, checks, float(bad), bad == 0)


def _suite_stokes(n_plus_1, samples, seed, tol):
    rng = np.random.default_rng([seed, n_plus_1, 1])
    period = 2 * n_plus_1
    worst = 0.0
    checks = 0
    for trial in range(max(1, samples // 5)):
        p = random_stokes_params(n_plus_1, rng, scale=0.7)
        m0 = build_m0(p)
        worst = nan_max(worst, abs(np.linalg.det(m0.matrix) - 1.0))
        q1 = build_q(n_plus_1, "head", p.head_coeffs)
        q2 = build_q(n_plus_1, "second", p.second_coeffs)
        fam = q_family(n_plus_1, q1, q2)
        stack = np.stack([fam[ell] for ell in range(period)])
        rhs = np.linalg.inv(stack[:n_plus_1]).transpose(0, 2, 1)
        err = np.abs(stack[n_plus_1:] - rhs).max(axis=(1, 2))
        err /= np.maximum(1.0, np.abs(rhs).max(axis=(1, 2)))
        worst = nan_max(worst, *err.tolist())
        pr = random_stokes_params(n_plus_1, rng, real=True, scale=0.7)
        fam_r = q_family(
            n_plus_1,
            build_q(n_plus_1, "head", pr.head_coeffs),
            build_q(n_plus_1, "second", pr.second_coeffs),
        )
        worst = nan_max(worst, reality_residual(fam_r))
        checks += n_plus_1 + 3
    zero_head = {r: 0.0 for r in table_supported_roots(n_plus_1, "head")}
    zero_second = {r: 0.0 for r in table_supported_roots(n_plus_1, "second")}
    from .stokes import StokesParams
    trivial = full_monodromy(build_m0(StokesParams(n_plus_1, zero_head, zero_second)))
    worst = nan_max(worst, max_abs(trivial - np.eye(n_plus_1)))
    checks += 1
    return SuiteResult("stokes", n_plus_1, checks, worst, worst < tol)


def _suite_steinberg(n_plus_1, samples, seed, tol):
    cal = calibrate(n_plus_1)
    rep = cross_section_check(cal, samples=samples, seed=seed)
    worst = nan_max(rep.section_residual, rep.monodromy_residual)
    checks = 2 * samples + 1
    rng = np.random.default_rng([seed, n_plus_1, 2])
    from .steinberg import steinberg_section
    t = rng.normal(size=n_plus_1 - 1) + 1j * rng.normal(size=n_plus_1 - 1)
    if regular_centralizer_dim(steinberg_section(cal, t)) != n_plus_1:
        worst = nan_max(worst, 1.0)
    return SuiteResult("steinberg", n_plus_1, checks, worst, worst < tol)


def _suite_solutions(n_plus_1, samples, seed, tol):
    rng = np.random.default_rng([seed, n_plus_1, 3])
    cal = calibrate(n_plus_1)
    worst = 0.0
    checks = 0
    for _ in range(samples):
        g = random_polytope_gamma(n_plus_1, rng)
        p = alcove_coords(g)
        if polytope_contains(g) != p.in_alcove():
            worst = nan_max(worst, 1.0)
        worst = nan_max(worst, float(np.max(np.abs(alcove_to_gamma(p).gamma - g.gamma))))
        lams = eigenvalues_from_gamma(g)
        worst = nan_max(worst, float(np.max(np.abs(np.abs(lams) - 1.0))))
        m0 = gamma_to_m0(cal, g)
        worst = nan_max(worst, max_abs(char_poly(m0.matrix) - poly_from_roots(lams)))
        if n_plus_1 in (4, 5):
            s1, s2 = s_formulas(n_plus_1, g)
            if n_plus_1 == 4:
                expect = np.array([1.0, s1, -s2, s1, 1.0])
            else:
                expect = np.array([-1.0, s1, s2, -s2, -s1, 1.0])
            worst = nan_max(worst, max_abs(char_poly(m0.matrix) - expect))
            checks += 1
        checks += 4
    return SuiteResult("solutions", n_plus_1, checks, worst, worst < tol)


def _random_field(n_plus_1, rng):
    m = n_plus_1 // 2
    w = np.zeros(n_plus_1)
    v = np.zeros(n_plus_1)
    for i in range(m):
        w[i] = rng.uniform(-1, 1)
        w[n_plus_1 - 1 - i] = -w[i]
        v[i] = rng.uniform(-1, 1)
        v[n_plus_1 - 1 - i] = -v[i]
    return TodaField(n_plus_1, w, float(np.exp(rng.uniform(-0.5, 0.5))), v)


def _suite_connections(n_plus_1, samples, seed, tol):
    rng = np.random.default_rng([seed, n_plus_1, 4])
    worst = 0.0
    checks = 0
    for trial in range(max(1, samples // 5)):
        f = _random_field(n_plus_1, rng)
        rep = symmetry_report(f, zeta_samples=5, seed=seed + trial)
        worst = nan_max(worst, rep.cyclic, rep.anti, rep.reality, rep.conj, rep.real_form)
        drep = diagonalizer_check(f)
        worst = nan_max(worst, drep.fourier_residual, drep.w_residual,
                    drep.wt_residual, drep.bridge_residual)
        if not drep.pattern_ok:
            worst = nan_max(worst, 1.0)
        w = build_W(f)
        comm = w.T @ w - w @ w.T
        worst = nan_max(worst, max_abs(comm - np.diag(np.diag(comm))))
        worst = nan_max(worst, abs(float(np.sum(toda_rhs(f)))))
        k = np.empty(n_plus_1)
        c = np.empty(n_plus_1)
        k[0], c[0] = rng.uniform(-0.5, 2), rng.uniform(0.5, 2)
        for j in range(1, n_plus_1 // 2 + 1):
            k[j] = rng.uniform(-0.5, 2)
            c[j] = rng.uniform(0.5, 2)
            k[(n_plus_1 - j) % n_plus_1] = k[j]
            c[(n_plus_1 - j) % n_plus_1] = c[j]
        d = OmegaHatData(n_plus_1, c, k,
                         complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)))
        orep = omega_hat_symmetry_report(d, lambda_samples=5, seed=seed + trial)
        worst = nan_max(worst, orep.cyclic, orep.anti)
        checks += 13
    return SuiteResult("connections", n_plus_1, checks, worst, worst < tol)


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

    Results come back sorted by suite name then size.  A suite that raises
    is reported as failed with an infinite residual instead of aborting the
    whole run.  Fewer than one sample is a ValueError: a suite that checks
    nothing must not report a pass.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    names = sorted(SUITES) if suites is None else sorted(suites)
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}; "
                         f"available: {', '.join(sorted(SUITES))}")
    out = []
    for name in names:
        for n1 in sorted(sizes):
            try:
                out.append(SUITES[name](n1, samples, seed, tol))
            except Exception as exc:  # suite bug or genuine violation
                out.append(SuiteResult(name, n1, 0, float("inf"), False,
                                       f"{type(exc).__name__}: {exc}"))
    return out
