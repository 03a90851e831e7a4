"""The verify suites' own guards: no vacuous pass for an empty sample, and
no pass for a NaN residual (the builtin max would drop it); the stokes
suite's inverses taken stack by stack; the solutions suite on one gamma
stack per size, equal to the per-sample loop it replaced."""

import math

import numpy as np
import pytest

from ttstokes import solutions, steinberg, verify
from ttstokes.linalg import char_poly, max_abs, nan_max, poly_from_roots
from ttstokes.solutions import (
    alcove_coords,
    alcove_to_gamma,
    eigenvalues_from_gamma,
    gamma_to_m0,
    polytope_contains,
    random_polytope_gamma,
    s_formulas,
)
from ttstokes.steinberg import calibrate, cross_section_check
from ttstokes.verify import SuiteResult, run_suites


@pytest.mark.parametrize("samples", [0, -3])
def test_run_suites_rejects_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match="samples"):
        run_suites([4], samples=samples, seed=1)


def test_a_nan_residual_fails_its_cell(monkeypatch):
    (ok,) = run_suites([4], samples=5, seed=1, suites=["stokes"])
    assert ok.passed and ok.max_residual > 0.0
    monkeypatch.setattr(verify, "reality_residual", lambda fam: math.nan)
    (res,) = run_suites([4], samples=5, seed=1, suites=["stokes"])
    assert not res.passed
    assert math.isnan(res.max_residual)
    assert res.note == ""


def test_a_nan_section_residual_fails_the_cross_section_check(monkeypatch):
    cal = calibrate(4)
    assert cross_section_check(cal, samples=3, seed=1).passed

    def nan_section(cal, e):
        return np.full((cal.n_plus_1, cal.n_plus_1), np.nan)

    monkeypatch.setattr(steinberg, "reconstruct_from_chi", nan_section)
    rep = cross_section_check(cal, samples=3, seed=1)
    assert not rep.passed
    assert math.isnan(rep.section_residual)
    assert math.isnan(rep.monodromy_residual)


def test_the_stokes_suite_inverts_each_family_as_one_stack(monkeypatch):
    # at even n+1 the sampler inverts nothing, so every call is the suite's
    dims = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: dims.append(np.ndim(a)) or inv(a))
    (res,) = run_suites([6], samples=10, seed=1, suites=["stokes"])
    assert res.passed
    # two trials, each: two q_family gates, the transpose-inverse check and
    # reality_residual
    assert dims == [3] * 8


def _suite_solutions_loop(n_plus_1, samples, seed, tol):
    """The solutions suite one sample at a time: the reference for the
    stacked suite."""
    rng = np.random.default_rng([seed, n_plus_1, 3])
    cal = calibrate(n_plus_1)
    worst = 0.0
    checks = 0
    m0s, expects = [], []
    for _ in range(samples):
        g = random_polytope_gamma(n_plus_1, rng)
        p = alcove_coords(g)
        if polytope_contains(g) != p.in_alcove():
            worst = nan_max(worst, 1.0)
        worst = nan_max(worst, float(np.max(np.abs(alcove_to_gamma(p).gamma - g.gamma))))
        lams = eigenvalues_from_gamma(g)
        worst = nan_max(worst, float(np.max(np.abs(np.abs(lams) - 1.0))))
        m0s.append(gamma_to_m0(cal, g).matrix)
        expects.append([poly_from_roots(lams)])
        if n_plus_1 in (4, 5):
            s1, s2 = s_formulas(n_plus_1, g)
            if n_plus_1 == 4:
                expects[-1].append(np.array([1.0, s1, -s2, s1, 1.0]))
            else:
                expects[-1].append(np.array([-1.0, s1, s2, -s2, -s1, 1.0]))
            checks += 1
        checks += 4
    polys = [char_poly(m) for m in m0s]
    for poly, row in zip(polys, expects):
        worst = nan_max(worst, *(max_abs(poly - e) for e in row))
    return SuiteResult("solutions", n_plus_1, checks, worst, worst < tol)


@pytest.mark.filterwarnings("ignore:chi applied")
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_the_stacked_solutions_suite_equals_the_per_sample_loop(seed, monkeypatch):
    sizes = range(3, 25)
    stacked = run_suites(sizes, samples=50, seed=seed, suites=["solutions"])
    monkeypatch.setitem(verify.SUITES, "solutions", _suite_solutions_loop)
    assert stacked == run_suites(sizes, samples=50, seed=seed, suites=["solutions"])


def test_the_solutions_suite_makes_one_call_per_stack(monkeypatch):
    calls = []

    def counting(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, **k: calls.append(name) or real(*a, **k))

    counting(verify, "random_polytope_gamma")
    counting(solutions, "eigenvalues_from_gamma")
    counting(solutions, "poly_from_roots")
    counting(verify, "char_poly")
    (res,) = run_suites([5], samples=10, seed=1, suites=["solutions"])
    assert res.passed and res.checks == 50
    assert sorted(calls) == sorted(
        ["random_polytope_gamma", "eigenvalues_from_gamma", "char_poly"]
        + ["poly_from_roots"] * 10)
