"""The verify suites' own guards: no vacuous pass for an empty sample, and
no pass for a NaN residual (the builtin max would drop it); the stokes
suite's inverses taken stack by stack; the stokes and solutions suites on
one sample stack per size, equal to the per-sample loops they replaced; the
stokes suite's chunks of trials, its bounded memory and the notes of its
failing trials."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ttstokes import solutions, steinberg, stokes, verify
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
from ttstokes.roots import table_supported_roots
from ttstokes.steinberg import calibrate, cross_section_check
from ttstokes.stokes import (
    StokesParams,
    build_m0,
    build_q,
    full_monodromy,
    q_family,
    random_stokes_params,
    reality_residual,
)
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
    # one stack of both trials: each q_family gate inverts (trials, members,
    # n+1, n+1) once; the transpose-inverse check (n+1 directions) and
    # reality_residual (2(n+1) directions) invert (trials, n+1, n+1) one
    # direction at a time, so neither copies the whole family
    assert dims == [4] + [3] * 6 + [4] + [3] * 12


def _suite_stokes_loop(n_plus_1, samples, seed, tol):
    """The stokes suite one trial at a time: the reference for the stacked
    suite."""
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
    trivial = full_monodromy(build_m0(StokesParams(n_plus_1, zero_head, zero_second)))
    worst = nan_max(worst, max_abs(trivial - np.eye(n_plus_1)))
    checks += 1
    return SuiteResult("stokes", n_plus_1, checks, worst, worst < tol)


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_the_stacked_stokes_suite_equals_the_per_trial_loop(seed, monkeypatch):
    sizes = range(3, 25)
    stacked = run_suites(sizes, samples=50, seed=seed, suites=["stokes"])
    assert all(r.passed and r.note == "" for r in stacked)
    monkeypatch.setitem(verify.SUITES, "stokes", _suite_stokes_loop)
    assert stacked == run_suites(sizes, samples=50, seed=seed, suites=["stokes"])


@pytest.mark.parametrize("seed", [1, 7])
def test_the_chunked_stokes_suite_equals_the_per_trial_loop(seed, monkeypatch):
    sizes = range(3, 13)
    want = run_suites(sizes, samples=50, seed=seed, suites=["stokes"])
    # one trial per chunk, then chunks of 3 trials at n+1 = 5
    for entries in (1, 3 * 2 * 5 ** 3):
        monkeypatch.setattr(verify, "_CHUNK_ENTRIES", entries)
        assert run_suites(sizes, samples=50, seed=seed, suites=["stokes"]) == want
    monkeypatch.setitem(verify.SUITES, "stokes", _suite_stokes_loop)
    assert run_suites(sizes, samples=50, seed=seed, suites=["stokes"]) == want


def test_the_stokes_suite_memory_does_not_grow_with_the_sample_count():
    # 10 and 200 trials at n+1 = 24, in chunks of 4: a single stack of 200
    # trials would hold a complex family of about 110 MB
    peaks = []
    for samples in (50, 1000):
        tracemalloc.start()
        try:
            (res,) = run_suites([24], samples=samples, seed=1, suites=["stokes"])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert res.passed
    assert peaks[1] < 1.25 * peaks[0]


class _NanNormals:
    """A generator whose standard normals at the given stream positions are
    NaN, however the stream is cut into draws."""

    def __init__(self, rng, positions):
        self.rng, self.positions, self.drawn = rng, positions, 0

    def normal(self, size=None):
        z = np.array(self.rng.normal(size=size), dtype=float)
        for at in self.positions:
            if 0 <= at - self.drawn < z.size:
                z.reshape(-1)[at - self.drawn] = np.nan
        self.drawn += z.size
        return z if z.ndim else float(z)


def _stokes_notes(monkeypatch, n1, positions):
    """The stacked and the per-trial stokes suite's results at size n1 when
    the normals at ``positions`` of the stream are NaN."""
    default_rng = np.random.default_rng
    with monkeypatch.context() as m, np.errstate(all="ignore"):
        m.setattr(np.random, "default_rng",
                  lambda seed: _NanNormals(default_rng(seed), positions))
        (got,) = run_suites([n1], samples=50, seed=1, suites=["stokes"])
        m.setitem(verify.SUITES, "stokes", _suite_stokes_loop)
        (want,) = run_suites([n1], samples=50, seed=1, suites=["stokes"])
    assert not got.passed and dataclasses.replace(got, note=want.note) == want
    return got.note, want.note


@pytest.mark.parametrize("n1", [4, 5, 6, 7])
def test_a_failing_trial_gives_the_per_trial_note_naming_its_member(n1, monkeypatch):
    layout = stokes._stokes_layout(n1)
    row = layout.width(real=False) + layout.width(real=True)
    for trial in (0, 3, 9):
        # a NaN in the trial's complex draw fails build_m0, which names it
        got, want = _stokes_notes(monkeypatch, n1, [trial * row])
        assert want.startswith("NumericalError: monodromy determinant")
        assert f" of member {trial} " in got
        assert got.replace(f" of member {trial}", "") == want
        # a NaN in its real draw fails q_family's finiteness gate, unnamed
        got, want = _stokes_notes(monkeypatch, n1, [trial * row + row - 1])
        assert got == want == "ConsistencyError: Stokes factors q1 and q2 must be finite"


def test_a_later_chunk_names_its_trials(monkeypatch):
    layout = stokes._stokes_layout(4)
    row = layout.width(real=False) + layout.width(real=True)
    monkeypatch.setattr(verify, "_CHUNK_ENTRIES", 3 * 2 * 4 ** 3)  # 3 trials
    got, want = _stokes_notes(monkeypatch, 4, [7 * row])
    assert got == want.replace(" is not 1", " of member 1 is not 1") + (
        " (in trials 6..8; member 0 is trial 6)")


def test_the_stacked_suite_reports_the_first_gate_over_all_trials(monkeypatch):
    # trial 1's real draw and trial 2's complex draw are NaN: the per-trial
    # loop meets trial 1's real family first, while the stack runs build_m0
    # over every trial before it builds a real family
    layout = stokes._stokes_layout(4)
    row = layout.width(real=False) + layout.width(real=True)
    got, want = _stokes_notes(monkeypatch, 4, [2 * row - 1, 2 * row])
    assert want == "ConsistencyError: Stokes factors q1 and q2 must be finite"
    assert got == "NumericalError: monodromy determinant (nan+nanj) of member 2 is not 1"


@pytest.mark.parametrize("samples", [10, 50])
def test_the_stokes_and_steinberg_suites_make_one_call_per_stack(samples, monkeypatch):
    calls = []
    for module, name in ((verify, "build_m0"), (verify, "q_family"),
                         (verify, "reality_residual"), (steinberg, "build_m0"),
                         (stokes, "random_stokes_params")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _n=name, _f=real, **k:
                            calls.append(_n) or _f(*a, **k))
    res = run_suites([6, 7], samples=samples, seed=1, suites=["steinberg", "stokes"])
    assert all(r.passed for r in res)
    # per size: the stack and the trivial monodromy, the complex and the
    # real family, one reality check, and the cross-section stack
    assert sorted(calls) == sorted(
        ["build_m0"] * 6 + ["q_family"] * 4 + ["reality_residual"] * 2)


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
