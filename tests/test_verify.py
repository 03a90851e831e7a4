"""The verify suites' own guards: no vacuous pass for an empty sample, size
list or suite list or a tolerance above 1, and no pass for a NaN residual (the builtin max would drop it); the stokes
suite's inverses in closed form, its checks failing on a broken relation
and its building only the generators' directions; the stokes, solutions and
connections suites on one sample stack per size, equal to the per-sample
loops they replaced; the chunks of trials of the stokes, connections,
steinberg and solutions suites, their bounded memory and the notes of
failing trials; one calibration and one read-only set of tables per size for
each run, shared by suites that stay independent."""

import dataclasses
import gc
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from ttstokes import connections, linalg, roots, solutions, steinberg, stokes, verify
from ttstokes.connections import (
    OmegaHatData,
    TodaField,
    _tables,
    build_W,
    diagonalizer_check,
    omega_hat_symmetry_report,
    symmetry_report,
    toda_rhs,
)
from ttstokes.linalg import char_poly, max_abs, nan_max
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
from ttstokes.steinberg import CalibrationError, calibrate, cross_section_check
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


def test_run_suites_rejects_an_empty_size_list():
    # all() of no cells is True: an empty run would read as a pass
    with pytest.raises(ValueError, match="at least one size"):
        run_suites([], samples=5, seed=1)


def test_run_suites_rejects_an_empty_suite_list():
    with pytest.raises(ValueError, match="at least one suite"):
        run_suites([4], samples=5, seed=1, suites=[])


@pytest.mark.parametrize("seed", [-1, -7])
def test_run_suites_rejects_a_negative_seed(seed):
    # no suite's generator takes one: it would fail cells, not the call
    with pytest.raises(ValueError, match="seed must be at least 0"):
        run_suites([4], samples=5, seed=seed)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
def test_run_suites_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol"):
        run_suites([4], samples=5, seed=1, tol=tol)


def test_a_wrong_discrete_fact_fails_at_every_accepted_tolerance(monkeypatch):
    # the solutions suite scores a polytope/alcove disagreement as residual
    # 1, which passes any tolerance above 1, so such a tolerance is refused
    monkeypatch.setattr(verify, "polytope_contains",
                        lambda g: ~alcove_coords(g).in_alcove())
    (res,) = run_suites([5], samples=5, seed=1, tol=1.0, suites=["solutions"])
    assert res.max_residual == 1.0 and not res.passed
    with pytest.raises(ValueError, match="at most 1"):
        run_suites([5], samples=5, seed=1, tol=5.0, suites=["solutions"])


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
    rep = cross_section_check(cal, samples=3, seed=1)
    assert rep.section_residual < 1e-9 and rep.monodromy_residual < 1e-9

    def nan_section(cal, e):
        return np.full((cal.n_plus_1, cal.n_plus_1), np.nan)

    def nan_monodromy(params):
        n1 = params.n_plus_1
        return stokes.MonodromyMatrix(n1, np.full((3, n1, n1), np.nan))

    # the section direction's roundtrip and the monodromy's dense product
    monkeypatch.setattr(steinberg, "reconstruct_from_chi", nan_section)
    monkeypatch.setattr(steinberg, "build_m0", nan_monodromy)
    rep = cross_section_check(cal, samples=3, seed=1)
    assert math.isnan(rep.section_residual)
    assert math.isnan(rep.monodromy_residual)


def test_the_stokes_suite_inverts_no_factor_densely(monkeypatch):
    # every Stokes factor is I + N with N^2 = 0, inverted as 2I - q
    monkeypatch.setattr(np.linalg, "inv", None)
    monkeypatch.setattr(np.linalg, "matrix_power", None)
    res = run_suites([6, 7], samples=10, seed=1, suites=["stokes"])
    assert all(r.passed and r.note == "" for r in res)


def _stokes_cell_with(monkeypatch, n1, layout=None, second=None):
    """The stokes cell at size n1 with the sampler's layout replaced, or with
    ``second(coeffs)`` applied to each draw's second coefficients."""
    from_normals = verify._stokes_from_normals

    def perturbed(*args):
        p = from_normals(*args)
        second(p.second_coeffs)
        return p

    with monkeypatch.context() as m:
        if layout is not None:
            m.setattr(verify, "_stokes_layout", lambda n: layout)
        if second is not None:
            m.setattr(verify, "_stokes_from_normals", perturbed)
        (res,) = run_suites([n1], samples=10, seed=1, suites=["stokes"])
    return res


@pytest.mark.parametrize("n1", [6, 7])
def test_the_stokes_cell_fails_on_a_broken_relation(n1, monkeypatch):
    # exact inverses drive the suite's residuals to zero; the checks still
    # see one sign of the layout flipped or one coefficient moved by 1e-6
    assert _stokes_cell_with(monkeypatch, n1).passed
    layout = stokes._stokes_layout(n1)
    # the last slot whose draw another slot shares
    k = max(k for k, src in enumerate(layout.source)
            if src >= 0 and np.sum(layout.source == src) > 1)
    sign = layout.sign.copy()
    sign[k] = -sign[k]
    res = _stokes_cell_with(monkeypatch, n1, layout=layout._replace(sign=sign))
    assert not res.passed and "transpose-inverse relation fails" in res.note
    root = layout.second[0]

    def nudge(coeffs):
        coeffs[root] = coeffs[root] + 1e-6

    res = _stokes_cell_with(monkeypatch, n1, second=nudge)
    assert not res.passed and "transpose-inverse relation fails" in res.note


def _suite_stokes_loop(size, samples, seed, tol):
    """The stokes suite one trial at a time: the reference for the stacked
    suite."""
    n_plus_1 = size.n_plus_1
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
        rhs = (2 * np.eye(n_plus_1) - stack[:n_plus_1]).transpose(0, 2, 1)
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
    for entries in (1, 3 * 20 * 5 ** 2):
        monkeypatch.setattr(linalg, "_CHUNK_ENTRIES", entries)
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
    monkeypatch.setattr(linalg, "_CHUNK_ENTRIES", 3 * 20 * 4 ** 2)  # 3 trials
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
    for module, name in ((verify, "build_m0"), (verify, "_q_family"),
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
        ["build_m0"] * 6 + ["_q_family"] * 4 + ["reality_residual"] * 2)


def test_the_stokes_cell_builds_only_the_generators_and_their_partners(monkeypatch):
    # every other direction's residual equals its generator's (stokes module
    # docstring), so no (S, 2(n+1), n+1, n+1) family is built
    built = []
    real = stokes._conjugates
    monkeypatch.setattr(stokes, "_conjugates",
                        lambda layout, qs, directions: built.append(
                            (layout.n_plus_1, tuple(directions))) or real(layout, qs, directions))
    assert all(r.passed for r in run_suites([6, 7], samples=50, seed=1, suites=["stokes"]))
    # per size and family, complex then real: the transpose partners that
    # the check needs, then the directions the cell reads (the generators
    # with their transpose partners, or with their reality partners)
    assert built == [(6, (6, 7)), (6, (0, 1, 6, 7)), (6, (6, 7)), (6, (0, 1, 10, 9)),
                     (7, (7, 8)), (7, (0, 1, 7, 8)), (7, (7, 8)), (7, (0, 1, 13, 12))]


def _suite_solutions_loop(size, samples, seed, tol):
    """The solutions suite one sample at a time: the reference for the
    stacked suite."""
    n_plus_1, cal = size.n_plus_1, size.calibrated()
    rng = np.random.default_rng([seed, n_plus_1, 3])
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
        a = solutions._gamma_angles(g)
        expects.append([solutions._gamma_char_coeffs(n_plus_1, a)])
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


@pytest.mark.parametrize("n1", [52, 64])
def test_the_solutions_suite_drawn_chunk_by_chunk_equals_the_per_sample_loop(n1, monkeypatch):
    # 50 samples take two chunks at these sizes, each drawn on its own
    assert linalg._CHUNK_ENTRIES // n1 ** 2 < 50
    chunked = run_suites([n1], samples=50, seed=7, suites=["solutions"])
    monkeypatch.setitem(verify.SUITES, "solutions", _suite_solutions_loop)
    assert chunked == run_suites([n1], samples=50, seed=7, suites=["solutions"])


def test_the_solutions_suite_makes_one_call_per_stack(monkeypatch):
    calls = []

    def counting(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, **k: calls.append(name) or real(*a, **k))

    counting(verify, "random_polytope_gamma")
    counting(solutions, "_gamma_angles")
    counting(solutions, "_gamma_char_coeffs")
    counting(verify, "char_poly")
    (res,) = run_suites([5], samples=10, seed=1, suites=["solutions"])
    assert res.passed and res.checks == 50
    assert sorted(calls) == sorted(
        ["random_polytope_gamma", "_gamma_angles", "_gamma_char_coeffs",
         "char_poly"])


@pytest.mark.parametrize("seed", [1, 7])
def test_the_chunked_cross_section_check_equals_one_block(seed, monkeypatch):
    cals = [calibrate(n1) for n1 in range(3, 9)]
    want = [cross_section_check(cal, samples=50, seed=seed) for cal in cals]
    # one sample per block, then blocks of 3 samples at n+1 = 5
    for entries in (1, 3 * 5 ** 2):
        monkeypatch.setattr(linalg, "_CHUNK_ENTRIES", entries)
        assert [cross_section_check(cal, samples=50, seed=seed) for cal in cals] == want


@pytest.mark.parametrize("seed", [1, 7])
def test_the_chunked_solutions_suite_equals_one_block(seed, monkeypatch):
    sizes = range(3, 9)
    want = run_suites(sizes, samples=50, seed=seed, suites=["solutions"])
    # one sample per block, then blocks of 3 samples at n+1 = 5
    for entries in (1, 3 * 5 ** 2):
        monkeypatch.setattr(linalg, "_CHUNK_ENTRIES", entries)
        got = run_suites(sizes, samples=50, seed=seed, suites=["solutions"])
        assert got == want and _types(got) == _types(want)


@pytest.mark.filterwarnings("ignore:chi applied")
@pytest.mark.parametrize("suite", ["steinberg", "solutions"])
def test_the_calibrated_suites_memory_does_not_grow_with_the_sample_count(suite):
    # 500 and 2000 samples at n+1 = 24, in blocks of 227: as one stack, 2000
    # samples peaked at about 94 MB in the steinberg cell and 30 MB in the
    # solutions cell
    peaks = []
    for samples in (500, 2000):
        tracemalloc.start()
        try:
            (res,) = run_suites([24], samples=samples, seed=1, suites=[suite])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # both cells miss 1e-9 at 24 on char-poly error, but raise nothing
        assert res.note == "" and math.isfinite(res.max_residual)
    assert peaks[1] < 1.25 * peaks[0]


def test_each_size_is_calibrated_once_per_call(monkeypatch):
    calls = []
    real = verify.calibrate
    monkeypatch.setattr(verify, "calibrate", lambda n1: calls.append(n1) or real(n1))
    res = run_suites([4, 5], samples=5, seed=1, suites=["solutions", "steinberg"])
    assert all(r.passed for r in res)
    assert sorted(calls) == [4, 5]
    # nothing outlives the call: the next one calibrates again
    run_suites([4], samples=5, seed=1, suites=["steinberg"])
    assert sorted(calls) == [4, 4, 5]
    # a run without the two suites calibrates nothing
    run_suites([4], samples=5, seed=1, suites=["connections", "roots", "stokes"])
    assert len(calls) == 3


def test_a_failing_calibration_gives_both_cells_its_note(monkeypatch):
    calls = []

    def fail(n1):
        calls.append(n1)
        raise CalibrationError(f"cannot calibrate size {n1}")

    monkeypatch.setattr(verify, "calibrate", fail)
    res = run_suites([4], samples=5, seed=1)
    assert calls == [4]
    for r in res:
        if r.suite in ("solutions", "steinberg"):
            assert r == SuiteResult(r.suite, 4, 0, math.inf, False,
                                    "CalibrationError: cannot calibrate size 4")
        else:
            assert r.passed


def test_each_size_builds_its_tables_once_per_call(monkeypatch):
    calls = {}
    homes = {"_stokes_layout": stokes, "_shift_action": stokes,
             "calibrate": steinberg, "direction_map": roots}
    modules = [m for k, m in sys.modules.items() if k.startswith("ttstokes.")]
    for name, home in homes.items():
        real = getattr(home, name)

        def counted(n1, *a, _n=name, _f=real):
            calls.setdefault(_n, []).append(n1)
            return _f(n1, *a)

        # through every module that binds it
        for mod in modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    sizes = list(range(3, 11))
    res = run_suites(sizes, samples=50, seed=7)
    assert all(r.passed for r in res) and len(res) == 5 * len(sizes)
    # the roots cell reads its positive system off the layout's direction map
    for name in ("_stokes_layout", "_shift_action", "calibrate", "direction_map"):
        assert sorted(calls[name]) == sizes, name
    # the connections and solutions cells read no layout: runs of them alone
    # build none, and only the solutions run calibrates
    calls.clear()
    assert all(r.passed for r in run_suites(sizes, samples=5, seed=7, suites=["connections"]))
    assert calls == {}
    assert all(r.passed for r in run_suites(sizes, samples=5, seed=7, suites=["solutions"]))
    assert calls == {"calibrate": sizes}


@pytest.mark.parametrize("n1", [3, 4, 7, 12])
def test_the_roots_cell_fails_a_diagram_order_off_the_positive_system(n1, monkeypatch):
    # the reversed order negates every simple root and flips every rank
    # comparison, so the simple-system and positive-system checks fail once each
    real = verify.order_diagram
    monkeypatch.setattr(verify, "order_diagram", lambda n: dataclasses.replace(
        real(n), order=real(n).order[::-1]))
    (res,) = run_suites([n1], samples=5, seed=1, suites=["roots"])
    assert (res.max_residual, res.passed, res.checks) == (2.0, False, 2 * n1 + 2)


def test_a_repeated_size_or_suite_runs_once():
    once = run_suites([4], samples=5, seed=1, suites=["roots", "steinberg"])
    assert [(r.suite, r.n_plus_1) for r in once] == [("roots", 4), ("steinberg", 4)]
    assert run_suites([4, 4], samples=5, seed=1, suites=["roots", "steinberg"]) == once
    assert run_suites([4], samples=5, seed=1,
                      suites=["steinberg", "roots", "steinberg"]) == once


def test_a_size_without_tables_fails_each_requested_cell():
    note = "ValueError: need matrix size at least 3, got 2"
    res = run_suites([2], samples=5, seed=1)
    assert res == [SuiteResult(name, 2, 0, math.inf, False, note)
                   for name in sorted(verify.SUITES)]
    assert run_suites([2, 4], samples=5, seed=1, suites=["stokes"])[0].note == note


@pytest.mark.parametrize("seed", [1, 2])
def test_suites_sharing_a_size_stay_independent(seed):
    sizes = range(3, 13)
    alone = [r for name in sorted(verify.SUITES) for n1 in sizes
             for r in run_suites([n1], samples=10, seed=seed, suites=[name])]
    assert run_suites(sizes, samples=10, seed=seed) == alone


def test_one_read_only_size_object_is_shared_by_the_suites_of_a_size(monkeypatch):
    seen = []
    for name, suite in list(verify.SUITES.items()):
        monkeypatch.setitem(verify.SUITES, name, lambda size, *a, _f=suite:
                            seen.append(size) or _f(size, *a))
    assert all(r.passed for r in run_suites([4, 5], samples=5, seed=1))
    assert len(seen) == 10 and len({id(size) for size in seen}) == 2
    for size in seen:
        with pytest.raises(dataclasses.FrozenInstanceError):
            size.layout = None
        values = [*vars(size).values(), *size.layout, *vars(size.calibration).values()]
        arrays = [v for v in values if isinstance(v, np.ndarray)]
        # the layout's seven tables, the calibration's three slot arrays and
        # its three cached section and relabeling constants
        assert len(arrays) == 13
        assert not any(arr.flags.writeable for arr in arrays)


def test_the_stokes_suite_builds_each_factor_stack_once(monkeypatch):
    calls = []
    for module in (stokes, verify):
        real = module.build_q
        monkeypatch.setattr(module, "build_q",
                            lambda *a, _f=real: calls.append(a[1]) or _f(*a))
    (res,) = run_suites([6], samples=50, seed=1, suites=["stokes"])
    assert res.passed
    # the complex stack (build_m0, whose factors feed q_family), the real
    # stack and the trivial monodromy; the even-size sampler builds none
    assert sorted(calls) == ["head"] * 3 + ["second"] * 3


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


def _suite_connections_loop(size, samples, seed, tol):
    """The connections suite one trial at a time: the reference for the
    stacked suite."""
    n_plus_1 = size.n_plus_1
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


def _types(results):
    # verify prints a numpy verdict as a string, so the types must agree too
    return [(type(r.max_residual), type(r.passed)) for r in results]


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_the_stacked_connections_suite_equals_the_per_trial_loop(seed, monkeypatch):
    sizes = range(3, 25)
    with monkeypatch.context() as m:
        m.setitem(verify.SUITES, "connections", _suite_connections_loop)
        want = run_suites(sizes, samples=50, seed=seed, suites=["connections"])
    assert all(r.passed and r.note == "" for r in want)
    # the default chunks (all ten trials in one up to n+1 = 20), then one
    # trial per chunk, then chunks of 3 trials at n+1 = 5
    for entries in (linalg._CHUNK_ENTRIES, 1, 3 * 30 * 5 ** 2):
        monkeypatch.setattr(linalg, "_CHUNK_ENTRIES", entries)
        got = run_suites(sizes, samples=50, seed=seed, suites=["connections"])
        assert got == want and _types(got) == _types(want)


def test_the_connections_suite_memory_does_not_grow_with_the_sample_count():
    # 10 and 200 trials at n+1 = 24, in chunks of 7: a single stack of 200
    # trials would hold an alpha_hat stack of about 55 MB
    peaks = []
    for samples in (50, 1000):
        tracemalloc.start()
        try:
            (res,) = run_suites([24], samples=samples, seed=1, suites=["connections"])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert res.passed
    assert peaks[1] < 1.25 * peaks[0]


def test_the_connections_suite_makes_one_report_call_per_chunk(monkeypatch):
    names = ("_symmetry_report", "_diagonalizer_check", "_omega_hat_symmetry_report",
             "toda_rhs")
    calls = []
    for name in names:
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a, _n=name, _f=real, **k:
                            calls.append(_n) or _f(*a, **k))
    draws, widths = [], []
    real_draws = verify._member_draws
    monkeypatch.setattr(verify, "_member_draws", lambda seed, members, *a:
                        draws.append((members, seed)) or real_draws(seed, members, *a))
    for name in ("_symmetry_report", "_omega_hat_symmetry_report"):
        counted = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda data, u, tau, _f=counted:
                            widths.append(u.shape) or _f(data, u, tau))
    generators = []
    default_rng = np.random.default_rng

    def rng(seed):
        if not isinstance(seed, list):  # not the suite's own generator
            generators.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", rng)
    res = run_suites([6, 24], samples=50, seed=1, suites=["connections"])
    assert all(r.passed for r in res)
    # ten trials: one chunk at n+1 = 6, two (7 + 3 trials) at n+1 = 24
    assert sorted(calls) == sorted(names * 3)
    # a chunk's member k draws from the seed of its trial, seed + start + k,
    # once for both reports: each trial's generator is built once per size
    assert draws == [(10, 1), (7, 1), (3, 8)]
    assert generators == list(range(1, 11)) * 2
    assert widths == [(10, 5, 3), (10, 5, 2), (7, 5, 3), (7, 5, 2), (3, 5, 3), (3, 5, 2)]


def test_a_verify_run_builds_the_connection_tables_once_per_size(monkeypatch):
    built, passed = [], []
    real = verify._tables
    monkeypatch.setattr(verify, "_tables", lambda n1: built.append(real(n1)) or built[-1])
    for name in ("_symmetry_report", "_diagonalizer_check", "_omega_hat_symmetry_report"):
        core = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda data, *a, _f=core:
                            passed.append((data.n_plus_1, a[-1])) or _f(data, *a))
    res = run_suites([6, 24], samples=50, seed=1, suites=["connections"])
    assert all(r.passed for r in res)
    assert [len(t.d) for t in built] == [6, 24]
    # one chunk at n+1 = 6 and two at 24, each core reading its size's tables
    assert len(passed) == 9
    for n1, tables in passed:
        assert tables is built[[6, 24].index(n1)]


def test_no_connection_table_outlives_its_run(monkeypatch):
    refs = []
    real = verify._tables

    def tables(n1):
        out = real(n1)
        refs.append(weakref.ref(out.d))
        return out

    monkeypatch.setattr(verify, "_tables", tables)
    res = run_suites(range(3, 41), samples=10, seed=7, suites=["connections"])
    assert all(r.passed for r in res)
    gc.collect()
    assert len(refs) == 38
    assert all(r() is None for r in refs)


def _assert_same_report(got, want):
    """Every field of ``got`` equals ``want``'s bit for bit, NaN for NaN,
    with the same types."""
    assert type(got) is type(want)
    for name in want.__dataclass_fields__:
        g, w = getattr(got, name), getattr(want, name)
        assert type(g) is type(w), name
        assert np.array_equal(g, w, equal_nan=True), (name, g, w)


@pytest.mark.filterwarnings("ignore:field breaks")
@pytest.mark.parametrize("n1", range(3, 41))
def test_the_shared_draw_equals_the_two_reports_called_apart(n1):
    # the larger stacks hold a field breaking v_i + v_(n-i) = 0, a NaN field
    # and a member with index-asymmetric c, so not every residual is rounding
    rng = np.random.default_rng(700 + n1)
    m = n1 // 2
    for trials in (1, 4, 9):
        w, v = np.zeros((2, trials, n1))
        w[:, :m], v[:, :m] = rng.uniform(-1, 1, (2, trials, m))
        w[:, n1 - m:], v[:, n1 - m:] = -w[:, m - 1::-1], -v[:, m - 1::-1]
        k, c = rng.uniform(0.5, 2, (2, trials, n1))
        # symmetric under j -> n+1-j
        k[:, 1:] = (k[:, 1:] + k[:, :0:-1]) / 2
        c[:, 1:] = (c[:, 1:] + c[:, :0:-1]) / 2
        if trials > 1:
            w[1, 0] += 0.3
            w[-1, m] = np.nan
            c[2, 1] += 0.5
        f = TodaField(n1, w, np.exp(rng.uniform(-0.5, 0.5, trials)), v)
        z = rng.uniform(0.5, 2, trials) + 1j * rng.uniform(-1, 1, trials)
        d = OmegaHatData(n1, c, k, z)
        seed = int(rng.integers(1000))
        rep, orep = verify._connection_reports(f, d, seed, _tables(n1))
        _assert_same_report(rep, symmetry_report(f, 5, seed))
        _assert_same_report(orep, omega_hat_symmetry_report(d, 5, seed))


class _NanUniforms:
    """A generator whose uniforms at the given stream positions are NaN,
    however the stream is cut into draws."""

    def __init__(self, rng, positions):
        self.rng, self.positions, self.drawn = rng, positions, 0

    def uniform(self, low=0.0, high=1.0, size=None):
        u = np.array(self.rng.uniform(low, high, size), dtype=float)
        for at in self.positions:
            if 0 <= at - self.drawn < u.size:
                u.reshape(-1)[at - self.drawn] = np.nan
        self.drawn += u.size
        return u if u.ndim else float(u)


@pytest.mark.filterwarnings("ignore:field breaks")
@pytest.mark.parametrize("n1, trial, column", [(4, 0, 0), (5, 3, 1), (9, 9, 2)])
def test_a_nan_member_fails_the_connections_cell(n1, trial, column, monkeypatch):
    # a NaN in the field (w, x w_x or x) of one trial: no error, a NaN residual
    width = 4 * (n1 // 2) + 5
    default_rng = np.random.default_rng

    def rng(seed):
        if isinstance(seed, list):  # the suite's own generator
            return _NanUniforms(default_rng(seed), [trial * width + column])
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", rng)
    (got,) = run_suites([n1], samples=50, seed=1, suites=["connections"])
    monkeypatch.setitem(verify.SUITES, "connections", _suite_connections_loop)
    (want,) = run_suites([n1], samples=50, seed=1, suites=["connections"])
    for r in (got, want):
        assert not r.passed and math.isnan(r.max_residual)
        assert (r.checks, r.note) == (130, "")
