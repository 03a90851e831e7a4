"""The verify suites' own guards: no vacuous pass for an empty sample, and
no pass for a NaN residual (the builtin max would drop it); the stokes
suite's inverses taken stack by stack."""

import math

import numpy as np
import pytest

from ttstokes import steinberg, verify
from ttstokes.steinberg import calibrate, cross_section_check
from ttstokes.verify import run_suites


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
