"""Connection coefficient matrices: the cyclic matrix W, the loop-algebra
1-form coefficient alpha_hat and its five symmetries, the Fourier-type
diagonalizers with their scalar bridge identities, the asymptotic 1-form
omega_hat, and the Toda right-hand side.

The symmetry identities are stated for 1-forms, so the coefficient-level
checks carry the pullback factors (omega for zeta -> omega*zeta, -1 for
zeta -> -zeta, and the -1/(x^2 zbar^2) Jacobian of the reality involution).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttstokes.connections import (
    OmegaHatData,
    TodaField,
    build_W,
    build_alpha_hat,
    build_omega_hat,
    diagonalizer_check,
    omega_hat_symmetry_report,
    symmetry_report,
    toda_rhs,
)
from ttstokes.linalg import max_abs, omega_pow, shift_matrix
from ttstokes.solutions import gamma_from_k


def random_field(n1, rng, scale=1.0):
    m = n1 // 2
    w = np.zeros(n1)
    v = np.zeros(n1)
    for i in range(m):
        w[i] = rng.uniform(-scale, scale)
        w[n1 - 1 - i] = -w[i]
        v[i] = rng.uniform(-scale, scale)
        v[n1 - 1 - i] = -v[i]
    return TodaField(n1, w, float(np.exp(rng.uniform(-0.5, 0.5))), v)


# ---------------------------------------------------------------------------
# TodaField and W
# ---------------------------------------------------------------------------

def test_toda_field_warns_on_asymmetry():
    with pytest.warns(UserWarning):
        TodaField(4, np.array([1.0, 0, 0, 0]), 1.0, np.zeros(4))


def test_toda_field_rejects_bad_shapes():
    with pytest.raises(ValueError):
        TodaField(4, np.zeros(3), 1.0, np.zeros(4))
    with pytest.raises(ValueError):
        TodaField(4, np.zeros(4), -1.0, np.zeros(4))


def test_build_w_zero_field_is_shift():
    f = TodaField(4, np.zeros(4), 1.0, np.zeros(4))
    np.testing.assert_array_equal(build_W(f), shift_matrix(4))


@pytest.mark.parametrize("n1", range(3, 9))
def test_build_w_conjugation_identity(n1):
    rng = np.random.default_rng(n1)
    f = random_field(n1, rng)
    ew = np.diag(np.exp(f.w))
    ewi = np.diag(np.exp(-f.w))
    expect = ewi @ shift_matrix(n1).astype(complex) @ ew
    assert max_abs(build_W(f) - expect) < 1e-12


@pytest.mark.parametrize("n1", range(3, 9))
def test_build_w_determinant(n1):
    rng = np.random.default_rng(20 + n1)
    det = np.linalg.det(build_W(random_field(n1, rng)))
    assert det == pytest.approx((-1.0) ** (n1 - 1), abs=1e-10)


# ---------------------------------------------------------------------------
# alpha_hat
# ---------------------------------------------------------------------------

def test_alpha_hat_unit_case():
    f = TodaField(4, np.zeros(4), 1.0, np.zeros(4))
    got = build_alpha_hat(f, 1.0)
    pi = shift_matrix(4)
    np.testing.assert_allclose(got, pi - pi.T, atol=1e-14)


def test_alpha_hat_pole_rejected():
    f = TodaField(3, np.zeros(3), 1.0, np.zeros(3))
    with pytest.raises(ValueError):
        build_alpha_hat(f, 0.0)


def test_alpha_hat_assembly():
    rng = np.random.default_rng(3)
    f = random_field(5, rng)
    zeta = 0.7 - 0.4j
    w = build_W(f)
    expect = -w.T / zeta**2 - np.diag(f.xwx).astype(complex) / zeta + f.x**2 * w
    assert max_abs(build_alpha_hat(f, zeta) - expect) < 1e-14


# ---------------------------------------------------------------------------
# the five symmetries
# ---------------------------------------------------------------------------

def test_symmetry_report_zero_field():
    f = TodaField(4, np.zeros(4), 1.0, np.zeros(4))
    rep = symmetry_report(f, zeta_samples=10, seed=0)
    assert rep.passed
    for r in (rep.cyclic, rep.anti, rep.reality, rep.conj, rep.real_form):
        assert r < 1e-13


@pytest.mark.parametrize("n1", range(3, 9))
def test_symmetry_report_random_fields(n1):
    rng = np.random.default_rng(100 + n1)
    for trial in range(5):
        f = random_field(n1, rng)
        rep = symmetry_report(f, zeta_samples=20, seed=trial)
        assert rep.passed, rep


def test_symmetry_report_flags_broken_field():
    w = np.array([0.8, 0.1, 0.0, 0.0])  # deliberately not anti-symmetric
    with pytest.warns(UserWarning):
        f = TodaField(4, w, 1.0, np.zeros(4))
    rep = symmetry_report(f, zeta_samples=10, seed=1)
    assert not rep.passed
    assert rep.anti > 0.1
    assert rep.reality > 0.1
    assert rep.cyclic < 1e-10  # cyclic holds for any diagonal conjugate


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 8), st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
def test_symmetries_hypothesis(n1, a, b):
    w = np.zeros(n1)
    w[0], w[n1 - 1] = a, -a
    if n1 >= 4:
        w[1], w[n1 - 2] = b, -b
    f = TodaField(n1, w, 1.3, np.zeros(n1))
    assert symmetry_report(f, zeta_samples=5, seed=7).passed


# ---------------------------------------------------------------------------
# diagonalizers
# ---------------------------------------------------------------------------

def test_diagonalizer_check_zero_field():
    f = TodaField(4, np.zeros(4), 1.0, np.zeros(4))
    rep = diagonalizer_check(f)
    assert rep.passed
    assert rep.fourier_residual < 1e-13
    assert rep.w_residual < 1e-13
    assert rep.wt_residual < 1e-13
    assert rep.bridge_residual < 1e-13
    assert rep.pattern_ok


@pytest.mark.parametrize("n1", range(3, 9))
def test_diagonalizer_check_random_fields(n1):
    rng = np.random.default_rng(200 + n1)
    rep = diagonalizer_check(random_field(n1, rng))
    assert rep.passed, rep
    assert rep.bridge_residual < 1e-12


def test_bridge_scalars_by_hand():
    # even size: conjugating the signed shift by the inner diagonal gives
    # omega^(-1/2) times the plain shift; odd size uses omega^-(m+1)
    n1 = 4
    d0 = np.diag([omega_pow(n1, i / 2) for i in range(n1)])
    from ttstokes.linalg import signed_shift_matrix
    lhs = d0 @ signed_shift_matrix(n1).astype(complex) @ np.linalg.inv(d0)
    assert max_abs(lhs - omega_pow(n1, -0.5) * shift_matrix(n1)) < 1e-14

    n1 = 5
    mm = n1 // 2
    d0 = np.diag([omega_pow(n1, i * (mm + 1)) for i in range(n1)])
    lhs = d0 @ shift_matrix(n1).astype(complex) @ np.linalg.inv(d0)
    assert max_abs(lhs - omega_pow(n1, -(mm + 1)) * shift_matrix(n1)) < 1e-13


# ---------------------------------------------------------------------------
# omega_hat
# ---------------------------------------------------------------------------

def test_omega_hat_unit_case():
    d = OmegaHatData(4, np.ones(4), np.zeros(4), 1.0 + 0j)
    got = build_omega_hat(d, 1.0)
    np.testing.assert_allclose(got, -shift_matrix(4).T.astype(complex), atol=1e-14)


def test_omega_hat_pole_rejected():
    d = OmegaHatData(4, np.ones(4), np.zeros(4), 1.0 + 0j)
    with pytest.raises(ValueError):
        build_omega_hat(d, 0.0)


def test_omega_hat_m_vector_derived_from_k():
    d = OmegaHatData(4, np.ones(4), np.array([0.0, 1.0, 0.0, 1.0]), 0.5 + 0.1j)
    np.testing.assert_allclose(d.m, [1 / 6, -1 / 6, 1 / 6, -1 / 6], atol=1e-13)
    from ttstokes.solutions import AsymptoticDataK
    g = gamma_from_k(AsymptoticDataK(4, d.k))
    np.testing.assert_allclose(d.m, -g.gamma / 2, atol=1e-14)


def test_omega_hat_data_validation():
    with pytest.raises(ValueError):
        OmegaHatData(4, np.ones(4), np.array([0.0, 1.0, 0.0, 2.0]), 1.0)  # k asymmetric
    with pytest.raises(ValueError):
        OmegaHatData(4, np.array([1.0, -1.0, 1.0, 1.0]), np.zeros(4), 1.0)  # c <= 0
    with pytest.raises(ValueError):
        OmegaHatData(4, np.ones(4), np.zeros(4), 0.0)  # z = 0


@pytest.mark.parametrize("n1", range(3, 9))
def test_omega_hat_symmetries(n1):
    rng = np.random.default_rng(300 + n1)
    k = np.empty(n1)
    c = np.empty(n1)
    k[0], c[0] = rng.uniform(-0.5, 2), rng.uniform(0.5, 2)
    for j in range(1, n1 // 2 + 1):
        k[j] = rng.uniform(-0.5, 2)
        c[j] = rng.uniform(0.5, 2)
        k[(n1 - j) % n1] = k[j]
        c[(n1 - j) % n1] = c[j]
    d = OmegaHatData(n1, c, k, complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)))
    rep = omega_hat_symmetry_report(d, lambda_samples=15, seed=n1)
    assert rep.passed, rep
    assert rep.cyclic < 1e-10 and rep.anti < 1e-10


def test_omega_hat_anti_symmetry_needs_symmetric_c():
    # same k both times; only the residue coefficients change
    d = OmegaHatData(4, np.array([1.0, 2.0, 1.0, 2.0]), np.zeros(4), 1.0 + 0j)
    rep = omega_hat_symmetry_report(d, lambda_samples=10, seed=0)
    assert rep.cyclic < 1e-10
    assert rep.passed

    bad = OmegaHatData(4, np.array([1.0, 2.0, 1.0, 3.0]), np.zeros(4), 1.0 + 0j)
    rep = omega_hat_symmetry_report(bad, lambda_samples=10, seed=0)
    assert rep.cyclic < 1e-10  # cyclic never needs the c symmetry
    assert rep.anti > 0.1
    assert not rep.passed


# ---------------------------------------------------------------------------
# NaN residuals fail (the builtin max drops a NaN that is not its first
# argument, so max(0.0, nan) is 0.0)
# ---------------------------------------------------------------------------

def nan_field():
    with pytest.warns(UserWarning, match="anti-symmetry"):
        return TodaField(3, np.array([np.nan, 0.0, np.nan]), 1.0, np.zeros(3))


@pytest.mark.parametrize("w, xwx", [
    ([np.nan, 0.0, np.nan], [0.0, 0.0, 0.0]),
    ([0.0, 0.0, 0.0], [np.nan, 0.0, np.nan]),
    ([0.0, np.nan, 0.0], [0.0, 0.0, 0.0]),
])
def test_toda_field_warns_on_nan(w, xwx):
    # nan > tol is false, and the builtin max dropped a NaN in second place
    with pytest.warns(UserWarning, match="anti-symmetry"):
        TodaField(3, np.array(w), 1.0, np.array(xwx))


@pytest.mark.parametrize("c, z", [
    ([np.nan, 1.0, 1.0], 1.0 + 0j),
    ([1.0, np.inf, 1.0], 1.0 + 0j),
    ([1.0, 1.0, 1.0], complex(np.nan, 0.0)),
    ([1.0, 1.0, 1.0], complex(1.0, np.inf)),
])
def test_omega_hat_data_rejects_non_finite_c_and_z(c, z):
    with pytest.raises(ValueError):
        OmegaHatData(3, np.array(c), np.zeros(3), z)


def test_symmetry_report_nan_field_fails():
    rep = symmetry_report(nan_field(), zeta_samples=3, seed=0)
    for r in (rep.cyclic, rep.anti, rep.reality, rep.conj, rep.real_form):
        assert np.isnan(r)
    assert not rep.passed


def test_diagonalizer_check_nan_field_fails():
    rep = diagonalizer_check(nan_field())
    assert np.isnan(rep.w_residual) and np.isnan(rep.wt_residual)
    assert not rep.passed


def test_omega_hat_symmetry_report_nan_coefficient_fails():
    # the constructor rejects a NaN coefficient, so it is put in afterwards
    d = OmegaHatData(3, np.ones(3), np.zeros(3), 1.0 + 0j)
    object.__setattr__(d, "c", np.array([np.nan, 1.0, 1.0]))
    rep = omega_hat_symmetry_report(d, lambda_samples=3, seed=0)
    assert np.isnan(rep.cyclic) and np.isnan(rep.anti)
    assert not rep.passed


# ---------------------------------------------------------------------------
# Toda right-hand side
# ---------------------------------------------------------------------------

def test_toda_rhs_zero_field():
    f = TodaField(5, np.zeros(5), 1.0, np.zeros(5))
    np.testing.assert_allclose(toda_rhs(f), np.zeros(5), atol=1e-15)


def test_toda_rhs_explicit_entry():
    a, b = 0.4, -0.3
    f = TodaField(4, np.array([a, b, -b, -a]), 1.0, np.zeros(4))
    rhs = toda_rhs(f)
    assert rhs[0] == pytest.approx(np.exp(4 * a) - np.exp(2 * (b - a)), abs=1e-12)


@pytest.mark.parametrize("n1", range(3, 9))
def test_toda_rhs_commutator_oracle(n1):
    rng = np.random.default_rng(400 + n1)
    f = random_field(n1, rng)
    w = build_W(f)
    comm = w.T @ w - w @ w.T
    # the commutator is diagonal and real
    off = comm - np.diag(np.diag(comm))
    assert max_abs(off) < 1e-12
    np.testing.assert_allclose(toda_rhs(f), np.diag(comm).real, atol=1e-12)
    assert abs(np.sum(toda_rhs(f))) < 1e-12


def test_toda_rhs_formula():
    rng = np.random.default_rng(11)
    f = random_field(6, rng)
    rhs = toda_rhs(f)
    for j in range(6):
        expect = (np.exp(2 * (f.w[j] - f.w[j - 1]))
                  - np.exp(2 * (f.w[(j + 1) % 6] - f.w[j])))
        assert rhs[j] == pytest.approx(expect, abs=1e-12)
