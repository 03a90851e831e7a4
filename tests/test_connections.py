"""Connection coefficient matrices: the cyclic matrix W, the loop-algebra
1-form coefficient alpha_hat and its five symmetries, the Fourier-type
diagonalizers with their scalar bridge identities, the asymptotic 1-form
omega_hat, and the Toda right-hand side.

The symmetry identities are stated for 1-forms, so the coefficient-level
checks carry the pullback factors (omega for zeta -> omega*zeta, -1 for
zeta -> -zeta, and the -1/(x^2 zbar^2) Jacobian of the reality involution).
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttstokes.connections import (
    OmegaHatData,
    OmegaHatSymmetryReport,
    SymmetryReport,
    TodaField,
    _alpha_hat_bands,
    _gather,
    _omega_hat_bands,
    _tables,
    _tau_residuals,
    build_W,
    diagonalizer_check,
    omega_hat_symmetry_report,
    symmetry_report,
    toda_rhs,
)
from ttstokes.linalg import (
    max_abs,
    nan_max,
    omega_diag,
    omega_pow,
    rel_residuals,
    shift_matrix,
)
from ttstokes.solutions import gamma_from_k


# the dense builders and index flips that the band stacks replaced, kept as
# the oracles of the bands


def _alpha_hat_stack(f, zetas):
    """alpha_hat at every zeta: (len(zetas), n+1, n+1) for one field, and
    (S, m, n+1, n+1) for a stack, whose ``zetas`` holds m values per member.
    Only the 3(n+1) nonzero entries are computed."""
    z = np.array(zetas, dtype=complex)
    if np.any(z == 0):
        raise ValueError("alpha_hat has a pole at zeta = 0")
    sq = np.power(z, 2)
    n1 = f.n_plus_1
    i = np.arange(n1)
    up = (i + 1) % n1
    w = build_W(f)[..., None, i, up]
    out = np.zeros(z.shape + (n1, n1), dtype=complex)
    out[..., up, i] = -w / sq[..., None]
    out[..., i, i] = -(f.xwx.astype(complex)[..., None, :] / z[..., None])
    out[..., i, up] = f.x2[..., None, None] * w
    return out


def _omega_hat_stack(d, lams):
    """omega_hat at every lambda: (len(lams), n+1, n+1) for one member, and
    (S, m, n+1, n+1) for a stack.  Only the 2(n+1) nonzero entries are
    computed."""
    lam = np.array(lams, dtype=complex)
    if np.any(lam == 0):
        raise ValueError("omega_hat has a pole at lambda = 0")
    n1 = d.n_plus_1
    coef = (-(n1 / np.asarray(d.N))[..., None]
            * (np.asarray(d.z)[..., None] / np.power(lam, 2)))
    p = d.c * np.power(np.asarray(d.z)[..., None], d.k)
    i = np.arange(n1)
    out = np.zeros(lam.shape + (n1, n1), dtype=complex)
    out[..., i, (i - 1) % n1] = coef[..., None] * p[..., None, :]
    out[..., i, i] = d.m.astype(complex)[..., None, :] / lam[..., None]
    return out


def _sigma(mats):
    """-R A^T R for the reversal R, as an index flip."""
    return -np.swapaxes(mats, -1, -2)[..., ::-1, ::-1]


def _creal(mats):
    """R conj(A) R for the reversal R, as an index flip."""
    return np.conj(mats)[..., ::-1, ::-1]


def _dense(bands):
    """The dense matrices of a band stack (..., 2 or 3, n+1): band 0 at
    (j+1, j), band 1 on the diagonal, band 2 at (j, j+1), cyclically."""
    n1 = bands.shape[-1]
    i = np.arange(n1)
    up = (i + 1) % n1
    out = np.zeros(bands.shape[:-2] + (n1, n1), dtype=complex)
    out[..., up, i] = bands[..., 0, :]
    out[..., i, i] = bands[..., 1, :]
    if bands.shape[-2] == 3:
        out[..., i, up] = bands[..., 2, :]
    return out


def build_alpha_hat(f, zeta):
    """alpha_hat at one zeta, from its bands; (S, n+1, n+1) for a stack of
    fields."""
    zetas = [zeta] if f.w.ndim == 1 else [[zeta]] * len(f.w)
    return _dense(_alpha_hat_bands(f, zetas))[..., 0, :, :]


def build_omega_hat(d, lam):
    """omega_hat at one lambda, from its bands; (S, n+1, n+1) for a stack."""
    lams = [lam] if d.c.ndim == 1 else [[lam]] * len(d.c)
    return _dense(_omega_hat_bands(d, lams))[..., 0, :, :]


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


def holds(rep, bound=1e-10):
    """Whether every residual of ``rep`` is below ``bound`` and its pattern
    fact, if it has one, holds: one bool, or one per member of a stack. A
    NaN residual fails."""
    res = [getattr(rep, name) for name in rep.__dataclass_fields__
           if name not in ("n_plus_1", "pattern_ok")]
    return (np.maximum.reduce(res) < bound) & getattr(rep, "pattern_ok", True)


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


_SQRT_MAX = math.sqrt(sys.float_info.max)


@pytest.mark.parametrize("x", [np.inf, np.nan, 1e200, np.float64(1e200), -np.inf,
                               10**400, math.nextafter(_SQRT_MAX, math.inf)])
def test_toda_field_rejects_radius_without_finite_square(x):
    # inf used to reach symmetry_report as a bogus pole at zeta = 0, and
    # 1e200 as a bare OverflowError from x**2
    with pytest.raises(ValueError, match="finite square"):
        TodaField(3, np.zeros(3), x, np.zeros(3))


@pytest.mark.parametrize("x", [1e150, _SQRT_MAX])
def test_toda_field_accepts_radius_with_finite_square(x):
    f = TodaField(3, np.zeros(3), x, np.zeros(3))
    assert np.isfinite(build_alpha_hat(f, 1.0)).all()


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
    for zero in (0, 0.0, 0j, np.complex128(0)):
        with pytest.raises(ValueError, match="alpha_hat has a pole at zeta = 0"):
            build_alpha_hat(f, zero)


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
    assert holds(rep)
    for r in (rep.cyclic, rep.anti, rep.reality, rep.conj, rep.real_form):
        assert r < 1e-13


@pytest.mark.parametrize("n1", range(3, 9))
def test_symmetry_report_random_fields(n1):
    rng = np.random.default_rng(100 + n1)
    for trial in range(5):
        f = random_field(n1, rng)
        rep = symmetry_report(f, zeta_samples=20, seed=trial)
        assert holds(rep), rep


def test_symmetry_report_flags_broken_field():
    w = np.array([0.8, 0.1, 0.0, 0.0])  # deliberately not anti-symmetric
    with pytest.warns(UserWarning):
        f = TodaField(4, w, 1.0, np.zeros(4))
    rep = symmetry_report(f, zeta_samples=10, seed=1)
    assert not holds(rep)
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
    assert holds(symmetry_report(f, zeta_samples=5, seed=7))


# ---------------------------------------------------------------------------
# diagonalizers
# ---------------------------------------------------------------------------

def test_diagonalizer_check_zero_field():
    f = TodaField(4, np.zeros(4), 1.0, np.zeros(4))
    rep = diagonalizer_check(f)
    assert holds(rep)
    assert rep.fourier_residual < 1e-13
    assert rep.w_residual < 1e-13
    assert rep.wt_residual < 1e-13
    assert rep.bridge_residual < 1e-13
    assert rep.pattern_ok


@pytest.mark.parametrize("n1", range(3, 9))
def test_diagonalizer_check_random_fields(n1):
    rng = np.random.default_rng(200 + n1)
    rep = diagonalizer_check(random_field(n1, rng))
    assert holds(rep), rep
    assert rep.bridge_residual < 1e-12


def dense_diagonalizer_residuals(f):
    """w_residual and wt_residual as diagonalizer_check once computed them,
    through dense stacks diag(e^{+-w}) and matmuls: the oracle of its row
    and column scaling."""
    size = _tables(f.n_plus_1)
    i = np.arange(f.n_plus_1)
    ew = np.zeros(f.w.shape + f.w.shape[-1:])
    ewi = np.zeros_like(ew)
    ew[..., i, i] = np.exp(f.w)
    ewi[..., i, i] = np.exp(-f.w)
    p0 = ewi @ size.om @ size.d0
    p0_inv = size.d0_inv_om_inv @ ew
    p_inf = ew @ size.om_inv @ size.d0_inv
    p_inf_inv = size.d0_om @ ewi
    w = build_W(f)
    axes = (-2, -1)
    return (np.max(np.abs(w - p0 @ size.d @ p0_inv), axis=axes),
            np.max(np.abs(np.swapaxes(w, -1, -2) - p_inf @ size.d @ p_inf_inv),
                   axis=axes))


@pytest.mark.parametrize("n1", range(3, 65))
def test_scaling_by_e_w_equals_the_dense_diagonal_products(n1):
    rng = np.random.default_rng(9300 + n1)
    members = [random_field(n1, rng, scale=3.0) for _ in range(10)]
    for f in [members[0], *(_stacked(n1, members[:s]) for s in (1, 3, 10))]:
        rep = diagonalizer_check(f)
        w_res, wt_res = dense_diagonalizer_residuals(f)
        assert np.array_equal(rep.w_residual, w_res)
        assert np.array_equal(rep.wt_residual, wt_res)


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
    for zero in (0, 0.0, 0j, np.complex128(0)):
        with pytest.raises(ValueError, match="omega_hat has a pole at lambda = 0"):
            build_omega_hat(d, zero)


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
    assert holds(rep), rep
    assert rep.cyclic < 1e-10 and rep.anti < 1e-10


def test_omega_hat_anti_symmetry_needs_symmetric_c():
    # same k both times; only the residue coefficients change
    d = OmegaHatData(4, np.array([1.0, 2.0, 1.0, 2.0]), np.zeros(4), 1.0 + 0j)
    rep = omega_hat_symmetry_report(d, lambda_samples=10, seed=0)
    assert rep.cyclic < 1e-10
    assert holds(rep)

    bad = OmegaHatData(4, np.array([1.0, 2.0, 1.0, 3.0]), np.zeros(4), 1.0 + 0j)
    rep = omega_hat_symmetry_report(bad, lambda_samples=10, seed=0)
    assert rep.cyclic < 1e-10  # cyclic never needs the c symmetry
    assert rep.anti > 0.1
    assert not holds(rep)


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


def test_toda_field_warning_names_the_caller():
    with pytest.warns(UserWarning, match="anti-symmetry") as rec:
        TodaField(3, np.array([0.5, 0.0, 0.0]), 1.0, np.zeros(3))
    assert [w.filename for w in rec] == [__file__]


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


def test_diagonalizer_check_nan_field_fails():
    rep = diagonalizer_check(nan_field())
    assert np.isnan(rep.w_residual) and np.isnan(rep.wt_residual)


def test_omega_hat_symmetry_report_nan_coefficient_fails():
    # the constructor rejects a NaN coefficient, so it is put in afterwards
    d = OmegaHatData(3, np.ones(3), np.zeros(3), 1.0 + 0j)
    object.__setattr__(d, "c", np.array([np.nan, 1.0, 1.0]))
    rep = omega_hat_symmetry_report(d, lambda_samples=3, seed=0)
    assert np.isnan(rep.cyclic) and np.isnan(rep.anti)


# ---------------------------------------------------------------------------
# the stacked reports against the per-sample loops they replaced
# ---------------------------------------------------------------------------

def _w_loop(f):
    n1 = f.n_plus_1
    mat = np.zeros((n1, n1), dtype=complex)
    for i in range(n1 - 1):
        mat[i, i + 1] = np.exp(f.w[i + 1] - f.w[i])
    mat[n1 - 1, 0] = np.exp(f.w[0] - f.w[n1 - 1])
    return mat


def _alpha_hat_dense(f, zeta):
    w = _w_loop(f)
    return (-w.T / zeta**2
            - np.diag(f.xwx).astype(complex) / zeta
            + f.x**2 * w)


def _omega_hat_dense(d, lam):
    n1 = d.n_plus_1
    p = d.c * np.power(complex(d.z), d.k)
    eta = np.zeros((n1, n1), dtype=complex)
    eta[0, n1 - 1] = p[0]
    for i in range(1, n1):
        eta[i, i - 1] = p[i]
    return (-(n1 / d.N) * (d.z / lam**2) * eta
            + np.diag(d.m).astype(complex) / lam)


def _tau_dense(n1, mat):
    d = omega_diag(n1)
    return np.linalg.inv(d) @ mat @ d


def _sigma_dense(n1, mat):
    rev = np.eye(n1, dtype=complex)[::-1]
    return -rev @ mat.T @ rev


def _creal_dense(n1, mat):
    rev = np.eye(n1, dtype=complex)[::-1]
    return rev @ np.conj(mat) @ rev


def _rel_dense(lhs, rhs):
    return max_abs(lhs - rhs) / max(1.0, max_abs(rhs))


def _symmetry_report_loop(f, zeta_samples=20, seed=0):
    """The per-sample symmetry_report that the stacked one replaced, kept as
    its reference: one dense alpha_hat per argument, reversal matmuls and
    one diagonal inverse per identity."""
    n1 = f.n_plus_1
    rng = np.random.default_rng(seed)
    om = omega_pow(n1, 1)
    res = np.zeros(5)
    for _ in range(zeta_samples):
        zeta = np.exp(rng.uniform(-1, 1)) * np.exp(2j * np.pi * rng.uniform())
        a = _alpha_hat_dense(f, zeta)
        res[0] = nan_max(res[0], _rel_dense(_tau_dense(n1, a),
                                            om * _alpha_hat_dense(f, om * zeta)))
        res[1] = nan_max(res[1], _rel_dense(_sigma_dense(n1, a),
                                            -_alpha_hat_dense(f, -zeta)))
        zc = np.conj(zeta)
        res[2] = nan_max(res[2], _rel_dense(
            _creal_dense(n1, a),
            -_alpha_hat_dense(f, 1.0 / (f.x**2 * zc)) / (f.x**2 * zc**2)))
        res[3] = nan_max(res[3], _rel_dense(np.conj(_alpha_hat_dense(f, zc)), a))
        circle = np.exp(2j * np.pi * rng.uniform()) / f.x
        b = 1j * circle * _alpha_hat_dense(f, circle)
        res[4] = nan_max(res[4], _rel_dense(_creal_dense(n1, b), b))
    return SymmetryReport(n1, *res)


def _omega_hat_report_loop(d, lambda_samples=20, seed=0):
    """The per-sample omega_hat_symmetry_report, kept as its reference."""
    n1 = d.n_plus_1
    rng = np.random.default_rng(seed)
    om = omega_pow(n1, 1)
    r_cyc = 0.0
    r_anti = 0.0
    for _ in range(lambda_samples):
        lam = np.exp(rng.uniform(-1, 1)) * np.exp(2j * np.pi * rng.uniform())
        fmat = _omega_hat_dense(d, lam)
        r_cyc = nan_max(r_cyc, _rel_dense(_tau_dense(n1, fmat),
                                          om * _omega_hat_dense(d, om * lam)))
        r_anti = nan_max(r_anti, _rel_dense(_sigma_dense(n1, fmat),
                                            -_omega_hat_dense(d, -lam)))
    return OmegaHatSymmetryReport(n1, r_cyc, r_anti)


def _assert_reports_identical(got, expect):
    assert type(got) is type(expect)
    for name in got.__dataclass_fields__:
        g, e = getattr(got, name), getattr(expect, name)
        assert type(g) is type(e), name
        assert g == e or (np.isnan(g) and np.isnan(e)), (name, g, e)


def _field_variants(n1, rng):
    """A symmetric field, one breaking v_i + v_(n-i) = 0, and one with a
    NaN value."""
    f = random_field(n1, rng)
    w_asym = f.w.copy()
    w_asym[0] += 0.3
    w_nan = f.w.copy()
    w_nan[n1 // 2] = np.nan
    with pytest.warns(UserWarning):
        asym = TodaField(n1, w_asym, f.x, f.xwx)
    with pytest.warns(UserWarning):
        nanf = TodaField(n1, w_nan, f.x, f.xwx)
    return f, asym, nanf


def _omega_variants(n1, rng):
    """Index-symmetric c, asymmetric c, and a NaN coefficient."""
    k = np.empty(n1)
    c = np.empty(n1)
    k[0], c[0] = rng.uniform(-0.5, 2), rng.uniform(0.5, 2)
    for j in range(1, n1 // 2 + 1):
        k[j] = rng.uniform(-0.5, 2)
        c[j] = rng.uniform(0.5, 2)
        k[(n1 - j) % n1] = k[j]
        c[(n1 - j) % n1] = c[j]
    z = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
    c_asym = c.copy()
    c_asym[1] += 0.5
    nand = OmegaHatData(n1, c, k, z)
    object.__setattr__(nand, "c", np.where(np.arange(n1) == 1, np.nan, c))
    return OmegaHatData(n1, c, k, z), OmegaHatData(n1, c_asym, k, z), nand


@pytest.mark.parametrize("n1", [*range(3, 41), 41, 48, 57, 64])
def test_stacked_reports_equal_the_sample_loops(n1):
    rng = np.random.default_rng(5000 + n1)
    fields = _field_variants(n1, rng)
    datas = _omega_variants(n1, rng)
    for samples, seed in ((1, n1), (5, 2 * n1 + 1), (20, 3 * n1 + 2)):
        for f in fields:
            _assert_reports_identical(symmetry_report(f, samples, seed),
                                      _symmetry_report_loop(f, samples, seed))
        for d in datas:
            _assert_reports_identical(omega_hat_symmetry_report(d, samples, seed),
                                      _omega_hat_report_loop(d, samples, seed))


def test_loop_equality_covers_failing_and_nan_reports():
    rng = np.random.default_rng(5004)
    sym, asym, nanf = _field_variants(4, rng)
    assert holds(symmetry_report(sym, 5, 0))
    assert not holds(symmetry_report(asym, 5, 0))
    assert np.isnan(symmetry_report(nanf, 5, 0).cyclic)
    osym, oasym, onan = _omega_variants(4, rng)
    assert holds(omega_hat_symmetry_report(osym, 5, 0))
    assert not holds(omega_hat_symmetry_report(oasym, 5, 0))
    assert np.isnan(omega_hat_symmetry_report(onan, 5, 0).cyclic)


@pytest.mark.parametrize("n1", range(3, 65))
def test_build_w_equals_the_entry_loop(n1):
    rng = np.random.default_rng(6000 + n1)
    for scale in (1.0, 30.0, 1e3):
        w = rng.uniform(-scale, scale, n1)
        # e^{|w| ~ 1e3} is inf in the field's band and in the loop
        with pytest.warns(UserWarning), np.errstate(over="ignore"):
            f = TodaField(n1, w, 1.0, np.zeros(n1))
            assert np.array_equal(build_W(f), _w_loop(f))


@pytest.mark.parametrize("zeta", [0.7 - 0.4j, 1.0, 2, np.complex128(0.3 + 1j), -1.5])
def test_single_builders_equal_the_dense_formulas(zeta):
    rng = np.random.default_rng(7)
    f = random_field(6, rng)
    d = _omega_variants(6, rng)[0]
    assert np.array_equal(build_alpha_hat(f, zeta), _alpha_hat_dense(f, zeta))
    # the builder takes its lambdas as a complex128 array, so z / lambda^2 is
    # numpy's division, as at every sample a report draws; Python's own
    # complex division rounds differently
    assert np.array_equal(build_omega_hat(d, zeta),
                          _omega_hat_dense(d, np.complex128(zeta)))


@pytest.mark.parametrize("n1", [3, 4, 7, 12])
def test_the_alpha_hat_stack_scatters_the_dense_formula(n1):
    f = random_field(n1, np.random.default_rng(40 + n1))
    zetas = [0.7 - 0.4j, 1.0, 2, np.complex128(0.3 + 1j), -1.5]
    stack = _alpha_hat_stack(f, zetas)
    assert stack.shape == (5, n1, n1)
    for a, zeta in zip(stack, zetas):
        assert np.array_equal(a, _alpha_hat_dense(f, zeta))
        assert np.count_nonzero(a) <= 3 * n1


@pytest.mark.filterwarnings("ignore:field breaks")
@pytest.mark.parametrize("n1", [3, 4, 5, 8, 11, 16, 33, 64])
def test_the_band_stacks_scatter_to_the_dense_stacks(n1):
    rng = np.random.default_rng(8500 + n1)
    zetas = [0.7 - 0.4j, 1.0, 2, np.complex128(0.3 + 1j), -1.5]
    for f in _field_variants(n1, rng):
        bands = _alpha_hat_bands(f, zetas)
        assert bands.shape == (5, 3, n1)
        assert np.array_equal(_dense(bands), _alpha_hat_stack(f, zetas), equal_nan=True)
    f = _stacked(n1, _member_fields(n1, rng, 5))
    zs = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    assert np.array_equal(_dense(_alpha_hat_bands(f, zs)), _alpha_hat_stack(f, zs),
                          equal_nan=True)
    for d in _omega_variants(n1, rng):
        bands = _omega_hat_bands(d, zetas)
        assert bands.shape == (5, 2, n1)
        assert np.array_equal(_dense(bands), _omega_hat_stack(d, zetas), equal_nan=True)
    d = _stacked_data(n1, _member_datas(n1, rng, 5))
    assert np.array_equal(_dense(_omega_hat_bands(d, zs)), _omega_hat_stack(d, zs))


@pytest.mark.parametrize("n1", [3, 4, 7, 12, 25, 64])
def test_the_band_gathers_equal_the_index_flips(n1):
    rng = np.random.default_rng(8600 + n1)
    tables = _tables(n1)
    bands = rng.normal(size=(4, 3, 3, n1)) + 1j * rng.normal(size=(4, 3, 3, n1))
    for k in (2, 3):
        assert np.array_equal(_dense(-_gather(bands[..., :k, :], tables.transposed)),
                              _sigma(_dense(bands[..., :k, :])))
    assert np.array_equal(_dense(np.conj(_gather(bands, tables.reversed))),
                          _creal(_dense(bands)))
    # R A R swaps the off-diagonal bands, which a two-band stack lacks
    with pytest.raises(IndexError):
        _gather(bands[..., :2, :], tables.reversed)


@pytest.mark.parametrize("n1", [3, 4, 7, 12, 25, 64])
def test_the_tau_residuals_equal_the_dense_ones(n1):
    rng = np.random.default_rng(8700 + n1)
    tables = _tables(n1)
    d = omega_diag(n1)
    for k in (2, 3):
        a, rhs = rng.normal(size=(2, 6, 2, k, n1)) + 1j * rng.normal(size=(2, 6, 2, k, n1))
        a[1, 0, 0, 1] = np.nan
        rhs[2, 1, k - 1, 0] = np.inf
        rhs[3, 0] = 0.0
        with np.errstate(invalid="ignore"):  # inf / inf
            want = rel_residuals(np.linalg.inv(d) @ _dense(a) @ d, _dense(rhs))
            got = _tau_residuals(a, rhs, tables)
        assert got.shape == (6, 2)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[1, 0]) and not np.isnan(got[0, 0])


def test_the_tables_are_read_only():
    # that a verify run builds them once per size is tested in test_verify
    arrays = [a for a in _tables(9) if isinstance(a, np.ndarray)]
    assert len(arrays) == 11
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 1


@pytest.mark.parametrize("n1", [0, 1, 2])
def test_sizes_below_three_are_rejected(n1):
    # at n+1 = 2 the two off-diagonal bands are the same two entries, so a
    # dense alpha_hat would get -zeta^-2 W^T overwritten by x^2 W
    with pytest.raises(ValueError, match=f"need matrix size at least 3, got {n1}"):
        TodaField(n1, np.zeros(n1), 1.0, np.zeros(n1))
    with pytest.raises(ValueError, match=f"need matrix size at least 3, got {n1}"):
        OmegaHatData(n1, np.ones(n1), np.zeros(n1), 1.0 + 0j)


def _dense_commutator(f):
    """[W^T, W] of the dense W, of one field or of each member of a stack."""
    w = build_W(f)
    wt = np.swapaxes(w, -1, -2)
    return wt @ w - w @ wt


@pytest.mark.parametrize("n1", range(3, 65))
def test_toda_rhs_is_the_diagonal_of_the_dense_commutator(n1):
    rng = np.random.default_rng(8800 + n1)
    members = [random_field(n1, rng) for _ in range(4)]
    off = ~np.eye(n1, dtype=bool)
    for f in [*members, _stacked(n1, members)]:
        comm = _dense_commutator(f)
        diag = np.diagonal(comm, axis1=-2, axis2=-1)
        rhs = toda_rhs(f)
        assert rhs.dtype == float and rhs.shape == f.w.shape and rhs.flags.c_contiguous
        assert np.array_equal(rhs, diag.real) and not np.any(diag.imag)
        # one nonzero per row and column of W: every off-diagonal term has a
        # factor that is exactly 0
        assert np.all(comm[..., off] == 0.0)


@pytest.mark.parametrize("n1", [4, 5, 8, 13, 64])
def test_toda_rhs_is_infinite_where_an_entry_of_w_overflows(n1):
    # w_0 = -800 = -w_n: a_0 = a_(n-1) = e^800 is inf and a_n = e^-1600 is 0
    w = np.zeros(n1)
    w[0], w[-1] = -800.0, 800.0
    with np.errstate(over="ignore"):
        f = TodaField(n1, w, 1.0, np.zeros(n1))
    want = np.zeros(n1)
    want[[0, 1, n1 - 2, n1 - 1]] = [-np.inf, np.inf, -np.inf, np.inf]
    assert np.array_equal(toda_rhs(f), want)
    # the dense product meets inf * 0 there and gives NaN, elsewhere the same
    with np.errstate(invalid="ignore"):
        dense = np.diagonal(_dense_commutator(f)).real
    assert np.all(np.isnan(dense) | (dense == want))


@pytest.mark.filterwarnings("ignore:field breaks")
@pytest.mark.parametrize("n1", [3, 4, 7, 16])
def test_toda_rhs_spreads_a_nan_value_to_its_three_entries(n1):
    rng = np.random.default_rng(8900 + n1)
    members = [random_field(n1, rng) for _ in range(n1)]
    for j, f in enumerate(members):
        f.w[j] = np.nan
        members[j] = TodaField(n1, f.w, f.x, f.xwx)
    for f in [*members, _stacked(n1, members)]:
        rhs = toda_rhs(f)
        assert np.array_equal(rhs, np.diagonal(_dense_commutator(f), axis1=-2,
                                               axis2=-1).real, equal_nan=True)
    # member j's NaN w_j reaches a_(j-1) and a_j, so entries j-1, j and j+1
    for j, row in enumerate(rhs):
        want = np.zeros(n1, dtype=bool)
        want[[(j - 1) % n1, j, (j + 1) % n1]] = True
        assert np.array_equal(np.isnan(row), want)


@pytest.mark.parametrize("samples", [0, -1])
def test_reports_refuse_fewer_than_one_sample(samples):
    f = TodaField(3, np.zeros(3), 1.0, np.zeros(3))
    d = OmegaHatData(3, np.ones(3), np.zeros(3), 1.0 + 0j)
    with pytest.raises(ValueError, match="at least one sample"):
        symmetry_report(f, zeta_samples=samples)
    with pytest.raises(ValueError, match="at least one sample"):
        omega_hat_symmetry_report(d, lambda_samples=samples)


@pytest.mark.parametrize("n1", [3, 4, 7, 12, 25])
def test_index_flips_equal_the_reversal_products(n1):
    rng = np.random.default_rng(8000 + n1)
    stack = rng.normal(size=(9, n1, n1)) + 1j * rng.normal(size=(9, n1, n1))
    sig = _sigma(stack)
    cre = _creal(stack)
    for j, mat in enumerate(stack):
        assert np.array_equal(sig[j], _sigma_dense(n1, mat))
        assert np.array_equal(cre[j], _creal_dense(n1, mat))


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


# ---------------------------------------------------------------------------
# stacks of fields and of omega_hat data against their member calls
# ---------------------------------------------------------------------------

def _stacked(n1, members):
    """The TodaField stack of the given member fields."""
    return TodaField(n1, np.stack([f.w for f in members]),
                     np.array([f.x for f in members]),
                     np.stack([f.xwx for f in members]))


def _stacked_data(n1, members):
    """The OmegaHatData stack of the given members."""
    return OmegaHatData(n1, np.stack([d.c for d in members]),
                        np.stack([d.k for d in members]),
                        np.array([d.z for d in members]))


def _member_fields(n1, rng, size):
    """``size`` symmetric fields, with member 1 asymmetric and member 3 NaN
    when there are that many."""
    fields = [random_field(n1, rng) for _ in range(size)]
    if size > 3:
        _, fields[1], fields[3] = _field_variants(n1, rng)
    return fields


def _member_datas(n1, rng, size):
    """``size`` index-symmetric data, member 1 with asymmetric c when there
    are that many."""
    datas = [_omega_variants(n1, rng)[0] for _ in range(size)]
    if size > 1:
        datas[1] = _omega_variants(n1, rng)[1]
    return datas


def _assert_member(stacked, j, single):
    """Member j of a stacked report equals the member's own report, bit for
    bit and with the types one member's report has always had."""
    assert type(stacked) is type(single)
    for name in single.__dataclass_fields__:
        g, e = getattr(stacked, name), getattr(single, name)
        if name != "n_plus_1":
            assert isinstance(g, np.ndarray) and g.shape == (len(g),), name
            g = g[j]
        assert g == e or (np.isnan(g) and np.isnan(e)), (name, j, g, e)


@pytest.mark.filterwarnings("ignore:field breaks")
@pytest.mark.parametrize("n1", range(3, 41))
def test_stacked_calls_equal_the_member_calls(n1):
    rng = np.random.default_rng(9000 + n1)
    for size in (1, 5, 50):
        fields = _member_fields(n1, rng, size)
        datas = _member_datas(n1, rng, size)
        f, d = _stacked(n1, fields), _stacked_data(n1, datas)
        seed = int(rng.integers(1000))
        zeta = complex(*rng.normal(size=2))
        rep = symmetry_report(f, zeta_samples=5, seed=seed)
        drep = diagonalizer_check(f)
        orep = omega_hat_symmetry_report(d, lambda_samples=5, seed=seed)
        w, rhs, alpha = build_W(f), toda_rhs(f), build_alpha_hat(f, zeta)
        omega = build_omega_hat(d, zeta)
        assert w.shape == alpha.shape == omega.shape == (size, n1, n1)
        assert rhs.shape == d.m.shape == (size, n1) and d.N.shape == (size,)
        for j, (fj, dj) in enumerate(zip(fields, datas)):
            _assert_member(rep, j, symmetry_report(fj, zeta_samples=5, seed=seed + j))
            _assert_member(drep, j, diagonalizer_check(fj))
            _assert_member(orep, j, omega_hat_symmetry_report(dj, lambda_samples=5,
                                                              seed=seed + j))
            assert np.array_equal(w[j], build_W(fj), equal_nan=True)
            assert np.array_equal(rhs[j], toda_rhs(fj), equal_nan=True)
            assert np.array_equal(alpha[j], build_alpha_hat(fj, zeta), equal_nan=True)
            assert np.array_equal(omega[j], build_omega_hat(dj, zeta))
            assert np.array_equal(d.m[j], dj.m) and d.N[j] == dj.N
            assert f.x[j] == fj.x and d.z[j] == dj.z


@pytest.mark.filterwarnings("ignore:field breaks")
def test_stacked_reports_fail_only_their_broken_members():
    rng = np.random.default_rng(9100)
    f = _stacked(5, _member_fields(5, rng, 5))
    rep = symmetry_report(f, zeta_samples=5, seed=3)
    assert holds(rep).tolist() == [True, False, True, False, True]
    assert np.isnan(rep.cyclic).tolist() == [False, False, False, True, False]
    drep = diagonalizer_check(f)
    assert holds(drep).tolist() == [True, True, True, False, True]
    assert drep.pattern_ok.tolist() == [True] * 5
    orep = omega_hat_symmetry_report(_stacked_data(5, _member_datas(5, rng, 3)), 5, 3)
    assert holds(orep).tolist() == [True, False, True]


def test_a_stack_warns_once_per_breaking_member_in_member_order():
    w = np.zeros((4, 4))
    w[2, 0] = 0.5
    v = np.zeros((4, 4))
    v[3, 1] = np.nan
    with pytest.warns(UserWarning) as rec:
        TodaField(4, w, np.ones(4), v)
    tail = "; anti-symmetry and reality identities will fail"
    assert [str(r.message) for r in rec] == [
        "field breaks v_i + v_(n-i) = 0 by 5.000e-01 (member 2)" + tail,
        "field breaks v_i + v_(n-i) = 0 by nan (member 3)" + tail,
    ]
    # one field keeps the text it always had
    with pytest.warns(UserWarning) as rec:
        TodaField(4, w[2], 1.0, v[2])
    assert [str(r.message) for r in rec] == [
        "field breaks v_i + v_(n-i) = 0 by 5.000e-01" + tail]


@pytest.mark.parametrize("w, x, xwx, match", [
    (np.zeros((2, 4)), 1.0, np.zeros((2, 4)), "one radius per member"),
    (np.zeros((2, 4)), np.ones(3), np.zeros((2, 4)), "one radius per member"),
    (np.zeros(4), np.ones(1), np.zeros(4), "one radius per member"),
    (np.zeros((2, 4)), np.ones(2), np.zeros(4), "length n_plus_1"),
    (np.zeros((2, 3)), np.ones(2), np.zeros((2, 3)), "length n_plus_1"),
    (np.zeros((1, 2, 4)), np.ones((1, 2)), np.zeros((1, 2, 4)), "length n_plus_1"),
    (np.zeros((3, 4)), np.array([1.0, 2.0, np.inf]), np.zeros((3, 4)),
     r"finite square, got inf \(member 2\)"),
    (np.zeros((3, 4)), np.array([1.0, -2.0, 0.0]), np.zeros((3, 4)),
     r"got -2.0 \(member 1\)"),
])
def test_toda_field_stack_shape_and_radius_errors(w, x, xwx, match):
    with pytest.raises(ValueError, match=match):
        TodaField(4, w, x, xwx)


@pytest.mark.parametrize("c, k, z, match", [
    (np.ones((2, 4)), np.zeros((2, 4)), 1.0, "one value per member"),
    (np.ones((2, 4)), np.zeros((2, 4)), np.ones(3), "one value per member"),
    (np.ones((2, 4)), np.zeros(4), np.ones(2), "does not match"),
    (np.ones((2, 3)), np.zeros((2, 4)), np.ones(2), "length n_plus_1"),
    (np.array([[1.0] * 4, [1.0, 0.0, 1.0, 1.0]]), np.zeros((2, 4)), np.ones(2),
     r"finite and positive \(member 1\)"),
    (np.ones((3, 4)), np.zeros((3, 4)), np.array([1.0, 0.0, 1.0]),
     r"finite and nonzero \(member 1\)"),
    (np.ones((2, 4)), np.array([[0.0] * 4, [0.0, 1.0, 0.0, 2.0]]), np.ones(2),
     r"k\[1\] != k\[3\] breaks the required symmetry \(member 1\)"),
    (np.ones((2, 4)), np.array([[0.0] * 4, [0.0, -2.0, 0.0, -2.0]]), np.ones(2),
     r"finite and >= -1 \(member 1\)"),
])
def test_omega_hat_data_stack_errors_name_the_member(c, k, z, match):
    with pytest.raises(ValueError, match=match):
        OmegaHatData(4, c, k, z)
