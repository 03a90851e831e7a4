"""Stokes factor patterns, the cyclic family of Stokes matrices, and the
fundamental monodromy.

Reference fixtures for sizes 4 and 5 come from ttstokes.reference, which was
transcribed by hand. Random-family tests draw from the constrained sampler,
since generic unconstrained coefficients would violate the family's own
transpose-inverse relation.
"""

import numpy as np
import pytest

from ttstokes import reference as ref
from ttstokes.linalg import (
    ConsistencyError,
    Tolerance,
    cyclic_for,
    match_multisets,
    eigenvalues,
    omega_pow,
    shift_matrix,
    signed_shift_matrix,
)
from ttstokes.roots import supported_roots, table_supported_roots
from ttstokes.stokes import (
    StokesParams,
    build_m0,
    build_q,
    full_monodromy,
    q_family,
    q_pattern,
    random_stokes_params,
    reality_residual,
)


def params_4(s1, s2):
    return StokesParams(
        4,
        {(1, 0): -s1, (2, 3): s1},
        {(1, 3): -s2},
    )


def params_5(s1, s2):
    return StokesParams(
        5,
        {(2, 0): s2, (3, 4): -s1},
        {(1, 0): s1, (2, 4): -s2},
    )


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------

def test_q_pattern_4_head():
    expect = np.eye(4, dtype=bool)
    expect[1, 0] = expect[2, 3] = True
    assert np.array_equal(q_pattern(4, 0), expect)


def test_q_pattern_5_second():
    expect = np.eye(5, dtype=bool)
    expect[1, 0] = expect[2, 4] = True
    assert np.array_equal(q_pattern(5, 1), expect)


@pytest.mark.parametrize("n1", range(3, 13))
def test_q_pattern_matches_supported_roots(n1):
    for ell in range(2 * n1):
        pat = q_pattern(n1, ell)
        slots = {(i, j) for i in range(n1) for j in range(n1) if i != j and pat[i, j]}
        assert slots == set(supported_roots(n1, ell))
        assert all(pat[i, i] for i in range(n1))


def _q_pattern_scalar(n_plus_1, ell):
    """The entry-by-entry double loop that computed q_pattern before it was
    vectorized, kept as its reference. The powers of omega come from
    omega_pow once per size instead of twice per entry, which only saves
    time: the values are the same."""
    pat = np.eye(n_plus_1, dtype=bool)
    if n_plus_1 % 2 == 0:
        ang = (n_plus_1 - 1 - ell) * np.pi / n_plus_1
    else:
        ang = (2 * n_plus_1 - 1 - 2 * ell) * np.pi / (2 * n_plus_1)
    target = complex(np.cos(ang), np.sin(ang))
    om = [omega_pow(n_plus_1, k) for k in range(n_plus_1)]
    for i in range(n_plus_1):
        for j in range(n_plus_1):
            if i == j:
                continue
            z = om[i] - om[j]
            if abs(z / abs(z) - target) < 1e-9:
                pat[i, j] = True
    return pat


@pytest.mark.parametrize("n1", range(3, 65))
def test_q_pattern_matches_scalar_reference(n1):
    for ell in range(2 * n1):
        assert np.array_equal(q_pattern(n1, ell), _q_pattern_scalar(n1, ell))


def test_q_pattern_returns_a_fresh_writable_bool_array():
    a = q_pattern(6, 0)
    b = q_pattern(6, 0)
    assert a.dtype == bool and a.shape == (6, 6)
    assert a.flags.writeable and not np.shares_memory(a, b)
    a[:] = False
    assert np.array_equal(q_pattern(6, 0), b) and b.any()


# ---------------------------------------------------------------------------
# building the factors and the monodromy
# ---------------------------------------------------------------------------

def test_build_q_reference_4():
    s1, s2 = 0.7, -0.4
    p = params_4(s1, s2)
    np.testing.assert_allclose(build_q(4, "head", p.head_coeffs), ref.stokes_q1_4(s1))
    np.testing.assert_allclose(build_q(4, "second", p.second_coeffs), ref.stokes_q2_4(s2))


def test_build_q_reference_5():
    s1, s2 = 1.3, 0.2
    p = params_5(s1, s2)
    np.testing.assert_allclose(build_q(5, "head", p.head_coeffs), ref.stokes_q1_5(s1, s2))
    np.testing.assert_allclose(build_q(5, "second", p.second_coeffs), ref.stokes_q2_5(s1, s2))


def test_build_q_rejects_wrong_keys():
    with pytest.raises(ValueError):
        build_q(4, "head", {(1, 0): 1.0})
    with pytest.raises(ValueError):
        build_q(4, "second", {(3, 1): 1.0})


def test_stokes_params_validates_keys():
    with pytest.raises(ValueError):
        StokesParams(4, {(1, 0): 1.0}, {(1, 3): 0.0})


def test_build_m0_reference_4():
    s1, s2 = 0.7, -0.3
    m0 = build_m0(params_4(s1, s2))
    expect = ref.monodromy_display_4(*ref.monodromy_x_of_s_4(s1, s2))
    np.testing.assert_allclose(m0.matrix, expect, atol=1e-14)


def test_build_m0_reference_5():
    s1, s2 = -0.9, 0.45
    m0 = build_m0(params_5(s1, s2))
    expect = ref.monodromy_display_5(*ref.monodromy_x_of_s_5(s1, s2))
    np.testing.assert_allclose(m0.matrix, expect, atol=1e-14)


def test_build_m0_zero_coeffs_gives_cyclic():
    m0 = build_m0(params_4(0.0, 0.0))
    assert np.array_equal(m0.matrix, signed_shift_matrix(4).astype(complex))
    m0 = build_m0(params_5(0.0, 0.0))
    assert np.array_equal(m0.matrix, shift_matrix(5).astype(complex))


@pytest.mark.parametrize("n1", range(3, 9))
def test_build_m0_unimodular(n1):
    rng = np.random.default_rng(100 + n1)
    for _ in range(5):
        p = random_stokes_params(n1, rng)
        det = np.linalg.det(build_m0(p).matrix)
        assert abs(det - 1.0) < 1e-9 * max(1.0, abs(det))


# ---------------------------------------------------------------------------
# the cyclic family
# ---------------------------------------------------------------------------

def test_q_family_reference_4():
    s1, s2 = 0.6, -1.1
    q1, q2 = ref.stokes_q1_4(s1), ref.stokes_q2_4(s2)
    fam = q_family(4, q1, q2)
    assert sorted(fam) == list(range(8))
    np.testing.assert_allclose(fam[0], q1)
    np.testing.assert_allclose(fam[1], q2)
    P = signed_shift_matrix(4)
    np.testing.assert_allclose(fam[2], P @ q1 @ P.T, atol=1e-14)
    np.testing.assert_allclose(fam[7], P @ P @ P @ q2 @ P.T @ P.T @ P.T, atol=1e-13)


def test_q_family_reference_5():
    s1, s2 = 0.8, 0.35
    fam = q_family(5, ref.stokes_q1_5(s1, s2), ref.stokes_q2_5(s1, s2))
    assert sorted(fam) == list(range(10))
    # every member supported on its own direction's pattern
    for ell, q in fam.items():
        pat = q_pattern(5, ell)
        assert np.max(np.abs(q[~pat])) < 1e-12


@pytest.mark.parametrize("n1", range(3, 10))
def test_q_family_random_constrained(n1):
    rng = np.random.default_rng(17 * n1)
    p = random_stokes_params(n1, rng)
    q1 = build_q(n1, "head", p.head_coeffs)
    q2 = build_q(n1, "second", p.second_coeffs)
    fam = q_family(n1, q1, q2)
    assert len(fam) == 2 * n1
    # transpose-inverse relation across the half period, checked here
    # independently of the internal gate
    for ell in range(n1):
        lhs = fam[ell + n1]
        rhs = np.linalg.inv(fam[ell].T)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_q_family_rejects_unpaired_coefficients():
    # generic head coefficients break the transpose-inverse relation
    q1 = np.eye(4, dtype=complex)
    q1[1, 0] = 0.3
    q1[2, 3] = 0.5  # pairing would force this to equal -0.3
    q2 = ref.stokes_q2_4(0.2)
    with pytest.raises(ConsistencyError):
        q_family(4, q1, q2)


def test_q_family_rejects_off_pattern_entries():
    q1 = ref.stokes_q1_4(0.3)
    q1 = q1.copy()
    q1[0, 1] = 0.01  # not a supported slot for the head direction
    with pytest.raises(ConsistencyError):
        q_family(4, q1, ref.stokes_q2_4(0.0))


def test_reality_relation_reference_4():
    s1, s2 = 0.45, -0.8  # real parameters
    fam = q_family(4, ref.stokes_q1_4(s1), ref.stokes_q2_4(s2))
    assert reality_residual(fam) < 1e-12


@pytest.mark.parametrize("n1", [3, 4, 5, 6, 7, 8])
def test_reality_relation_random_real_families(n1):
    rng = np.random.default_rng(900 + n1)
    p = random_stokes_params(n1, rng, real=True)
    fam = q_family(
        n1,
        build_q(n1, "head", p.head_coeffs),
        build_q(n1, "second", p.second_coeffs),
    )
    assert reality_residual(fam) < 1e-9


@pytest.mark.parametrize("n1", [3, 4])
def test_reality_residual_of_a_nan_family_is_nan(n1):
    # the builtin max would drop every NaN and report 0.0
    fam = {ell: np.full((n1, n1), np.nan) for ell in range(2 * n1)}
    assert np.isnan(reality_residual(fam))


# ---------------------------------------------------------------------------
# full monodromy
# ---------------------------------------------------------------------------

def test_full_monodromy_trivial_4():
    m0 = build_m0(params_4(0.0, 0.0))
    np.testing.assert_allclose(full_monodromy(m0), np.eye(4), atol=1e-12)


def test_full_monodromy_trivial_5():
    m0 = build_m0(params_5(0.0, 0.0))
    np.testing.assert_allclose(full_monodromy(m0), np.eye(5), atol=1e-12)


@pytest.mark.parametrize("n1", [4, 5, 6, 7])
def test_full_monodromy_spectral_mapping(n1):
    rng = np.random.default_rng(300 + n1)
    # modest coefficients and a loose gate: taking the (n+1)-st power
    # amplifies conditioning, which is about the power, not the mapping
    m0 = build_m0(random_stokes_params(n1, rng, scale=0.4))
    tol = Tolerance(1e-5, 1e-5)
    lams = eigenvalues(m0.matrix, Tolerance(1e-8, 1e-8))
    if n1 % 2 == 0:
        expect = [(omega_pow(n1, 0.5) * lam) ** n1 for lam in lams]
    else:
        expect = [lam ** n1 for lam in lams]
    match_multisets(eigenvalues(full_monodromy(m0), tol), expect, tol)
