"""Oracle tests for the shared numerical kernels.

Expected values here were computed by hand (or from closed forms) before the
implementation existed, so they are independent of the code under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttstokes import linalg
from ttstokes.linalg import (
    NumericalError,
    Tolerance,
    char_poly,
    eigenvalues,
    fourier_matrix,
    match_multisets,
    nan_max,
    omega_diag,
    omega_pow,
    omega_powers,
    poly_eval,
    poly_from_roots,
    reversal_matrix,
    shift_matrix,
    signed_shift_matrix,
)


# ---------------------------------------------------------------------------
# characteristic polynomial: frozen cases
# ---------------------------------------------------------------------------

def test_char_poly_identity_2x2():
    # (mu - 1)^2 = mu^2 - 2 mu + 1
    np.testing.assert_allclose(char_poly(np.eye(2)), [1.0, -2.0, 1.0], atol=1e-13)


def test_char_poly_diag_123():
    # (mu-1)(mu-2)(mu-3) = mu^3 - 6 mu^2 + 11 mu - 6
    got = char_poly(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(got, [-6.0, 11.0, -6.0, 1.0], atol=1e-12)


def test_char_poly_signed_shift_4():
    # the signed cyclic shift of size 4 has fourth power -I, so char = mu^4 + 1
    got = char_poly(signed_shift_matrix(4))
    np.testing.assert_allclose(got, [1.0, 0.0, 0.0, 0.0, 1.0], atol=1e-13)


def test_char_poly_shift_5():
    got = char_poly(shift_matrix(5))
    np.testing.assert_allclose(got, [-1.0, 0, 0, 0, 0, 1.0], atol=1e-13)


def test_char_poly_companion_style_4x4():
    # hand-built matrix whose char poly is mu^4 - a mu^3 + b mu^2 - c mu + 1
    a, b, c = 0.3, -1.2, 0.7
    M = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-b, a, 1.0, 0.0],
        [c, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
    ])
    np.testing.assert_allclose(char_poly(M), [1.0, -c, b, -a, 1.0], atol=1e-12)


def test_char_poly_rejects_nonsquare():
    with pytest.raises(ValueError):
        char_poly(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# eigenvalues with the residual gate
# ---------------------------------------------------------------------------

def test_eigenvalues_diagonal():
    vals = eigenvalues(np.diag([2.0, 3.0j]))
    match_multisets(vals, [2.0, 3.0j], Tolerance(1e-12, 1e-12))


def test_eigenvalues_shift_3_are_cube_roots_of_unity():
    vals = eigenvalues(shift_matrix(3))
    expect = [omega_pow(3, k) for k in range(3)]
    match_multisets(vals, expect, Tolerance(1e-10, 1e-10))


def test_eigenvalues_signed_shift_4():
    # eighth roots of unity with odd exponent
    vals = eigenvalues(signed_shift_matrix(4))
    expect = [np.exp(1j * np.pi * k / 4) for k in (1, 3, 5, 7)]
    match_multisets(vals, expect, Tolerance(1e-10, 1e-10))


def test_eigenvalue_residual_gate_trips():
    # an absurdly tight tolerance must trip the acceptance check
    M = np.random.default_rng(7).normal(size=(6, 6))
    with pytest.raises(NumericalError):
        eigenvalues(M, Tolerance(1e-300, 1e-300))


# ---------------------------------------------------------------------------
# poly_from_roots
# ---------------------------------------------------------------------------

def test_poly_from_roots_double_root():
    np.testing.assert_allclose(poly_from_roots([1.0, 1.0]), [1.0, -2.0, 1.0], atol=1e-14)


def test_poly_from_roots_empty():
    np.testing.assert_allclose(poly_from_roots([]), [1.0])


def test_poly_from_roots_octic_quadruple():
    roots = [np.exp(1j * np.pi * k / 4) for k in (1, 3, 5, 7)]
    np.testing.assert_allclose(poly_from_roots(roots), [1, 0, 0, 0, 1], atol=1e-12)


def test_poly_eval_horner():
    coeffs = np.array([1.0, -2.0, 1.0])
    assert abs(poly_eval(coeffs, 1.0)) < 1e-15
    assert abs(poly_eval(coeffs, 3.0) - 4.0) < 1e-13


# ---------------------------------------------------------------------------
# structured constant matrices
# ---------------------------------------------------------------------------

def test_shift_matrix_entries():
    P = shift_matrix(4)
    expect = np.array([
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
    ], dtype=float)
    assert np.array_equal(P, expect)


def test_signed_shift_fourth_power_is_minus_identity():
    P = signed_shift_matrix(4)
    assert np.array_equal(np.linalg.matrix_power(P, 4), -np.eye(4))


def test_shift_power_order():
    P = shift_matrix(5)
    assert np.array_equal(np.linalg.matrix_power(P, 5), np.eye(5))


def test_fourier_diagonalizes_shift():
    # Pi = Omega diag(1, w, ..., w^n) Omega^{-1}
    for n1 in (3, 4, 6):
        Om = fourier_matrix(n1)
        Om_inv = Om.conj().T / n1
        lhs = Om @ omega_diag(n1) @ Om_inv
        np.testing.assert_allclose(lhs, shift_matrix(n1), atol=1e-12)


def test_reversal_is_involution():
    R = reversal_matrix(5)
    assert np.array_equal(R @ R, np.eye(5))
    assert R[0, 4] == 1 and R[2, 2] == 1


def test_omega_pow_half_integer():
    # square root of the primitive root, needed by the even monodromy scaling
    z = omega_pow(4, 0.5)
    assert abs(z - np.exp(1j * np.pi / 4)) < 1e-15


@pytest.mark.parametrize("n1", [3, 4, 7, 16, 64])
def test_omega_powers_match_omega_pow(n1):
    w = omega_powers(n1)
    assert w.shape == (n1,) and w.dtype == complex
    # same angles; the vectorized cos/sin may differ from the scalar ones in
    # the last bit on some hosts
    np.testing.assert_allclose(w, [omega_pow(n1, k) for k in range(n1)],
                               rtol=0, atol=1e-15)


def test_nan_max_propagates_nan_in_any_position():
    nan = float("nan")
    assert max(0.0, nan) == 0.0  # the builtin drops it
    assert np.isnan(nan_max(0.0, nan))
    assert np.isnan(nan_max(nan, 0.0))
    assert np.isnan(nan_max(1.0, np.float64(nan), 2.0))
    assert nan_max(1e-12, 3.0, 2.0) == 3.0
    assert nan_max(0.5) == 0.5


# ---------------------------------------------------------------------------
# multiset matching
# ---------------------------------------------------------------------------

def test_match_multisets_permutation():
    a = [1.0, 2.0, 3.0]
    b = [3.0 + 1e-12, 1.0, 2.0]
    worst = match_multisets(a, b, Tolerance(1e-9, 1e-9))
    assert worst < 1e-11


def test_match_multisets_detects_mismatch():
    with pytest.raises(linalg.ConsistencyError):
        match_multisets([1.0, 2.0], [1.0, 2.5], Tolerance(1e-9, 1e-9))


def test_match_multisets_size_mismatch():
    with pytest.raises(linalg.ConsistencyError):
        match_multisets([1.0], [1.0, 1.0])


@pytest.mark.parametrize("a, b", [
    ([1.0, np.nan], [1.0, 2.0]),
    ([1.0, 2.0], [complex(1.0, np.nan), 2.0]),
    ([1.0, np.inf], [1.0, np.inf]),
    ([np.nan], [np.nan]),
])
def test_match_multisets_rejects_non_finite_values(a, b):
    # a NaN distance fails every comparison, so it used to match silently
    with pytest.raises(linalg.ConsistencyError, match="non-finite"):
        match_multisets(a, b)


def test_match_multisets_rejects_an_overflowing_distance():
    # both values are finite, but their distance overflows to inf, which lies
    # outside the (finite) bound
    with pytest.raises(linalg.ConsistencyError, match="inf apart"):
        match_multisets([1e308 + 1e308j], [-1e308 - 1e308j])


@pytest.mark.parametrize("a, b", [
    ([1.7e308 + 1.7e308j], [1.7e308 + 1.7e308j]),
    ([1e308 + 1e308j], [-0.7e308 - 0.7e308j]),
])
def test_match_multisets_rejects_an_overflowing_modulus(a, b):
    # finite components whose modulus overflows: abs() raises OverflowError
    with pytest.raises(linalg.ConsistencyError, match="overflow"):
        match_multisets(a, b)


# ---------------------------------------------------------------------------
# property tests: the two routes to the spectrum agree
# ---------------------------------------------------------------------------

@st.composite
def square_matrices(draw, max_dim=6):
    dim = draw(st.integers(2, max_dim))
    elems = st.floats(-3, 3, allow_nan=False, allow_infinity=False, width=32)
    re = draw(st.lists(elems, min_size=dim * dim, max_size=dim * dim))
    im = draw(st.lists(elems, min_size=dim * dim, max_size=dim * dim))
    return (np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)).reshape(dim, dim)


@settings(max_examples=40, deadline=None)
@given(square_matrices())
def test_char_poly_matches_product_over_eigenvalues(M):
    loose = Tolerance(1e-7, 1e-7)
    vals = eigenvalues(M, loose)
    rebuilt = poly_from_roots(vals)
    direct = char_poly(M)
    scale = max(1.0, np.max(np.abs(direct)))
    np.testing.assert_allclose(rebuilt, direct, atol=1e-8 * scale)


@settings(max_examples=40, deadline=None)
@given(square_matrices())
def test_det_is_signed_constant_coefficient(M):
    coeffs = char_poly(M)
    dim = M.shape[0]
    det = np.linalg.det(M)
    scale = max(1.0, abs(det))
    assert abs((-1) ** dim * coeffs[0] - det) < 1e-8 * scale


@settings(max_examples=25, deadline=None)
@given(square_matrices(max_dim=5), st.integers(0, 2 ** 16))
def test_char_poly_similarity_invariant(M, seed):
    rng = np.random.default_rng(seed)
    dim = M.shape[0]
    # orthogonal conjugation keeps the conditioning under control
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    conj = Q @ M @ Q.T
    scale = max(1.0, np.max(np.abs(char_poly(M))))
    np.testing.assert_allclose(char_poly(conj), char_poly(M), atol=1e-8 * scale)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(abs_tol=-1.0)
    t = Tolerance()
    assert t.bound(10.0) == pytest.approx(1e-9 + 1e-8)
