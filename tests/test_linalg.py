"""Oracle tests for the shared numerical kernels.

Expected values here were computed by hand (or from closed forms) before the
implementation existed, so they are independent of the code under test.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttstokes import linalg
from ttstokes.linalg import (
    NumericalError,
    Tolerance,
    char_poly,
    cyclic_for,
    eigenvalues,
    fourier_matrix,
    match_multisets,
    nan_max,
    omega_diag,
    omega_pow,
    omega_powers,
    poly_from_roots,
    rel_residual,
    rel_residuals,
    shift_matrix,
    signed_shift_matrix,
)
from ttstokes.solutions import (
    AlcovePoint,
    alcove_to_gamma,
    eigenvalues_from_gamma,
    gamma_to_m0,
    random_polytope_gamma,
)
from ttstokes.steinberg import calibrate, steinberg_section


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


@pytest.mark.parametrize("n1", range(2, 41))
def test_shift_matrices_equal_the_entry_by_entry_loop(n1):
    P = np.zeros((n1, n1))
    for i in range(n1 - 1):
        P[i, i + 1] = 1.0
    P[n1 - 1, 0] = 1.0
    assert np.array_equal(shift_matrix(n1), P)
    P[n1 - 1, 0] = -1.0 if n1 % 2 == 0 else 1.0
    assert np.array_equal(cyclic_for(n1), P)


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


def _rel_loop(lhs, rhs):
    """max|lhs - rhs| / max(1, max|rhs|) of one matrix, entry by entry."""
    diff = max(abs(complex(a - b)) for a, b in zip(lhs.ravel(), rhs.ravel()))
    return diff / max(1.0, max(abs(complex(b)) for b in rhs.ravel()))


@pytest.mark.parametrize("lead", [(), (4,), (3, 5)])
def test_rel_residual_takes_one_matrix_or_any_leading_shape(lead):
    # one matrix raised a TypeError (a float is not iterable), and a 4-D
    # stack compared a list with a float
    rng = np.random.default_rng(len(lead))
    rhs = 3.0 * (rng.normal(size=lead + (4, 4)) + 1j * rng.normal(size=lead + (4, 4)))
    lhs = rhs + 1e-3 * rng.normal(size=lead + (4, 4))
    per = rel_residuals(lhs, rhs)
    assert per.shape == lead
    want = [_rel_loop(a, b) for a, b in zip(lhs.reshape(-1, 4, 4), rhs.reshape(-1, 4, 4))]
    np.testing.assert_allclose(per.reshape(-1), want, rtol=1e-14)
    worst = rel_residual(lhs, rhs)
    assert type(worst) is float and worst == per.max()
    # the scale is never below 1
    assert rel_residual(np.full((2, 2), 0.5), np.zeros((2, 2))) == 0.5


@pytest.mark.parametrize("lead", [(), (4,), (3, 5)])
def test_rel_residual_is_nan_when_a_member_is(lead):
    rhs = np.ones(lead + (3, 3))
    lhs = rhs.copy()
    lhs.reshape(-1)[-1] = np.nan
    assert rel_residual(rhs, rhs) == 0.0
    assert np.isnan(rel_residual(lhs, rhs))
    assert np.isnan(rel_residuals(lhs, rhs).reshape(-1)[-1])


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


# ---------------------------------------------------------------------------
# the vectorized kernels against the element-by-element loops they replaced
# ---------------------------------------------------------------------------

def _horner(coeffs, x):
    """Increasing-order coefficients at x by Horner's rule, one scalar
    complex operation at a time (np.polyval differs in the last bits)."""
    acc = 0j
    for c in reversed(np.asarray(coeffs, dtype=complex)):
        acc = acc * x + c
    return complex(acc)


def _in_own_dtype(M):
    """M as float64 when it is real, complex128 when it is complex."""
    M = np.asarray(M)
    return M.astype(np.result_type(M, float))


def _char_poly_loop(M):
    M = _in_own_dtype(M)
    dim = M.shape[0]
    coeffs = np.zeros(dim + 1, dtype=M.dtype)
    coeffs[dim] = 1.0
    B = np.eye(dim, dtype=M.dtype)
    for k in range(1, dim + 1):
        A = M @ B
        c = -np.trace(A) / k
        coeffs[dim - k] = c
        B = A + c * np.eye(dim)
    return coeffs


def _eigenvalues_loop(M, tol):
    M = _in_own_dtype(M)
    vals = np.linalg.eigvals(M).astype(complex)
    coeffs = _char_poly_loop(M)
    for lam in vals:
        scale = sum(abs(c) * abs(lam) ** k for k, c in enumerate(coeffs))
        resid = abs(_horner(coeffs, lam))
        if resid > tol.bound(scale):
            raise NumericalError(
                "characteristic polynomial residual %.3e exceeds %.3e "
                "at lambda = %s" % (resid, tol.bound(scale), lam)
            )
    return vals


def _match_multisets_loop(a, b, tol):
    a = [complex(x) for x in a]
    b = [complex(x) for x in b]
    if len(a) != len(b):
        raise linalg.ConsistencyError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    if not all(np.isfinite(x) for x in a + b):
        raise linalg.ConsistencyError("multisets contain a non-finite value")
    try:
        taken = [False] * len(b)
        done = [False] * len(a)
        worst = 0.0
        for _ in range(len(a)):
            best = None
            for i, x in enumerate(a):
                if done[i]:
                    continue
                for j, y in enumerate(b):
                    if taken[j]:
                        continue
                    d = abs(x - y)
                    if best is None or d < best[0]:
                        best = (d, i, j)
            d, i, j = best
            scale = max(abs(a[i]), abs(b[j]), 1.0)
            if d > tol.bound(scale):
                raise linalg.ConsistencyError(
                    "multisets differ: closest remaining pair %s vs %s is %.3e apart"
                    % (a[i], b[j], d)
                )
            worst = max(worst, d)
            done[i] = True
            taken[j] = True
    except OverflowError as exc:
        raise linalg.ConsistencyError(f"multiset values overflow: {exc}") from exc
    return worst


def _outcome(fn, *args):
    try:
        return "returned", fn(*args)
    except (NumericalError, linalg.ConsistencyError) as exc:
        return type(exc).__name__, str(exc)


def _random_matrices(seed):
    rng = np.random.default_rng(seed)
    for dim in range(1, 41):
        Z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        yield Z
        yield Z.real
        yield np.where(rng.random((dim, dim)) < 0.5, 0.0, Z.real)  # exact zeros


def test_char_poly_equals_the_loop_on_random_matrices():
    for M in _random_matrices(900):
        assert np.array_equal(char_poly(M), _char_poly_loop(M)), M.shape
        # a transposed view is not C-ordered, unlike char_poly's buffers
        assert np.array_equal(char_poly(M.T), _char_poly_loop(M.T)), M.shape


@pytest.mark.parametrize("S", [1, 5, 50])
def test_stacked_char_poly_equals_the_member_calls(S):
    # NaN and inf members stay confined to their own rows (up to the sign
    # bit of a NaN, which no comparison sees)
    rng = np.random.default_rng(930 + S)
    for dim in range(3, 41):
        stack = rng.normal(size=(S, dim, dim)) + 1j * rng.normal(size=(S, dim, dim))
        stack[0, 0, dim - 1] = np.nan
        if S > 1:
            stack[S - 1, 1, 1] = np.inf
        with np.errstate(invalid="ignore"):
            got = char_poly(stack)
            members = [char_poly(M) for M in stack]
        assert got.shape == (S, dim + 1)
        assert np.array_equal(got, np.stack(members), equal_nan=True), dim
        assert np.isnan(got[0, :dim]).all() and not np.isnan(got[1:S - 1]).any()
        # real input in a stack of one hands back what the loop does
        real = rng.normal(size=(dim, dim))
        assert np.array_equal(char_poly(real[None])[0], _char_poly_loop(real))


def test_real_stacks_keep_real_char_polys():
    rng = np.random.default_rng(935)
    for dim in range(1, 41):
        stack = rng.normal(size=(5, dim, dim))
        got = char_poly(stack)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.stack([char_poly(M) for M in stack])), dim
    assert char_poly(np.eye(3, dtype=int)).dtype == np.float64


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3), (2, 2, 3, 3), ()])
def test_char_poly_rejects_what_is_no_square_matrix_or_stack(shape):
    with pytest.raises(ValueError, match="square matrix or a stack"):
        char_poly(np.zeros(shape))


@pytest.mark.parametrize("n1", [3, 4, 5, 8, 12, 16])
def test_char_poly_equals_the_loop_on_section_values(n1):
    cal = calibrate(n1)
    rng = np.random.default_rng(910 + n1)
    for _ in range(5):
        t = rng.normal(size=n1 - 1) + 1j * rng.normal(size=n1 - 1)
        S = steinberg_section(cal, t)
        assert np.array_equal(char_poly(S), _char_poly_loop(S))


def test_eigenvalue_gate_equals_the_loop():
    # the tight tolerances make the gate trip, so messages are compared too
    tols = [Tolerance(), Tolerance(1e-14, 1e-14), Tolerance(1e-300, 1e-300)]
    tripped = 0
    for M in _random_matrices(920):
        for tol in tols:
            got, want = _outcome(eigenvalues, M, tol), _outcome(_eigenvalues_loop, M, tol)
            assert got[0] == want[0], (M.shape, tol)
            if got[0] == "returned":
                assert np.array_equal(got[1], want[1])
            else:
                assert got[1] == want[1]
                tripped += 1
    assert tripped > 100


def test_real_spectra_are_complex_and_closed_under_conjugation():
    rng = np.random.default_rng(945)
    for dim in range(1, 41):
        A = rng.normal(size=(dim, dim)) / np.sqrt(dim)
        n1 = max(dim, 3)
        section = steinberg_section(calibrate(n1), rng.normal(size=n1 - 1))
        # the symmetric one is a matrix whose spectrum numpy returns real
        for M in (A, (A + A.T) / 2, section):
            vals = eigenvalues(M)
            assert vals.dtype == np.complex128
            assert np.array_equal(np.sort(vals), np.sort(vals.conj())), dim


def test_eigenvalue_gate_equals_the_loop_on_the_bound():
    # tuned so that the worst lambda sits on the bound, where the verdict
    # turns on the last bits of the residual and of the scale
    verdicts = set()
    for M in _random_matrices(940):
        coeffs = _char_poly_loop(M)
        ratio = 0.0
        for lam in np.linalg.eigvals(_in_own_dtype(M)).astype(complex):
            scale = sum(abs(c) * abs(lam) ** k for k, c in enumerate(coeffs))
            if scale:
                ratio = max(ratio, abs(_horner(coeffs, lam)) / scale)
        if ratio == 0:
            continue
        tol = Tolerance(1e-300, ratio)
        got, want = _outcome(eigenvalues, M, tol), _outcome(_eigenvalues_loop, M, tol)
        assert got[0] == want[0], M.shape
        if got[0] != "returned":
            assert got[1] == want[1]
        verdicts.add(got[0])
    assert verdicts == {"returned", "NumericalError"}


def test_modulus_is_python_abs():
    rng = np.random.default_rng(950)
    z = rng.normal(size=20000) + 1j * rng.normal(size=20000)
    z *= 10.0 ** rng.integers(-300, 300, z.size)
    assert linalg._modulus(z).tolist() == [abs(x) for x in z.tolist()]


def _multiset_cases():
    rng = np.random.default_rng(930)
    jitter = [0.0, 1e-12, 1e-10, 1e-8, 1e-3]
    for size in range(1, 41):
        values = rng.normal(size=size) + 1j * rng.normal(size=size)
        rounded = np.round(values, 1)  # coinciding values and tied distances
        roots = np.exp(2j * np.pi * rng.integers(0, 3, size) / 3)  # exact duplicates
        for a in (values, rounded, roots, np.ones(size)):
            noise = rng.choice(jitter, size=size)
            b = a[rng.permutation(size)] + noise * (rng.normal(size=size)
                                                   + 1j * rng.normal(size=size))
            for tol in (Tolerance(1e-9, 1e-9), Tolerance(1e-2, 1e-2)):
                yield a, b, tol
        # the eigenvalues of a perturbed Jordan block form a cluster around 1
        J = np.eye(size) + np.eye(size, k=1)
        J[-1, 0] = 1e-12
        for tol in (Tolerance(1e-9, 1e-9), Tolerance(1e-1, 1e-1)):
            yield np.linalg.eigvals(J), np.ones(size), tol
    yield [1, 1, 1], [1, 1, 1], Tolerance()
    yield [1, 1, 2], [1, 2, 2], Tolerance()
    # pairs 1-1 and 2-2 are accepted before 3 vs 3.5 fails
    yield [1, 2, 3], [3.5, 2, 1], Tolerance()
    # |h| overflows, |y| does not, and no difference overflows: the scale of
    # the pair (h, h') overflows at the second step, unless the first fails
    y, h = 1e308 + 1e308j, 1.7e308 + 1.7e308j
    yield [y, h], [y, h + 1e301], Tolerance()
    yield [y, h], [y + 1e300, h + 1e301], Tolerance()


def test_match_multisets_equals_the_loop():
    outcomes = set()
    for a, b, tol in _multiset_cases():
        got = _outcome(match_multisets, a, b, tol)
        want = _outcome(_match_multisets_loop, a, b, tol)
        assert got == want, (a, b, tol)
        assert type(got[1]) is type(want[1])
        outcomes.add(got[0])
    assert outcomes == {"returned", "ConsistencyError"}


@pytest.mark.parametrize("a, b", [
    ([1.0, np.nan], [1.0, 2.0]),
    ([1.0, 2.0], [complex(1.0, np.nan), 2.0]),
    ([1.0, np.inf], [1.0, np.inf]),
    ([np.nan], [np.nan]),
    ([1e308 + 1e308j], [-1e308 - 1e308j]),
    ([1.7e308 + 1.7e308j], [1.7e308 + 1.7e308j]),
    ([1e308 + 1e308j], [-0.7e308 - 0.7e308j]),
    ([0.0, 1.7e308 + 1.7e308j], [0.0, 1.7e308 + 1.7e308j]),
])
def test_match_multisets_rejections_are_quiet_and_unchanged(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _outcome(match_multisets, a, b, linalg.DEFAULT_TOL)
    assert got[0] == "ConsistencyError"
    assert got == _outcome(_match_multisets_loop, a, b, linalg.DEFAULT_TOL)


def test_eigenvalue_gate_fails_a_nan_residual(monkeypatch):
    # nan > bound is false, so a NaN residual used to pass the gate
    def nan_poly(M):
        coeffs = char_poly(M)
        coeffs[0] = np.nan
        return coeffs

    monkeypatch.setattr(linalg, "char_poly", nan_poly)
    with pytest.raises(NumericalError, match="residual nan"):
        eigenvalues(np.diag([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# the from-gamma query path: the gate and the match on its own spectra
# ---------------------------------------------------------------------------

def _alcove_gamma(n1, u):
    """The gamma whose free alcove coordinates are the sorted ``u``, laid
    out as random_polytope_gamma lays out its draw."""
    m = n1 // 2
    u = np.asarray(u, dtype=float)
    rho = np.zeros(n1)
    if n1 % 2 == 0:
        rho[:m], rho[m:] = u, -u[::-1]
    else:
        rho[m + 1:], rho[:m] = u, -u[::-1]
    return alcove_to_gamma(AlcovePoint(n1, rho))


def _query_gammas(n1):
    """Interior draws, a point near every kind of wall, and the vertices of
    the alcove at size n1."""
    m = n1 // 2
    rng = np.random.default_rng([960, n1])
    kinds = {f"interior {k}": random_polytope_gamma(n1, rng) for k in range(4)}
    # ties and both ends within 1e-7: consecutive gamma gaps within 1e-6 of -2
    u = np.sort(rng.uniform(0.0, 1.0, m))
    u[0], u[-1] = 1e-7, 1.0 - 1e-7
    if m > 2:
        u[2] = u[1] + 1e-7
    kinds["near the walls"] = _alcove_gamma(n1, np.sort(u))
    for zeros in range(m + 1):
        kinds[f"vertex {zeros}"] = _alcove_gamma(n1, [0.0] * zeros + [1.0] * (m - zeros))
    return kinds


def _gate_verdict(M, tol):
    """The gate's verdict on M at tol, asserted equal to the loop's outcome:
    the same values, or the same error and message."""
    got, want = _outcome(eigenvalues, M, tol), _outcome(_eigenvalues_loop, M, tol)
    assert got[0] == want[0], (M, tol)
    if got[0] == "returned":
        assert np.array_equal(got[1], want[1]), (M, tol)
    else:
        assert got[1] == want[1], (M, tol)
    return got[0]


def _worst_ratio(M):
    """Largest |p(lambda)| / scale over the spectrum, by the loop's arithmetic:
    a relative tolerance of this puts the worst lambda on the bound."""
    coeffs = _char_poly_loop(M)
    ratio = 0.0
    for lam in np.linalg.eigvals(_in_own_dtype(M)).astype(complex):
        scale = sum(abs(c) * abs(lam) ** k for k, c in enumerate(coeffs))
        ratio = max(ratio, abs(_horner(coeffs, lam)) / scale)
    return ratio


@pytest.mark.parametrize("n1", range(4, 17))
def test_eigenvalue_gate_equals_the_loop_on_query_monodromies(n1):
    cal = calibrate(n1)
    for kind, g in _query_gammas(n1).items():
        M = gamma_to_m0(cal, g).matrix
        ratio = _worst_ratio(M)
        # the last two put the worst lambda on the bound and at twice it
        tols = [Tolerance(), Tolerance(1e-8, 1e-8), Tolerance(1e-300, ratio),
                Tolerance(1e-300, ratio / 2)]
        verdicts = [_gate_verdict(M, tol) for tol in tols]
        assert verdicts[-1] == "NumericalError", kind


@pytest.mark.parametrize("n1", range(4, 17))
def test_match_multisets_equals_the_loop_on_query_spectra(n1):
    cal = calibrate(n1)
    outcomes = set()
    for kind, g in _query_gammas(n1).items():
        got_spectrum = np.linalg.eigvals(gamma_to_m0(cal, g).matrix).astype(complex)
        want_spectrum = eigenvalues_from_gamma(g)
        for tol in (Tolerance(), Tolerance(1e-8, 1e-8), Tolerance(1e-4, 1e-4)):
            got = _outcome(match_multisets, got_spectrum, want_spectrum, tol)
            want = _outcome(_match_multisets_loop, got_spectrum, want_spectrum, tol)
            assert got == want, (kind, tol)
            assert type(got[1]) is type(want[1])
            outcomes.add(got[0])
    # the vertices' repeated eigenvalues miss the tight tolerances
    assert outcomes == {"returned", "ConsistencyError"}


def test_eigenvalue_gate_equals_the_loop_on_repeated_and_conjugate_values():
    # the gate checks a repeated value, or for real M the conjugate of one
    # that passed, only once; signed zeros and exact pairs must not change a
    # verdict or a message
    rot = np.array([[0.3, -1.2], [1.2, 0.3]])
    real = [np.diag([2.0, 2.0, -0.0, 0.0, 1.0]),
            np.kron(np.eye(3), rot),
            np.block([[rot, np.eye(2)], [np.zeros((2, 2)), rot]]),
            shift_matrix(6), signed_shift_matrix(8)]
    cases = real + [M * (1 + 1j) for M in real] + [M.astype(complex) for M in real]
    # a conjugate pair under complex coefficients: p(lambda) is exactly 0
    # and p(conj lambda) is not, so only a real M may skip the partner
    cases.append(np.diag([-0.9 + 3.3j, -0.9 - 3.3j, 0.2 - 0.4j]))
    tols = (Tolerance(), Tolerance(1e-14, 1e-14), Tolerance(1e-300, 1e-300))
    verdicts = {_gate_verdict(M, tol) for M in cases for tol in tols}
    assert verdicts == {"returned", "NumericalError"}


def test_the_gate_raises_when_its_arithmetic_overflows():
    # |lambda|^k passes the float range at k = 2: an infinite bound would
    # pass any residual, so the gate refuses the matrix instead
    with pytest.raises(NumericalError, match="check overflows at lambda"):
        eigenvalues(np.diag([1e200, 1.0]))


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(abs_tol=-1.0)
    t = Tolerance()
    assert t.bound(10.0) == pytest.approx(1e-9 + 1e-8)
