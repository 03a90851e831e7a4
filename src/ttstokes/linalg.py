"""Shared numerical kernels: characteristic polynomials, eigenvalues with a
residual acceptance gate, and the structured constant matrices everything
else is built from.

Conventions used across the package:

* matrices are numpy arrays; a kernel computes in float64 on real (or
  integer) input and in complex128 on complex input, so real input stays
  real, except that :func:`eigenvalues` always returns complex128;
* polynomial coefficient vectors are monic and stored in increasing-degree
  order, coeffs[k] multiplying mu**k, with coeffs[-1] == 1;
* ``n_plus_1`` is the matrix size (the Lie theory lives in sl(n+1)).

Stacked kernels (``char_poly``, ``rel_residuals``) are whole-array numpy.
The eigenvalue gate is not: it checks one lambda at a time in Python
complex arithmetic, the same operations as a scalar reference loop. At
n+1 <= 16 a vectorized gate spends more on its few dozen small numpy calls
per matrix than the scalar loop spends on its arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "ConsistencyError",
    "Tolerance",
    "DEFAULT_TOL",
    "omega_pow",
    "omega_powers",
    "char_poly",
    "eigenvalues",
    "match_multisets",
    "shift_matrix",
    "signed_shift_matrix",
    "cyclic_for",
    "omega_diag",
    "fourier_matrix",
    "elementary",
    "max_abs",
    "nan_max",
    "rel_residuals",
    "rel_residual",
]


class NumericalError(RuntimeError):
    """A numerical acceptance check failed (residual above tolerance)."""


class ConsistencyError(ValueError):
    """Structured data violates one of its defining relations."""


@dataclass(frozen=True)
class Tolerance:
    """Absolute plus relative tolerance, combined as abs + rel * scale."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")

    def bound(self, scale: float) -> float:
        return self.abs_tol + self.rel_tol * abs(scale)


DEFAULT_TOL = Tolerance()


def omega_pow(n_plus_1: int, k: float) -> complex:
    """k-th power of the primitive (n+1)-th root of unity exp(2 pi i/(n+1)).

    Computed from the angle rather than by repeated multiplication, so large
    and half-integer powers (the even monodromy normalization needs k = 1/2)
    stay accurate.
    """
    ang = 2.0 * np.pi * k / n_plus_1
    return complex(np.cos(ang), np.sin(ang))


def omega_powers(n_plus_1: int) -> np.ndarray:
    """The vector (omega^0, ..., omega^n), each entry from its angle as in
    :func:`omega_pow`."""
    ang = 2.0 * np.pi * np.arange(n_plus_1) / n_plus_1
    return np.cos(ang) + 1j * np.sin(ang)


def max_abs(M) -> float:
    """Largest entry magnitude; the residual measure used throughout."""
    M = np.asarray(M)
    return float(np.max(np.abs(M))) if M.size else 0.0


def nan_max(*values):
    """Largest of the values, or NaN when any of them is NaN.

    The builtin max drops a NaN that is not its first argument (every
    comparison with NaN is false), so max(0.0, nan) is 0.0 and a NaN residual
    would read as a pass. Worst-residual accumulators use this instead.
    """
    if any(v != v for v in values):
        return math.nan
    return max(values)


def rel_residuals(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """max|lhs - rhs| / max(1, max|rhs|) of each matrix, over the last two
    axes: one value per member, in the stack's leading shape."""
    axes = (-2, -1)
    return (np.max(np.abs(lhs - rhs), axis=axes)
            / np.fmax(1.0, np.max(np.abs(rhs), axis=axes)))


def rel_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Worst of :func:`rel_residuals` over one matrix or a stack of any
    leading shape; NaN when any member's residual is NaN."""
    return nan_max(0.0, *rel_residuals(lhs, rhs).reshape(-1).tolist())


# complex entries in one chunk's largest stack (2 MB): the sampled checks
# (the stokes, connections, steinberg and solutions cells) run their trials
# in chunks of about this size, so their memory does not grow with the
# sample count
_CHUNK_ENTRIES = 1 << 17


def _in_chunks(trials, entries, check):
    """Worst of ``check(start, stop)`` over consecutive chunks of trials, each
    as many as keep ``entries`` per trial within ``_CHUNK_ENTRIES`` (at least
    one); an error in a later chunk names its trials."""
    chunk = max(1, _CHUNK_ENTRIES // entries)
    worst = 0.0
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        try:
            worst = nan_max(worst, check(start, stop))
        except (ConsistencyError, NumericalError) as exc:
            if not start:
                raise
            raise type(exc)(
                f"{exc} (in trials {start}..{stop - 1}; member 0 is trial {start})"
            ) from exc
    return worst


def _modulus(z: np.ndarray) -> np.ndarray:
    """Entrywise |z| as np.hypot of the parts.

    This agrees bit for bit with Python's abs(complex), which np.abs on
    complex arrays does not always do.
    """
    return np.hypot(z.real, z.imag)


def _working(x) -> np.ndarray:
    """x as an array of its working dtype: float64 for real or integer
    input, complex128 for complex input."""
    x = np.asarray(x)
    return x.astype(np.result_type(x, float), copy=False)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def char_poly(M) -> np.ndarray:
    """Monic characteristic polynomial det(mu I - M) in increasing order.

    M is one square matrix or a stack (S, dim, dim) of them; a stack gives
    one coefficient row per member, each equal to the member's own call.
    Real input runs in float64 and returns float64 coefficients; complex
    input runs in complex128.
    Faddeev-LeVerrier recursion: B_0 = I, then A_k = M B_{k-1},
    c_{dim-k} = -tr(A_k)/k, B_k = A_k + c_{dim-k} I. No eigenvalue solve is
    involved, which keeps this route independent of :func:`eigenvalues`.
    Each B_k is A_k with c_{dim-k} added in place on a view of its diagonal.
    The products alternate between two C-ordered buffers allocated once,
    each with its diagonal view made once: A_k is written over B_{k-2}, so
    no step allocates or reshapes. The coefficients and the diagonal
    views are held with the stack axis last, so that c broadcasts over the
    diagonal as it is, and a single matrix needs no extra axis.
    """
    M = _working(M)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise ValueError(
            f"expected a square matrix or a stack of them, got shape {M.shape}"
        )
    dim = M.shape[-1]
    lead = M.shape[:-2]
    flat = lead + (dim * dim,)
    coeffs = np.zeros((dim + 1,) + lead, dtype=M.dtype)
    coeffs[dim] = 1.0
    A, B = np.empty(M.shape, M.dtype), np.zeros(M.shape, M.dtype)
    diag_a, diag_b = (X.reshape(flat).T[:: dim + 1] for X in (A, B))
    diag_b[...] = 1.0
    for k in range(1, dim + 1):
        np.matmul(M, B, out=A)
        c = -np.add.reduce(diag_a) / k
        coeffs[dim - k] = c
        diag_a += c
        A, B, diag_a, diag_b = B, A, diag_b, diag_a
    return coeffs.T


def poly_from_roots(roots) -> np.ndarray:
    """Monic polynomial with the given roots, coefficients in increasing order."""
    coeffs = np.array([1.0 + 0.0j])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-complex(r), 1.0 + 0.0j]))
    return coeffs


def eigenvalues(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Spectrum via LAPACK's QR iteration, gated by a residual check.

    Every returned lambda must nearly annihilate the independently recomputed
    characteristic polynomial: |p(lambda)| <= tol.bound(sum_k |c_k||lambda|^k).
    Failing that is a NumericalError, not a silent return; so is a lambda
    whose check leaves the float range (a power |lambda|^k or a modulus
    overflows), whose bound would otherwise read infinite.

    The gate runs one lambda at a time in Python complex and float
    arithmetic: the scale summed in increasing k, then p(lambda) by Horner's
    rule from the top coefficient. That is the arithmetic of a plain scalar
    loop, bit for bit; Python's complex multiply rounds each part on its own,
    as an unfused product does. At the sizes the package works at (n+1 up to
    about 16), this is faster than a vectorized gate, whose cost is a few
    dozen small numpy calls per matrix whatever its size. A lambda whose
    verdict is already known (a repeat, or for real M the conjugate of one
    that passed) is not computed again.

    A real M takes LAPACK's real solver, whose complex eigenvalues come in
    exact conjugate pairs, and a real characteristic polynomial. The values
    are complex128 for every input, also when all of them are real.
    """
    M = _working(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    try:
        # numpy returns a real array when every eigenvalue of a real M is real
        vals = np.linalg.eigvals(M).astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from None
    coeffs = char_poly(M).tolist()
    top_down = coeffs[::-1]
    lams = vals.tolist()
    # A value equal to one that passed passes too (signed zeros aside, which
    # no modulus sees). With real coefficients so does the conjugate of one:
    # each of its Horner steps is the conjugate of the first's, rounded
    # alike. So each conjugate pair of a real M is computed once.
    passed = set()
    real = M.dtype.kind == "f"
    i = 0
    try:
        mods = [abs(c) for c in coeffs]
        for i, lam in enumerate(lams):
            if lam in passed:
                continue
            r = abs(lam)
            scale = 0.0
            for k, m in enumerate(mods):
                scale += m * r ** k
            p = 0j
            for c in top_down:
                p = p * lam + c
            resid = abs(p)
            bound = tol.bound(scale)
            # written so that a NaN residual fails too
            if not resid <= bound:
                raise NumericalError(
                    "characteristic polynomial residual %.3e exceeds %.3e "
                    "at lambda = %s" % (resid, bound, lam)
                )
            passed.add(lam)
            if real:
                passed.add(lam.conjugate())
    except OverflowError:
        raise NumericalError(
            "characteristic polynomial check overflows at lambda = %s" % lams[i]
        ) from None
    return vals


_OVERFLOW = "multiset values overflow: absolute value too large"
# parts up to 2**1020 give differences up to 2**1021 and moduli below 2**1022
_NO_OVERFLOW = 2.0 ** 1020


def match_multisets(a, b, tol: Tolerance = DEFAULT_TOL) -> float:
    """Greedy nearest-pair matching of two complex multisets.

    Repeatedly pairs the globally closest remaining values, ties going to the
    first pair in row-major order. Returns the worst matched distance; raises
    ConsistencyError if the sizes differ, a value is not finite (a NaN
    distance would pass every comparison), a modulus overflows, or a pair
    lands outside the tolerance (scaled by the values' magnitude).

    The distances are sorted once; walking that order and skipping pairs
    whose row or column is already taken picks the same pair at every step
    as a fresh scan of the remaining ones would.
    """
    A = np.asarray(a, dtype=complex)
    B = np.asarray(b, dtype=complex)
    if A.size != B.size:
        raise ConsistencyError(f"multiset sizes differ: {A.size} vs {B.size}")
    # the largest part of any value: NaN or inf when one is not finite
    top = float(np.abs(np.concatenate((A, B), axis=None).view(float)).max(initial=0.0))
    if not top < math.inf:
        raise ConsistencyError("multisets contain a non-finite value")
    # each accepted pair is measured again in Python complex arithmetic
    a, b = A.tolist(), B.tolist()
    n = len(a)
    if top <= _NO_OVERFLOW:
        dist = _modulus(A[:, None] - B)
    else:
        # a part past 2**1020 can overflow a difference or a modulus
        with np.errstate(over="ignore"):
            diff = A[:, None] - B
            dist = _modulus(diff)
        # a finite difference with an infinite modulus is where abs() overflows
        inf = np.isinf(dist)
        if inf.any() and np.isfinite(diff[inf]).any():
            raise ConsistencyError(_OVERFLOW)
    row_done = [False] * n
    col_done = [False] * n
    worst = 0.0
    left = n
    for flat in np.argsort(dist, axis=None, kind="stable").tolist():
        i, j = divmod(flat, n)
        if row_done[i] or col_done[j]:
            continue
        d = abs(a[i] - b[j])
        try:
            scale = max(abs(a[i]), abs(b[j]), 1.0)
        except OverflowError:
            raise ConsistencyError(_OVERFLOW) from None
        if d > tol.bound(scale):
            raise ConsistencyError(
                "multisets differ: closest remaining pair %s vs %s is %.3e apart"
                % (a[i], b[j], d)
            )
        worst = max(worst, d)
        row_done[i] = True
        col_done[j] = True
        left -= 1
        if not left:
            break
    return worst


# ---------------------------------------------------------------------------
# structured constant matrices
# ---------------------------------------------------------------------------

def shift_matrix(n_plus_1: int) -> np.ndarray:
    """Cyclic shift: ones at (i, i+1) for i < n and at (n, 0).

    Its (n+1)-st power is the identity and its spectrum is the full set of
    (n+1)-th roots of unity.
    """
    P = np.zeros((n_plus_1, n_plus_1))
    # the superdiagonal is every (n+2)-th entry of the flattened matrix
    P.reshape(-1)[1::n_plus_1 + 1] = 1.0
    P[n_plus_1 - 1, 0] = 1.0
    return P


def signed_shift_matrix(n_plus_1: int) -> np.ndarray:
    """Cyclic shift with the corner entry negated.

    For even n+1 the (n+1)-st power is minus the identity, so the spectrum
    consists of primitive 2(n+1)-th roots of unity.
    """
    P = shift_matrix(n_plus_1)
    P[n_plus_1 - 1, 0] = -1.0
    return P


def cyclic_for(n_plus_1: int) -> np.ndarray:
    """The shift entering the Stokes recursion: signed when n+1 is even."""
    if n_plus_1 % 2 == 0:
        return signed_shift_matrix(n_plus_1)
    return shift_matrix(n_plus_1)


def omega_diag(n_plus_1: int) -> np.ndarray:
    """diag(1, omega, ..., omega^n) with omega the primitive root of unity."""
    return np.diag([omega_pow(n_plus_1, i) for i in range(n_plus_1)])


def fourier_matrix(n_plus_1: int) -> np.ndarray:
    """Unnormalized DFT matrix (omega^{ij}); its inverse is conj()/(n+1).

    Conjugation by this matrix diagonalizes the cyclic shift.
    """
    idx = np.arange(n_plus_1)
    ang = 2.0 * np.pi / n_plus_1 * np.outer(idx, idx)
    return np.cos(ang) + 1j * np.sin(ang)


def elementary(n_plus_1: int, i: int, j: int) -> np.ndarray:
    """Matrix unit with a single 1 at row i, column j."""
    E = np.zeros((n_plus_1, n_plus_1))
    E[i, j] = 1.0
    return E
