"""Shared numerical kernels: characteristic polynomials, eigenvalues with a
residual acceptance gate, and the structured constant matrices everything
else is built from.

Conventions used across the package:

* matrices are numpy arrays, complex128 unless a function says otherwise;
* polynomial coefficient vectors are monic and stored in increasing-degree
  order, coeffs[k] multiplying mu**k, with coeffs[-1] == 1;
* ``n_plus_1`` is the matrix size (the Lie theory lives in sl(n+1)).
"""

from __future__ import annotations

import cmath
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
    "poly_eval",
    "poly_from_roots",
    "eigenvalues",
    "match_multisets",
    "shift_matrix",
    "signed_shift_matrix",
    "cyclic_for",
    "reversal_matrix",
    "omega_diag",
    "fourier_matrix",
    "elementary",
    "max_abs",
    "nan_max",
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


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def char_poly(M) -> np.ndarray:
    """Monic characteristic polynomial det(mu I - M) in increasing order.

    Faddeev-LeVerrier recursion: B_0 = I, then A_k = M B_{k-1},
    c_{dim-k} = -tr(A_k)/k, B_k = A_k + c_{dim-k} I. No eigenvalue solve is
    involved, which keeps this route independent of :func:`eigenvalues`.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    dim = M.shape[0]
    coeffs = np.zeros(dim + 1, dtype=complex)
    coeffs[dim] = 1.0
    B = np.eye(dim, dtype=complex)
    for k in range(1, dim + 1):
        A = M @ B
        c = -np.trace(A) / k
        coeffs[dim - k] = c
        B = A + c * np.eye(dim)
    return coeffs


def poly_eval(coeffs, x: complex) -> complex:
    """Evaluate an increasing-order coefficient vector by Horner's rule."""
    acc = 0.0 + 0.0j
    for c in reversed(np.asarray(coeffs, dtype=complex)):
        acc = acc * x + c
    return complex(acc)


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
    Failing that is a NumericalError, not a silent return.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    try:
        vals = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from None
    coeffs = char_poly(M)
    for lam in vals:
        scale = sum(abs(c) * abs(lam) ** k for k, c in enumerate(coeffs))
        resid = abs(poly_eval(coeffs, lam))
        if resid > tol.bound(scale):
            raise NumericalError(
                "characteristic polynomial residual %.3e exceeds %.3e "
                "at lambda = %s" % (resid, tol.bound(scale), lam)
            )
    return vals


def match_multisets(a, b, tol: Tolerance = DEFAULT_TOL) -> float:
    """Greedy nearest-pair matching of two complex multisets.

    Repeatedly pairs the globally closest remaining values. Returns the worst
    matched distance; raises ConsistencyError if the sizes differ, a value is
    not finite (a NaN distance would pass every comparison), a modulus
    overflows, or a pair lands outside the tolerance (scaled by the values'
    magnitude).
    """
    a = [complex(x) for x in a]
    b = [complex(x) for x in b]
    if len(a) != len(b):
        raise ConsistencyError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    if not all(cmath.isfinite(x) for x in a + b):
        raise ConsistencyError("multisets contain a non-finite value")
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
                raise ConsistencyError(
                    "multisets differ: closest remaining pair %s vs %s is %.3e apart"
                    % (a[i], b[j], d)
                )
            worst = max(worst, d)
            done[i] = True
            taken[j] = True
    except OverflowError as exc:
        raise ConsistencyError(f"multiset values overflow: {exc}") from exc
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
    for i in range(n_plus_1 - 1):
        P[i, i + 1] = 1.0
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


def reversal_matrix(n_plus_1: int) -> np.ndarray:
    """Anti-diagonal permutation reversing the coordinate order."""
    return np.eye(n_plus_1)[::-1].copy()


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
