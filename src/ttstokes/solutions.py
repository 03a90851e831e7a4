"""Global solution parameters and their equivalent coordinate systems.

A global solution of the periodic Toda field on SL(n+1) is pinned down by an
anti-symmetric vector gamma subject to cyclic gap constraints (a convex
polytope).  This module moves between four descriptions of the same data:

  * the gamma vector itself and its polytope membership,
  * the eigenvalue list of the fundamental monodromy,
  * normalized alcove coordinates (a fundamental Weyl alcove),
  * asymptotic exponent data k.

For sizes 4 and 5 the two free Stokes coefficients have closed forms in
gamma, and ``gamma_to_m0`` composes the eigenvalue list with the calibrated
cross-section to produce the actual monodromy matrix for any size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    NumericalError,
    Tolerance,
    poly_from_roots,
)
from .steinberg import SectionCalibration, reconstruct_from_chi
from .stokes import MonodromyMatrix

_SYM_TOL = 1e-9


@dataclass(frozen=True)
class GammaVector:
    """Anti-symmetric parameter vector, gamma_i + gamma_{n-i} = 0."""

    n_plus_1: int
    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.shape != (self.n_plus_1,):
            raise ValueError(f"expected {self.n_plus_1} entries, got {g.shape}")
        worst = np.max(np.abs(g + g[::-1]))
        if worst > _SYM_TOL:
            raise ValueError(f"gamma_i + gamma_(n-i) = 0 violated by {worst:.3e}")
        object.__setattr__(self, "gamma", g)

    @classmethod
    def zero(cls, n_plus_1: int) -> "GammaVector":
        return cls(n_plus_1, np.zeros(n_plus_1))


def polytope_contains(g: GammaVector, tol: float = 1e-9) -> bool:
    """Cyclic gap constraints: each consecutive difference of gamma is >= -2,
    including the wrap-around gamma_0 - gamma_n >= -2."""
    gam = g.gamma
    diffs = np.append(gam[1:] - gam[:-1], gam[0] - gam[-1])
    return bool(np.min(diffs) >= -2.0 - tol)


def eigenvalues_from_gamma(g: GammaVector) -> np.ndarray:
    """Eigenvalues of the fundamental monodromy, as a list of unit-modulus
    complex numbers in conjugate pairs (plus the fixed eigenvalue 1 when the
    size is odd)."""
    if not polytope_contains(g):
        warnings.warn("gamma outside the polytope: eigenvalues may collide "
                      "or leave the expected arcs", stacklevel=2)
    n1 = g.n_plus_1
    m = n1 // 2
    lams = []
    if n1 % 2 == 0:
        for j in range(m):
            a = np.pi * (g.gamma[j] + 2 * j + 1) / n1
            lams.extend([np.exp(1j * a), np.exp(-1j * a)])
    else:
        for j in range(m):
            a = np.pi * (g.gamma[j] - (n1 - 1) + 2 * j) / n1
            lams.extend([np.exp(1j * a), np.exp(-1j * a)])
        lams.append(1.0 + 0.0j)
    return np.array(lams)


def shift_vector(n_plus_1: int) -> np.ndarray:
    """Integer offsets added to gamma before normalizing to alcove coordinates."""
    m = n_plus_1 // 2
    if n_plus_1 % 2 == 0:
        return np.array([2 * i + 1 if i < m else 2 * i + 1 - 2 * n_plus_1
                         for i in range(n_plus_1)])
    return np.array([2 * i - (n_plus_1 - 1) for i in range(n_plus_1)])


@dataclass(frozen=True)
class AlcovePoint:
    """Normalized coordinates rho, anti-symmetric like gamma; ``in_alcove``
    tests the defining chain of inequalities."""

    n_plus_1: int
    rho: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rho, dtype=float)
        if r.shape != (self.n_plus_1,):
            raise ValueError(f"expected {self.n_plus_1} entries, got {r.shape}")
        worst = np.max(np.abs(r + r[::-1]))
        if worst > _SYM_TOL:
            raise ValueError(f"rho_i + rho_(n-i) = 0 violated by {worst:.3e}")
        object.__setattr__(self, "rho", r)

    def in_alcove(self, tol: float = 1e-9) -> bool:
        m = self.n_plus_1 // 2
        if self.n_plus_1 % 2 == 0:
            seq = np.concatenate([self.rho[m:], self.rho[:m]])
        else:
            seq = self.rho
        ok = np.all(seq[1:] - seq[:-1] >= -tol)
        return bool(ok and seq[-1] <= 2.0 + seq[0] + tol)


def alcove_coords(g: GammaVector) -> AlcovePoint:
    rho = (g.gamma + shift_vector(g.n_plus_1)) / g.n_plus_1
    return AlcovePoint(g.n_plus_1, rho)


def alcove_to_gamma(p: AlcovePoint) -> GammaVector:
    gamma = p.n_plus_1 * p.rho - shift_vector(p.n_plus_1)
    return GammaVector(p.n_plus_1, gamma)


def random_polytope_gamma(n_plus_1: int, rng: np.random.Generator) -> GammaVector:
    """Uniform sample of the polytope, drawn through the alcove chart: the
    free half of rho is a sorted uniform sample of [0, 1] (even size) or of
    the upper half-chain (odd size), the rest follows by anti-symmetry."""
    m = n_plus_1 // 2
    u = np.sort(rng.uniform(0.0, 1.0, size=m))
    rho = np.zeros(n_plus_1)
    if n_plus_1 % 2 == 0:
        rho[:m] = u
        rho[m:] = -u[::-1]
    else:
        rho[m + 1:] = u
        rho[:m] = -u[::-1]
    return alcove_to_gamma(AlcovePoint(n_plus_1, rho))


def s_formulas(n_plus_1: int, g: GammaVector) -> tuple[float, float]:
    """Closed forms for the two free Stokes coefficients, sizes 4 and 5 only."""
    if g.n_plus_1 != n_plus_1:
        raise ValueError("size mismatch between n_plus_1 and gamma")
    if n_plus_1 == 4:
        c0 = np.cos(np.pi * (g.gamma[0] + 1) / 4)
        c1 = np.cos(np.pi * (g.gamma[1] + 3) / 4)
        return -2 * c0 - 2 * c1, -2 - 4 * c0 * c1
    if n_plus_1 == 5:
        c0 = np.cos(np.pi * (g.gamma[0] - 4) / 5)
        c1 = np.cos(np.pi * (g.gamma[1] - 2) / 5)
        return 1 + 2 * c0 + 2 * c1, -2 - 2 * c0 - 2 * c1 - 4 * c0 * c1
    raise ValueError("closed forms are only available for sizes 4 and 5")


def gamma_to_m0(cal: SectionCalibration, g: GammaVector,
                tol: Tolerance = DEFAULT_TOL) -> MonodromyMatrix:
    """Fundamental monodromy with the eigenvalue list of ``g``, realized on
    the calibrated cross-section.

    The eigenvalue list is closed under conjugation, so the characteristic
    coefficients are real; a residual imaginary part beyond ``tol`` aborts.
    """
    n1 = g.n_plus_1
    if cal.n_plus_1 != n1:
        raise ValueError("calibration size does not match gamma size")
    coeffs = poly_from_roots(eigenvalues_from_gamma(g))
    e = np.array([(-1) ** k * coeffs[n1 - k] for k in range(1, n1)])
    drift = np.max(np.abs(e.imag))
    if drift > tol.bound(np.max(np.abs(e)) + 1.0):
        raise NumericalError(f"characteristic coefficients not real: {drift:.3e}")
    mat = reconstruct_from_chi(cal, e.real)
    return MonodromyMatrix(n1, mat)


@dataclass(frozen=True)
class AsymptoticDataK:
    """Exponents k of the asymptotic data.  Entries are real, >= -1, and
    symmetric under i -> n+1-i (index 0 unconstrained); N is the total
    degree n+1+sum(k)."""

    n_plus_1: int
    k: np.ndarray
    c: np.ndarray | None = field(default=None)

    def __post_init__(self):
        kk = np.asarray(self.k, dtype=float)
        if kk.shape != (self.n_plus_1,):
            raise ValueError(f"expected {self.n_plus_1} exponents, got {kk.shape}")
        if not (np.isfinite(kk).all() and np.all(kk >= -1.0 - 1e-12)):
            raise ValueError("exponents must be finite and >= -1")
        for j in range(1, self.n_plus_1):
            partner = (self.n_plus_1 - j) % self.n_plus_1
            if abs(kk[j] - kk[partner]) > _SYM_TOL:
                raise ValueError(f"k[{j}] != k[{partner}] breaks the required symmetry")
        if self.n_plus_1 + np.sum(kk) <= 1e-12:
            raise ValueError("total degree N must be positive")
        object.__setattr__(self, "k", kk)
        if self.c is not None:
            cc = np.asarray(self.c, dtype=float)
            if cc.shape != (self.n_plus_1,):
                raise ValueError("coefficient vector c has wrong length")
            if not (np.isfinite(cc).all() and np.all(cc > 0)):
                raise ValueError("coefficients c must be finite and positive")
            object.__setattr__(self, "c", cc)

    @property
    def N(self) -> float:
        return self.n_plus_1 + float(np.sum(self.k))


def gamma_from_k(a: AsymptoticDataK) -> GammaVector:
    """Gamma determined by asymptotic exponent data.

    The scaled exponents give the consecutive differences of an auxiliary
    vector; anchoring by anti-symmetry fixes the constant and gamma is minus
    twice the result.
    """
    n1 = a.n_plus_1
    delta = 1.0 - n1 * (a.k + 1.0) / a.N
    partial = np.cumsum(delta)
    m_last = -delta[0] / 2.0
    m_vec = np.append(m_last + partial[:-1], m_last)
    return GammaVector(n1, -2.0 * m_vec)
