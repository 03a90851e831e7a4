"""Connection coefficient matrices of the periodic Toda field and their
symmetry identities.

The central objects:

  * ``W``, the cyclic matrix with superdiagonal e^{w_{i+1}-w_i} and corner
    e^{w_0-w_n}, equal to e^{-w} Pi e^{w} for the plain shift Pi;
  * ``alpha_hat``, the loop-parameter coefficient
    -zeta^-2 W^T - zeta^-1 diag(x w_x) + x^2 W of the flat 1-form;
  * the Fourier-type diagonalizers of W and W^T and the exact scalar bridge
    between the signed and plain shifts;
  * ``omega_hat``, the asymptotic 1-form coefficient built from exponent
    data k and residue coefficients c;
  * the Toda right-hand side diag[W^T, W].

Symmetries are identities of 1-forms.  At the coefficient level each change
of variable contributes its derivative, so the checks implemented here read

    tau(A(zeta))   = omega * A(omega zeta)
    sigma(A(zeta)) = -A(-zeta)
    c(A(zeta))     = -x^-2 zbar^-2 * A(1 / (x^2 zbar))
    conj(A(zbar))  = A(zeta)

and membership in the twisted real form on the circle |zeta| = 1/x is
tested on B = i zeta A(zeta), which the reversal-conjugation fixes exactly.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    fourier_matrix,
    max_abs,
    nan_max,
    omega_diag,
    omega_pow,
    rel_residual,
    shift_matrix,
    signed_shift_matrix,
)
from .solutions import AsymptoticDataK, gamma_from_k
from .stokes import q_pattern

_SYM_TOL = 1e-9
_MAX_RADIUS = math.sqrt(sys.float_info.max)  # the largest x whose x**2 is finite


@dataclass(frozen=True)
class TodaField:
    """Pointwise field data: the values w_i, the radius x = |t| > 0, and the
    caller-supplied scaled derivative values x * dw/dx.

    Both vectors should satisfy v_i + v_{n-i} = 0.  A violation only breaks
    the anti-symmetry and reality identities, and the negative controls need
    such fields, so it warns instead of raising.
    """

    n_plus_1: int
    w: np.ndarray
    x: float
    xwx: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        v = np.asarray(self.xwx, dtype=float)
        if w.shape != (self.n_plus_1,) or v.shape != (self.n_plus_1,):
            raise ValueError("w and xwx must both have length n_plus_1")
        if not 0 < self.x <= _MAX_RADIUS:
            raise ValueError("x must be a positive radius with a finite square, "
                             f"got {self.x}")
        worst = nan_max(np.max(np.abs(w + w[::-1])), np.max(np.abs(v + v[::-1])))
        if not worst <= _SYM_TOL:
            warnings.warn(f"field breaks v_i + v_(n-i) = 0 by {worst:.3e}; "
                          "anti-symmetry and reality identities will fail",
                          stacklevel=2)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "xwx", v)


def build_W(f: TodaField) -> np.ndarray:
    """Cyclic matrix e^{-w} Pi e^{w}, written out entrywise."""
    n1 = f.n_plus_1
    i = np.arange(n1)
    mat = np.zeros((n1, n1), dtype=complex)
    mat[i, (i + 1) % n1] = np.exp(np.roll(f.w, -1) - f.w)
    return mat


def _alpha_hat_stack(f: TodaField, zetas) -> np.ndarray:
    """alpha_hat at every zeta, as one (len(zetas), n+1, n+1) stack.

    Each square is taken on the scalar as given: an array ``z**2`` can differ
    from the scalar one in the last bit.
    """
    z = np.array(zetas, dtype=complex)
    if np.any(z == 0):
        raise ValueError("alpha_hat has a pole at zeta = 0")
    sq = np.array([zeta**2 for zeta in zetas], dtype=complex)
    w = build_W(f)
    return (-w.T / sq[:, None, None]
            - np.diag(f.xwx).astype(complex) / z[:, None, None]
            + f.x**2 * w)


def build_alpha_hat(f: TodaField, zeta: complex) -> np.ndarray:
    return _alpha_hat_stack(f, [zeta])[0]


def _tau(mats: np.ndarray) -> np.ndarray:
    d = omega_diag(mats.shape[-1])
    return np.linalg.inv(d) @ mats @ d


def _sigma(mats: np.ndarray) -> np.ndarray:
    """-R A^T R for the reversal R, as an index flip."""
    return -np.swapaxes(mats, -1, -2)[..., ::-1, ::-1]


def _creal(mats: np.ndarray) -> np.ndarray:
    """R conj(A) R for the reversal R, as an index flip."""
    return np.conj(mats)[..., ::-1, ::-1]


@dataclass(frozen=True)
class SymmetryReport:
    n_plus_1: int
    cyclic: float
    anti: float
    reality: float
    conj: float
    real_form: float
    passed: bool


def symmetry_report(f: TodaField, zeta_samples: int = 20,
                    seed: int = 0) -> SymmetryReport:
    """Max residuals of the five coefficient-level symmetry identities over
    random loop-parameter samples (the real-form check runs on the circle
    |zeta| = 1/x where it is meaningful)."""
    if zeta_samples < 1:
        raise ValueError("need at least one sample")
    n1 = f.n_plus_1
    rng = np.random.default_rng(seed)
    om = omega_pow(n1, 1)
    args, jac, circ = [], [], []
    for _ in range(zeta_samples):
        zeta = np.exp(rng.uniform(-1, 1)) * np.exp(2j * np.pi * rng.uniform())
        zc = np.conj(zeta)
        circle = np.exp(2j * np.pi * rng.uniform()) / f.x
        args.append((zeta, om * zeta, -zeta, 1.0 / (f.x**2 * zc), zc, circle))
        jac.append(f.x**2 * zc**2)
        circ.append(1j * circle)
    # six blocks of zeta_samples members, one per argument column
    a, a_om, a_neg, a_c, a_zc, a_circ = _alpha_hat_stack(
        f, [z for col in zip(*args) for z in col]).reshape(6, zeta_samples, n1, n1)
    b = np.array(circ)[:, None, None] * a_circ
    res = np.array([
        rel_residual(_tau(a), om * a_om),
        rel_residual(_sigma(a), -a_neg),
        rel_residual(_creal(a), -a_c / np.array(jac)[:, None, None]),
        rel_residual(np.conj(a_zc), a),
        rel_residual(_creal(b), b),
    ])
    passed = bool(np.max(res) < 1e-10)
    return SymmetryReport(n1, *res, passed)


@dataclass(frozen=True)
class DiagonalizerReport:
    n_plus_1: int
    fourier_residual: float
    w_residual: float
    wt_residual: float
    bridge_residual: float
    pattern_ok: bool
    passed: bool


def _inner_diagonal(n1: int) -> np.ndarray:
    """Diagonal factor of the diagonalizers: omega^(i/2) entries for even
    size, omega^(i(m+1)) for odd size."""
    if n1 % 2 == 0:
        return np.diag([omega_pow(n1, i / 2) for i in range(n1)])
    m = n1 // 2
    return np.diag([omega_pow(n1, i * (m + 1)) for i in range(n1)])


def diagonalizer_check(f: TodaField) -> DiagonalizerReport:
    """Residuals of the diagonalization identities.

    The Fourier matrix diagonalizes the shift; dressing with e^{+-w} and the
    inner diagonal diagonalizes W and W^T; and conjugating the relevant
    shift by the inner diagonal is exactly a scalar times the plain shift
    (omega^(-1/2) for even sizes on the signed shift, omega^-(m+1) for odd
    sizes on the shift itself).  The last check confirms that conjugation by
    the inner diagonal preserves Stokes-factor support patterns.
    """
    n1 = f.n_plus_1
    d = omega_diag(n1)
    om = fourier_matrix(n1)
    om_inv = np.conj(om) / n1
    r_fourier = max_abs(shift_matrix(n1) - om @ d @ om_inv)

    d0 = _inner_diagonal(n1)
    d0_inv = np.conj(d0)
    ew = np.diag(np.exp(f.w))
    ewi = np.diag(np.exp(-f.w))
    p0 = ewi @ om @ d0
    p0_inv = d0_inv @ om_inv @ ew
    p_inf = ew @ om_inv @ d0_inv
    p_inf_inv = d0 @ om @ ewi

    w = build_W(f)
    r_w = max_abs(w - p0 @ d @ p0_inv)
    r_wt = max_abs(w.T - p_inf @ d @ p_inf_inv)

    if n1 % 2 == 0:
        bridge = d0 @ signed_shift_matrix(n1).astype(complex) @ d0_inv
        r_bridge = max_abs(bridge - omega_pow(n1, -0.5) * shift_matrix(n1))
    else:
        m = n1 // 2
        bridge = d0 @ shift_matrix(n1).astype(complex) @ d0_inv
        r_bridge = max_abs(bridge - omega_pow(n1, -(m + 1)) * shift_matrix(n1))

    pat = q_pattern(n1, 0)
    probe = np.eye(n1) + pat.astype(complex)
    conj_probe = d0_inv @ probe @ d0
    pattern_ok = bool(np.array_equal(np.abs(conj_probe) > 1e-12,
                                     np.abs(probe) > 1e-12))

    res = (r_fourier, r_w, r_wt, r_bridge)
    passed = bool(nan_max(*res) < 1e-10 and pattern_ok)
    return DiagonalizerReport(n1, *res, pattern_ok, passed)


@dataclass(frozen=True)
class OmegaHatData:
    """Asymptotic 1-form data: positive residue coefficients c, exponents k
    (each >= -1, symmetric under i -> n+1-i), and the complex parameter z.

    The diagonal vector m is derived from k, never supplied: it is -gamma/2
    for the gamma determined by the exponents, hence anti-symmetric.  The
    anti-symmetry identity for the 1-form additionally needs c symmetric
    under the same index involution; that is the caller's choice, and the
    symmetry report exposes the violation rather than this constructor.
    """

    n_plus_1: int
    c: np.ndarray
    k: np.ndarray
    z: complex
    m: np.ndarray = field(init=False)

    def __post_init__(self):
        cc = np.asarray(self.c, dtype=float)
        if cc.shape != (self.n_plus_1,):
            raise ValueError("c must have length n_plus_1")
        if not (np.isfinite(cc).all() and np.all(cc > 0)):
            raise ValueError("residue coefficients c must be finite and positive")
        if not (self.z != 0 and cmath.isfinite(self.z)):
            raise ValueError("parameter z must be finite and nonzero")
        data = AsymptoticDataK(self.n_plus_1, self.k)  # validates k
        object.__setattr__(self, "c", cc)
        object.__setattr__(self, "k", data.k)
        object.__setattr__(self, "m", -gamma_from_k(data).gamma / 2.0)

    @property
    def N(self) -> float:
        return self.n_plus_1 + float(np.sum(self.k))


def _omega_hat_stack(d: OmegaHatData, lams) -> np.ndarray:
    """omega_hat at every lambda, as one (len(lams), n+1, n+1) stack; the
    scalar factor of eta is formed per lambda as in the one-matrix formula."""
    lam = np.array(lams, dtype=complex)
    if np.any(lam == 0):
        raise ValueError("omega_hat has a pole at lambda = 0")
    n1 = d.n_plus_1
    scale = -(n1 / d.N)
    coef = np.array([scale * (d.z / lam_j**2) for lam_j in lams], dtype=complex)
    i = np.arange(n1)
    eta = np.zeros((n1, n1), dtype=complex)
    eta[i, (i - 1) % n1] = d.c * np.power(complex(d.z), d.k)
    return (coef[:, None, None] * eta
            + np.diag(d.m).astype(complex) / lam[:, None, None])


def build_omega_hat(d: OmegaHatData, lam: complex) -> np.ndarray:
    """Coefficient -(n+1)/N * z/lambda^2 * eta + m/lambda, with eta carrying
    p_i = c_i z^{k_i} on the subdiagonal and p_0 in the top-right corner."""
    return _omega_hat_stack(d, [lam])[0]


@dataclass(frozen=True)
class OmegaHatSymmetryReport:
    n_plus_1: int
    cyclic: float
    anti: float
    passed: bool


def omega_hat_symmetry_report(d: OmegaHatData, lambda_samples: int = 20,
                              seed: int = 0) -> OmegaHatSymmetryReport:
    """Cyclic and anti-symmetry residuals at coefficient level:
    tau(f(lambda)) = omega f(omega lambda) and sigma(f(lambda)) = -f(-lambda).
    The cyclic identity is structural; the anti-symmetry one holds exactly
    when c is index-symmetric."""
    if lambda_samples < 1:
        raise ValueError("need at least one sample")
    n1 = d.n_plus_1
    rng = np.random.default_rng(seed)
    om = omega_pow(n1, 1)
    lams = [np.exp(rng.uniform(-1, 1)) * np.exp(2j * np.pi * rng.uniform())
            for _ in range(lambda_samples)]
    fmat, f_om, f_neg = _omega_hat_stack(
        d, lams + [om * lam for lam in lams] + [-lam for lam in lams]
    ).reshape(3, lambda_samples, n1, n1)
    r_cyc = rel_residual(_tau(fmat), om * f_om)
    r_anti = rel_residual(_sigma(fmat), -f_neg)
    passed = bool(nan_max(r_cyc, r_anti) < 1e-10)
    return OmegaHatSymmetryReport(n1, r_cyc, r_anti, passed)


def toda_rhs(f: TodaField) -> np.ndarray:
    """Diagonal of [W^T, W] as a real vector: entry j is
    e^{2(w_j - w_{j-1})} - e^{2(w_{j+1} - w_j)} with cyclic indices."""
    w = build_W(f)
    comm = w.T @ w - w @ w.T
    return np.diag(comm).real.copy()
