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

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    fourier_matrix,
    max_abs,
    omega_diag,
    omega_pow,
    rel_residuals,
    shift_matrix,
    signed_shift_matrix,
)
from .solutions import AsymptoticDataK, _check_members, _member, gamma_from_k
from .stokes import q_pattern

_SYM_TOL = 1e-9
_MAX_RADIUS = math.sqrt(sys.float_info.max)  # the largest x whose x**2 is finite


@dataclass(frozen=True)
class TodaField:
    """Pointwise field data: the values w_i, the radius x = |t| > 0, and the
    caller-supplied scaled derivative values x * dw/dx.

    One field has w and xwx of shape (n+1,) and a scalar x.  A stack of S
    fields has them of shape (S, n+1), one member per row, with x of shape
    (S,); every function of this module takes either.

    Both vectors should satisfy v_i + v_{n-i} = 0.  A violation only breaks
    the anti-symmetry and reality identities, and the negative controls need
    such fields, so it warns instead of raising: once per breaking member,
    in member order.
    """

    n_plus_1: int
    w: np.ndarray
    x: float
    xwx: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        v = np.asarray(self.xwx, dtype=float)
        if w.ndim not in (1, 2) or w.shape[-1] != self.n_plus_1 or v.shape != w.shape:
            raise ValueError("w and xwx must both have length n_plus_1 "
                             "(shape (S, n_plus_1) for a stack)")
        if np.shape(self.x) != w.shape[:-1]:
            raise ValueError(f"x must hold one radius per member, got shape "
                             f"{np.shape(self.x)} for fields of shape {w.shape}")
        xs = np.reshape(self.x, -1).tolist()
        for k, x in enumerate(xs):
            if not 0 < x <= _MAX_RADIUS:
                raise ValueError("x must be a positive radius with a finite square, "
                                 f"got {x}{_member(w.ndim, k)}")
        worst = np.maximum(np.max(np.abs(w + w[..., ::-1]), axis=-1),
                           np.max(np.abs(v + v[..., ::-1]), axis=-1))
        for k in np.flatnonzero(~(worst <= _SYM_TOL)).tolist():
            warnings.warn(f"field breaks v_i + v_(n-i) = 0 by "
                          f"{np.reshape(worst, -1)[k]:.3e}{_member(w.ndim, k)}; "
                          "anti-symmetry and reality identities will fail",
                          stacklevel=3)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", xs[0] if w.ndim == 1 else np.array(xs))
        object.__setattr__(self, "xwx", v)


def build_W(f: TodaField) -> np.ndarray:
    """Cyclic matrix e^{-w} Pi e^{w}, written out entrywise: (n+1, n+1), or
    (S, n+1, n+1) for a stack."""
    n1 = f.n_plus_1
    i = np.arange(n1)
    up = (i + 1) % n1
    mat = np.zeros(f.w.shape[:-1] + (n1, n1), dtype=complex)
    mat[..., i, up] = np.exp(f.w[..., up] - f.w)
    return mat


def _alpha_hat_stack(f: TodaField, zetas) -> np.ndarray:
    """alpha_hat at every zeta: (len(zetas), n+1, n+1) for one field, and
    (S, m, n+1, n+1) for a stack, whose ``zetas`` holds m values per member.

    Only the 3(n+1) nonzero entries are computed: W^T / zeta^2 on the
    subdiagonal and corner, x w_x / zeta on the diagonal, x^2 W on the
    superdiagonal and corner. Each square, of a zeta or of a radius x, is
    taken on the scalar as given: an array ``z**2`` can differ from the
    scalar one in the last bit.
    """
    z = np.array(zetas, dtype=complex)
    if np.any(z == 0):
        raise ValueError("alpha_hat has a pole at zeta = 0")
    flat = zetas if f.w.ndim == 1 else [zeta for row in zetas for zeta in row]
    sq = np.array([zeta**2 for zeta in flat], dtype=complex).reshape(z.shape)
    n1 = f.n_plus_1
    i = np.arange(n1)
    up = (i + 1) % n1
    w = build_W(f)[..., None, i, up]
    x2 = np.reshape([x**2 for x in np.reshape(f.x, -1).tolist()], np.shape(f.x))
    out = np.zeros(z.shape + (n1, n1), dtype=complex)
    out[..., up, i] = -w / sq[..., None]
    out[..., i, i] = -(f.xwx.astype(complex)[..., None, :] / z[..., None])
    out[..., i, up] = x2[..., None, None] * w
    return out


def _tau(mats: np.ndarray) -> np.ndarray:
    d = omega_diag(mats.shape[-1])
    return np.linalg.inv(d) @ mats @ d


def _sigma(mats: np.ndarray) -> np.ndarray:
    """-R A^T R for the reversal R, as an index flip."""
    return -np.swapaxes(mats, -1, -2)[..., ::-1, ::-1]


def _creal(mats: np.ndarray) -> np.ndarray:
    """R conj(A) R for the reversal R, as an index flip."""
    return np.conj(mats)[..., ::-1, ::-1]


def _report(cls, n1: int, *fields):
    """``cls`` holding one value per field for one member, and the (S,)
    array of each field for a stack."""
    fields = [np.asarray(v) for v in fields]
    if fields[0].ndim == 0:
        return cls(n1, *(v.item() for v in fields))
    return cls(n1, *fields)


def _member_draws(seed: int, members: int, samples: int, cols: int) -> list:
    """Each member's uniforms on [0, 1), ``samples`` rows of ``cols``, member
    k drawing from ``default_rng(seed + k)``; a row holds the values that
    ``cols`` scalar ``rng.uniform()`` calls return."""
    return [np.random.default_rng(seed + k).random((samples, cols)).tolist()
            for k in range(members)]


@dataclass(frozen=True)
class SymmetryReport:
    """Worst residual of each symmetry identity: numpy floats for one field,
    (S,) arrays for a stack."""

    n_plus_1: int
    cyclic: float
    anti: float
    reality: float
    conj: float
    real_form: float


def symmetry_report(f: TodaField, zeta_samples: int = 20,
                    seed: int = 0) -> SymmetryReport:
    """Max residuals of the five coefficient-level symmetry identities over
    random loop-parameter samples (the real-form check runs on the circle
    |zeta| = 1/x where it is meaningful).

    Member k of a stack draws its samples from ``default_rng(seed + k)``, so
    each member's report equals that of its own call with that seed.
    """
    if zeta_samples < 1:
        raise ValueError("need at least one sample")
    n1 = f.n_plus_1
    lead = f.w.shape[:-1]
    om = omega_pow(n1, 1)
    xs = np.reshape(f.x, -1).tolist()
    zetas, jac, circ = [], [], []
    for x, draws in zip(xs, _member_draws(seed, len(xs), zeta_samples, 3)):
        args = []
        for r, turn, turn_c in draws:
            # -1 + 2 r is the value rng.uniform(-1, 1) makes of the same draw
            zeta = np.exp(-1.0 + 2.0 * r) * np.exp(2j * np.pi * turn)
            zc = np.conj(zeta)
            circle = np.exp(2j * np.pi * turn_c) / x
            args.append((zeta, om * zeta, -zeta, 1.0 / (x**2 * zc), zc, circle))
            jac.append(x**2 * zc**2)
            circ.append(1j * circle)
        # six blocks of zeta_samples values, one per argument column
        zetas.append([z for col in zip(*args) for z in col])
    stack = _alpha_hat_stack(f, zetas[0] if not lead else zetas)
    a, a_om, a_neg, a_c, a_zc, a_circ = np.moveaxis(
        stack.reshape(lead + (6, zeta_samples, n1, n1)), -4, 0)
    jac = np.reshape(jac, lead + (zeta_samples, 1, 1))
    b = np.reshape(circ, lead + (zeta_samples, 1, 1)) * a_circ
    res = np.array([
        rel_residuals(_tau(a), om * a_om),
        rel_residuals(_sigma(a), -a_neg),
        rel_residuals(_creal(a), -a_c / jac),
        rel_residuals(np.conj(a_zc), a),
        rel_residuals(_creal(b), b),
    ]).max(axis=-1)
    # one field's residuals are numpy floats, as this report has always given
    return SymmetryReport(n1, *res)


@dataclass(frozen=True)
class DiagonalizerReport:
    """Residuals of the diagonalization identities and the pattern fact:
    floats and a bool for one field, (S,) arrays for a stack."""

    n_plus_1: int
    fourier_residual: float
    w_residual: float
    wt_residual: float
    bridge_residual: float
    pattern_ok: bool


def _inner_diagonal(n1: int) -> np.ndarray:
    """Diagonal factor of the diagonalizers: omega^(i/2) entries for even
    size, omega^(i(m+1)) for odd size."""
    if n1 % 2 == 0:
        return np.diag([omega_pow(n1, i / 2) for i in range(n1)])
    m = n1 // 2
    return np.diag([omega_pow(n1, i * (m + 1)) for i in range(n1)])


def _diag(v: np.ndarray) -> np.ndarray:
    """np.diag of each row of ``v``: the stack (..., n, n)."""
    i = np.arange(v.shape[-1])
    out = np.zeros(v.shape + v.shape[-1:], dtype=v.dtype)
    out[..., i, i] = v
    return out


def diagonalizer_check(f: TodaField) -> DiagonalizerReport:
    """Residuals of the diagonalization identities.

    The Fourier matrix diagonalizes the shift; dressing with e^{+-w} and the
    inner diagonal diagonalizes W and W^T; and conjugating the relevant
    shift by the inner diagonal is exactly a scalar times the plain shift
    (omega^(-1/2) for even sizes on the signed shift, omega^-(m+1) for odd
    sizes on the shift itself).  The last check confirms that conjugation by
    the inner diagonal preserves Stokes-factor support patterns.  The
    Fourier, bridge and pattern checks do not involve the field, so a stack
    makes them once and every member reports the same values.
    """
    n1 = f.n_plus_1
    lead = f.w.shape[:-1]
    d = omega_diag(n1)
    om = fourier_matrix(n1)
    om_inv = np.conj(om) / n1
    r_fourier = max_abs(shift_matrix(n1) - om @ d @ om_inv)

    d0 = _inner_diagonal(n1)
    d0_inv = np.conj(d0)
    # stacked products with the diagonal matrices, as the one-field matmuls:
    # scaling rows or columns by broadcasting rounds differently
    ew = _diag(np.exp(f.w))
    ewi = _diag(np.exp(-f.w))
    p0 = ewi @ om @ d0
    p0_inv = d0_inv @ om_inv @ ew
    p_inf = ew @ om_inv @ d0_inv
    p_inf_inv = d0 @ om @ ewi

    w = build_W(f)
    axes = (-2, -1)
    r_w = np.max(np.abs(w - p0 @ d @ p0_inv), axis=axes)
    r_wt = np.max(np.abs(np.swapaxes(w, -1, -2) - p_inf @ d @ p_inf_inv), axis=axes)

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

    return _report(DiagonalizerReport, n1, np.full(lead, r_fourier), r_w, r_wt,
                   np.full(lead, r_bridge), np.full(lead, pattern_ok))


@dataclass(frozen=True)
class OmegaHatData:
    """Asymptotic 1-form data: positive residue coefficients c, exponents k
    (each >= -1, symmetric under i -> n+1-i), and the complex parameter z.

    One member has c and k of shape (n+1,) and a scalar z; a stack has them
    of shape (S, n+1), one member per row, with z of shape (S,).  Validation
    runs per member, and a stack's error names its first failing member.

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
        if cc.ndim not in (1, 2) or cc.shape[-1] != self.n_plus_1:
            raise ValueError("c must have length n_plus_1")
        z = np.asarray(self.z, dtype=complex)
        if z.shape != cc.shape[:-1]:
            raise ValueError(f"z must hold one value per member, got shape "
                             f"{z.shape} for c of shape {cc.shape}")
        _check_members(np.isfinite(cc).all(-1) & np.all(cc > 0, axis=-1),
                       "residue coefficients c must be finite and positive")
        _check_members((z != 0) & np.isfinite(z),
                       "parameter z must be finite and nonzero")
        data = AsymptoticDataK(self.n_plus_1, self.k)  # validates k
        if data.k.shape != cc.shape:
            raise ValueError(f"k of shape {data.k.shape} does not match c of "
                             f"shape {cc.shape}")
        object.__setattr__(self, "c", cc)
        object.__setattr__(self, "k", data.k)
        object.__setattr__(self, "z", z.item() if z.ndim == 0 else z)
        object.__setattr__(self, "m", -gamma_from_k(data).gamma / 2.0)

    @property
    def N(self):
        """The total degree: a float, or an (S,) array for a stack."""
        n = self.n_plus_1 + np.sum(self.k, axis=-1)
        return float(n) if n.ndim == 0 else n


def _omega_hat_stack(d: OmegaHatData, lams) -> np.ndarray:
    """omega_hat at every lambda: (len(lams), n+1, n+1) for one member, and
    (S, m, n+1, n+1) for a stack, whose ``lams`` holds m values per member.
    The coefficient is -(n+1)/N * z/lambda^2 * eta + m/lambda, with eta
    carrying p_i = c_i z^{k_i} on the subdiagonal and p_0 in the top-right
    corner; the scalar factor of eta is formed per lambda."""
    lam = np.array(lams, dtype=complex)
    if np.any(lam == 0):
        raise ValueError("omega_hat has a pole at lambda = 0")
    n1 = d.n_plus_1
    rows = [lams] if d.c.ndim == 1 else lams
    coef = np.array([[-(n1 / big_n) * (z / lam_j**2) for lam_j in row]
                     for z, big_n, row in zip(np.reshape(d.z, -1).tolist(),
                                              np.reshape(d.N, -1).tolist(), rows)],
                    dtype=complex).reshape(lam.shape)
    i = np.arange(n1)
    eta = np.zeros(d.c.shape + (n1,), dtype=complex)
    eta[..., i, (i - 1) % n1] = d.c * np.power(np.asarray(d.z)[..., None], d.k)
    return (coef[..., None, None] * eta[..., None, :, :]
            + _diag(d.m).astype(complex)[..., None, :, :] / lam[..., None, None])


@dataclass(frozen=True)
class OmegaHatSymmetryReport:
    """Worst cyclic and anti-symmetry residuals: floats for one member,
    (S,) arrays for a stack."""

    n_plus_1: int
    cyclic: float
    anti: float


def omega_hat_symmetry_report(d: OmegaHatData, lambda_samples: int = 20,
                              seed: int = 0) -> OmegaHatSymmetryReport:
    """Cyclic and anti-symmetry residuals at coefficient level:
    tau(f(lambda)) = omega f(omega lambda) and sigma(f(lambda)) = -f(-lambda).
    The cyclic identity is structural; the anti-symmetry one holds exactly
    when c is index-symmetric.

    Member k of a stack draws its samples from ``default_rng(seed + k)``, so
    each member's report equals that of its own call with that seed.
    """
    if lambda_samples < 1:
        raise ValueError("need at least one sample")
    n1 = d.n_plus_1
    lead = d.c.shape[:-1]
    om = omega_pow(n1, 1)
    rows = []
    for draws in _member_draws(seed, int(np.prod(lead)), lambda_samples, 2):
        lams = [np.exp(-1.0 + 2.0 * r) * np.exp(2j * np.pi * turn) for r, turn in draws]
        rows.append(lams + [om * lam for lam in lams] + [-lam for lam in lams])
    stack = _omega_hat_stack(d, rows[0] if not lead else rows)
    fmat, f_om, f_neg = np.moveaxis(
        stack.reshape(lead + (3, lambda_samples, n1, n1)), -4, 0)
    r_cyc = rel_residuals(_tau(fmat), om * f_om).max(axis=-1)
    r_anti = rel_residuals(_sigma(fmat), -f_neg).max(axis=-1)
    return _report(OmegaHatSymmetryReport, n1, r_cyc, r_anti)


def toda_rhs(f: TodaField) -> np.ndarray:
    """Diagonal of [W^T, W] as a real vector: entry j is
    e^{2(w_j - w_{j-1})} - e^{2(w_{j+1} - w_j)} with cyclic indices.  A
    stack gives one row per member."""
    w = build_W(f)
    wt = np.swapaxes(w, -1, -2)
    comm = wt @ w - w @ wt
    return np.diagonal(comm, axis1=-2, axis2=-1).real.copy()
