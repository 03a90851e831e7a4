"""Connection coefficient matrices of the periodic Toda field and their
symmetry identities.

The central objects:

  * ``W``, the cyclic matrix with superdiagonal e^{w_{i+1}-w_i} and corner
    e^{w_0-w_n}, equal to e^{-w} Pi e^{w} for the plain shift Pi.  Its n+1
    nonzero entries a_j = e^{w_{j+1}-w_j}, its band, are derived once per
    field, and everything that reads W reads them;
  * ``alpha_hat``, the loop-parameter coefficient
    -zeta^-2 W^T - zeta^-1 diag(x w_x) + x^2 W of the flat 1-form;
  * the Fourier-type diagonalizers of W and W^T and the exact scalar bridge
    between the signed and plain shifts;
  * ``omega_hat``, the asymptotic 1-form coefficient built from exponent
    data k and residue coefficients c;
  * the Toda right-hand side diag[W^T, W], which is a_{j-1}^2 - a_j^2 on
    the band.  [W^T, W] is diagonal: W has one nonzero entry per row and
    column, so every off-diagonal product has a factor that is exactly 0.

Symmetries are identities of 1-forms.  At the coefficient level each change
of variable contributes its derivative, so the checks implemented here read

    tau(A(zeta))   = omega * A(omega zeta)
    sigma(A(zeta)) = -A(-zeta)
    c(A(zeta))     = -x^-2 zbar^-2 * A(1 / (x^2 zbar))
    conj(A(zbar))  = A(zeta)

and membership in the twisted real form on the circle |zeta| = 1/x is
tested on B = i zeta A(zeta), which the reversal-conjugation fixes exactly.

The reports keep alpha_hat and omega_hat on their bands.  alpha_hat has
3(n+1) nonzero entries and omega_hat 2(n+1), so a stack of them is held as
(..., 3, n+1) or (..., 2, n+1): band 0 holds the entries (j+1, j), band 1
the diagonal (j, j) and band 2 (alpha_hat only) the entries (j, j+1),
indices cyclic.  Entry (i, j) of R A^T R is A's (n-j, n-i) and of R A R
is A's (n-i, n-j) for the reversal R, so on the bands both are exact index
maps: an off-diagonal entry j comes from entry n-1-j (of the same band for
R A^T R, of the other off-diagonal band for R A R), a diagonal entry j
from entry n-j.  The sigma, reality, conjugation and real-form identities
are these maps with negation and conjugation, compared band to band; off
the bands both sides are 0, so the residuals are those of the dense
matrices bit for bit.  That needs n+1 >= 3: at n+1 = 2 the two
off-diagonal bands are the same entries.  The tau identity stays dense:
D^-1 A D is the stacked matmuls of the dense matrices (scaling the bands
by D's entries rounds differently from the matmul), and its right-hand
side is subtracted on the bands.  Each report makes its own products:
joining the two reports' products would need each report's first samples
built apart from its other arguments, which costs more than it saves.

The samples of a report are built as whole arrays with the values the
per-sample scalar arithmetic gives, bit for bit.  Two operations need care:
a product of two complex sample values is written out in real parts (numpy's
vectorized complex multiply can differ from the scalar one in the last bit),
and a square is ``np.power(z, 2)``, not the ``z**2`` fast path, for a complex
z, and Python's ``x**2`` for a radius x.  Member k of a stack draws its
uniforms from ``default_rng(seed + k)``; the lambda samples of
:func:`omega_hat_symmetry_report` are the first uniforms of the zeta samples
of :func:`symmetry_report` with the same seed, so a caller that runs both
draws once per member and hands each core its slice.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import (
    cyclic_for,
    fourier_matrix,
    max_abs,
    omega_diag,
    omega_pow,
    rel_residuals,
    shift_matrix,
)
from .roots import _check_size, table_supported_roots
from .solutions import _SYM_TOL, AsymptoticDataK, _check_members, _member, gamma_from_k

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
    in member order.  The size n+1 is at least 3, as everywhere in the
    package (see the module docstring for why the bands need it).

    Two read-only arrays are derived once, from the values given: ``a``,
    W's band a_j = e^{w_{j+1} - w_j} (the last wraps to w_0) in the shape
    of w, and ``x2``, each member's x**2 in the shape of x (0-d for one
    field), squared as Python squares a float because an array square can
    differ in the last bit.  A caller who edits ``w`` in place needs a new
    field.
    """

    n_plus_1: int
    w: np.ndarray
    x: float
    xwx: np.ndarray
    a: np.ndarray = field(init=False, repr=False, compare=False)
    x2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_size(self.n_plus_1)
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
        up = (np.arange(self.n_plus_1) + 1) % self.n_plus_1
        derived = {"a": np.exp(w[..., up] - w),
                   "x2": np.reshape([x**2 for x in xs], np.shape(self.x))}
        for name, value in derived.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)


def build_W(f: TodaField) -> np.ndarray:
    """Cyclic matrix e^{-w} Pi e^{w}, its band scattered to (j, j+1):
    (n+1, n+1), or (S, n+1, n+1) for a stack."""
    n1 = f.n_plus_1
    i = np.arange(n1)
    mat = np.zeros(f.w.shape[:-1] + (n1, n1), dtype=complex)
    mat[..., i, (i + 1) % n1] = f.a
    return mat


class _Tables(NamedTuple):
    """One size's read-only tables: the band bookkeeping of the symmetry
    reports and the field-free part of :func:`diagonalizer_check`.  Band 0
    holds the entries (j+1, j), band 1 the diagonal and band 2 the entries
    (j, j+1), indices cyclic; a stack's bands are indexed flat, band by band,
    and a two-band stack uses the first 2(n+1) indices of ``flat`` and
    ``transposed``."""

    flat: np.ndarray        # the dense index i (n+1) + j of each band entry
    transposed: np.ndarray  # the band entries of A that R A^T R's take
    reversed: np.ndarray    # the band entries of A that R A R's take
    d_inv: np.ndarray       # D^-1 and D, D = diag(omega^i)
    d: np.ndarray
    om: np.ndarray             # the Fourier matrix and its inverse
    om_inv: np.ndarray
    d0: np.ndarray             # the inner diagonal and its inverse
    d0_inv: np.ndarray
    d0_inv_om_inv: np.ndarray  # d0^-1 om^-1 and d0 om, the first products of
    d0_om: np.ndarray          # p0^-1 = d0^-1 om^-1 e^w and p_inf^-1 = d0 om e^-w
    r_fourier: float
    r_bridge: float
    pattern_ok: bool


def _tables(n1: int) -> _Tables:
    """The tables of size n+1, built afresh on each call: a caller that
    checks one size many times builds them once and passes them on."""
    j = np.arange(n1)
    up = (j + 1) % n1
    # an off-diagonal entry j of R A^T R or R A R is entry n-1-j of A's
    # same or other off-diagonal band, a diagonal entry j is A's n-j
    off, dia = (n1 - 2 - j) % n1, n1 - 1 - j
    d = omega_diag(n1)
    om = fourier_matrix(n1)
    om_inv = np.conj(om) / n1
    r_fourier = max_abs(shift_matrix(n1) - om @ d @ om_inv)

    # the inner diagonal diag(omega^(i e)), e = 1/2 at even size and m + 1 at
    # odd size, takes the Stokes recursion's shift to omega^-e times the plain one
    e = 0.5 if n1 % 2 == 0 else n1 // 2 + 1
    d0 = np.diag([omega_pow(n1, i * e) for i in range(n1)])
    d0_inv = np.conj(d0)
    bridge = d0 @ cyclic_for(n1).astype(complex) @ d0_inv
    r_bridge = max_abs(bridge - omega_pow(n1, -e) * shift_matrix(n1))

    # the head direction's pattern: the diagonal and its supported roots
    pat = np.eye(n1, dtype=bool)
    pat[tuple(np.array(table_supported_roots(n1, "head")).T)] = True
    probe = np.eye(n1) + pat.astype(complex)
    conj_probe = d0_inv @ probe @ d0
    pattern_ok = bool(np.array_equal(np.abs(conj_probe) > 1e-12,
                                     np.abs(probe) > 1e-12))

    arrays = (np.concatenate([up * n1 + j, j * n1 + j, j * n1 + up]),
              np.concatenate([off, n1 + dia, 2 * n1 + off]),
              np.concatenate([2 * n1 + off, n1 + dia, off]),
              np.linalg.inv(d), d, om, om_inv, d0, d0_inv, d0_inv @ om_inv, d0 @ om)
    for a in arrays:
        a.setflags(write=False)
    return _Tables(*arrays, r_fourier, r_bridge, pattern_ok)


def _alpha_hat_bands(f: TodaField, zetas) -> np.ndarray:
    """alpha_hat's bands at every zeta: (len(zetas), 3, n+1) for one field,
    and (S, m, 3, n+1) for a stack, whose ``zetas`` holds m values per
    member.

    Band 0 is -W^T / zeta^2, band 1 -x w_x / zeta and band 2 x^2 W.  zeta^2
    is ``np.power(zeta, 2)``, which equals the scalar square bit for bit;
    the ``z**2`` fast path on an array does not.
    """
    z = np.array(zetas, dtype=complex)
    if np.any(z == 0):
        raise ValueError("alpha_hat has a pole at zeta = 0")
    sq = np.power(z, 2)
    w = f.a.astype(complex)[..., None, :]
    out = np.empty(z.shape + (3, f.n_plus_1), dtype=complex)
    out[..., 0, :] = -w / sq[..., None]
    out[..., 1, :] = -(f.xwx.astype(complex)[..., None, :] / z[..., None])
    out[..., 2, :] = f.x2[..., None, None] * w
    return out


def _gather(bands: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The bands (..., k, n+1) whose flat entry e is entry ``index[e]`` of
    ``bands``, flat: with :attr:`_Tables.transposed` or
    :attr:`_Tables.reversed`, the bands of R A^T R or R A R for the reversal
    R, an exact gather."""
    shape = bands.shape
    flat = bands.reshape(shape[:-2] + (-1,))
    return flat[..., index[:flat.shape[-1]]].reshape(shape)


def _tau_residuals(a: np.ndarray, rhs: np.ndarray, tables: _Tables) -> np.ndarray:
    """:func:`~ttstokes.linalg.rel_residuals` of D^-1 A D against ``rhs``,
    D = diag(omega^i), for the band stacks ``a`` and ``rhs``, as the dense
    matrices give it.  D^-1 A D is the dense matmuls of the dense A: scaling
    the bands by D's entries rounds differently.  Off the bands rhs is 0, so
    the product's entries there enter as they are."""
    n1 = a.shape[-1]
    k = a.shape[-2] * n1
    lead = a.shape[:-2]
    dense = np.zeros(lead + (n1 * n1,), dtype=complex)
    dense[..., tables.flat[:k]] = a.reshape(lead + (k,))
    diff = tables.d_inv @ dense.reshape(lead + (n1, n1)) @ tables.d
    diff = diff.reshape(lead + (n1 * n1,))
    diff[..., tables.flat[:k]] -= rhs.reshape(lead + (k,))
    return (np.max(np.abs(diff), axis=-1)
            / np.fmax(1.0, np.max(np.abs(rhs), axis=(-2, -1))))


def _report(cls, n1: int, *fields):
    """``cls`` holding one value per field for one member, and the (S,)
    array of each field for a stack."""
    fields = [np.asarray(v) for v in fields]
    if fields[0].ndim == 0:
        return cls(n1, *(v.item() for v in fields))
    return cls(n1, *fields)


def _member_draws(seed: int, members: int, samples: int, cols: int) -> np.ndarray:
    """Each member's uniforms on [0, 1), (members, samples, cols), member k
    drawing from ``default_rng(seed + k)``; a row holds the values that
    ``cols`` scalar ``rng.uniform()`` calls return, so the first rows of a
    narrower draw are the first uniforms of a wider one."""
    out = np.empty((members, samples, cols))
    for k in range(members):
        np.random.default_rng(seed + k).random(out=out[k])
    return out


def _sample_points(draws: np.ndarray) -> np.ndarray:
    """e^(-1 + 2r) e^(2 pi i t) of each row's first two uniforms (r, t):
    -1 + 2r is the value ``rng.uniform(-1, 1)`` makes of the same draw."""
    return np.exp(-1.0 + 2.0 * draws[..., 0]) * np.exp(2j * np.pi * draws[..., 1])


def _times(a, b) -> np.ndarray:
    """a * b of complex values written out in real parts, as the scalar
    product rounds it: numpy's vectorized complex multiply can differ in the
    last bit."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


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
    lead = f.w.shape[:-1]
    draws = _member_draws(seed, int(np.prod(lead)), zeta_samples, 3)
    return _symmetry_report(f, draws.reshape(lead + draws.shape[1:]), _tables(f.n_plus_1))


def _symmetry_report(f: TodaField, draws: np.ndarray, tables: _Tables) -> SymmetryReport:
    """:func:`symmetry_report` over each member's uniforms, ``draws`` of shape
    (..., samples, 3): a row's (r, t) make zeta and its third the point on
    the circle.  ``tables`` is :func:`_tables` of the size."""
    n1 = f.n_plus_1
    lead = f.w.shape[:-1]
    samples = draws.shape[-2]
    om = omega_pow(n1, 1)
    x = np.asarray(f.x)[..., None]
    x2 = f.x2[..., None]
    zeta = _sample_points(draws)
    zc = np.conj(zeta)
    circle = np.exp(2j * np.pi * draws[..., 2]) / x
    # six blocks of samples, one per argument of alpha_hat
    zetas = np.concatenate([zeta, _times(om, zeta), -zeta, 1.0 / (x2 * zc), zc, circle],
                           axis=-1)
    a, a_om, a_neg, a_c, a_zc, a_circ = np.moveaxis(
        _alpha_hat_bands(f, zetas).reshape(lead + (6, samples, 3, n1)), -4, 0)
    jac = (x2 * np.power(zc, 2))[..., None, None]
    b = (1j * circle)[..., None, None] * a_circ
    res = np.array([
        _tau_residuals(a, om * a_om, tables),
        rel_residuals(-_gather(a, tables.transposed), -a_neg),
        rel_residuals(np.conj(_gather(a, tables.reversed)), -a_c / jac),
        rel_residuals(np.conj(a_zc), a),
        rel_residuals(np.conj(_gather(b, tables.reversed)), b),
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


def diagonalizer_check(f: TodaField) -> DiagonalizerReport:
    """Residuals of the diagonalization identities.

    The Fourier matrix diagonalizes the shift; dressing with e^{+-w} and the
    inner diagonal diagonalizes W and W^T; and conjugating the relevant
    shift by the inner diagonal is exactly a scalar times the plain shift
    (omega^(-1/2) for even sizes on the signed shift, omega^-(m+1) for odd
    sizes on the shift itself).  The last check confirms that conjugation by
    the inner diagonal preserves Stokes-factor support patterns.  The
    Fourier, bridge and pattern checks do not involve the field: they are
    made with the size's tables, and every member of a stack reports the
    same values.
    """
    return _diagonalizer_check(f, _tables(f.n_plus_1))


def _diagonalizer_check(f: TodaField, tables: _Tables) -> DiagonalizerReport:
    """:func:`diagonalizer_check` with ``tables``, :func:`_tables` of the
    size."""
    n1 = f.n_plus_1
    lead = f.w.shape[:-1]
    # e^{+-w} is real, so scaling rows or columns by it gives the bits of a
    # product with diag(e^{+-w}); the complex diagonals d0 and d stay
    # matmuls, as scaling by a complex vector rounds differently
    ew, ewi = np.exp(f.w), np.exp(-f.w)
    p0 = (ewi[..., :, None] * tables.om) @ tables.d0
    p0_inv = tables.d0_inv_om_inv * ew[..., None, :]
    p_inf = (ew[..., :, None] * tables.om_inv) @ tables.d0_inv
    p_inf_inv = tables.d0_om * ewi[..., None, :]

    w = build_W(f)
    axes = (-2, -1)
    r_w = np.max(np.abs(w - p0 @ tables.d @ p0_inv), axis=axes)
    r_wt = np.max(np.abs(np.swapaxes(w, -1, -2) - p_inf @ tables.d @ p_inf_inv), axis=axes)
    return _report(DiagonalizerReport, n1, np.full(lead, tables.r_fourier), r_w, r_wt,
                   np.full(lead, tables.r_bridge), np.full(lead, tables.pattern_ok))


@dataclass(frozen=True)
class OmegaHatData:
    """Asymptotic 1-form data: positive residue coefficients c, exponents k
    (each >= -1, symmetric under i -> n+1-i), and the complex parameter z.

    One member has c and k of shape (n+1,) and a scalar z; a stack has them
    of shape (S, n+1), one member per row, with z of shape (S,).  Validation
    runs per member, and a stack's error names its first failing member.

    The diagonal vector m and the total degree N (a float, or an (S,) array
    for a stack) are derived from k, never supplied, as
    :class:`~ttstokes.solutions.AsymptoticDataK` gives them: m is -gamma/2
    for the gamma determined by the exponents, hence anti-symmetric.  The
    anti-symmetry identity for the 1-form additionally needs c symmetric
    under the same index involution; that is the caller's choice, and the
    symmetry report exposes the violation rather than this constructor.
    The size n+1 is at least 3, as for :class:`TodaField`.
    """

    n_plus_1: int
    c: np.ndarray
    k: np.ndarray
    z: complex
    m: np.ndarray = field(init=False)
    N: float = field(init=False)

    def __post_init__(self):
        _check_size(self.n_plus_1)
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
        object.__setattr__(self, "N", data.N)


def _omega_hat_bands(d: OmegaHatData, lams) -> np.ndarray:
    """omega_hat's two bands at every lambda: (len(lams), 2, n+1) for one
    member, and (S, m, 2, n+1) for a stack, whose ``lams`` holds m values
    per member.  The coefficient is -(n+1)/N * z/lambda^2 * eta + m/lambda,
    with eta carrying p_i = c_i z^{k_i} at (i, i-1), so band 0 holds
    -(n+1)/N * z/lambda^2 * p_{j+1} and band 1 m_j / lambda; the scalar
    factor of eta is formed per lambda."""
    lam = np.array(lams, dtype=complex)
    if np.any(lam == 0):
        raise ValueError("omega_hat has a pole at lambda = 0")
    n1 = d.n_plus_1
    coef = (-(n1 / np.asarray(d.N))[..., None]
            * (np.asarray(d.z)[..., None] / np.power(lam, 2)))
    p = d.c * np.power(np.asarray(d.z)[..., None], d.k)
    out = np.empty(lam.shape + (2, n1), dtype=complex)
    out[..., 0, :] = (coef[..., None] * p[..., None, :])[..., (np.arange(n1) + 1) % n1]
    out[..., 1, :] = d.m.astype(complex)[..., None, :] / lam[..., None]
    return out


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
    lead = d.c.shape[:-1]
    draws = _member_draws(seed, int(np.prod(lead)), lambda_samples, 2)
    return _omega_hat_symmetry_report(d, draws.reshape(lead + draws.shape[1:]),
                                      _tables(d.n_plus_1))


def _omega_hat_symmetry_report(d: OmegaHatData, draws: np.ndarray,
                               tables: _Tables) -> OmegaHatSymmetryReport:
    """:func:`omega_hat_symmetry_report` over each member's uniforms,
    ``draws`` of shape (..., samples, 2), a row's (r, t) making lambda.
    ``tables`` is :func:`_tables` of the size."""
    n1 = d.n_plus_1
    lead = d.c.shape[:-1]
    samples = draws.shape[-2]
    om = omega_pow(n1, 1)
    lam = _sample_points(draws)
    fmat, f_om, f_neg = np.moveaxis(
        _omega_hat_bands(d, np.concatenate([lam, _times(om, lam), -lam], axis=-1))
        .reshape(lead + (3, samples, 2, n1)), -4, 0)
    r_cyc = _tau_residuals(fmat, om * f_om, tables).max(axis=-1)
    r_anti = rel_residuals(-_gather(fmat, tables.transposed), -f_neg).max(axis=-1)
    return _report(OmegaHatSymmetryReport, n1, r_cyc, r_anti)


def toda_rhs(f: TodaField) -> np.ndarray:
    """Diagonal of [W^T, W] as a real vector: entry j is
    a_{j-1}^2 - a_j^2 = e^{2(w_j - w_{j-1})} - e^{2(w_{j+1} - w_j)} with
    cyclic indices, read off the field's band.  A stack gives one row per
    member.  For a finite W these are the dense commutator's diagonal
    entries bit for bit; where an entry of W overflows they are +-inf, where
    the dense product gives NaN from inf * 0."""
    sq = np.square(f.a)
    return np.roll(sq, 1, axis=-1) - sq
