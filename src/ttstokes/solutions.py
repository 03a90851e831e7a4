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
from functools import lru_cache

import numpy as np

from .steinberg import SectionCalibration, _signed_coeffs, reconstruct_from_chi
from .stokes import MonodromyMatrix

_SYM_TOL = 1e-9
_SLACK = 1e-9  # of the polytope facets, the alcove's too, on gamma's scale
_PLUS_MINUS_I = np.array([1j, -1j])


def _antisymmetric(n_plus_1: int, v, name: str) -> np.ndarray:
    """``v`` as a float array of shape (n+1,) or a stack (S, n+1), checked
    for v_i + v_(n-i) = 0 on the last axis.

    The test is written so that a NaN fails it; an infinite entry meets its
    partner in a NaN or infinite sum and fails too.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != n_plus_1:
        raise ValueError(f"expected {n_plus_1} entries, got {v.shape}")
    worst = np.abs(v + v[..., ::-1]).max(initial=0.0)
    if not worst <= _SYM_TOL:
        if not np.isfinite(v).all():
            raise ValueError(f"{name} entries must be finite")
        raise ValueError(f"{name}_i + {name}_(n-i) = 0 violated by {worst:.3e}")
    return v


@dataclass(frozen=True)
class GammaVector:
    """Anti-symmetric parameter vector, gamma_i + gamma_{n-i} = 0.

    ``gamma`` is one vector (n+1,) or a stack (S, n+1) of them, one member
    per row; the functions of this module take either. It is a read-only
    copy of the values given, so a later write into the caller's array
    changes nothing here.

    Two read-only arrays are derived once from it, for every query to read:
    ``inside``, the polytope membership (a 0-d bool for one vector, one per
    member of a stack), and ``angles``, the angles a_j, j < m =
    floor((n+1)/2), of the eigenvalue pairs exp(+-i a_j) (shape (m,) or
    (S, m)). Neither construction nor :func:`polytope_contains` warns;
    each call of :func:`eigenvalues_from_gamma` or :func:`gamma_to_m0`
    warns once per member outside the polytope.
    """

    n_plus_1: int
    gamma: np.ndarray
    inside: np.ndarray = field(init=False, repr=False, compare=False)
    angles: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n1 = self.n_plus_1
        gamma = _antisymmetric(n1, np.array(self.gamma, dtype=float), "gamma")
        m = n1 // 2
        two_j = np.arange(0, 2 * m, 2)
        # the same operations, in the same order, as one pair at a time
        if n1 % 2 == 0:
            angles = np.pi * (gamma[..., :m] + two_j + 1) / n1
        else:
            angles = np.pi * (gamma[..., :m] - (n1 - 1) + two_j) / n1
        derived = {"gamma": gamma,
                   "inside": np.asarray(_in_polytope(_cyclic_gaps(gamma))),
                   "angles": angles}
        for name, value in derived.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)


def _member(ndim: int, k: int) -> str:
    """Names member ``k`` in a message about a stack of vectors (ndim 2)."""
    return "" if ndim == 1 else f" (member {k})"


def _check_members(ok: np.ndarray, msg: str) -> None:
    """Raise ValueError(msg) unless every member is ok: ``ok`` is one bool
    for one vector, one per member for a stack, whose error names the first
    failing member."""
    bad = np.flatnonzero(~np.reshape(ok, -1))
    if bad.size:
        raise ValueError(msg + _member(np.ndim(ok) + 1, int(bad[0])))


def _member_result(ok: np.ndarray):
    """A bool for one vector, the bool array for a stack."""
    return bool(ok) if ok.ndim == 0 else ok


def _cyclic_gaps(v: np.ndarray) -> np.ndarray:
    """v_(a+1) - v_a on the last axis, the last gap wrapping to v_0 - v_n."""
    return np.concatenate([v[..., 1:], v[..., :1]], axis=-1) - v


def _in_polytope(gaps: np.ndarray) -> np.ndarray:
    """Whether gamma's cyclic ``gaps`` are all >= -2 (numpy bool, 0-d or (S,))."""
    return gaps.min(axis=-1) >= -2.0 - _SLACK


def polytope_contains(g: GammaVector):
    """Cyclic gap constraints: each consecutive difference of gamma is >= -2,
    including the wrap-around gamma_0 - gamma_n >= -2, each up to ``_SLACK``,
    the one slack on gamma's scale that :meth:`AlcovePoint.in_alcove` shares.

    A bool for one vector; for a stack, one bool per member, the read-only
    ``g.inside``.
    """
    return _member_result(g.inside)


def _gamma_angles(g: GammaVector) -> np.ndarray:
    """``g.angles``, read once by each query that builds an eigenvalue list
    or a polynomial from them; each member outside the polytope warns once,
    in member order, naming the caller of that query."""
    if not g.inside.all():
        for k in np.flatnonzero(~g.inside.reshape(-1)).tolist():
            warnings.warn(f"gamma outside the polytope{_member(g.gamma.ndim, k)}: "
                          "eigenvalues may collide or leave the expected arcs",
                          stacklevel=3)
    return g.angles


def _eigenvalue_lists(n1: int, a: np.ndarray) -> np.ndarray:
    """exp(+-i a_j) side by side for the angles ``a`` of :func:`_gamma_angles`,
    then the 1 of an odd size ``n1``: shape (n1,) or (S, n1)."""
    m = a.shape[-1]
    lead = a.shape[:-1]
    lams = np.empty(lead + (n1,), dtype=complex)
    lams[..., :2 * m] = np.exp(a[..., None] * _PLUS_MINUS_I).reshape(lead + (2 * m,))
    lams[..., 2 * m:] = 1.0
    return lams


def eigenvalues_from_gamma(g: GammaVector) -> np.ndarray:
    """Eigenvalues of the fundamental monodromy, as a list of unit-modulus
    complex numbers in conjugate pairs (plus the fixed eigenvalue 1 when the
    size is odd).

    A stack (S, n+1) gives one list per row, shape (S, n+1). Each member
    outside the polytope warns once, in member order.
    """
    return _eigenvalue_lists(g.n_plus_1, _gamma_angles(g))


def _gamma_char_coeffs(n1: int, a: np.ndarray) -> np.ndarray:
    """The monic polynomial of the eigenvalue list with the angles ``a`` of
    :func:`_gamma_angles` at size ``n1``, increasing order, float64: the
    product of the real quadratics 1 - 2cos(a_j) x + x^2, times x - 1 at odd
    size. Shape (n1+1,) for one angle row, (S, n1+1) for a stack.

    Each factor is multiplied into the whole stack at once, so a member's
    row is the same, bit for bit, as its own call's. One row runs the same
    multiplies and adds on Python floats, which is cheaper than the numpy
    loop's four calls per factor; the cosines are numpy's on both paths.
    """
    b = -2.0 * np.cos(a)
    start = (-1.0, 1.0) if n1 % 2 else (1.0,)
    if b.ndim == 1:
        c = list(start)
        for bj in b.tolist():
            # the loop below's adds, in its order: entry t gains bj c_(t-1),
            # then c_(t-2); the two padding zeros are its entries above the degree
            p = c + [0.0, 0.0]
            c = [p[0], p[1] + bj * p[0]] + [
                (x + bj * y) + z for x, y, z in zip(p[2:], p[1:], p)]
        return np.array(c)
    deg = len(start) - 1
    c = np.zeros(b.shape[:-1] + (n1 + 1,))
    c[..., :deg + 1] = start
    for j in range(b.shape[-1]):
        low = c[..., :deg + 1].copy()
        c[..., 1:deg + 2] += b[..., j, None] * low
        c[..., 2:deg + 3] += low
        deg += 2
    return c


@lru_cache(maxsize=256)
def shift_vector(n_plus_1: int) -> np.ndarray:
    """Integer offsets added to gamma before normalizing to alcove coordinates,
    built once per size and read-only: 2i + 1, less 2(n+1) in the upper
    half, at even n+1, and 2i - n at odd n+1."""
    i = np.arange(n_plus_1)
    if n_plus_1 % 2 == 0:
        v = 2 * i + 1 - 2 * n_plus_1 * (i >= n_plus_1 // 2)
    else:
        v = 2 * i - (n_plus_1 - 1)
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class AlcovePoint:
    """Normalized coordinates rho = (gamma + shift) / (n+1), anti-symmetric
    like gamma, and like gamma one point (n+1,) or a stack (S, n+1)."""

    n_plus_1: int
    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "rho", _antisymmetric(self.n_plus_1, self.rho, "rho"))

    def in_alcove(self):
        """The polytope's n+1 facets and bound, read through the chart on
        gamma's scale: one bool, or one per member of a stack. That the
        alcove's chain is these facets over n+1 is certified in integers by
        test_the_alcove_chain_is_the_polytope_facets_in_integers."""
        gaps = self.n_plus_1 * _cyclic_gaps(self.rho)
        return _member_result(_in_polytope(gaps - _cyclic_gaps(shift_vector(self.n_plus_1))))


def alcove_coords(g: GammaVector) -> AlcovePoint:
    rho = (g.gamma + shift_vector(g.n_plus_1)) / g.n_plus_1
    return AlcovePoint(g.n_plus_1, rho)


def alcove_to_gamma(p: AlcovePoint) -> GammaVector:
    gamma = p.n_plus_1 * p.rho - shift_vector(p.n_plus_1)
    return GammaVector(p.n_plus_1, gamma)


def random_polytope_gamma(n_plus_1: int, rng: np.random.Generator,
                          samples: int | None = None) -> GammaVector:
    """Uniform sample of the polytope, drawn through the alcove chart: the
    free half of rho is a sorted uniform sample of [0, 1] (even size) or of
    the upper half-chain (odd size), the rest follows by anti-symmetry.

    With ``samples`` = S the result is a stack (S, n+1) from one draw of
    S x m uniforms, equal row by row to S single draws from the same rng.
    """
    m = n_plus_1 // 2
    lead = () if samples is None else (samples,)
    u = np.sort(rng.uniform(0.0, 1.0, size=lead + (m,)), axis=-1)
    rho = np.zeros(lead + (n_plus_1,))
    if n_plus_1 % 2 == 0:
        rho[..., :m] = u
        rho[..., m:] = -u[..., ::-1]
    else:
        rho[..., m + 1:] = u
        rho[..., :m] = -u[..., ::-1]
    # alcove_to_gamma's arithmetic, so that anti-symmetry is checked once
    return GammaVector(n_plus_1, n_plus_1 * rho - shift_vector(n_plus_1))


def s_formulas(n_plus_1: int, g: GammaVector) -> tuple[float, float]:
    """Closed forms for the two free Stokes coefficients, sizes 4 and 5 only.

    A stack of gammas gives two arrays with one value per member.
    """
    if g.n_plus_1 != n_plus_1:
        raise ValueError("size mismatch between n_plus_1 and gamma")
    if n_plus_1 == 4:
        c0 = np.cos(np.pi * (g.gamma[..., 0] + 1) / 4)
        c1 = np.cos(np.pi * (g.gamma[..., 1] + 3) / 4)
        return -2 * c0 - 2 * c1, -2 - 4 * c0 * c1
    if n_plus_1 == 5:
        c0 = np.cos(np.pi * (g.gamma[..., 0] - 4) / 5)
        c1 = np.cos(np.pi * (g.gamma[..., 1] - 2) / 5)
        return 1 + 2 * c0 + 2 * c1, -2 - 2 * c0 - 2 * c1 - 4 * c0 * c1
    raise ValueError("closed forms are only available for sizes 4 and 5")


def _check_sizes(cal: SectionCalibration, g: GammaVector) -> None:
    """Raise ValueError unless ``cal`` and ``g`` are of one size."""
    if cal.n_plus_1 != g.n_plus_1:
        raise ValueError("calibration size does not match gamma size")


def _section_of_angles(cal: SectionCalibration,
                       a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The monic polynomials (float64, increasing order) of the eigenvalue
    lists with the angles ``a`` of :func:`_gamma_angles`, and the float64
    section values with those polynomials, one row or matrix per member."""
    coeffs = _gamma_char_coeffs(cal.n_plus_1, a)
    return coeffs, reconstruct_from_chi(cal, _signed_coeffs(coeffs))


def _section_from_gamma(cal: SectionCalibration,
                        g: GammaVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenvalue lists of ``g``, their monic polynomials (float64,
    increasing order) and the float64 section values with those polynomials,
    one row or matrix per member of a stack.

    The verify suite and the from-gamma command compare all three, so each
    polynomial is expanded once; :func:`gamma_to_m0` builds only the last
    two.
    """
    _check_sizes(cal, g)
    a = _gamma_angles(g)
    return (_eigenvalue_lists(g.n_plus_1, a), *_section_of_angles(cal, a))


def gamma_to_m0(cal: SectionCalibration, g: GammaVector) -> MonodromyMatrix:
    """Fundamental monodromy with the eigenvalue list of ``g``, realized on
    the calibrated cross-section.

    The eigenvalue list is closed under conjugation, so its characteristic
    polynomial is the product of real quadratics (times x - 1 at odd size),
    expanded in float64; the monodromy is the float64 section value with
    those coefficients, a matrix in SL(n+1, R). A stack of gammas gives the
    stack (S, n+1, n+1) of monodromies.
    """
    _check_sizes(cal, g)
    return MonodromyMatrix(g.n_plus_1, _section_of_angles(cal, _gamma_angles(g))[1])


@dataclass(frozen=True)
class AsymptoticDataK:
    """Exponents k of the asymptotic data.  Entries are real, >= -1, and
    symmetric under i -> n+1-i (index 0 unconstrained); N is the total
    degree n+1+sum(k).

    ``k`` is one vector (n+1,) or a stack (S, n+1), one member per row; a
    stack's error names its first failing member.
    """

    n_plus_1: int
    k: np.ndarray

    def __post_init__(self):
        n1 = self.n_plus_1
        kk = np.asarray(self.k, dtype=float)
        if kk.ndim not in (1, 2) or kk.shape[-1] != n1:
            raise ValueError(f"expected {n1} exponents, got {kk.shape}")
        _check_members(np.isfinite(kk).all(-1) & np.all(kk >= -1.0 - 1e-12, axis=-1),
                       "exponents must be finite and >= -1")
        # column j - 1 compares k[j] with its partner k[n+1-j]
        bad = np.abs(kk[..., 1:] - kk[..., :0:-1]) > _SYM_TOL
        if bad.any():
            member, j = divmod(int(np.argmax(bad)), n1 - 1)
            raise ValueError(f"k[{j + 1}] != k[{n1 - j - 1}] breaks the required "
                             f"symmetry{_member(kk.ndim, member)}")
        _check_members(n1 + np.sum(kk, axis=-1) > 1e-12, "total degree N must be positive")
        object.__setattr__(self, "k", kk)

    @property
    def N(self):
        """The total degree: a float, or an (S,) array for a stack."""
        n = self.n_plus_1 + np.sum(self.k, axis=-1)
        return float(n) if n.ndim == 0 else n


def gamma_from_k(a: AsymptoticDataK) -> GammaVector:
    """Gamma determined by asymptotic exponent data.

    The scaled exponents give the consecutive differences of an auxiliary
    vector; anchoring by anti-symmetry fixes the constant and gamma is minus
    twice the result.  Stacked exponents give a stack of gamma vectors.
    """
    n1 = a.n_plus_1
    delta = 1.0 - n1 * (a.k + 1.0) / np.expand_dims(a.N, -1)
    partial = np.cumsum(delta, axis=-1)
    m_last = -delta[..., :1] / 2.0
    m_vec = np.concatenate([m_last + partial[..., :-1], m_last], axis=-1)
    return GammaVector(n1, -2.0 * m_vec)
