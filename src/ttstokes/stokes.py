"""Stokes factors and monodromy for the tt*-Toda equations.

The fundamental objects are two unipotent matrices q1, q2 supported on the
head and second supported-root sets. Conjugating them by powers of the cyclic
shift (signed when n+1 is even) produces one Stokes factor per singular
direction; the fundamental monodromy is q1 q2 times the shift, and the full
monodromy is its (n+1)-st power with an extra scalar twist in the even case.
The entries each factor may occupy are read off the direction map of
:mod:`ttstokes.roots`, which holds the direction of every root slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import (
    ConsistencyError,
    DEFAULT_TOL,
    NumericalError,
    cyclic_for,
    max_abs,
    nan_max,
    omega_pow,
)
from .roots import Root, direction_map, table_supported_roots

__all__ = [
    "StokesParams",
    "MonodromyMatrix",
    "q_pattern",
    "q_patterns",
    "build_q",
    "build_m0",
    "q_family",
    "full_monodromy",
    "monodromy_support",
    "random_stokes_params",
    "reality_residual",
]


def monodromy_support(n_plus_1: int) -> np.ndarray:
    """Boolean mask of entries the fundamental monodromy can occupy.

    Support of any product q1 q2 P with the factors on their patterns and P
    the (signed) cyclic shift.
    """
    a = q_pattern(n_plus_1, 0).astype(int)
    b = q_pattern(n_plus_1, 1).astype(int)
    p = np.abs(cyclic_for(n_plus_1)).astype(int)
    return (a @ b @ p) > 0


def q_pattern(n_plus_1: int, ell: int) -> np.ndarray:
    """Boolean mask of allowed entries for the Stokes factor at direction ell.

    True on the diagonal and at the slots of the roots supported on
    direction ell (mod 2(n+1)), read off :func:`~ttstokes.roots.direction_map`.
    """
    pat = direction_map(n_plus_1) == ell % (2 * n_plus_1)
    np.fill_diagonal(pat, True)
    return pat


def q_patterns(n_plus_1: int) -> np.ndarray:
    """All 2(n+1) masks of :func:`q_pattern`, stacked from one direction
    map: entry ell is the mask of direction ell."""
    pat = direction_map(n_plus_1) == np.arange(2 * n_plus_1)[:, None, None]
    diag = np.arange(n_plus_1)
    pat[:, diag, diag] = True
    return pat


@dataclass
class StokesParams:
    """Coefficients of the two generating Stokes factors.

    Keys must be exactly the head and second supported-root sets. Values may
    be any complex numbers here, or arrays (S,) of them for a stack of S
    samples; the transpose-inverse constraint of the full family is a
    property of the family, enforced by :func:`q_family`.
    """

    n_plus_1: int
    head_coeffs: dict[Root, complex]
    second_coeffs: dict[Root, complex]

    def __post_init__(self):
        for which, coeffs in (("head", self.head_coeffs), ("second", self.second_coeffs)):
            expect = set(table_supported_roots(self.n_plus_1, which))
            got = set(coeffs)
            if got != expect:
                raise ValueError(
                    f"{which} coefficients keyed by {sorted(got)}, expected {sorted(expect)}"
                )


@dataclass
class MonodromyMatrix:
    """Fundamental monodromy together with its size tag, and the Stokes
    factors (q1, q2) it is the product of, when it was built from them."""

    n_plus_1: int
    matrix: np.ndarray
    factors: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)


def build_q(n_plus_1: int, which: str, coeffs: dict[Root, complex]) -> np.ndarray:
    """Unipotent Stokes factor I + sum coeffs[(i, j)] E_{ij}.

    ``which`` selects the head or second root set and the keys must match it
    exactly. Insertion order of the dict is irrelevant. Values that are
    arrays of shape (S,) give the stack (S, n+1, n+1), scattered in one go.
    """
    if which not in ("head", "second"):
        raise ValueError(f"which must be 'head' or 'second', got {which!r}")
    expect = set(table_supported_roots(n_plus_1, which))
    if set(coeffs) != expect:
        raise ValueError(
            f"coefficient keys {sorted(set(coeffs))} do not match the {which} "
            f"root set {sorted(expect)}"
        )
    rows, cols = np.array(list(coeffs)).T
    vals = np.array(list(coeffs.values()), dtype=complex)
    q = np.zeros(vals.shape[1:] + (n_plus_1, n_plus_1), dtype=complex)
    diag = np.arange(n_plus_1)
    q[..., diag, diag] = 1.0
    q[..., rows, cols] = np.moveaxis(vals, 0, -1)
    return q


def _member(stacked: bool, k) -> str:
    """Names member ``k`` of a stack in an error message."""
    return f" of member {k}" if stacked else ""


def build_m0(params: StokesParams) -> MonodromyMatrix:
    """Fundamental monodromy q1 q2 P, with P the (signed) cyclic shift.

    The result always has determinant 1; a violation indicates numerical
    trouble and raises NumericalError. Coefficient stacks (see
    :func:`build_q`) give the stack (S, n+1, n+1), and the first member with
    a determinant away from 1 raises. The result carries q1 and q2 as its
    ``factors``.
    """
    n1 = params.n_plus_1
    q1 = build_q(n1, "head", params.head_coeffs)
    q2 = build_q(n1, "second", params.second_coeffs)
    M = q1 @ q2 @ cyclic_for(n1).astype(complex)
    det = np.linalg.det(M)
    # written so that a NaN determinant fails too
    bound = DEFAULT_TOL.bound(np.fmax(1.0, np.abs(det)))
    failed = np.flatnonzero(~(np.abs(det - 1.0) <= bound))
    if failed.size:
        k = failed[0]
        raise NumericalError(f"monodromy determinant {np.atleast_1d(det)[k]}"
                             f"{_member(M.ndim > 2, k)} is not 1")
    return MonodromyMatrix(n1, M, (q1, q2))


def _shift_action(n_plus_1: int) -> tuple[np.ndarray, np.ndarray]:
    """The powers P^0 .. P^(n+1) of the shift as integer tables.

    Row j gives P^j as a signed permutation, (P^j v)_a = sign[j, a]
    v_{perm[j, a]}, composed step by step from the action of
    :func:`~ttstokes.linalg.cyclic_for`.
    """
    P = cyclic_for(n_plus_1)
    a = np.arange(n_plus_1)
    step = np.argmax(np.abs(P) > 0.5, axis=1)
    step_sign = P[a, step].astype(np.int64)
    perm = np.empty((n_plus_1 + 1, n_plus_1), dtype=np.int64)
    sign = np.empty_like(perm)
    perm[0], sign[0] = a, 1
    for j in range(n_plus_1):
        perm[j + 1] = perm[j][step]
        sign[j + 1] = step_sign * sign[j][step]
    return perm, sign


def q_family(n_plus_1: int, q1: np.ndarray, q2: np.ndarray) -> dict[int, np.ndarray]:
    """All 2(n+1) Stokes factors generated from q1 and q2 by shift conjugation.

    Keys are the direction indices ell = 0 .. 2n+1; even indices come from
    q1, odd from q2, and the values are views into one stacked array.
    Stacks q1, q2 of shape (S, n+1, n+1) give values of that shape, member
    by member. Non-finite q1 or q2 raises ConsistencyError. Two structural
    relations are verified over the whole stack, with each member's bound
    scaled by its own entries; a violation raises ConsistencyError naming
    the first failing direction and, in a stack, the first failing member:

    * each member is unipotent and supported on its direction's pattern;
    * advancing ell by n+1 gives the transpose inverse.

    Conjugation is periodic because the (n+1)-st shift power is +-I, which
    is asserted exactly on the shift's signed permutation.
    """
    q1 = np.asarray(q1, dtype=complex)
    q2 = np.asarray(q2, dtype=complex)
    if not (np.isfinite(q1).all() and np.isfinite(q2).all()):
        raise ConsistencyError("Stokes factors q1 and q2 must be finite")
    n1 = n_plus_1
    perm, sign = _shift_action(n1)
    if not (np.array_equal(perm[n1], perm[0]) and np.all(sign[n1] == sign[n1, 0])):
        raise AssertionError(
            f"shift conjugation is not periodic: the {n1}-th shift power is not +-I"
        )

    # P^j q P^jT is a signed gather of q, as exact as the dense product.
    # Member 2j + h is the j-th conjugate of q1 (h = 0) or q2 (h = 1).
    qs = np.stack([q1, q2], axis=-3)
    lead = qs.shape[:-3]
    perm, sign = perm[:n1], sign[:n1]
    stack = qs[..., np.arange(2)[:, None, None], perm[:, None, :, None],
               perm[:, None, None, :]]
    stack *= sign[:, None, :, None] * sign[:, None, None, :]
    stack = stack.reshape(lead + (2 * n1, n1, n1))
    bound = DEFAULT_TOL.bound(np.fmax(1.0, np.abs(qs).max(axis=(-3, -2, -1))))
    bound = np.reshape(bound, (-1, 1))
    stacked = bool(lead)

    mag = np.abs(stack)
    mag[..., q_patterns(n1)] = 0.0
    off = mag.max(axis=(-2, -1)).reshape(-1, 2 * n1)
    del mag
    diag_err = np.abs(np.diagonal(stack, axis1=-2, axis2=-1) - 1.0).max(axis=-1)
    shape_ok = (off <= bound) & (diag_err.reshape(-1, 2 * n1) <= bound)
    misshapen = np.flatnonzero(~shape_ok.all(axis=1))

    # the transpose inverse, on the members before the first misshapen one
    # (a factor off its pattern may be singular), raised in member order
    checked = stack if misshapen.size == 0 else stack.reshape(-1, 2 * n1, n1, n1)[:misshapen[0]]
    if checked.size:
        rhs = np.linalg.inv(checked[..., :n1, :, :].swapaxes(-1, -2))
        rhs -= checked[..., n1:, :, :]
        err = np.abs(rhs).max(axis=(-2, -1)).reshape(-1, n1)
        del rhs
        failed = np.flatnonzero(~(err <= bound[:len(err)]).all(axis=1))
        if failed.size:
            k = failed[0]
            ell = int(np.flatnonzero(~(err[k] <= bound[k]))[0])
            raise ConsistencyError(
                f"transpose-inverse relation fails between factors {ell} and "
                f"{ell + n1}{_member(stacked, k)} (residual {err[k, ell]:.3e})"
            )
    if misshapen.size:
        k = misshapen[0]
        ell = int(np.flatnonzero(~shape_ok[k])[0])
        if not off[k, ell] <= bound[k, 0]:
            raise ConsistencyError(
                f"Stokes factor {ell}{_member(stacked, k)} has weight "
                f"{off[k, ell]:.3e} outside its pattern"
            )
        raise ConsistencyError(f"Stokes factor {ell}{_member(stacked, k)} is not unipotent")

    return {ell: stack[..., ell, :, :] for ell in range(2 * n1)}


def full_monodromy(m0: MonodromyMatrix) -> np.ndarray:
    """(n+1)-st power of the fundamental monodromy.

    For even n+1 the matrix is first scaled by the square root of the
    primitive root of unity; without that factor the power would land in the
    wrong connected component.
    """
    n1 = m0.n_plus_1
    M = np.asarray(m0.matrix, dtype=complex)
    if n1 % 2 == 0:
        M = omega_pow(n1, 0.5) * M
    return np.linalg.matrix_power(M, n1)


# ---------------------------------------------------------------------------
# sampling coefficients compatible with the family relations
# ---------------------------------------------------------------------------

class _Layout(NamedTuple):
    """Where each sampled coefficient comes from, built once per size.

    ``draws`` coefficients are drawn per sample, each from one standard
    normal (real) or two (real part, then imaginary part). For odd n+1 they
    are the head coefficients in table order and ``Pm`` is the m-th shift
    power that derives the second factor. For even n+1 the head slots and
    then the second slots take draw ``source[k]`` times ``sign[k]``, or are
    forced to zero where ``source[k]`` is -1.
    """

    n_plus_1: int
    head: list[Root]
    second: list[Root]
    draws: int
    Pm: np.ndarray | None
    source: np.ndarray | None
    sign: np.ndarray | None

    def width(self, real: bool) -> int:
        """Standard normals drawn per sample."""
        return self.draws if real else 2 * self.draws


def _stokes_layout(n_plus_1: int) -> _Layout:
    """The sampling layout of one size.

    At even n+1 the half-period transpose-inverse relation pairs each
    block's roots with each other through conjugation by the m-th shift
    power: paired roots get opposite-signed coefficients, and a self-paired
    root with positive sign is forced to zero. Slots are visited in table
    order and a new draw is taken for each slot not yet assigned.
    """
    head = table_supported_roots(n_plus_1, "head")
    second = table_supported_roots(n_plus_1, "second")
    if n_plus_1 % 2:
        Pm = np.linalg.matrix_power(cyclic_for(n_plus_1), n_plus_1 // 2)
        return _Layout(n_plus_1, head, second, len(head), Pm, None, None)
    # P^m sends e_{perm[a]} to sign[a] e_a: invert the row action
    perm, sign = _shift_action(n_plus_1)
    image, sgn = np.empty_like(perm[0]), np.empty_like(sign[0])
    image[perm[n_plus_1 // 2]] = np.arange(n_plus_1)
    sgn[perm[n_plus_1 // 2]] = sign[n_plus_1 // 2]
    image, sgn = image.tolist(), sgn.tolist()
    source, sign = [], []
    draws = 0
    for block in (head, second):
        slot = {r: k for k, r in enumerate(block)}
        src = [None] * len(block)
        sg = [0.0] * len(block)
        for k, (i, j) in enumerate(block):
            if src[k] is not None:
                continue
            beta = (image[j], image[i])
            s = sgn[i] * sgn[j]
            if beta == (i, j):
                if s > 0:
                    src[k] = -1
                else:
                    src[k], sg[k] = draws, 1.0
                    draws += 1
                continue
            if beta not in slot:
                raise AssertionError(
                    f"pairing sent {(i, j)} outside its block (to {beta}); "
                    "the constraint bookkeeping is wrong"
                )
            src[k], sg[k] = draws, 1.0
            src[slot[beta]], sg[slot[beta]] = draws, -s
            draws += 1
        source += src
        sign += sg
    return _Layout(n_plus_1, head, second, draws, None, np.array(source),
                   np.array(sign))


def _stokes_from_normals(layout: _Layout, z, real: bool, scale: float) -> StokesParams:
    """Coefficients from the standard normals ``z`` of one sample, shape
    (layout.width(real),), or of a stack, shape (S, layout.width(real))."""
    z = np.asarray(z, dtype=float)
    if real:
        drawn = (z * scale).astype(complex)
    else:
        drawn = np.empty(z.shape[:-1] + (layout.draws,), dtype=complex)
        drawn.real = z[..., 0::2] * scale
        drawn.imag = z[..., 1::2] * scale
    n1 = layout.n_plus_1
    nh = len(layout.head)
    if layout.source is not None:
        coeffs = np.zeros(drawn.shape[:-1] + (len(layout.source),), dtype=complex)
        hit = layout.source >= 0
        coeffs[..., hit] = layout.sign[hit] * drawn[..., layout.source[hit]]
        head, second = coeffs[..., :nh], coeffs[..., nh:]
    else:
        head = drawn
        q1 = build_q(n1, "head", dict(zip(layout.head, np.moveaxis(head, -1, 0))))
        q2 = layout.Pm.T @ np.linalg.inv(q1.swapaxes(-1, -2)) @ layout.Pm
        rows, cols = np.array(layout.second).T
        second = q2[..., rows, cols]
        # everything q2 carries must sit on the second-direction slots
        q2[..., rows, cols] = 0.0
        diag = np.arange(n1)
        q2[..., diag, diag] -= 1.0
        if np.any(np.abs(q2).max(axis=(-2, -1)) > 1e-9):
            raise AssertionError(
                "derived second factor has weight outside the second root set"
            )
    return StokesParams(
        n1,
        dict(zip(layout.head, np.moveaxis(head, -1, 0))),
        dict(zip(layout.second, np.moveaxis(second, -1, 0))),
    )


def random_stokes_params(
    n_plus_1: int,
    rng: np.random.Generator,
    real: bool = False,
    scale: float = 1.0,
) -> StokesParams:
    """Sample Stokes coefficients satisfying the family constraints.

    Generic independent coefficients would break the transpose-inverse
    relation that the full family must satisfy, so sampling happens on the
    constrained parameter space: for even n+1 both blocks are internally
    paired; for odd n+1 the head block is free and the second factor is the
    conjugated transpose inverse of the first.

    Stacks of samples come from :func:`_stokes_from_normals` with one
    (S, width) draw, equal member by member to S calls on the same rng.
    """
    layout = _stokes_layout(n_plus_1)
    return _stokes_from_normals(layout, rng.normal(size=layout.width(real)), real, scale)


def reality_conjugator(n_plus_1: int) -> np.ndarray:
    """Involution matrix entering the reality relation of real families.

    Entry 1 at (0, 0) and, at (i, n+1-i) for i = 1..n, the value -1 for even
    n+1 and +1 for odd n+1.
    """
    C = np.zeros((n_plus_1, n_plus_1))
    C[0, 0] = 1.0
    sgn = -1.0 if n_plus_1 % 2 == 0 else 1.0
    for i in range(1, n_plus_1):
        C[i, n_plus_1 - i] = sgn
    return C


def reality_residual(family: dict[int, np.ndarray]) -> float:
    """How far a real-coefficient family is from its reality relation.

    The relation pairs the factor at ell with the inverse of the factor at
    -ell-2 (even sizes) or -ell-1 (odd sizes), conjugated by the reality
    involution; indices are mod 2(n+1). Meaningful for real coefficients
    only, which is the case the relation is stated for. A stacked family
    (see :func:`q_family`) gives the worst residual over its members.
    """
    n_plus_1 = family[0].shape[-1]
    period = 2 * n_plus_1
    off = 2 if n_plus_1 % 2 == 0 else 1
    C = reality_conjugator(n_plus_1)
    # one direction at a time, so no copy of the whole family is made
    worst = 0.0
    for ell in range(period):
        lhs = C @ np.linalg.inv(family[(-ell - off) % period]) @ C
        lhs -= family[ell]
        worst = nan_max(worst, max_abs(lhs))
    return worst
