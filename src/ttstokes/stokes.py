"""Stokes factors and monodromy for the tt*-Toda equations.

The fundamental objects are two unipotent matrices q1, q2 supported on the
head and second supported-root sets. Conjugating them by powers of the cyclic
shift (signed when n+1 is even) produces one Stokes factor per singular
direction; the fundamental monodromy is q1 q2 times the shift, and the full
monodromy is its (n+1)-st power with an extra scalar twist in the even case.
The entries each factor may occupy are read off the direction map of
:mod:`ttstokes.roots`, which holds the direction of every root slot.

Every Stokes factor is I + N with N^2 = 0, so its inverse is exactly I - N
and no factor is inverted densely. The eigenvalues of the irregular type
diag(1, w, .., w^n) lie on a circle, and two roots (i, j), (j, k) on one
Stokes ray would put w^i, w^j, w^k on one line, which three distinct points
of a circle never are: no slot of a direction ends in a row where another
slot of that direction starts.
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
    a, b = q_patterns(n_plus_1)[:2].astype(int)
    p = np.abs(cyclic_for(n_plus_1)).astype(int)
    return (a @ b @ p) > 0


def q_pattern(n_plus_1: int, ell: int) -> np.ndarray:
    """Boolean mask of allowed entries for the Stokes factor at direction ell,
    taken mod 2(n+1): that entry of :func:`q_patterns`."""
    return q_patterns(n_plus_1)[ell % (2 * n_plus_1)]


def q_patterns(n_plus_1: int) -> np.ndarray:
    """All 2(n+1) Stokes factor masks, stacked from one direction map:
    entry ell is True on the diagonal and at the slots of the roots
    supported on direction ell, read off
    :func:`~ttstokes.roots.direction_map`."""
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

    A member on its pattern is I + N with N^2 = 0 (see the module
    docstring), so its transpose inverse is (2I - q)^T, compared entry by
    entry. That, and the periodicity of conjugation (the (n+1)-st shift
    power is +-I), are asserted exactly, on the patterns and on the shift's
    signed permutation.
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
    pats = q_patterns(n1)
    slots = pats & ~np.eye(n1, dtype=bool)
    chained = np.flatnonzero((slots.any(axis=-1) & slots.any(axis=-2)).any(axis=-1))
    if chained.size:
        raise AssertionError(
            f"direction {chained[0]} has a slot ending in a row where another of "
            "its slots starts: its factors are not I + N with N^2 = 0"
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
    mag[..., pats] = 0.0
    off = mag.max(axis=(-2, -1)).reshape(-1, 2 * n1)
    del mag
    diag_err = np.abs(np.diagonal(stack, axis1=-2, axis2=-1) - 1.0).max(axis=-1)
    shape_ok = (off <= bound) & (diag_err.reshape(-1, 2 * n1) <= bound)

    # q_(ell+n+1) - (2I - q_ell)^T, exact inverse of members on their pattern
    rhs = stack[..., n1:, :, :] + stack[..., :n1, :, :].swapaxes(-1, -2)
    rhs[..., np.arange(n1), np.arange(n1)] -= 2.0
    err = np.abs(rhs).max(axis=(-2, -1)).reshape(-1, n1)
    del rhs
    paired = err <= bound
    failed = np.flatnonzero(~(shape_ok.all(axis=1) & paired.all(axis=1)))
    if failed.size:
        k = failed[0]
        if shape_ok[k].all():
            ell = int(np.flatnonzero(~paired[k])[0])
            raise ConsistencyError(
                f"transpose-inverse relation fails between factors {ell} and "
                f"{ell + n1}{_member(stacked, k)} (residual {err[k, ell]:.3e})"
            )
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
    wrong connected component. The factor's (n+1)-st power is exactly -1.
    """
    n1 = m0.n_plus_1
    M = np.asarray(m0.matrix, dtype=complex)
    power = M if n1 % 2 else -M
    for _ in range(n1 - 1):
        power = power @ M
    return power


# ---------------------------------------------------------------------------
# sampling coefficients compatible with the family relations
# ---------------------------------------------------------------------------

class _Layout(NamedTuple):
    """Where each sampled coefficient comes from, built once per size.

    ``draws`` coefficients are drawn per sample, each from one standard
    normal (real) or two (real part, then imaginary part). The head slots
    and then the second slots take draw ``source[k]`` times ``sign[k]``, or
    are forced to zero where ``source[k]`` is -1.
    """

    n_plus_1: int
    head: list[Root]
    second: list[Root]
    draws: int
    source: np.ndarray
    sign: np.ndarray

    def width(self, real: bool) -> int:
        """Standard normals drawn per sample."""
        return self.draws if real else 2 * self.draws


def _stokes_layout(n_plus_1: int) -> _Layout:
    """The sampling layout of one size.

    The half-period transpose-inverse relation, with the inverse I - N of
    every factor, reads q2 - I = -Pm^T (q1 - I)^T Pm for the m-th shift
    power Pm (m = floor((n+1)/2)) at odd n+1, and the same with q1 for q1
    and with q2 for q2 at even n+1. So the coefficient at (i, j) is minus
    the signed one at the slot that Pm sends (j, i) to. Slots are visited in
    table order, head then second: a slot paired with an earlier one takes
    its draw, signed; a self-paired slot with positive sign is forced to
    zero; any other slot takes a new draw. At odd n+1 the head slots are
    paired with no slot (they lie a direction away from both blocks), so
    their coefficients are the draws in table order.
    """
    head = table_supported_roots(n_plus_1, "head")
    second = table_supported_roots(n_plus_1, "second")
    # P^m sends e_{perm[a]} to sign[a] e_a: invert the row action
    perm, sign = _shift_action(n_plus_1)
    image, sgn = np.empty_like(perm[0]), np.empty_like(sign[0])
    image[perm[n_plus_1 // 2]] = np.arange(n_plus_1)
    sgn[perm[n_plus_1 // 2]] = sign[n_plus_1 // 2]
    image, sgn = image.tolist(), sgn.tolist()
    slots = head + second
    index = {r: k for k, r in enumerate(slots)}
    source, sign = [], []
    draws = 0
    for k, (i, j) in enumerate(slots):
        p = index.get((image[j], image[i]))
        s = sgn[i] * sgn[j]
        if p is None and (n_plus_1 % 2 == 0 or k >= len(head)):
            raise AssertionError(
                f"pairing sent {(i, j)} to {(image[j], image[i])}, which is no "
                "slot; the constraint bookkeeping is wrong"
            )
        if p is not None and p < k:
            source.append(source[p])
            sign.append(-s * sign[p])
        elif p == k and s > 0:
            source.append(-1)
            sign.append(0.0)
        else:
            source.append(draws)
            sign.append(1.0)
            draws += 1
    return _Layout(n_plus_1, head, second, draws, np.array(source), np.array(sign))


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
    coeffs = np.zeros(drawn.shape[:-1] + (len(layout.source),), dtype=complex)
    hit = layout.source >= 0
    coeffs[..., hit] = layout.sign[hit] * drawn[..., layout.source[hit]]
    cols = np.moveaxis(coeffs, -1, 0)
    return StokesParams(layout.n_plus_1, dict(zip(layout.head, cols)),
                        dict(zip(layout.second, cols[len(layout.head):])))


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
    # the involution is a symmetric signed permutation, so C (2I - q) C is
    # 2I minus q at (rev[a], rev[b]) times C[a, rev[a]] C[b, rev[b]]
    C = reality_conjugator(n_plus_1)
    diag = np.arange(n_plus_1)
    rev = np.argmax(np.abs(C) > 0.5, axis=1)
    ss = np.outer(C[diag, rev], C[diag, rev])
    # one direction at a time, so no copy of the whole family is made
    worst = 0.0
    for ell in range(period):
        q = family[(-ell - off) % period]
        lhs = -ss * q[..., rev[:, None], rev[None, :]]
        lhs[..., diag, diag] += 2.0
        lhs -= family[ell]
        worst = nan_max(worst, max_abs(lhs))
    return worst
