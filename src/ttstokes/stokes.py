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

The two generators carry every relation of the family. The factor at
direction 2j + h is q1 (h = 0) or q2 (h = 1) conjugated by P^j, a signed
permutation, so its entries are the generator's, moved and sign-flipped:
exact in floating point. :func:`_stokes_layout` asserts once per size, in
integers, that the masks move the same way (pattern 2j + h is pattern h
gathered by P^j) and that the reality involution C inverts the shift
(C^2 = I and C P C = +-P^T). Then:

- support and unipotency at 2j + h are those at h, entry for entry;
- the transpose-inverse pair (l, l + n + 1) with l = 2j + h is the pair
  (h, h + n + 1) conjugated by P^j, because P^j commutes with the transpose
  (P^j P^jT = I) and the shift powers compose exactly as integer tables;
- the reality pair (l, -l - off) is the pair (h, -h - off) conjugated by
  P^j, because C P^-j C = +-P^j and conjugation by P^(n+1) = +-I is the
  identity.

Each entry of a residual at l is, up to one common sign, the same sum or
difference of the same two numbers as an entry of the residual at h, and
IEEE rounding is symmetric under a sign flip. So every direction's residual
equals its generator's bit for bit, and checking directions 0 and 1 with
their partners checks the whole family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
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
    "build_q",
    "build_m0",
    "full_monodromy",
    "reality_residual",
]


def q_pattern(n_plus_1: int, ell: int) -> np.ndarray:
    """Boolean mask of allowed entries for the Stokes factor at direction ell,
    taken mod 2(n+1): that entry of :func:`q_patterns`."""
    return q_patterns(n_plus_1)[ell % (2 * n_plus_1)]


def q_patterns(n_plus_1: int) -> np.ndarray:
    """All 2(n+1) Stokes factor masks, stacked from one direction map
    (:func:`~ttstokes.roots.direction_map`): entry ell is True on the
    diagonal and at the slots of the roots supported on direction ell."""
    return _patterns(direction_map(n_plus_1))


def _patterns(slot_dir: np.ndarray) -> np.ndarray:
    """The stacked masks of :func:`q_patterns` from the direction map."""
    pat = slot_dir == np.arange(2 * len(slot_dir))[:, None, None]
    pat[:, slot_dir < 0] = True  # the diagonal
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
        _check_keys(self.n_plus_1, "head", self.head_coeffs)
        _check_keys(self.n_plus_1, "second", self.second_coeffs)


@lru_cache(maxsize=256, typed=True)
def _table_keys(n_plus_1: int, which: str) -> frozenset[Root]:
    """The ``which`` root set as a frozen set, built once per size and table.

    ``typed`` keeps a size of another type, such as the float 4.0, from
    reusing the entry of the int 4, so it meets the table as before.
    """
    return frozenset(table_supported_roots(n_plus_1, which))


def _check_keys(n_plus_1: int, which: str, coeffs: dict[Root, complex]) -> None:
    """Raise ValueError unless ``coeffs`` is keyed by the ``which`` root set."""
    expect = _table_keys(n_plus_1, which)
    if set(coeffs) != expect:
        raise ValueError(f"{which} coefficients keyed by {sorted(set(coeffs))}, "
                         f"expected {sorted(expect)}")


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
    _check_keys(n_plus_1, which, coeffs)
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
    step = np.argmax(np.abs(P) > 0.5, axis=1)
    step_sign = P[np.arange(n_plus_1), step].astype(np.int64)
    perm, sign = [np.arange(n_plus_1)], [np.ones(n_plus_1, dtype=np.int64)]
    for _ in range(n_plus_1):
        perm.append(perm[-1][step])
        sign.append(step_sign * sign[-1][step])
    return np.array(perm), np.array(sign)


def q_family(n_plus_1: int, q1: np.ndarray, q2: np.ndarray) -> dict[int, np.ndarray]:
    """All 2(n+1) Stokes factors generated from q1 and q2 by shift conjugation.

    Keys are the direction indices ell = 0 .. 2n+1; even indices come from
    q1, odd from q2, and the values are views into one stacked array.
    Stacks q1, q2 of shape (S, n+1, n+1) give values of that shape, member
    by member. Non-finite q1 or q2 raises ConsistencyError. Two structural
    relations are verified over the whole stack, with each member's bound
    scaled by its own entries: each member is unipotent and supported on
    its direction's pattern, and advancing ell by n+1 gives the transpose
    inverse. A violation raises ConsistencyError naming the first failing
    direction and, in a stack, the first failing member.

    Both relations are checked at the generators' directions 0 and 1 only:
    every other direction's residual equals its generator's bit for bit
    (see the module docstring), so the first failing direction is 0 or 1.
    A member on its pattern is I + N with N^2 = 0, so its transpose inverse
    is (2I - q)^T, compared entry by entry. :func:`_stokes_layout` asserts
    the facts this rests on exactly, once per size. The whole family is
    then gathered from the checked generators.
    """
    return _q_family(_stokes_layout(n_plus_1), q1, q2, range(2 * n_plus_1))


def _shift_gather(perm: np.ndarray, directions) -> np.ndarray:
    """Flat indices into a stacked (q1, q2) of the entries that make up the
    factors at ``directions``: entry (a, b) at direction 2j + h is entry
    (perm[j, a], perm[j, b]) of generator h, perm being the shift powers'
    table of :func:`_shift_action`."""
    n1 = perm.shape[1]
    j, h = np.divmod(np.asarray(directions), 2)
    p = perm[j]
    return (h[:, None, None] * n1 + p[:, :, None]) * n1 + p[:, None, :]


def _conjugates(layout: _Layout, qs: np.ndarray, directions) -> np.ndarray:
    """The factors at ``directions`` from the generator stack ``qs`` of
    shape (..., 2, n+1, n+1), stacked on axis -3 in that order.

    P^j q P^jT is a signed gather of q, as exact as the dense product; the
    factor at 2j + h is the j-th conjugate of q1 (h = 0) or q2 (h = 1).
    """
    at = _shift_gather(layout.shift_perm, directions)
    sign = layout.shift_sign[np.asarray(directions) // 2]
    stack = np.take(qs.reshape(qs.shape[:-3] + (-1,)), at, axis=-1)
    # the entries whose two signs differ are negated
    return np.negative(stack, out=stack, where=sign[:, :, None] != sign[:, None, :])


def _q_family(layout: _Layout, q1, q2, directions) -> dict[int, np.ndarray]:
    """:func:`q_family`'s checks on the two generators over the size's
    layout, then the factors at ``directions`` only, keyed by direction."""
    q1 = np.asarray(q1, dtype=complex)
    q2 = np.asarray(q2, dtype=complex)
    if not (np.isfinite(q1).all() and np.isfinite(q2).all()):
        raise ConsistencyError("Stokes factors q1 and q2 must be finite")
    n1, pats = layout.n_plus_1, layout.patterns

    qs = np.stack([q1, q2], axis=-3)
    lead = qs.shape[:-3]
    mag = np.abs(qs)
    bound = DEFAULT_TOL.bound(np.fmax(1.0, mag.max(axis=(-3, -2, -1))))
    bound = np.reshape(bound, (-1, 1))
    stacked = bool(lead)

    mag[..., pats[:2]] = 0.0
    off = mag.max(axis=(-2, -1)).reshape(-1, 2)
    del mag
    diag_err = np.abs(np.diagonal(qs, axis1=-2, axis2=-1) - 1.0).max(axis=-1)
    shape_ok = (off <= bound) & (diag_err.reshape(-1, 2) <= bound)

    # q_(ell+n+1) - (2I - q_ell)^T, exact inverse of members on their pattern
    rhs = _conjugates(layout, qs, (n1, n1 + 1)) + qs.swapaxes(-1, -2)
    rhs[..., np.arange(n1), np.arange(n1)] -= 2.0
    err = np.abs(rhs).max(axis=(-2, -1)).reshape(-1, 2)
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

    stack = _conjugates(layout, qs, directions)
    return {ell: stack[..., k, :, :] for k, ell in enumerate(directions)}


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
# each size's Stokes table, and sampling compatible with the family relations
# ---------------------------------------------------------------------------

class _Layout(NamedTuple):
    """The Stokes table of one size, read-only: the direction map, the
    masks of :func:`q_patterns`, the shift powers of :func:`_shift_action`,
    the support of every q1 q2 P, and the sampler's slots: per sample
    ``draws`` coefficients, each from one standard normal (real) or two
    (real part, then imaginary part); the head and then the second slots
    take draw ``source[k]`` times ``sign[k]``."""

    n_plus_1: int
    directions: np.ndarray
    patterns: np.ndarray
    shift_perm: np.ndarray
    shift_sign: np.ndarray
    support: np.ndarray
    head: tuple[Root, ...]
    second: tuple[Root, ...]
    draws: int
    source: np.ndarray
    sign: np.ndarray

    def width(self, real: bool) -> int:
        """Standard normals drawn per sample."""
        return self.draws if real else 2 * self.draws


def _stokes_layout(n1: int) -> _Layout:
    """The Stokes table of one size, from one direction map and one shift
    action. Asserted exactly: the (n+1)-st shift power is +-I, no slot of a
    direction ends in a row where another of its slots starts, the pattern
    of direction 2j + h is pattern h gathered by the j-th shift power, and
    the reality involution C has C^2 = I and C P C = +-P^T. The last two
    let the family's relations be checked at directions 0 and 1 only (see
    the module docstring).

    The half-period transpose-inverse relation, with the inverse I - N of
    every factor, reads q2 - I = -Pm^T (q1 - I)^T Pm for the m-th shift
    power Pm (m = floor((n+1)/2)) at odd n+1, and the same with q1 for q1
    and with q2 for q2 at even n+1: the coefficient at (i, j) is minus the
    signed one at the slot that Pm sends (j, i) to. Visited in table order,
    head then second, a slot paired with an earlier one takes its draw,
    signed; any other slot, and every head slot at odd n+1 (paired with no
    slot), takes a new draw. A self-paired slot with positive sign would be
    forced to zero; it is asserted that there is none, so every slot has a
    draw.
    """
    slot_dir = direction_map(n1)
    pats = _patterns(slot_dir)
    perm, psign = _shift_action(n1)
    if not (np.array_equal(perm[n1], perm[0]) and np.all(psign[n1] == psign[n1, 0])):
        raise AssertionError(f"shift conjugation is not periodic: the {n1}-th shift "
                             "power is not +-I")
    slots = pats & ~np.eye(n1, dtype=bool)
    chained = np.flatnonzero((slots.any(axis=-1) & slots.any(axis=-2)).any(axis=-1))
    if chained.size:
        raise AssertionError(f"direction {chained[0]} has a slot ending in a row where "
                             "another of its slots starts: its factors are not I + N "
                             "with N^2 = 0")
    shifted = np.take(pats[:2], _shift_gather(perm, range(2 * n1)))
    moved = np.flatnonzero((shifted != pats).any(axis=(-2, -1)))
    if moved.size:
        raise AssertionError(f"pattern {moved[0]} is not pattern {moved[0] % 2} "
                             f"gathered by shift power {moved[0] // 2}")
    # P as a dense signed permutation: row a has psign[1, a] at perm[1, a]
    P = np.zeros((n1, n1), dtype=int)
    P[np.arange(n1), perm[1]] = psign[1]
    C = reality_conjugator(n1)
    CPC = C @ P @ C
    if not (np.array_equal(C @ C, np.eye(n1))
            and (np.array_equal(CPC, P.T) or np.array_equal(CPC, -P.T))):
        raise AssertionError("the reality conjugator is not an involution C with "
                             "C P C = +-P^T")
    a, b = pats[:2].astype(int)
    support = (a @ b @ np.abs(P)) > 0

    head = tuple(table_supported_roots(n1, "head"))
    second = tuple(table_supported_roots(n1, "second"))
    # P^m sends e_{perm[a]} to psign[a] e_a: invert the row action
    inverse = np.argsort(perm[n1 // 2])
    image, sgn = inverse.tolist(), psign[n1 // 2][inverse].tolist()
    index = {r: k for k, r in enumerate(head + second)}
    source, sign = [], []
    draws = 0
    for k, (i, j) in enumerate(head + second):
        p = index.get((image[j], image[i]))
        s = sgn[i] * sgn[j]
        if p is None and (n1 % 2 == 0 or k >= len(head)):
            raise AssertionError(
                f"pairing sent {(i, j)} to {(image[j], image[i])}, which is no "
                "slot; the constraint bookkeeping is wrong"
            )
        if p == k and s > 0:
            raise AssertionError(
                f"slot {(i, j)} is paired with itself with a positive sign, which "
                "forces its coefficient to zero; no size has such a slot"
            )
        if p is not None and p < k:
            source.append(source[p])
            sign.append(-s * sign[p])
        else:
            source.append(draws)
            sign.append(1.0)
            draws += 1
    source, sign = np.array(source), np.array(sign)
    for arr in (slot_dir, pats, perm, psign, support, source, sign):
        arr.setflags(write=False)
    return _Layout(n1, slot_dir, pats, perm, psign, support,
                   head, second, draws, source, sign)


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
    coeffs = layout.sign * drawn[..., layout.source]
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


def _reality_partner(n_plus_1: int, ell: int) -> int:
    """The direction the reality relation pairs with ell: -ell-2 (even
    sizes) or -ell-1 (odd sizes), mod 2(n+1). The pairing is an involution."""
    return (-ell - (2 if n_plus_1 % 2 == 0 else 1)) % (2 * n_plus_1)


def reality_residual(family: dict[int, np.ndarray]) -> float:
    """How far a real-coefficient family is from its reality relation.

    The relation pairs the factor at ell with the inverse of the factor at
    its partner, -ell-2 (even sizes) or -ell-1 (odd sizes), conjugated by
    the reality involution; indices are mod 2(n+1). Each direction given is
    evaluated against its partner, which must be given too. Meaningful for
    real coefficients only, which is the case the relation is stated for.
    A stacked family (see :func:`q_family`) gives the worst residual over
    its members. Every direction's residual equals its generator's bit for
    bit (see the module docstring), so directions 0 and 1 with their
    partners give the full family's residual.
    """
    n_plus_1 = next(iter(family.values())).shape[-1]
    # the involution is a symmetric signed permutation, so C (2I - q) C is
    # 2I minus q at (rev[a], rev[b]) times C[a, rev[a]] C[b, rev[b]]
    C = reality_conjugator(n_plus_1)
    diag = np.arange(n_plus_1)
    rev = np.argmax(np.abs(C) > 0.5, axis=1)
    ss = np.outer(C[diag, rev], C[diag, rev])
    # one direction at a time, so no copy of the whole family is made
    worst = 0.0
    for ell, q_ell in family.items():
        q = family[_reality_partner(n_plus_1, ell)]
        lhs = -ss * q[..., rev[:, None], rev[None, :]]
        lhs[..., diag, diag] += 2.0
        lhs -= q_ell
        worst = nan_max(worst, max_abs(lhs))
    return worst
