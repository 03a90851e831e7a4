"""Stokes factors and monodromy for the tt*-Toda equations.

The fundamental objects are two unipotent matrices q1, q2 supported on the
head and second supported-root sets. Conjugating them by powers of the cyclic
shift (signed when n+1 is even) produces one Stokes factor per singular
direction; the fundamental monodromy is q1 q2 times the shift, and the full
monodromy is its (n+1)-st power with an extra scalar twist in the even case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    ConsistencyError,
    DEFAULT_TOL,
    NumericalError,
    Tolerance,
    cyclic_for,
    max_abs,
    omega_pow,
    omega_powers,
)
from .roots import Root, supported_roots, table_supported_roots

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

    True on the diagonal and at every supported root slot. Computed from the
    complementary-angle form of the support condition: entry (i, j) is allowed
    when arg(omega^i - omega^j) matches (n - ell) pi/(n+1) for even n+1, or
    (2n + 1 - 2 ell) pi/(2(n+1)) for odd n+1.
    """
    return _support_masks(n_plus_1, ell)


def q_patterns(n_plus_1: int) -> np.ndarray:
    """All 2(n+1) masks of :func:`q_pattern`, stacked: entry ell is the mask
    of direction ell."""
    return _support_masks(n_plus_1, np.arange(2 * n_plus_1))


def _support_masks(n_plus_1: int, ell) -> np.ndarray:
    """The masks of :func:`q_pattern` for a direction index or an array of
    them, the target angles broadcast over the omega^i - omega^j grid."""
    ell = np.asarray(ell)
    if n_plus_1 % 2 == 0:
        ang = (n_plus_1 - 1 - ell) * np.pi / n_plus_1
    else:
        ang = (2 * n_plus_1 - 1 - 2 * ell) * np.pi / (2 * n_plus_1)
    target = (np.cos(ang) + 1j * np.sin(ang))[..., None, None]
    w = omega_powers(n_plus_1)
    z = w[:, None] - w[None, :]  # z[i, j] = omega^i - omega^j
    np.fill_diagonal(z, 1.0)  # any nonzero value; the diagonal is set below
    pat = np.abs(z / np.abs(z) - target) < 1e-9
    diag = np.arange(n_plus_1)
    pat[..., diag, diag] = True
    return pat


@dataclass
class StokesParams:
    """Coefficients of the two generating Stokes factors.

    Keys must be exactly the head and second supported-root sets. Values may
    be any complex numbers here; the transpose-inverse constraint of the full
    family is a property of the family, enforced by :func:`q_family`.
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
    """Fundamental monodromy together with its size tag."""

    n_plus_1: int
    matrix: np.ndarray


def build_q(n_plus_1: int, which: str, coeffs: dict[Root, complex]) -> np.ndarray:
    """Unipotent Stokes factor I + sum coeffs[(i, j)] E_{ij}.

    ``which`` selects the head or second root set and the keys must match it
    exactly. Insertion order of the dict is irrelevant.
    """
    if which not in ("head", "second"):
        raise ValueError(f"which must be 'head' or 'second', got {which!r}")
    expect = set(table_supported_roots(n_plus_1, which))
    if set(coeffs) != expect:
        raise ValueError(
            f"coefficient keys {sorted(set(coeffs))} do not match the {which} "
            f"root set {sorted(expect)}"
        )
    q = np.eye(n_plus_1, dtype=complex)
    for (i, j), c in coeffs.items():
        q[i, j] = complex(c)
    return q


def build_m0(params: StokesParams, tol: Tolerance = DEFAULT_TOL) -> MonodromyMatrix:
    """Fundamental monodromy q1 q2 P, with P the (signed) cyclic shift.

    The result always has determinant 1; a violation indicates numerical
    trouble and raises NumericalError.
    """
    n1 = params.n_plus_1
    q1 = build_q(n1, "head", params.head_coeffs)
    q2 = build_q(n1, "second", params.second_coeffs)
    M = q1 @ q2 @ cyclic_for(n1).astype(complex)
    det = np.linalg.det(M)
    if not abs(det - 1.0) <= tol.bound(max(1.0, abs(det))):
        raise NumericalError(f"monodromy determinant {det} is not 1")
    return MonodromyMatrix(n1, M)


def q_family(
    n_plus_1: int,
    q1: np.ndarray,
    q2: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> dict[int, np.ndarray]:
    """All 2(n+1) Stokes factors generated from q1 and q2 by shift conjugation.

    Keys are the direction indices ell = 0 .. 2n+1; even indices come from
    q1, odd from q2, and the values are views into one stacked array.
    Non-finite q1 or q2 raises ConsistencyError. Three structural relations
    are verified over the whole stack, and a violation raises
    ConsistencyError naming the first failing direction:

    * each member is unipotent and supported on its direction's pattern;
    * advancing ell by n+1 gives the transpose inverse;
    * conjugation is periodic, the (n+1)-st shift power acting trivially.
    """
    q1 = np.asarray(q1, dtype=complex)
    q2 = np.asarray(q2, dtype=complex)
    if not (np.isfinite(q1).all() and np.isfinite(q2).all()):
        raise ConsistencyError("Stokes factors q1 and q2 must be finite")
    scale = max(1.0, max_abs(q1), max_abs(q2))
    bound = tol.bound(scale)

    # P^j is a signed permutation, (P^j v)_a = sign_j(a) v_{(a+j) mod (n+1)}
    # with sign -1 where a+j wraps past n and n+1 is even, so P^j q P^jT is a
    # signed gather of q, as exact as the dense product. Member 2j + h is
    # the j-th conjugate of q1 (h = 0) or q2 (h = 1).
    shifted = np.arange(n_plus_1)[:, None] + np.arange(n_plus_1)  # [j, a] = a + j
    perm = shifted % n_plus_1
    sign = np.where((shifted >= n_plus_1) & (n_plus_1 % 2 == 0), -1.0, 1.0)
    gathered = np.stack([q1, q2])[:, perm[:, :, None], perm[:, None, :]]
    stack = (sign[:, :, None] * sign[:, None, :] * gathered).swapaxes(0, 1)
    stack = stack.reshape(2 * n_plus_1, n_plus_1, n_plus_1)

    off = np.abs(np.where(q_patterns(n_plus_1), 0.0, stack)).max(axis=(1, 2))
    diag_err = np.abs(np.diagonal(stack, axis1=1, axis2=2) - 1.0).max(axis=1)
    failed = np.flatnonzero(~((off <= bound) & (diag_err <= bound)))
    if failed.size:
        ell = int(failed[0])
        if not off[ell] <= bound:
            raise ConsistencyError(
                f"Stokes factor {ell} has weight {off[ell]:.3e} outside its pattern"
            )
        raise ConsistencyError(f"Stokes factor {ell} is not unipotent")

    lhs = stack[n_plus_1:]
    rhs = np.linalg.inv(stack[:n_plus_1].transpose(0, 2, 1))
    err = np.abs(lhs - rhs).max(axis=(1, 2))
    failed = np.flatnonzero(~(err <= bound))
    if failed.size:
        ell = int(failed[0])
        raise ConsistencyError(
            f"transpose-inverse relation fails between factors {ell} and "
            f"{ell + n_plus_1} (residual {err[ell]:.3e})"
        )

    Pfull = np.linalg.matrix_power(cyclic_for(n_plus_1), n_plus_1)
    per = max_abs(Pfull @ q1 @ Pfull.T - q1)
    if not per <= bound:
        raise ConsistencyError(f"shift conjugation is not periodic (residual {per:.3e})")

    return {ell: stack[ell] for ell in range(2 * n_plus_1)}


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

def _permutation_action(Pm: np.ndarray) -> tuple[list[int], list[float]]:
    """Image index and sign of every basis vector under a signed permutation:
    Pm e_j = sign[j] e_{image[j]}."""
    image = np.argmax(np.abs(Pm) > 0.5, axis=0)
    sign = np.sign(Pm[image, np.arange(len(image))].real)
    return image.tolist(), sign.tolist()


def _paired_block(block: list[Root], action, rng, real: bool, scale: float):
    """Draw coefficients for one even-size block.

    The half-period transpose-inverse relation pairs the block's roots with
    each other through conjugation by the m-th shift power, whose
    :func:`_permutation_action` is ``action``; paired roots get
    opposite-signed coefficients and a self-paired root with positive sign is
    forced to zero.
    """
    image, sgn = action
    block_set = set(block)
    coeffs: dict[Root, complex] = {}

    def draw() -> complex:
        if real:
            return complex(rng.normal() * scale)
        return complex(rng.normal(), rng.normal()) * scale

    for alpha in block:
        if alpha in coeffs:
            continue
        i, j = alpha
        beta = (image[j], image[i])
        sign = sgn[i] * sgn[j]
        if beta == alpha:
            coeffs[alpha] = 0.0 if sign > 0 else draw()
            continue
        if beta not in block_set:
            raise AssertionError(
                f"pairing sent {alpha} outside its block (to {beta}); "
                "the constraint bookkeeping is wrong"
            )
        c = draw()
        coeffs[alpha] = c
        coeffs[beta] = -sign * c
    return coeffs


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
    """
    head = table_supported_roots(n_plus_1, "head")
    second = table_supported_roots(n_plus_1, "second")
    P = cyclic_for(n_plus_1)
    m = n_plus_1 // 2
    Pm = np.linalg.matrix_power(P, m)

    if n_plus_1 % 2 == 0:
        action = _permutation_action(Pm)
        head_coeffs = _paired_block(head, action, rng, real, scale)
        second_coeffs = _paired_block(second, action, rng, real, scale)
    else:
        if real:
            head_coeffs = {r: complex(rng.normal() * scale) for r in head}
        else:
            head_coeffs = {
                r: complex(rng.normal(), rng.normal()) * scale for r in head
            }
        q1 = build_q(n_plus_1, "head", head_coeffs)
        q2 = Pm.T @ np.linalg.inv(q1.T) @ Pm
        second_coeffs = {r: complex(q2[r]) for r in second}
        # everything q2 carries must sit on the second-direction slots
        probe = np.eye(n_plus_1, dtype=complex)
        for r, c in second_coeffs.items():
            probe[r] = c
        if max_abs(q2 - probe) > 1e-9:
            raise AssertionError(
                "derived second factor has weight outside the second root set"
            )
    return StokesParams(n_plus_1, head_coeffs, second_coeffs)


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
    only, which is the case the relation is stated for.
    """
    n_plus_1 = family[0].shape[0]
    period = 2 * n_plus_1
    stack = np.stack([family[ell] for ell in range(period)])
    off = 2 if n_plus_1 % 2 == 0 else 1
    partners = (-np.arange(period) - off) % period
    C = reality_conjugator(n_plus_1)
    return max_abs(C @ np.linalg.inv(stack[partners]) @ C - stack)
