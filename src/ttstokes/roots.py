"""Root-space combinatorics for sl(n+1).

A root alpha_{ij} (i != j) acts on diag(h_0, ..., h_n) as h_i - h_j and is
stored as the plain tuple (i, j). Each anti-Stokes direction in the relevant
half-period supports a specific set of these roots; the sets follow either
from the argument condition on differences of roots of unity or from closed
form index tables, and the two routes are kept separate so they can be tested
against each other.

The zigzag order diagram encodes a total order on {0..n} whose consecutive
pairs reproduce exactly the head and tail supported-root sets, giving a
simple system adapted to the Stokes factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import omega_powers

Root = tuple[int, int]

__all__ = [
    "Root",
    "SingularDirection",
    "OrderDiagram",
    "SimpleSystemCertificate",
    "all_roots",
    "singular_direction",
    "singular_directions",
    "supported_roots",
    "table_supported_roots",
    "shifted_table_roots",
    "half_period_roots",
    "order_diagram",
    "simple_system_check",
    "root_vector",
]

# Unit-circle comparison slack. Directions are separated by pi/(n+1) or more,
# so anything well below that is safe; 1e-9 matches the package default.
_DIRECTION_EPS = 1e-9


def _check_size(n_plus_1: int) -> None:
    if n_plus_1 < 3:
        raise ValueError(f"need matrix size at least 3, got {n_plus_1}")


def all_roots(n_plus_1: int) -> list[Root]:
    """All n(n+1) roots (i, j), i != j, sorted lexicographically."""
    _check_size(n_plus_1)
    return [
        (i, j)
        for i in range(n_plus_1)
        for j in range(n_plus_1)
        if i != j
    ]


def root_vector(n_plus_1: int, root: Root) -> np.ndarray:
    """Coordinate vector e_i - e_j of the root (i, j)."""
    i, j = root
    v = np.zeros(n_plus_1, dtype=int)
    v[i] = 1
    v[j] = -1
    return v


@dataclass(frozen=True)
class SingularDirection:
    """One anti-Stokes direction theta, indexed by ell = 0 .. 2n+1."""

    n_plus_1: int
    ell: int
    theta: float

    @property
    def label(self) -> Fraction:
        """The direction's index 1 + ell/(n+1) as an exact fraction."""
        return Fraction(self.n_plus_1 + self.ell, self.n_plus_1)


def singular_direction(n_plus_1: int, ell: int) -> SingularDirection:
    """Direction number ell in the standard enumeration.

    For even n+1 the angle is -(ell+1) pi/(n+1); for odd n+1 it is
    -(2 ell + 1) pi/(2(n+1)). Directions repeat with period 2(n+1) in ell.
    """
    _check_size(n_plus_1)
    if n_plus_1 % 2 == 0:
        theta = -(ell + 1) * np.pi / n_plus_1
    else:
        theta = -(2 * ell + 1) * np.pi / (2 * n_plus_1)
    return SingularDirection(n_plus_1, ell, float(theta))


def singular_directions(n_plus_1: int) -> list[SingularDirection]:
    """All 2(n+1) directions, ell = 0 .. 2n+1."""
    return [singular_direction(n_plus_1, ell) for ell in range(2 * n_plus_1)]


def supported_roots(n_plus_1: int, ell: int) -> list[Root]:
    """Roots supported on direction ell, from the argument condition.

    alpha_{ij} is supported at theta_ell iff arg(omega^j - omega^i) agrees
    with theta_ell mod 2 pi. The comparison is done between points on the
    unit circle, which avoids branch-cut bookkeeping. The roots come back
    sorted lexicographically.
    """
    d = singular_direction(n_plus_1, ell)
    target = complex(np.cos(d.theta), np.sin(d.theta))
    w = omega_powers(n_plus_1)
    z = w[None, :] - w[:, None]  # z[i, j] = omega^j - omega^i
    np.fill_diagonal(z, 1.0)  # any nonzero value; the diagonal is no root
    mask = np.abs(z / np.abs(z) - target) < _DIRECTION_EPS
    np.fill_diagonal(mask, False)
    rows, cols = np.nonzero(mask)  # row-major, so lexicographic
    return list(zip(rows.tolist(), cols.tolist()))


# ---------------------------------------------------------------------------
# closed-form index tables for the first, second, and last directions
# ---------------------------------------------------------------------------

def _table_rows(n_plus_1: int, which: str) -> list[Root]:
    """Index sequences in their table order (left to right).

    Each set is two arithmetic runs of pairs; the case split is on the parity
    of n+1 and then on the parity of m (half the size, rounded down).
    """
    _check_size(n_plus_1)
    if n_plus_1 % 2 == 0:
        m = n_plus_1 // 2
        if m % 2 == 0:
            c = m // 2
            seqs = {
                "head": (
                    [(2 * c - 1 - j, j) for j in range(c)],
                    [(2 * c + j, 4 * c - 1 - j) for j in range(c)],
                ),
                "second": (
                    [(2 * c - 1 + j, 4 * c - 1 - j) for j in range(c)],
                    [(2 * c - 2 - j, j) for j in range(c - 1)],
                ),
                "tail": (
                    [(4 * c - 1 - j, 2 * c + 1 + j) for j in range(c - 1)],
                    [(j, 2 * c - j) for j in range(c)],
                ),
            }
        else:
            c = (m - 1) // 2
            seqs = {
                "head": (
                    [(2 * c + 1 + j, 4 * c + 1 - j) for j in range(c)],
                    [(2 * c - j, j) for j in range(c)],
                ),
                "second": (
                    [(2 * c - 1 - j, j) for j in range(c)],
                    [(2 * c + j, 4 * c + 1 - j) for j in range(c + 1)],
                ),
                "tail": (
                    [(j, 2 * c + 1 - j) for j in range(c + 1)],
                    [(4 * c + 1 - j, 2 * c + 2 + j) for j in range(c)],
                ),
            }
    else:
        m = n_plus_1 // 2
        if m % 2 == 0:
            c = m // 2
            seqs = {
                "head": (
                    [(2 * c - j, j) for j in range(c)],
                    [(2 * c + 1 + j, 4 * c - j) for j in range(c)],
                ),
                "second": (
                    [(2 * c + j, 4 * c - j) for j in range(c)],
                    [(2 * c - 1 - j, j) for j in range(c)],
                ),
                "tail": (
                    [(4 * c - j, 2 * c + 2 + j) for j in range(c - 1)],
                    [(j, 2 * c + 1 - j) for j in range(c + 1)],
                ),
            }
        else:
            c = (m - 1) // 2
            seqs = {
                "head": (
                    [(2 * c + 1 - j, j) for j in range(c + 1)],
                    [(2 * c + 2 + j, 4 * c + 2 - j) for j in range(c)],
                ),
                "second": (
                    [(2 * c - j, j) for j in range(c)],
                    [(2 * c + 1 + j, 4 * c + 2 - j) for j in range(c + 1)],
                ),
                "tail": (
                    [(j, 2 * c + 2 - j) for j in range(c + 1)],
                    [(4 * c + 2 - j, 2 * c + 3 + j) for j in range(c)],
                ),
            }
    if which not in seqs:
        raise ValueError(f"which must be head, second, or tail, got {which!r}")
    a, b = seqs[which]
    return a + b


def table_supported_roots(n_plus_1: int, which: str) -> list[Root]:
    """Supported roots for the first ('head'), second, or last ('tail')
    direction, from the closed-form tables, kept in table order.

    The table order matters downstream: the cross-section calibration
    consumes head and tail blocks in exactly this order.
    """
    return _table_rows(n_plus_1, which)


def shifted_table_roots(n_plus_1: int, ell: int) -> set[Root]:
    """Closed-form prediction for any direction: the head/second table for
    the parity of ell, shifted down by ell//2 in both indices."""
    which = "head" if ell % 2 == 0 else "second"
    s = ell // 2
    return {((i - s) % n_plus_1, (j - s) % n_plus_1)
            for i, j in table_supported_roots(n_plus_1, which)}


def half_period_roots(n_plus_1: int) -> list[Root]:
    """Union of the supported sets over the first n+1 directions.

    This is a positive system: it contains exactly one of (i, j), (j, i)
    for every pair.
    """
    seen: dict[Root, int] = {}
    for ell in range(n_plus_1):
        for r in supported_roots(n_plus_1, ell):
            seen.setdefault(r, ell)
    out = sorted(seen)
    if len(out) != n_plus_1 * (n_plus_1 - 1) // 2:
        raise AssertionError(
            f"half-period union has {len(out)} roots, expected "
            f"{n_plus_1 * (n_plus_1 - 1) // 2}"
        )
    return out


# ---------------------------------------------------------------------------
# zigzag order diagram
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderDiagram:
    """Total order on the index set {0..n}, drawn as a zigzag.

    ``order`` lists indices from least to greatest. ``top`` and ``bottom``
    partition the indices into the two diagram rows; consecutive pairs of the
    order give the adapted simple system, with the row of the smaller element
    deciding whether the resulting simple root belongs to the head block or
    the tail block.
    """

    n_plus_1: int
    top: tuple[int, ...]
    bottom: tuple[int, ...]
    order: tuple[int, ...]

    def rank(self, idx: int) -> int:
        return self.order.index(idx)

    def is_positive(self, root: Root) -> bool:
        """True when (i, j) has i greater than j in the diagram order."""
        i, j = root
        return self.rank(i) > self.rank(j)

    def simple_roots(self) -> tuple[list[Root], list[Root]]:
        """(head part, tail part) of the adapted simple system."""
        head_part: list[Root] = []
        tail_part: list[Root] = []
        top = set(self.top)
        for x, y in zip(self.order, self.order[1:]):
            if x in top:
                head_part.append((y, x))
            else:
                tail_part.append((y, x))
        return head_part, tail_part


def order_diagram(n_plus_1: int) -> OrderDiagram:
    """Build the zigzag diagram for the given size.

    The two rows are runs of consecutive indices (wrapping through 0 on the
    top row); which row starts the zigzag depends on the parity of both n+1
    and m.
    """
    _check_size(n_plus_1)
    if n_plus_1 % 2 == 0:
        m = n_plus_1 // 2
        if m % 2 == 0:
            c = m // 2
            top = list(range(3 * c, 4 * c)) + list(range(c))
            bottom = list(range(3 * c - 1, c - 1, -1))
            first, second = top, bottom
        else:
            c = (m - 1) // 2
            bottom = list(range(3 * c + 1, c, -1))
            top = list(range(3 * c + 2, 4 * c + 2)) + list(range(c + 1))
            first, second = bottom, top
    else:
        m = n_plus_1 // 2
        if m % 2 == 0:
            c = m // 2
            top = list(range(3 * c + 1, 4 * c + 1)) + list(range(c + 1))
            bottom = list(range(3 * c, c, -1))
            first, second = top, bottom
        else:
            c = (m - 1) // 2
            bottom = list(range(3 * c + 2, c, -1))
            top = list(range(3 * c + 3, 4 * c + 3)) + list(range(c + 1))
            first, second = bottom, top
    order: list[int] = []
    for k in range(max(len(first), len(second))):
        if k < len(first):
            order.append(first[k])
        if k < len(second):
            order.append(second[k])
    return OrderDiagram(n_plus_1, tuple(top), tuple(bottom), tuple(order))


# ---------------------------------------------------------------------------
# simple system certificates
# ---------------------------------------------------------------------------

@dataclass
class SimpleSystemCertificate:
    """Outcome of checking a candidate simple system.

    When ``ok``, ``coefficients[p]`` expands the positive root p over the
    candidate (same order), all entries nonnegative integers.
    """

    ok: bool
    reason: str | None
    coefficients: dict[Root, tuple[int, ...]]


def simple_system_check(
    n_plus_1: int,
    candidate,
    positive=None,
) -> SimpleSystemCertificate:
    """Certify that ``candidate`` is a simple system for ``positive``.

    Requirements checked: the candidate has n linearly independent elements,
    and every positive root is a nonnegative integer combination of them.
    ``positive`` defaults to the half-period positive system.
    """
    _check_size(n_plus_1)
    candidate = [tuple(r) for r in candidate]
    if positive is None:
        positive = half_period_roots(n_plus_1)
    n = n_plus_1 - 1
    if len(candidate) != n:
        return SimpleSystemCertificate(
            False, f"candidate has {len(candidate)} roots, need {n}", {}
        )
    A = np.array([root_vector(n_plus_1, r) for r in candidate], dtype=float).T
    if np.linalg.matrix_rank(A) < n:
        return SimpleSystemCertificate(
            False, "candidate roots are not linearly independent", {}
        )
    A_int = A.astype(int)
    coeffs: dict[Root, tuple[int, ...]] = {}
    for p in positive:
        target = root_vector(n_plus_1, p)
        x, *_ = np.linalg.lstsq(A, target.astype(float), rcond=None)
        x_int = np.rint(x).astype(int)
        if not np.array_equal(A_int @ x_int, target):
            return SimpleSystemCertificate(
                False, f"root {p} is not an integer combination of the candidate", {}
            )
        if np.any(x_int < 0):
            return SimpleSystemCertificate(
                False, f"root {p} needs a negative coefficient", {}
            )
        coeffs[tuple(p)] = tuple(int(v) for v in x_int)
    return SimpleSystemCertificate(True, None, coeffs)
