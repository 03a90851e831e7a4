"""Root-space combinatorics for sl(n+1).

A root alpha_{ij} (i != j) acts on diag(h_0, ..., h_n) as h_i - h_j and is
stored as the plain tuple (i, j). Each root is supported on exactly one of
the 2(n+1) anti-Stokes directions. The argument condition on differences of
roots of unity gives them all at once as one integer map (``direction_map``),
which every supported-root set and Stokes pattern is read from; the closed
form index tables are a separate route, so the two can be tested against
each other.

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
    "singular_direction",
    "singular_directions",
    "direction_map",
    "supported_roots",
    "table_supported_roots",
    "table_agreement",
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


def root_vector(n_plus_1: int, root: Root) -> np.ndarray:
    """Coordinate vector e_i - e_j of the root (i, j)."""
    i, j = root
    v = np.zeros(n_plus_1, dtype=int)
    v[i] = 1
    v[j] = -1
    return v


def _root_vectors(n_plus_1: int, roots) -> np.ndarray:
    """The :func:`root_vector` of each root as the rows of one integer
    array; as there, j's -1 overwrites i's 1 when i == j."""
    i, j = np.array(roots, dtype=int).reshape(len(roots), 2).T
    rows = np.arange(len(roots))
    out = np.zeros((len(roots), n_plus_1), dtype=int)
    out[rows, i] = 1
    out[rows, j] = -1
    return out


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


def _direction_angle(n_plus_1: int, ell):
    """theta_ell for one direction index or an integer array of them."""
    if n_plus_1 % 2 == 0:
        return -(ell + 1) * np.pi / n_plus_1
    return -(2 * ell + 1) * np.pi / (2 * n_plus_1)


def singular_direction(n_plus_1: int, ell: int) -> SingularDirection:
    """Direction number ell in the standard enumeration.

    For even n+1 the angle is -(ell+1) pi/(n+1); for odd n+1 it is
    -(2 ell + 1) pi/(2(n+1)). Directions repeat with period 2(n+1) in ell.
    """
    _check_size(n_plus_1)
    return SingularDirection(n_plus_1, ell, float(_direction_angle(n_plus_1, ell)))


def singular_directions(n_plus_1: int) -> list[SingularDirection]:
    """All 2(n+1) directions, ell = 0 .. 2n+1."""
    return [singular_direction(n_plus_1, ell) for ell in range(2 * n_plus_1)]


def direction_map(n_plus_1: int) -> np.ndarray:
    """The direction of every root: entry (i, j) is the ell in 0 .. 2n+1
    that supports alpha_{ij}, and -1 on the diagonal.

    alpha_{ij} is supported at theta_ell iff arg(omega^j - omega^i) agrees
    with theta_ell mod 2 pi. The ell is read off the argument and then
    checked between points on the unit circle, which avoids branch-cut
    bookkeeping. Every root lies on exactly one direction; one on none
    raises AssertionError.
    """
    _check_size(n_plus_1)
    w = omega_powers(n_plus_1)
    z = w[None, :] - w[:, None]  # z[i, j] = omega^j - omega^i
    off = ~np.eye(n_plus_1, dtype=bool)
    u = z[off] / np.abs(z[off])
    # -theta_ell (n+1)/pi is ell + 1 at even size and ell + 1/2 at odd size
    shift = 0.5 if n_plus_1 % 2 else 1.0
    ell = np.rint(-np.angle(u) * n_plus_1 / np.pi - shift).astype(np.int64)
    ell %= 2 * n_plus_1
    theta = _direction_angle(n_plus_1, ell)
    if not np.all(np.abs(u - (np.cos(theta) + 1j * np.sin(theta))) < _DIRECTION_EPS):
        raise AssertionError(f"a root of size {n_plus_1} lies on no singular direction")
    out = np.full((n_plus_1, n_plus_1), -1, dtype=np.int64)
    out[off] = ell
    return out


def _roots_on(slot_dir: np.ndarray, ell: int) -> list[Root]:
    """The roots that the map ``slot_dir`` puts on direction ell (mod 2(n+1)),
    sorted lexicographically."""
    rows, cols = np.nonzero(slot_dir == ell % (2 * len(slot_dir)))  # row-major
    return list(zip(rows.tolist(), cols.tolist()))


def supported_roots(n_plus_1: int, ell: int) -> list[Root]:
    """Roots supported on direction ell, from the argument condition (see
    :func:`direction_map`), sorted lexicographically."""
    return _roots_on(direction_map(n_plus_1), ell)


# ---------------------------------------------------------------------------
# closed-form index tables for the first, second, and last directions
# ---------------------------------------------------------------------------

def table_supported_roots(n_plus_1: int, which: str) -> list[Root]:
    """Supported roots for the first ('head'), second, or last ('tail')
    direction, from the closed-form tables, kept in table order (left to
    right).

    The table order matters downstream: the cross-section calibration
    consumes head and tail blocks in exactly this order. Each set is two
    arithmetic runs of pairs; the case split is on the parity of n+1 and
    then on the parity of m (half the size, rounded down). Each case maps a
    table name to a function building its runs, so that only the requested
    table is built.
    """
    _check_size(n_plus_1)
    if which not in ("head", "second", "tail"):
        raise ValueError(f"which must be head, second, or tail, got {which!r}")
    if n_plus_1 % 2 == 0:
        m = n_plus_1 // 2
        if m % 2 == 0:
            c = m // 2
            seqs = {
                "head": lambda: (
                    [(2 * c - 1 - j, j) for j in range(c)],
                    [(2 * c + j, 4 * c - 1 - j) for j in range(c)],
                ),
                "second": lambda: (
                    [(2 * c - 1 + j, 4 * c - 1 - j) for j in range(c)],
                    [(2 * c - 2 - j, j) for j in range(c - 1)],
                ),
                "tail": lambda: (
                    [(4 * c - 1 - j, 2 * c + 1 + j) for j in range(c - 1)],
                    [(j, 2 * c - j) for j in range(c)],
                ),
            }
        else:
            c = (m - 1) // 2
            seqs = {
                "head": lambda: (
                    [(2 * c + 1 + j, 4 * c + 1 - j) for j in range(c)],
                    [(2 * c - j, j) for j in range(c)],
                ),
                "second": lambda: (
                    [(2 * c - 1 - j, j) for j in range(c)],
                    [(2 * c + j, 4 * c + 1 - j) for j in range(c + 1)],
                ),
                "tail": lambda: (
                    [(j, 2 * c + 1 - j) for j in range(c + 1)],
                    [(4 * c + 1 - j, 2 * c + 2 + j) for j in range(c)],
                ),
            }
    else:
        m = n_plus_1 // 2
        if m % 2 == 0:
            c = m // 2
            seqs = {
                "head": lambda: (
                    [(2 * c - j, j) for j in range(c)],
                    [(2 * c + 1 + j, 4 * c - j) for j in range(c)],
                ),
                "second": lambda: (
                    [(2 * c + j, 4 * c - j) for j in range(c)],
                    [(2 * c - 1 - j, j) for j in range(c)],
                ),
                "tail": lambda: (
                    [(4 * c - j, 2 * c + 2 + j) for j in range(c - 1)],
                    [(j, 2 * c + 1 - j) for j in range(c + 1)],
                ),
            }
        else:
            c = (m - 1) // 2
            seqs = {
                "head": lambda: (
                    [(2 * c + 1 - j, j) for j in range(c + 1)],
                    [(2 * c + 2 + j, 4 * c + 2 - j) for j in range(c)],
                ),
                "second": lambda: (
                    [(2 * c - j, j) for j in range(c)],
                    [(2 * c + 1 + j, 4 * c + 2 - j) for j in range(c + 1)],
                ),
                "tail": lambda: (
                    [(j, 2 * c + 2 - j) for j in range(c + 1)],
                    [(4 * c + 2 - j, 2 * c + 3 + j) for j in range(c)],
                ),
            }
    a, b = seqs[which]()
    return a + b


def table_agreement(slot_dir: np.ndarray, tables=None) -> np.ndarray:
    """Per direction ell = 0 .. 2n+1, whether the roots that the direction
    map ``slot_dir`` puts on ell are exactly the closed-form prediction: the
    head table for even ell, the second for odd ell, shifted down by ell//2
    in both indices.  A (2(n+1),) bool array.

    ``tables`` holds the size's head and second tables, built when not
    given.  The prediction of every direction is scattered into one
    (2(n+1), n+1, n+1) mask and compared with the map in one step.
    """
    n_plus_1 = len(slot_dir)
    if tables is None:
        tables = [table_supported_roots(n_plus_1, w) for w in ("head", "second")]
    ell = np.arange(2 * n_plus_1)
    predicted = np.zeros((2 * n_plus_1, n_plus_1, n_plus_1), dtype=bool)
    for parity, table in enumerate(tables):
        # the directions of this parity, each shifted down by ell // 2
        ells = ell[parity::2, None]
        i, j = np.array(table, dtype=int).reshape(-1, 2).T
        predicted[ells, (i - ells // 2) % n_plus_1, (j - ells // 2) % n_plus_1] = True
    return np.all(predicted == (slot_dir == ell[:, None, None]), axis=(1, 2))


def half_period_roots(n_plus_1: int) -> list[Root]:
    """The roots supported on the first n+1 directions, sorted
    lexicographically.

    This is a positive system: it contains exactly one of (i, j), (j, i)
    for every pair.
    """
    slot_dir = direction_map(n_plus_1)
    rows, cols = np.nonzero((slot_dir >= 0) & (slot_dir < n_plus_1))
    out = list(zip(rows.tolist(), cols.tolist()))
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
    vectors = _root_vectors(n_plus_1, candidate)
    A = vectors.T.astype(float)
    if np.linalg.matrix_rank(A) < n:
        return SimpleSystemCertificate(
            False, "candidate roots are not linearly independent", {}
        )
    # one solve for every positive root; the first root, in ``positive``
    # order, failing the integer check or else the sign check is reported
    positive = list(positive)
    targets = _root_vectors(n_plus_1, positive).T
    x, *_ = np.linalg.lstsq(A, targets.astype(float), rcond=None)
    x_int = np.rint(x).astype(int)
    integral = np.all(vectors.T @ x_int == targets, axis=0)
    failed = np.flatnonzero(~(integral & np.all(x_int >= 0, axis=0)))
    if failed.size:
        k = failed[0]
        p = positive[k]
        reason = (f"root {p} is not an integer combination of the candidate"
                  if not integral[k] else f"root {p} needs a negative coefficient")
        return SimpleSystemCertificate(False, reason, {})
    coeffs = {tuple(p): tuple(c) for p, c in zip(positive, x_int.T.tolist())}
    return SimpleSystemCertificate(True, None, coeffs)
