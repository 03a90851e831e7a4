"""Root-space combinatorics for sl(n+1).

A root alpha_{ij} (i != j) acts on diag(h_0, ..., h_n) as h_i - h_j and is
stored as the plain tuple (i, j). Each root is supported on exactly one of
the 2(n+1) anti-Stokes directions, the one at the argument of

    omega^j - omega^i = 2i sin(pi (j - i)/(n+1)) e^{i pi (i + j)/(n+1)}.

The sine is positive exactly when j > i, so a root's direction depends only
on i + j and on which index is larger. ``direction_map`` stays the
floating-point route: it evaluates the argument on the unit circle, and every
supported-root set and Stokes pattern is read from it. The closed-form
tables and the zigzag order diagram, whose consecutive pairs give the head
and tail roots as a simple system adapted to the Stokes factors, follow from
the identity by integer rules, so the two routes are tested against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "table_supported_roots",
    "table_agreement",
    "half_period_roots",
    "order_diagram",
    "simple_system_check",
]

# Unit-circle comparison slack. Directions are separated by pi/(n+1) or more,
# so anything well below that is safe; 1e-9 matches the package default.
_DIRECTION_EPS = 1e-9


def _check_size(n_plus_1: int) -> None:
    if n_plus_1 < 3:
        raise ValueError(f"need matrix size at least 3, got {n_plus_1}")


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

# The tables that list their low run first, by (n+1) mod 4. Which run comes
# first is the tables' own convention, not geometry; calibrate's root order
# and the Stokes sampler's draw order follow it.
_LOW_FIRST = ({"head"}, {"head"}, {"second", "tail"},
              {"head", "second", "tail"})


def table_supported_roots(n_plus_1: int, which: str) -> list[Root]:
    """Supported roots for the first ('head'), second, or last ('tail')
    direction, from the closed-form tables, kept in table order (left to
    right).

    Direction ell = 0, 1 or n carries the roots with i + j = s mod n+1,
    s = floor(n/2) - ell, in two runs: ``low``, the (s - j, j) with i > j,
    and ``high``, the (s + 1 + j, n - j) with i < j (i + j = s + n + 1).
    At the tail s wraps to floor(n/2) + 1, which transposes both runs. The
    run listed first is the tables' convention, ``_LOW_FIRST`` by (n+1)
    mod 4: the cross-section calibration consumes head and tail blocks in
    exactly this order.
    """
    _check_size(n_plus_1)
    if which not in ("head", "second", "tail"):
        raise ValueError(f"which must be head, second, or tail, got {which!r}")
    n = n_plus_1 - 1
    ell = {"head": 0, "second": 1, "tail": n}[which]
    s = (n // 2 - ell) % n_plus_1
    low = [(s - j, j) for j in range((s + 1) // 2)]
    high = [(s + 1 + j, n - j) for j in range((n - s) // 2)]
    runs = low + high if which in _LOW_FIRST[n_plus_1 % 4] else high + low
    if ell > n // 2:  # s wrapped past 0
        runs = [(j, i) for i, j in runs]
    return runs


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

    With s = floor(n/2), the head reflection i -> s - i and the tail
    reflection i -> s + 1 - i (both mod n+1) swap the two indices of every
    head and every tail root respectively. The order walks from the largest
    index that either reflection fixes, applying the other reflection first
    and then alternating, so consecutive entries alternate between head and
    tail pairs. The top row is every other entry of the walk: the alternate
    set that contains 0.
    """
    _check_size(n_plus_1)
    s = (n_plus_1 - 1) // 2
    centres = (s, s + 1)  # of the head and the tail reflection
    start, k = max((i, k) for k in (0, 1) for i in range(n_plus_1)
                   if (2 * i - centres[k]) % n_plus_1 == 0)
    order = [start]
    for _ in range(n_plus_1 - 1):
        k = 1 - k
        order.append((centres[k] - order[-1]) % n_plus_1)
    rows = (tuple(order[::2]), tuple(order[1::2]))
    top, bottom = rows if 0 in rows[0] else rows[::-1]
    return OrderDiagram(n_plus_1, top, bottom, tuple(order))


# ---------------------------------------------------------------------------
# simple system certificates
# ---------------------------------------------------------------------------

def _tree_paths(n_plus_1: int, edges) -> np.ndarray | None:
    """Row v writes e_v - e_0 over the vectors e_a - e_b of the n ``edges``
    (a, b), with entries in {-1, 0, 1}: the tree's path from 0 to v. None
    when the edges are no spanning tree of the n+1 indices, which is exactly
    when their vectors are dependent."""
    adjacent = [[] for _ in range(n_plus_1)]
    for k, (a, b) in enumerate(edges):
        adjacent[a].append((b, k, -1))  # the step a -> b is -(e_a - e_b)
        adjacent[b].append((a, k, 1))
    paths = np.zeros((n_plus_1, n_plus_1 - 1), dtype=np.int64)
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v, k, sign in adjacent[u]:
            if v not in seen:
                seen.add(v)
                paths[v] = paths[u]
                paths[v, k] = sign
                stack.append(v)
    return paths if len(seen) == n_plus_1 else None


def _index_pairs(n_plus_1: int, roots: list, name: str) -> np.ndarray:
    """``roots`` as an (R, 2) integer array; ValueError names the first
    entry that is not two distinct indices in 0..n."""
    indices = range(n_plus_1)
    for k, r in enumerate(roots):
        if len(r) != 2 or r[0] == r[1] or r[0] not in indices or r[1] not in indices:
            raise ValueError(f"{name} entry {k}, {r!r}, is not two distinct "
                             f"indices in 0..{n_plus_1 - 1}")
    return np.array(roots, dtype=np.int64).reshape(len(roots), 2)


@dataclass
class SimpleSystemCertificate:
    """Outcome of checking a candidate simple system.

    When ``ok``, row k of the read-only (R, n) int64 array ``coefficients``
    expands the k-th positive root over the candidate (same order), all
    entries nonnegative; it has no rows otherwise.  Equality compares the
    verdict and its reason only.
    """

    ok: bool
    reason: str | None
    coefficients: np.ndarray = field(compare=False)

    def __post_init__(self):
        self.coefficients.setflags(write=False)


def simple_system_check(n_plus_1: int, candidate,
                        positive=None) -> SimpleSystemCertificate:
    """Certify that ``candidate`` is a simple system for ``positive``, which
    defaults to the half-period positive system: n independent roots of
    which every positive root is a nonnegative integer combination.

    The check is exact. n roots (i, j), as edges on the n+1 indices, are
    independent exactly when they form a spanning tree, and then e_i - e_j
    is the difference of the tree's paths from 0 to i and to j, so every
    root is an integer combination. ValueError names the first entry of
    ``candidate``, then of ``positive``, that is not two distinct indices.
    """
    _check_size(n_plus_1)
    positive = half_period_roots(n_plus_1) if positive is None else list(positive)
    edges = _index_pairs(n_plus_1, list(candidate), "candidate")
    i, j = _index_pairs(n_plus_1, positive, "positive").T
    n = n_plus_1 - 1
    none = np.zeros((0, n), dtype=np.int64)
    if len(edges) != n:
        return SimpleSystemCertificate(
            False, f"candidate has {len(edges)} roots, need {n}", none)
    paths = _tree_paths(n_plus_1, edges.tolist())
    if paths is None:
        return SimpleSystemCertificate(
            False, "candidate roots are not linearly independent", none)
    coeffs = paths[i] - paths[j]
    failed = np.flatnonzero(np.any(coeffs < 0, axis=1))  # in ``positive`` order
    if failed.size:
        return SimpleSystemCertificate(
            False, f"root {positive[failed[0]]} needs a negative coefficient", none)
    return SimpleSystemCertificate(True, None, coeffs)
