"""Singular directions, supported-root sets, closed-form tables, zigzag order
diagrams.

The explicit sets for sizes 4 and 5 are frozen reference data; the size-3
sets were worked out by hand from the argument condition before any code
existed. Property tests tie the closed-form tables to the argument condition
across sizes 3..64, and the one-rule tables and diagram to the four-case
transcriptions of the paper's tables across sizes 3..200.
"""

import itertools
import re

import numpy as np
import pytest

from ttstokes import roots
from ttstokes.linalg import omega_pow
from ttstokes.roots import (
    OrderDiagram,
    Root,
    SimpleSystemCertificate,
    direction_map,
    half_period_roots,
    order_diagram,
    simple_system_check,
    singular_direction,
    singular_directions,
    supported_roots,
    table_supported_roots,
)

# explicit supported-root sets, one per singular direction
REFERENCE_SETS = {
    4: {
        0: {(1, 0), (2, 3)},
        1: {(1, 3)},
        2: {(0, 3), (1, 2)},
        3: {(0, 2)},
    },
    5: {
        0: {(2, 0), (3, 4)},
        1: {(1, 0), (2, 4)},
        2: {(1, 4), (2, 3)},
        3: {(0, 4), (1, 3)},
        4: {(0, 3), (1, 2)},
    },
    3: {
        0: {(1, 0)},
        1: {(1, 2)},
        2: {(0, 2)},
    },
}


def test_all_roots_count_and_form():
    # every root (i, j), i != j, lies on a direction of the direction map
    rts = [(int(i), int(j)) for i, j in zip(*np.nonzero(direction_map(4) >= 0))]
    assert len(rts) == 12
    assert (0, 1) in rts and (1, 0) in rts
    assert all(i != j for i, j in rts)
    assert rts == sorted(rts)


def test_singular_direction_values():
    assert singular_direction(4, 0).theta == pytest.approx(-np.pi / 4)
    assert singular_direction(4, 3).theta == pytest.approx(-np.pi)
    assert singular_direction(5, 0).theta == pytest.approx(-np.pi / 10)
    assert singular_direction(5, 1).theta == pytest.approx(-3 * np.pi / 10)
    assert singular_direction(3, 0).theta == pytest.approx(-np.pi / 6)


def test_singular_direction_label():
    d = singular_direction(4, 1)
    assert str(d.label) == "5/4"
    assert singular_direction(5, 0).label == 1


def test_singular_directions_count():
    for n1 in (3, 4, 5, 8):
        ds = singular_directions(n1)
        assert len(ds) == 2 * n1
        assert [d.ell for d in ds] == list(range(2 * n1))


def test_rejects_tiny_size():
    with pytest.raises(ValueError):
        singular_direction(2, 0)


@pytest.mark.parametrize("n1", sorted(REFERENCE_SETS))
def test_supported_roots_reference_sets(n1):
    for ell, expect in REFERENCE_SETS[n1].items():
        assert set(supported_roots(n1, ell)) == expect


def _supported_roots_scalar(n_plus_1, ell):
    """The root-by-root loop that computed supported_roots before it was
    vectorized, kept as its reference. The powers of omega come from
    omega_pow once per size instead of twice per root, which only saves
    time: the values are the same."""
    d = singular_direction(n_plus_1, ell)
    target = complex(np.cos(d.theta), np.sin(d.theta))
    om = [omega_pow(n_plus_1, k) for k in range(n_plus_1)]
    out = []
    for i, j in itertools.permutations(range(n_plus_1), 2):
        z = om[j] - om[i]
        if abs(z / abs(z) - target) < 1e-9:
            out.append((i, j))
    return out


@pytest.mark.parametrize("n1", range(3, 65))
def test_supported_roots_match_scalar_reference(n1):
    """Same roots in the same (lexicographic) order, as tuples of ints."""
    for ell in range(2 * n1):
        got = supported_roots(n1, ell)
        assert got == _supported_roots_scalar(n1, ell)
        assert all(type(i) is int and type(j) is int for i, j in got)


@pytest.mark.parametrize("n1", [4, 5, 3])
def test_tables_match_reference(n1):
    ref = REFERENCE_SETS[n1]
    assert set(table_supported_roots(n1, "head")) == ref[0]
    assert set(table_supported_roots(n1, "second")) == ref[1]
    assert set(table_supported_roots(n1, "tail")) == ref[n1 - 1]


@pytest.mark.parametrize("n1", range(3, 65))
def test_tables_match_argument_condition(n1):
    """Closed-form tables against the direct argument computation, 3..64."""
    assert set(table_supported_roots(n1, "head")) == set(supported_roots(n1, 0))
    assert set(table_supported_roots(n1, "second")) == set(supported_roots(n1, 1))
    assert set(table_supported_roots(n1, "tail")) == set(supported_roots(n1, n1 - 1))


@pytest.mark.parametrize("n1", range(3, 13))
def test_supported_roots_shift_relation(n1):
    # advancing the direction index by 2 shifts both root indices down by 1
    for ell in range(2 * n1 - 2):
        shifted = {((i - 1) % n1, (j - 1) % n1) for i, j in supported_roots(n1, ell)}
        assert shifted == set(supported_roots(n1, ell + 2))


@pytest.mark.parametrize("n1", range(3, 13))
def test_supported_roots_antipodal(n1):
    for ell in range(n1):
        flipped = {(j, i) for i, j in supported_roots(n1, ell)}
        assert flipped == set(supported_roots(n1, ell + n1))


@pytest.mark.parametrize("n1", range(3, 13))
def test_half_period_is_a_positive_system(n1):
    pos = half_period_roots(n1)
    assert len(pos) == n1 * (n1 - 1) // 2
    pos_set = set(pos)
    for i, j in itertools.permutations(range(n1), 2):
        assert ((i, j) in pos_set) != ((j, i) in pos_set)


def test_half_period_4_explicit():
    assert set(half_period_roots(4)) == {
        (1, 0), (2, 3), (1, 3), (0, 3), (1, 2), (0, 2)
    }


# ---------------------------------------------------------------------------
# zigzag order diagrams
# ---------------------------------------------------------------------------

def test_order_diagram_4():
    d = order_diagram(4)
    assert d.order == (3, 2, 0, 1)
    assert d.top == (3, 0)
    assert d.bottom == (2, 1)


def test_order_diagram_5():
    d = order_diagram(5)
    assert d.order == (4, 3, 0, 2, 1)
    assert d.top == (4, 0, 1)
    assert d.bottom == (3, 2)


def test_order_diagram_3():
    d = order_diagram(3)
    assert d.order == (2, 0, 1)
    assert d.top == (0,)
    assert d.bottom == (2, 1)


def test_order_diagram_8():
    d = order_diagram(8)
    assert d.top == (6, 7, 0, 1)
    assert d.bottom == (5, 4, 3, 2)
    assert d.order == (6, 5, 7, 4, 0, 3, 1, 2)


@pytest.mark.parametrize("n1", range(3, 65))
def test_diagram_is_a_permutation(n1):
    d = order_diagram(n1)
    assert sorted(d.order) == list(range(n1))
    assert sorted(d.top + d.bottom) == list(range(n1))
    assert set(d.top).isdisjoint(d.bottom)


@pytest.mark.parametrize("n1", range(3, 65))
def test_diagram_simples_split_matches_tables(n1):
    d = order_diagram(n1)
    head_part, tail_part = d.simple_roots()
    assert set(head_part) == set(table_supported_roots(n1, "head"))
    assert set(tail_part) == set(table_supported_roots(n1, "tail"))
    assert len(head_part) + len(tail_part) == n1 - 1


@pytest.mark.parametrize("n1", range(3, 65))
def test_diagram_positivity_matches_half_period(n1):
    d = order_diagram(n1)
    rank = {idx: r for r, idx in enumerate(d.order)}
    pairs = itertools.permutations(range(n1), 2)
    positive = {(i, j) for i, j in pairs if rank[i] > rank[j]}
    assert positive == set(half_period_roots(n1))


# ---------------------------------------------------------------------------
# simple system certificates
# ---------------------------------------------------------------------------

def test_standard_simples_of_sl4():
    cand = [(0, 1), (1, 2), (2, 3)]
    pos = [(i, j) for i in range(4) for j in range(4) if i < j]
    cert = simple_system_check(4, cand, pos)
    assert cert.ok
    assert cert.coefficients[(0, 2)] == (1, 1, 0)
    assert cert.coefficients[(0, 3)] == (1, 1, 1)


def test_head_tail_simples_certificate_4():
    cand = [(1, 0), (2, 3), (0, 2)]
    cert = simple_system_check(4, cand)
    assert cert.ok
    assert cert.coefficients[(1, 3)] == (1, 1, 1)
    assert cert.coefficients[(0, 3)] == (0, 1, 1)
    assert cert.coefficients[(1, 2)] == (1, 0, 1)


def test_dependent_candidate_rejected():
    cert = simple_system_check(3, [(1, 0), (0, 1)])
    assert not cert.ok
    assert "independent" in cert.reason


def test_wrong_count_rejected():
    cert = simple_system_check(4, [(1, 0), (2, 3)])
    assert not cert.ok
    assert "3" in cert.reason


def test_negative_coefficient_rejected():
    # (0,2) needs a negative multiple of (2,3) in this candidate
    cert = simple_system_check(4, [(1, 0), (2, 3), (0, 3)])
    assert not cert.ok


@pytest.mark.parametrize("n1", range(3, 11))
def test_diagram_yields_simple_system(n1):
    d = order_diagram(n1)
    head_part, tail_part = d.simple_roots()
    cert = simple_system_check(n1, head_part + tail_part)
    assert cert.ok, cert.reason
    for coeffs in cert.coefficients.values():
        assert all(0 <= c <= n1 - 1 for c in coeffs)


def root_vector(n_plus_1: int, root: Root) -> np.ndarray:
    """Coordinate vector e_i - e_j of the root (i, j)."""
    i, j = root
    v = np.zeros(n_plus_1, dtype=int)
    v[i] = 1
    v[j] = -1
    return v


def _simple_system_check_loop(n_plus_1, candidate, positive=None):
    """The one-solve-per-root check that simple_system_check made before it
    solved for all positive roots at once, kept as its reference."""
    candidate = [tuple(r) for r in candidate]
    if positive is None:
        positive = half_period_roots(n_plus_1)
    n = n_plus_1 - 1
    if len(candidate) != n:
        return SimpleSystemCertificate(
            False, f"candidate has {len(candidate)} roots, need {n}", {})
    A = np.array([root_vector(n_plus_1, r) for r in candidate], dtype=float).T
    if np.linalg.matrix_rank(A) < n:
        return SimpleSystemCertificate(
            False, "candidate roots are not linearly independent", {})
    A_int = A.astype(int)
    coeffs = {}
    for p in positive:
        target = root_vector(n_plus_1, p)
        x, *_ = np.linalg.lstsq(A, target.astype(float), rcond=None)
        x_int = np.rint(x).astype(int)
        if not np.array_equal(A_int @ x_int, target):
            return SimpleSystemCertificate(
                False, f"root {p} is not an integer combination of the candidate", {})
        if np.any(x_int < 0):
            return SimpleSystemCertificate(
                False, f"root {p} needs a negative coefficient", {})
        coeffs[tuple(p)] = tuple(int(v) for v in x_int)
    return SimpleSystemCertificate(True, None, coeffs)


def _candidates(n1):
    """The adapted simple system, one with a root flipped, and one with a
    root moved onto a different pair of indices."""
    head_part, tail_part = order_diagram(n1).simple_roots()
    simple = head_part + tail_part
    k = len(simple) // 2
    (i, j) = simple[k]
    flipped = simple[:k] + [(j, i)] + simple[k + 1:]
    other = next(x for x in range(n1) if x not in (i, j))
    moved = simple[:k] + [(i, other)] + simple[k + 1:]
    return simple, flipped, moved


def _random_cases(n1, rng, count):
    """Seeded (candidate, positive) pairs of valid roots: a simple system of
    a random total order with its positive roots, that system with one root
    reversed, a random spanning tree, and n random roots (mostly dependent),
    each against a shuffled positive list that may carry extra roots."""
    pairs = list(itertools.permutations(range(n1), 2))
    for _ in range(count):
        order = rng.permutation(n1).tolist()
        rank = np.empty(n1, dtype=int)
        rank[order] = np.arange(n1)
        simple = [(y, x) for x, y in zip(order, order[1:])]
        positive = [p for p in pairs if rank[p[0]] > rank[p[1]]]
        reversed_one = list(simple)
        k = int(rng.integers(n1 - 1))
        reversed_one[k] = reversed_one[k][::-1]
        tree = [tuple(rng.permutation([v, int(rng.integers(v))]).tolist())
                for v in range(1, n1)]
        loose = [pairs[k] for k in rng.integers(len(pairs), size=n1 - 1)]
        extra = [pairs[k] for k in rng.integers(len(pairs), size=3)]
        for cand in (simple, reversed_one, tree, loose):
            cand = [cand[k] for k in rng.permutation(n1 - 1)]
            pos = positive + extra[:int(rng.integers(4))]
            yield cand, [pos[k] for k in rng.permutation(len(pos))]


@pytest.mark.parametrize("n1", [*range(3, 41), 64])
def test_simple_system_check_equals_the_per_root_loop(n1):
    simple, flipped, moved = _candidates(n1)
    assert simple_system_check(n1, simple).ok
    assert not simple_system_check(n1, flipped).ok
    for cand in (simple, flipped, moved):
        assert simple_system_check(n1, cand) == _simple_system_check_loop(n1, cand)
    if n1 > 12:
        return
    outcomes = set()
    for cand, pos in _random_cases(n1, np.random.default_rng(n1), 25):
        got = simple_system_check(n1, cand, pos)
        assert got == _simple_system_check_loop(n1, cand, pos), (cand, pos)
        outcomes.add(got.reason.split()[-1] if got.reason else "ok")
    # certified, rejected for a negative coefficient, and dependent
    assert outcomes == {"ok", "coefficient", "independent"}


@pytest.mark.parametrize("args, bad", [
    ((3, [(0, -1), (1, 0)]), "candidate entry 0, (0, -1),"),
    ((3, [(0, 0), (1, 1)], [(0, 0)]), "candidate entry 0, (0, 0),"),
    ((3, [(1, 2), (1, 1)]), "candidate entry 1, (1, 1),"),
    ((3, [(1, 2), (1, 0)], [(0, 1), [2, 3]]), "positive entry 1, [2, 3],"),
    ((4, [(1, 0), (2, 3, 0), (0, 2)]), "candidate entry 1, (2, 3, 0),"),
    ((4, [(1, 0), (2, 3), (0, 2)], [(1, 0), (0.5, 2)]), "positive entry 1, (0.5, 2),"),
])
def test_simple_system_check_rejects_what_is_not_a_root(args, bad):
    # neither (i, i) nor index -1 may be read as a vector: as -e_i and as
    # index n, the first three would pass or fail for the wrong reason
    with pytest.raises(ValueError, match=re.escape(bad)):
        simple_system_check(*args)


def test_simple_system_check_reports_the_first_failing_root_in_order():
    cand = [(1, 0), (2, 3), (0, 3)]  # (0, 2) needs a negative coefficient
    pos = [(1, 0), (0, 2), (1, 3)]
    for order in (pos, pos[::-1], [[1, 3], [0, 2]]):
        got = simple_system_check(4, cand, order)
        assert got == _simple_system_check_loop(4, cand, order)
    assert simple_system_check(4, cand, pos).reason == "root (0, 2) needs a negative coefficient"
    cert = simple_system_check(3, [(0, 2), (2, 1)], [(0, 1)])
    assert cert.ok and cert.coefficients == {(0, 1): (1, 1)}
    assert simple_system_check(4, cand, []) == _simple_system_check_loop(4, cand, [])


# ---------------------------------------------------------------------------
# the direction map
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n1", [3, 4, 5, 12, 64])
def test_direction_map_gives_each_root_one_direction_index(n1):
    """Which index each root gets is checked against the mask kernel in
    test_stokes.py; here, the form of the map."""
    slot_dir = direction_map(n1)
    assert slot_dir.dtype == np.int64 and slot_dir.shape == (n1, n1)
    assert np.all(np.diagonal(slot_dir) == -1)
    off = ~np.eye(n1, dtype=bool)
    assert np.all((slot_dir[off] >= 0) & (slot_dir[off] < 2 * n1))


def test_a_root_on_no_direction_raises(monkeypatch):
    monkeypatch.setattr(roots, "omega_powers",
                        lambda n1: np.exp(2j * np.pi * (np.arange(n1) + 0.25) / n1 ** 2))
    with pytest.raises(AssertionError, match="no singular direction"):
        direction_map(5)


def test_half_period_roots_reads_one_map(monkeypatch):
    calls = []
    real = roots.direction_map
    monkeypatch.setattr(roots, "direction_map",
                        lambda n1: calls.append(n1) or real(n1))
    monkeypatch.setattr(roots, "supported_roots", None)
    assert len(half_period_roots(9)) == 36
    assert calls == [9]


# ---------------------------------------------------------------------------
# the tables against the direction map, all directions at once
# ---------------------------------------------------------------------------

def shifted_table_roots(n_plus_1: int, ell: int) -> set[Root]:
    """Closed-form prediction for any direction: the head/second table for
    the parity of ell, shifted down by ell//2 in both indices."""
    which = "head" if ell % 2 == 0 else "second"
    s = ell // 2
    return {((i - s) % n_plus_1, (j - s) % n_plus_1)
            for i, j in table_supported_roots(n_plus_1, which)}


def _table_agreement_loop(slot_dir):
    """The per-direction set comparison that table_agreement replaced, kept
    as its reference."""
    n1 = len(slot_dir)
    return [set(roots._roots_on(slot_dir, ell)) == shifted_table_roots(n1, ell)
            for ell in range(2 * n1)]


@pytest.mark.parametrize("n1", range(3, 65))
def test_table_agreement_equals_the_per_direction_sets(n1):
    slot_dir = direction_map(n1)
    got = roots.table_agreement(slot_dir)
    assert got.dtype == bool and got.shape == (2 * n1,)
    assert got.tolist() == _table_agreement_loop(slot_dir) == [True] * (2 * n1)
    tables = [tuple(table_supported_roots(n1, w)) for w in ("head", "second")]
    assert roots.table_agreement(slot_dir, tables).tolist() == got.tolist()
    # two roots on different directions trade places: both directions fail
    off = np.argwhere(~np.eye(n1, dtype=bool))
    a = tuple(off[0])
    b = tuple(next(p for p in off if slot_dir[tuple(p)] != slot_dir[a]))
    swapped = slot_dir.copy()
    swapped[a], swapped[b] = slot_dir[b], slot_dir[a]
    got = roots.table_agreement(swapped)
    assert got.tolist() == _table_agreement_loop(swapped)
    assert np.flatnonzero(~got).tolist() == sorted([slot_dir[a], slot_dir[b]])


def test_table_agreement_sees_a_root_on_no_direction():
    slot_dir = direction_map(6)
    slot_dir[1, 0] = -1  # a root the map drops: its direction disagrees
    got = roots.table_agreement(slot_dir)
    assert got.tolist() == _table_agreement_loop(slot_dir)
    assert np.count_nonzero(~got) == 1


# ---------------------------------------------------------------------------
# the one-rule tables and diagram against the paper's four cases
# ---------------------------------------------------------------------------

def four_case_tables(n_plus_1: int, which: str) -> list[Root]:
    """The closed-form tables as ``table_supported_roots`` built them
    before it derived them from one rule: the paper's tables transcribed as
    four cases, split on the parity of n+1 and then of m. Kept as the
    oracle of the table order."""
    roots._check_size(n_plus_1)
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


def four_case_diagram(n_plus_1: int) -> OrderDiagram:
    """The zigzag diagram as ``order_diagram`` built it before it walked
    the two reflections: the paper's diagrams transcribed as four cases,
    split on the parity of n+1 and then of m. Kept as its oracle."""
    roots._check_size(n_plus_1)
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


@pytest.mark.parametrize("n1", range(3, 201))
def test_tables_and_diagram_equal_the_four_cases(n1):
    """Same roots in the same order: calibrate and the Stokes sampler
    consume the tables in table order."""
    for which in ("head", "second", "tail"):
        assert table_supported_roots(n1, which) == four_case_tables(n1, which)
    assert order_diagram(n1) == four_case_diagram(n1)


@pytest.mark.parametrize("residue", range(4))
@pytest.mark.parametrize("which", ["head", "second", "tail"])
def test_flipping_a_run_order_entry_breaks_the_tables(monkeypatch, residue, which):
    flipped = [set(entry) for entry in roots._LOW_FIRST]
    flipped[residue] ^= {which}
    monkeypatch.setattr(roots, "_LOW_FIRST", tuple(flipped))
    sizes = [n1 for n1 in range(3, 201) if n1 % 4 == residue]
    assert any(table_supported_roots(n1, which) != four_case_tables(n1, which)
               for n1 in sizes)


def test_float_size_and_bad_table_name_still_raise():
    with pytest.raises(TypeError):
        table_supported_roots(5.0, "head")
    with pytest.raises(TypeError):
        order_diagram(4.0)
    with pytest.raises(ValueError, match="which must be head, second, or tail"):
        table_supported_roots(5, "first")
    with pytest.raises(ValueError, match="at least 3"):
        table_supported_roots(2, "head")
    with pytest.raises(ValueError, match="at least 3"):
        order_diagram(2)
