"""Singular directions, supported-root sets, closed-form tables, zigzag order
diagrams.

The explicit sets for sizes 4 and 5 are frozen reference data; the size-3
sets were worked out by hand from the argument condition before any code
existed. Property tests tie the closed-form tables to the argument condition
across sizes 3..12.
"""

import numpy as np
import pytest

from ttstokes import roots
from ttstokes.linalg import omega_pow
from ttstokes.roots import (
    SimpleSystemCertificate,
    all_roots,
    direction_map,
    half_period_roots,
    order_diagram,
    root_vector,
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
    rts = all_roots(4)
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
    for i, j in all_roots(n_plus_1):
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


@pytest.mark.parametrize("n1", range(3, 13))
def test_tables_match_argument_condition(n1):
    """Closed-form tables against the direct argument computation, 3..12."""
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
    for i, j in all_roots(n1):
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


@pytest.mark.parametrize("n1", range(3, 13))
def test_diagram_is_a_permutation(n1):
    d = order_diagram(n1)
    assert sorted(d.order) == list(range(n1))
    assert sorted(d.top + d.bottom) == list(range(n1))
    assert set(d.top).isdisjoint(d.bottom)


@pytest.mark.parametrize("n1", range(3, 13))
def test_diagram_simples_split_matches_tables(n1):
    d = order_diagram(n1)
    head_part, tail_part = d.simple_roots()
    assert set(head_part) == set(table_supported_roots(n1, "head"))
    assert set(tail_part) == set(table_supported_roots(n1, "tail"))
    assert len(head_part) + len(tail_part) == n1 - 1


@pytest.mark.parametrize("n1", range(3, 13))
def test_diagram_positivity_matches_half_period(n1):
    d = order_diagram(n1)
    assert {r for r in all_roots(n1) if d.is_positive(r)} == set(half_period_roots(n1))


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


@pytest.mark.parametrize("n1", [*range(3, 41), 64])
def test_simple_system_check_equals_the_per_root_loop(n1):
    simple, flipped, moved = _candidates(n1)
    assert simple_system_check(n1, simple).ok
    assert not simple_system_check(n1, flipped).ok
    for cand in (simple, flipped, moved):
        assert simple_system_check(n1, cand) == _simple_system_check_loop(n1, cand)


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
