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
    all_roots,
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
