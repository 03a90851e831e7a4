"""Cross-section calibration, the coefficient map chi, and reconstruction.

The size-4 generators must reproduce the reference matrices exactly (same
sign conventions). For size 5 the calibrated flip set and the chi permutation
were derived by hand beforehand and are asserted as frozen values. For
sizes 3..18 the root order, flips and chi relabeling are frozen as they came
from the exhaustive flip search that preceded the GF(2) solve; sizes past
that range are checked structurally.
"""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttstokes import reference as ref
from ttstokes import steinberg, verify
from ttstokes.linalg import (
    DEFAULT_TOL,
    cyclic_for,
    elementary,
    max_abs,
    nan_max,
    shift_matrix,
    signed_shift_matrix,
)
from ttstokes.steinberg import (
    CalibrationError,
    SectionCalibration,
    _relabeling,
    _section_slots,
    _solve_flips,
    _walk,
    calibrate,
    chi,
    cross_section_check,
    reconstruct_from_chi,
    regular_centralizer_dim,
    steinberg_section,
)
from ttstokes.roots import table_supported_roots
from ttstokes.stokes import _stokes_layout, build_m0, q_patterns, random_stokes_params

import unitary_check
from unitary_check import unitary_conjugacy_check


def monodromy_support(n1):
    """Entries that any q1 q2 P with the factors on their patterns and P the
    (signed) shift can occupy: the oracle of the layout's support mask."""
    a, b = q_patterns(n1)[:2].astype(int)
    return (a @ b @ np.abs(cyclic_for(n1)).astype(int)) > 0


@pytest.mark.parametrize("n1", range(3, 41))
def test_the_layout_support_is_the_product_of_the_patterns(n1):
    assert np.array_equal(_stokes_layout(n1).support, monodromy_support(n1))


# ---------------------------------------------------------------------------
# calibration goldens
# ---------------------------------------------------------------------------

def test_calibrate_4_reproduces_reference_generators():
    cal = calibrate(4)
    assert cal.root_order == ((1, 0), (2, 3), (0, 2))
    assert cal.flips == (2,)
    for got, expect in zip(cal.sigmas, ref.weyl_generators_4()):
        assert np.array_equal(got, expect)
    prod = cal.sigmas[0] @ cal.sigmas[1] @ cal.sigmas[2]
    assert np.array_equal(prod, signed_shift_matrix(4))


def test_calibrate_4_chi_permutation():
    cal = calibrate(4)
    assert cal.chi_sources == ref.CHI_SOURCES_4
    assert cal.chi_signs == ref.CHI_SIGNS_4


def test_calibrate_5_frozen():
    cal = calibrate(5)
    assert cal.root_order == ((2, 0), (3, 4), (0, 3), (1, 2))
    assert cal.flips == (0,)
    prod = np.eye(5)
    for s in cal.sigmas:
        prod = prod @ s
    assert np.array_equal(prod, shift_matrix(5))
    assert cal.chi_sources == ref.CHI_SOURCES_5
    assert cal.chi_signs == ref.CHI_SIGNS_5


def test_calibrate_3_product():
    cal = calibrate(3)
    prod = cal.sigmas[0] @ cal.sigmas[1]
    assert np.array_equal(prod, shift_matrix(3))


# 19..24 lie past the frozen table, where the old search took 22 s to minutes
@pytest.mark.parametrize("n1", [*range(3, 11), *range(19, 25)])
def test_calibrate_product_and_permutation(n1):
    cal = calibrate(n1)
    prod = np.eye(n1)
    for s in cal.sigmas:
        prod = prod @ s
    assert np.array_equal(prod, shift_matrix(n1) if n1 % 2 else signed_shift_matrix(n1))
    # chi relabeling must be a bijection with unit signs
    assert sorted(cal.chi_sources) == list(range(n1 - 1))
    assert all(s in (-1, 1) for s in cal.chi_signs)


# size -> (root_order, flips, chi_sources, chi_signs), recorded from the
# exhaustive flip search
FROZEN_CALIBRATIONS = {3: (((1, 0), (0, 2)), (1,), (0, 1), (1, 1)),
 4: (((1, 0), (2, 3), (0, 2)), (2,), (0, 2, 1), (1, 1, -1)),
 5: (((2, 0), (3, 4), (0, 3), (1, 2)), (0,), (3, 0, 2, 1), (-1, -1, -1, -1)),
 6: (((3, 5), (2, 0), (0, 3), (1, 2), (5, 4)), (0, 1), (3, 1, 2, 0, 4),
     (-1, -1, -1, 1, 1)),
 7: (((3, 0), (2, 1), (4, 6), (0, 4), (1, 3), (6, 5)), (2, 3, 4), (1, 4, 0, 3, 2, 5),
     (1, 1, 1, 1, 1, 1)),
 8: (((3, 0), (2, 1), (4, 7), (5, 6), (7, 5), (0, 4), (1, 3)), (4, 5, 6),
     (1, 6, 0, 5, 2, 4, 3), (1, 1, 1, 1, -1, -1, -1)),
 9: (((4, 0), (3, 1), (5, 8), (6, 7), (8, 6), (0, 5), (1, 4), (2, 3)), (0, 1, 4),
     (7, 1, 6, 0, 5, 2, 4, 3), (-1, -1, -1, -1, -1, -1, -1, -1)),
 10: (((5, 9), (6, 8), (4, 0), (3, 1), (0, 5), (1, 4), (2, 3), (9, 6), (8, 7)),
      (0, 1, 2, 3), (6, 3, 5, 2, 4, 0, 7, 1, 8), (-1, -1, -1, -1, -1, 1, 1, 1, 1)),
 11: (((5, 0), (4, 1), (3, 2), (6, 10), (7, 9), (0, 6), (1, 5), (2, 4), (10, 7),
       (9, 8)),
      (3, 4, 5, 6, 7), (2, 7, 1, 6, 0, 5, 3, 8, 4, 9), (1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
 12: (((5, 0), (4, 1), (3, 2), (6, 11), (7, 10), (8, 9), (11, 7), (10, 8), (0, 6),
       (1, 5), (2, 4)),
      (6, 7, 8, 9, 10), (2, 10, 1, 9, 0, 8, 3, 6, 4, 7, 5),
      (1, 1, 1, 1, 1, 1, -1, -1, -1, -1, -1)),
 13: (((6, 0), (5, 1), (4, 2), (7, 12), (8, 11), (9, 10), (12, 8), (11, 9), (0, 7),
       (1, 6), (2, 5), (3, 4)),
      (0, 1, 2, 6, 7), (11, 2, 10, 1, 9, 0, 8, 3, 6, 4, 7, 5),
      (-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1)),
 14: (((7, 13), (8, 12), (9, 11), (6, 0), (5, 1), (4, 2), (0, 7), (1, 6), (2, 5),
       (3, 4), (13, 8), (12, 9), (11, 10)),
      (0, 1, 2, 3, 4, 5), (9, 5, 8, 4, 7, 3, 6, 0, 10, 1, 11, 2, 12),
      (-1, -1, -1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1)),
 15: (((7, 0), (6, 1), (5, 2), (4, 3), (8, 14), (9, 13), (10, 12), (0, 8), (1, 7),
       (2, 6), (3, 5), (14, 9), (13, 10), (12, 11)),
      (4, 5, 6, 7, 8, 9, 10), (3, 10, 2, 9, 1, 8, 0, 7, 4, 11, 5, 12, 6, 13),
      (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
 16: (((7, 0), (6, 1), (5, 2), (4, 3), (8, 15), (9, 14), (10, 13), (11, 12), (15, 9),
       (14, 10), (13, 11), (0, 8), (1, 7), (2, 6), (3, 5)),
      (8, 9, 10, 11, 12, 13, 14), (3, 14, 2, 13, 1, 12, 0, 11, 4, 8, 5, 9, 6, 10, 7),
      (1, 1, 1, 1, 1, 1, 1, 1, -1, -1, -1, -1, -1, -1, -1)),
 17: (((8, 0), (7, 1), (6, 2), (5, 3), (9, 16), (10, 15), (11, 14), (12, 13), (16, 10),
       (15, 11), (14, 12), (0, 9), (1, 8), (2, 7), (3, 6), (4, 5)),
      (0, 1, 2, 3, 8, 9, 10), (15, 3, 14, 2, 13, 1, 12, 0, 11, 4, 8, 5, 9, 6, 10, 7),
      (-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1)),
 18: (((9, 17), (10, 16), (11, 15), (12, 14), (8, 0), (7, 1), (6, 2), (5, 3), (0, 9),
       (1, 8), (2, 7), (3, 6), (4, 5), (17, 10), (16, 11), (15, 12), (14, 13)),
      (0, 1, 2, 3, 4, 5, 6, 7),
      (12, 7, 11, 6, 10, 5, 9, 4, 8, 0, 13, 1, 14, 2, 15, 3, 16),
      (-1, -1, -1, -1, -1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1, 1, 1))}


@pytest.mark.parametrize("n1", sorted(FROZEN_CALIBRATIONS))
def test_calibration_matches_frozen_table(n1):
    cal = calibrate(n1)
    assert (cal.root_order, cal.flips, cal.chi_sources, cal.chi_signs) == (
        FROZEN_CALIBRATIONS[n1]
    )


def test_calibrate_24_is_fast():
    t0 = time.perf_counter()
    calibrate(24)
    assert time.perf_counter() - t0 < 2.0


def test_calibration_is_immutable():
    cal = calibrate(5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cal.signs = (1, 1, 1, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cal.sigmas = ()
    with pytest.raises(ValueError):
        cal.sigmas[0][0, 0] = 7.0
    for slots in (cal.slot_rows, cal.slot_cols, cal.slot_signs):
        with pytest.raises(ValueError):
            slots[0] = 0
    assert isinstance(cal.sigmas, tuple)
    assert cal == calibrate(5) and hash(cal) == hash(calibrate(5))


@pytest.mark.parametrize("n1", [3, 4, 9, 24])
def test_calibration_holds_integers_and_builds_its_generators(n1):
    cal = calibrate(n1)
    for f in dataclasses.fields(cal):
        value = getattr(cal, f.name)
        assert np.asarray(value).dtype.kind == "i", f.name
    first, again = cal.sigmas, cal.sigmas
    assert not any(np.shares_memory(a, b) for a, b in zip(first, again))
    for (i, j), sign, S in zip(cal.root_order, cal.signs, first):
        lo, up = min(i, j), max(i, j)
        expect = np.eye(n1)
        expect[[lo, up]] = expect[[up, lo]]
        expect[lo, up], expect[up, lo] = sign, -sign
        assert S.dtype == float and not S.flags.writeable
        assert np.array_equal(S, expect)
    assert np.array_equal(np.linalg.multi_dot(first), cyclic_for(n1))


def test_calibrate_rejects_a_product_that_is_no_signed_shift(monkeypatch):
    monkeypatch.setattr(steinberg, "cyclic_for", lambda n1: np.eye(n1))
    with pytest.raises(CalibrationError, match="not a signed cyclic shift"):
        calibrate(4)


def test_calibrate_rejects_section_factors_that_multiply(monkeypatch):
    # reversing the head roots leaves the generators as they are, but then
    # (I + t_1 E_{01}) sigma_1 (I + t_2 E_{02}) sigma_2 has a t_1 t_2 term
    real = steinberg.table_supported_roots

    def reversed_head(n1, block):
        roots = real(n1, block)
        return [(j, i) for i, j in roots] if block == "head" else roots

    monkeypatch.setattr(steinberg, "table_supported_roots", reversed_head)
    with pytest.raises(CalibrationError, match="single slots"):
        calibrate(3)


def test_section_slots_reject_a_repeated_slot():
    # the second factor conjugates to the same matrix unit as the first
    with pytest.raises(CalibrationError, match="coincide"):
        _section_slots(_walk(((0, 1), (1, 0)), (1, 1), 3))


def test_sign_system_rejects_an_odd_sign_pattern():
    # one -1 on the diagonal cannot be a sum of the two-index edge vectors
    cal = calibrate(4)
    target = np.diag([-1.0, 1.0, 1.0, 1.0]) @ cyclic_for(4)
    with pytest.raises(CalibrationError, match="inconsistent"):
        _solve_flips(_walk(cal.root_order, (1, 1, 1), 4), target)


def test_calibrate_checks_the_signed_product(monkeypatch):
    # calibrate(4) needs generator 2 flipped; with no flips the walk's signs
    # differ from the shift's
    monkeypatch.setattr(steinberg, "_solve_flips", lambda walk, target: ())
    with pytest.raises(CalibrationError, match="differs from the shift"):
        calibrate(4)


def test_relabeling_rejects_two_slots_in_one_coefficient():
    # both diagonal slots close a 1-cycle, so both land in e_1
    slots = (np.array([0, 1]), np.array([0, 1]), np.array([1, 1]))
    with pytest.raises(CalibrationError, match="not a bijection"):
        _relabeling(slots, 1)


@pytest.mark.parametrize("n1", range(3, 19))
def test_calibrate_calls_neither_char_poly_nor_chi(n1, monkeypatch):
    # the relabeling and its certificate are read off the integer slots
    def forbidden(*args):
        raise AssertionError("calibrate evaluated a characteristic polynomial")

    monkeypatch.setattr(steinberg, "char_poly", forbidden)
    monkeypatch.setattr(steinberg, "chi", forbidden)
    calibrate(n1)


PRIME = 2**31 - 1


def det_mod(A, p=PRIME):
    """Determinant of an integer matrix modulo the prime p (row reduction)."""
    A = np.array(A, dtype=np.int64) % p
    n = A.shape[0]
    det = 1
    for j in range(n):
        hits = np.flatnonzero(A[j:, j])
        if len(hits) == 0:
            return 0
        i = j + hits[0]
        if i != j:
            A[[i, j]] = A[[j, i]]
            det = -det
        det = det * int(A[j, j]) % p
        factors = A[j + 1:, j] * pow(int(A[j, j]), p - 2, p) % p
        A[j + 1:, j:] = (A[j + 1:, j:] - factors[:, None] * A[j, j:] % p) % p
    return det % p


def integer_slot_data(n1):
    """Slots and relabeling from the integer part of calibrate, step by step."""
    n = n1 - 1
    order = tuple(
        table_supported_roots(n1, "head") + table_supported_roots(n1, "tail")
    )
    target = cyclic_for(n1)
    flips = _solve_flips(_walk(order, [1] * n, n1), target)
    walk = _walk(order, [-1 if k in flips else 1 for k in range(n)], n1)
    assert walk.sgn == target[walk.perm, range(n1)].tolist()
    slots = _section_slots(walk)
    return slots, _relabeling(slots, int(target[n, 0]))


def test_slot_relabeling_is_a_bijection_up_to_100():
    for n1 in range(3, 101):
        sources, signs = integer_slot_data(n1)[1]
        assert sorted(sources) == list(range(n1 - 1)), n1
        assert set(signs) <= {-1, 1}, n1


# independent of calibrate's certificate: the characteristic polynomial of
# the section at random integer t agrees modulo a prime with the one the
# slot relabeling predicts, at n+1 values of mu
@pytest.mark.parametrize("n1", [3, 4, 11, 29, 30, 32, 33, 64])
def test_slot_relabeling_is_exact_modulo_a_prime(n1):
    (rows, cols, slot_signs), (sources, signs) = integer_slot_data(n1)
    rng = np.random.default_rng(n1)
    t = rng.integers(0, PRIME, size=n1 - 1)
    M = cyclic_for(n1).astype(np.int64)
    M[rows, cols] += slot_signs * t
    # det(mu I - M) = sum_k (-1)^k e_k mu^(n+1-k), e_0 = 1, e_(n+1) = det M = 1
    e = [1] + [s * int(t[k]) for k, s in zip(sources, signs)] + [1]
    for mu in range(n1):
        expect = sum(
            (-1) ** k * e[k] * pow(mu, n1 - k, PRIME) for k in range(n1 + 1)
        )
        assert det_mod(mu * np.eye(n1, dtype=np.int64) - M) == expect % PRIME


# ---------------------------------------------------------------------------
# the regularity and relabeling certificate
# ---------------------------------------------------------------------------

def test_calibrate_certifies_every_size_up_to_100():
    for n1 in range(3, 101):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cal = calibrate(n1)
        assert cal.n_plus_1 == n1


# size 5, lengths 3, 2, 1, 0: a bijection onto the coefficients, so only
# the certificate can reject them. The paths cover the edges 0 1 2 | 3 4 | 0
COVERING_SLOTS = ((3, 0), (0, 3), (1, 0), (2, 2))
# edge 4 -> 0 is free, but [0, 1] and [4, 4] are disjoint intervals
DISJOINT_SLOTS = ((3, 0), (4, 2), (1, 0), (4, 4))


def mutant_slots(pairs):
    rows, cols = (np.array(x) for x in zip(*pairs))
    return rows, cols, np.ones(len(pairs), dtype=np.int64)


@pytest.mark.parametrize("pairs, match", [
    (COVERING_SLOTS, "cover every edge"),
    (DISJOINT_SLOTS, "disjoint cycles"),
], ids=["covering", "disjoint"])
def test_calibrate_rejects_slots_the_certificate_cannot_prove(pairs, match, monkeypatch):
    slots = mutant_slots(pairs)
    with pytest.raises(CalibrationError, match=match):
        _relabeling(slots, 1)
    monkeypatch.setattr(steinberg, "_section_slots", lambda walk: slots)
    with pytest.raises(CalibrationError, match=match):
        calibrate(5)


def mixed_difference(slots, a, b, mu):
    """The t_a t_b coefficient of det(mu I - s(t)) modulo PRIME: the
    determinant is affine in each slot entry, so this is its mixed
    difference over t_a, t_b in {0, 1} with the other coordinates 0."""
    rows, cols, signs = slots
    n1 = len(rows) + 1
    out = 0
    for ta in (0, 1):
        for tb in (0, 1):
            M = cyclic_for(n1).astype(np.int64)
            M[rows[a], cols[a]] += signs[a] * ta
            M[rows[b], cols[b]] += signs[b] * tb
            out += (-1) ** (ta + tb) * det_mod(mu * np.eye(n1, dtype=np.int64) - M)
    return out % PRIME


def test_the_disjoint_mutant_has_a_product_term_in_chi():
    # the rejection is not vacuous: slots (1, 0) and (4, 4) close the
    # disjoint cycles (0 1) and (4), whose product enters e_3
    assert any(mixed_difference(mutant_slots(DISJOINT_SLOTS), 2, 3, mu)
               for mu in range(6))
    # while no pair of the calibrated slots does
    slots = integer_slot_data(5)[0]
    for a in range(4):
        for b in range(a + 1, 4):
            assert not any(mixed_difference(slots, a, b, mu) for mu in range(6))


# ---------------------------------------------------------------------------
# the section map
# ---------------------------------------------------------------------------

def dense_section(cal, t):
    """The section as the literal product prod_k (I + t_k E_{r_k}) sigma_k."""
    n1 = cal.n_plus_1
    M = np.eye(n1, dtype=complex)
    for k, (i, j) in enumerate(cal.root_order):
        factor = np.eye(n1, dtype=complex) + t[k] * elementary(n1, i, j)
        M = M @ factor @ cal.sigmas[k]
    return M


@pytest.mark.parametrize("n1", range(3, 29))
def test_section_equals_the_dense_product(n1):
    cal = calibrate(n1)
    rng = np.random.default_rng(100 + n1)
    for _ in range(5):
        t = rng.normal(size=n1 - 1) + 1j * rng.normal(size=n1 - 1)
        assert np.array_equal(steinberg_section(cal, t), dense_section(cal, t))


def test_section_at_zero_is_the_shift():
    for n1 in range(3, 11):
        cal = calibrate(n1)
        first = steinberg_section(cal, np.zeros(n1 - 1))
        assert first.dtype == np.float64 and first.flags.writeable
        assert steinberg_section(cal, np.zeros(n1 - 1, dtype=complex)).dtype == complex
        assert np.array_equal(first, cyclic_for(n1))
        # a fresh array each call: writing into one leaves the next alone
        first[0, 0] = 7.0
        again = steinberg_section(cal, np.zeros(n1 - 1))
        expect = shift_matrix(n1) if n1 % 2 else signed_shift_matrix(n1)
        assert np.array_equal(again, expect)


@pytest.mark.parametrize("n1", [3, 4, 9, 16])
def test_writing_into_sections_leaves_the_cached_constants_alone(n1):
    cal = calibrate(n1)
    rng = np.random.default_rng(470 + n1)
    t = rng.normal(size=(3, n1 - 1))
    want = [steinberg_section(cal, row) for row in t]
    for arr in (cal.shift, cal.chi_source_index, cal.chi_sign_vector):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    # a single value, a stack and the relabeled coordinates, each scribbled on
    single, stack = steinberg_section(cal, t[0]), steinberg_section(cal, t)
    coords = cal.t_of_chi(cal.chi_of_t(t[0]))
    for arr in (single, stack, coords):
        assert arr.flags.writeable
        arr[...] = 7.0
    assert np.array_equal(cal.shift, cyclic_for(n1))
    assert cal.chi_source_index.tolist() == list(cal.chi_sources)
    assert cal.chi_sign_vector.tolist() == list(cal.chi_signs)
    for row, expect in zip(t, want):
        assert np.array_equal(steinberg_section(cal, row), expect)
    assert np.array_equal(steinberg_section(cal, t), np.stack(want))


def test_section_4_matches_monodromy_display():
    cal = calibrate(4)
    rng = np.random.default_rng(5)
    for _ in range(5):
        t = rng.normal(size=3) + 1j * rng.normal(size=3)
        got = steinberg_section(cal, t)
        expect = ref.monodromy_display_4(x10=t[0], x23=-t[1], x13=t[2])
        np.testing.assert_allclose(got, expect, atol=1e-13)


def test_section_5_matches_monodromy_display():
    cal = calibrate(5)
    rng = np.random.default_rng(6)
    for _ in range(5):
        t = rng.normal(size=4) + 1j * rng.normal(size=4)
        got = steinberg_section(cal, t)
        expect = ref.monodromy_display_5(
            x10=-t[3], x20=t[0], x24=-t[2], x34=t[1]
        )
        np.testing.assert_allclose(got, expect, atol=1e-13)


def test_section_rejects_wrong_length():
    with pytest.raises(ValueError):
        steinberg_section(calibrate(4), [1.0, 2.0])


# ---------------------------------------------------------------------------
# chi and reconstruction
# ---------------------------------------------------------------------------

def test_chi_identity_matrix():
    # (mu - 1)^4 gives the binomial pattern
    np.testing.assert_allclose(chi(np.eye(4)), [4.0, 6.0, 4.0], atol=1e-13)


def test_chi_of_shift_vanishes():
    np.testing.assert_allclose(chi(shift_matrix(5)), np.zeros(4), atol=1e-13)
    np.testing.assert_allclose(chi(signed_shift_matrix(4)), np.zeros(3), atol=1e-13)


def test_chi_warns_off_unimodular():
    with pytest.warns(UserWarning):
        chi(2.0 * np.eye(3))


def probe_relabeling(cal):
    """The chi relabeling found by evaluating chi on basis vectors of t."""
    n = cal.n_plus_1 - 1
    sources = [-1] * n
    signs = [0] * n
    for k in range(n):
        t = np.zeros(n)
        t[k] = 1.0
        e = chi(steinberg_section(cal, t))
        hits = [r for r in range(n) if abs(e[r]) > 0.5]
        assert len(hits) == 1, (k, e)
        r = hits[0]
        val = complex(e[r])
        assert abs(val - round(val.real)) <= 1e-9 and round(val.real) in (-1, 1)
        assert max(abs(e[s]) for s in range(n) if s != r) <= 1e-9
        sources[r] = k
        signs[r] = int(round(val.real))
    return tuple(sources), tuple(signs)


# a floating probe of what the mod-p test above checks exactly
@pytest.mark.parametrize("n1", [*range(3, 33), 40, 64])
def test_slot_relabeling_matches_the_basis_vector_probe(n1):
    cal = calibrate(n1)
    assert (cal.chi_sources, cal.chi_signs) == probe_relabeling(cal)


@pytest.mark.parametrize("n1", [3, 4, 5, 8, 13])
def test_relabeling_maps_match_their_loops(n1):
    cal = calibrate(n1)
    rng = np.random.default_rng(n1)
    t = rng.normal(size=n1 - 1)
    e = rng.normal(size=n1 - 1) + 1j * rng.normal(size=n1 - 1)
    chi_loop = np.array(
        [cal.chi_signs[k] * t[cal.chi_sources[k]] for k in range(n1 - 1)]
    )
    t_loop = np.zeros(n1 - 1, dtype=complex)
    for k in range(n1 - 1):
        t_loop[cal.chi_sources[k]] = cal.chi_signs[k] * e[k]
    got = cal.chi_of_t(t)
    assert got.dtype == chi_loop.dtype and np.array_equal(got, chi_loop)
    assert np.array_equal(cal.t_of_chi(e), t_loop)
    assert np.array_equal(cal.chi_of_t(cal.t_of_chi(e)), e)


# ---------------------------------------------------------------------------
# stacked kernels against their member calls
# ---------------------------------------------------------------------------

def slot_calibration(n1):
    """A calibration carrying only the integer slot data, built without
    calibrate, so that the stacked kernels are checked apart from it."""
    slots, (sources, signs) = integer_slot_data(n1)
    return SectionCalibration(n1, (), (), sources, signs, *slots)


def recorded(fn, *args):
    """fn(*args) with the texts of the warnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(invalid="ignore"):
            out = fn(*args)
    return out, [str(w.message) for w in caught]


def member_calls(fn, stack, *head):
    """fn applied to each member of the stack, stacked, with the warnings."""
    outs, texts = [], []
    for member in stack:
        out, caught = recorded(fn, *head, member)
        outs.append(out)
        texts += caught
    return np.stack(outs), texts


@pytest.mark.parametrize("S", [1, 5, 50])
def test_stacked_section_kernels_equal_the_member_calls(S):
    for n1 in range(3, 41):
        cal = slot_calibration(n1)
        n = n1 - 1
        rng = np.random.default_rng([S, n1])
        t = rng.normal(size=(S, n)) + 1j * rng.normal(size=(S, n))
        # one NaN member and one with determinant 2^(n+1); a stack of one
        # takes them in turn over the sizes
        nan_at, scaled_at = (0, S - 1) if S > 1 else ((0, None) if n1 % 2 else (None, 0))
        if nan_at is not None:
            t[nan_at, n // 2] = np.nan

        M = steinberg_section(cal, t)
        assert M.shape == (S, n1, n1) and M.dtype == complex
        assert np.array_equal(M, member_calls(steinberg_section, t, cal)[0], equal_nan=True)
        if scaled_at is not None:
            M[scaled_at] *= 2.0

        e, texts = recorded(chi, M)
        e_members, member_texts = member_calls(chi, M)
        assert e.shape == (S, n)
        assert np.array_equal(e, e_members, equal_nan=True), n1
        assert texts == member_texts
        # the scaled member warns once; past about 20 rounding moves other
        # members' determinants off 1 as well, and they warn too
        if n1 <= 20:
            assert len(texts) == (scaled_at is not None)
        else:
            assert len(texts) >= (scaled_at is not None)
        if nan_at is not None:
            assert np.isnan(e[nan_at]).all() and not np.isnan(np.delete(e, nan_at, 0)).any()

        back = reconstruct_from_chi(cal, e)
        assert np.array_equal(back, member_calls(reconstruct_from_chi, e, cal)[0],
                              equal_nan=True)
        assert np.array_equal(cal.chi_of_t(t), member_calls(cal.chi_of_t, t)[0],
                              equal_nan=True)
        assert np.array_equal(cal.t_of_chi(e), member_calls(cal.t_of_chi, e)[0],
                              equal_nan=True)


@pytest.mark.parametrize("shape", [(), (4,), (2, 4), (2, 1, 3), (5, 4)])
def test_section_rejects_coordinates_of_the_wrong_shape(shape):
    with pytest.raises(ValueError, match="expected 3 coordinates"):
        steinberg_section(calibrate(4), np.zeros(shape))


@pytest.mark.parametrize("shape", [(4,), (4, 3), (2, 4, 3), (2, 2, 4, 4)])
def test_chi_rejects_what_is_no_square_matrix_or_stack(shape):
    with pytest.raises(ValueError, match="square matrix or a stack"):
        chi(np.zeros(shape))


@pytest.mark.parametrize("n1", [29, 30, 32, 38, 64])
def test_calibrate_succeeds_where_char_polys_lose_digits(n1):
    # the sizes at which a floating chi check of the relabeling failed
    slots, relabeling = integer_slot_data(n1)
    cal = calibrate(n1)
    assert (cal.chi_sources, cal.chi_signs) == relabeling
    for got, want in zip((cal.slot_rows, cal.slot_cols, cal.slot_signs), slots):
        assert np.array_equal(got, want)


def test_reconstruct_zero_gives_shift():
    got = reconstruct_from_chi(calibrate(4), [0.0, 0.0, 0.0])
    assert np.array_equal(got, signed_shift_matrix(4).astype(complex))


def test_reconstruct_real_input_real_output():
    got = reconstruct_from_chi(calibrate(5), [0.3, -0.8, 0.1, 2.0])
    assert np.max(np.abs(got.imag)) == 0.0


@pytest.mark.parametrize("n1", [3, 4, 5, 6, 7])
def test_chi_reconstruct_roundtrip(n1):
    cal = calibrate(n1)
    rng = np.random.default_rng(40 + n1)
    for _ in range(10):
        e = rng.normal(size=n1 - 1) + 1j * rng.normal(size=n1 - 1)
        M = reconstruct_from_chi(cal, e)
        np.testing.assert_allclose(chi(M), e, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(4, 6),
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=10, max_size=10),
)
def test_chi_of_section_is_signed_relabeling(n1, vals):
    cal = calibrate(n1)
    t = np.asarray(vals[: n1 - 1])
    e = chi(steinberg_section(cal, t))
    expect = np.array([cal.chi_signs[k] * t[cal.chi_sources[k]] for k in range(n1 - 1)])
    np.testing.assert_allclose(e, expect, atol=1e-10)


# ---------------------------------------------------------------------------
# cross-section reports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n1", [4, 5])
def test_cross_section_check_reference_sizes(n1):
    rep = cross_section_check(calibrate(n1), samples=100, seed=0)
    assert rep.section_residual < 1e-9
    assert rep.monodromy_residual < 1e-9


@pytest.mark.parametrize("n1", range(3, 11))
def test_cross_section_check_all_sizes(n1):
    rep = cross_section_check(calibrate(n1), samples=25, seed=n1)
    assert rep.section_residual < 1e-9 and rep.monodromy_residual < 1e-9, (n1, rep)


def _cross_section_check_loop(cal, samples=100, seed=0):
    """The cross-section check one sample at a time, in the draw order of
    the stacked one."""
    rng = np.random.default_rng(seed)
    n1 = cal.n_plus_1
    n = n1 - 1
    mask = monodromy_support(n1)
    worst_section = 0.0
    worst_monodromy = 0.0
    for _ in range(samples):
        t = rng.normal(size=n) + 1j * rng.normal(size=n)
        M = steinberg_section(cal, t)
        scale = max(1.0, max_abs(M))
        off = max_abs(M[~mask]) / scale
        rt = max_abs(reconstruct_from_chi(cal, chi(M)) - M) / scale
        worst_section = nan_max(worst_section, off, rt)

        p = random_stokes_params(n1, rng)
        M0 = build_m0(p).matrix
        scale0 = max(1.0, max_abs(M0))
        t0 = cal.slot_signs * M0[cal.slot_rows, cal.slot_cols]
        back = steinberg_section(cal, t0)
        worst_monodromy = nan_max(worst_monodromy, max_abs(back - M0) / scale0)
    return steinberg.CrossSectionReport(n1, samples, worst_section, worst_monodromy)


@pytest.mark.parametrize("samples", [1, 5, 20])
def test_cross_section_check_equals_the_loop(samples):
    # some residuals at 22..28 are above 1e-9; they must be the loop's all the same
    for n1 in range(3, 29):
        cal = calibrate(n1)
        seed = 10 * n1 + samples
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = cross_section_check(cal, samples=samples, seed=seed)
            want = _cross_section_check_loop(cal, samples=samples, seed=seed)
        assert [type(v) for v in dataclasses.astuple(got)] == [
            type(v) for v in dataclasses.astuple(want)]
        assert got == want, (n1, got, want)


@pytest.mark.parametrize("n1", [*range(3, 41), 48, 64, 100])
def test_the_monodromy_is_the_section_at_its_slots_exactly(n1):
    # the dense product q1 q2 P is the shift plus its slot entries, bit for bit
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # chi's determinant warnings past 20
        rep = cross_section_check(calibrate(n1), samples=5, seed=n1)
    assert rep.monodromy_residual == 0.0


def test_the_cross_section_check_calls_chi_once(monkeypatch):
    calls = []

    def counting_chi(M):
        calls.append(M.shape)
        return chi(M)

    monkeypatch.setattr(steinberg, "chi", counting_chi)
    cross_section_check(calibrate(6), samples=7, seed=1)
    assert calls == [(7, 6, 6)]


def _read_only(a):
    a = np.array(a, dtype=np.int64)
    a.setflags(write=False)
    return a


def _flipped_sign(cal):
    signs = cal.slot_signs.copy()
    signs[0] = -signs[0]
    return dataclasses.replace(cal, slot_signs=_read_only(signs))


def _swapped_slots(cal):
    order = [1, 0, *range(2, cal.n_plus_1 - 1)]
    return dataclasses.replace(cal, slot_rows=_read_only(cal.slot_rows[order]),
                               slot_cols=_read_only(cal.slot_cols[order]))


def _moved_column(cal):
    cols = cal.slot_cols.copy()
    cols[0] = (cols[0] + 1) % cal.n_plus_1
    return dataclasses.replace(cal, slot_cols=_read_only(cols))


# Reading and writing the same slots, the monodromy identity cannot see a
# slot's sign or which coordinate sits in which slot: the section direction's
# chi roundtrip guards those. A slot in the wrong place breaks the identity.
@pytest.mark.parametrize("n1", [5, 6, 7])
@pytest.mark.parametrize("mutate, caught_by, floor", [
    (_flipped_sign, "section_residual", 1.8),
    (_swapped_slots, "section_residual", 1.29),
    (_moved_column, "monodromy_residual", 0.9),
])
def test_a_miscalibrated_section_fails_the_steinberg_cell(
        n1, mutate, caught_by, floor, monkeypatch):
    bad = mutate(calibrate(n1))
    rep = cross_section_check(bad, samples=50, seed=7)
    assert getattr(rep, caught_by) >= floor
    if caught_by == "section_residual":
        assert rep.monodromy_residual == 0.0
    monkeypatch.setattr(verify, "calibrate", lambda n_plus_1: bad)
    (cell,) = verify.run_suites([n1], samples=50, seed=7, suites=["steinberg"])
    assert not cell.passed and cell.note == ""


@pytest.mark.parametrize("samples", [0, -3])
def test_sample_checks_refuse_fewer_than_one_sample(samples):
    # an empty check has no residual and must not report a pass
    with pytest.raises(ValueError, match="at least one sample"):
        cross_section_check(calibrate(4), samples=samples)
    with pytest.raises(ValueError, match="at least one sample"):
        unitary_conjugacy_check(5, samples=samples)


def test_section_lands_in_monodromy_support():
    cal = calibrate(6)
    mask = monodromy_support(6)
    rng = np.random.default_rng(2)
    t = rng.normal(size=5) + 1j * rng.normal(size=5)
    M = steinberg_section(cal, t)
    assert np.max(np.abs(M[~mask])) < 1e-13


# regular_centralizer_dim is the numeric oracle of calibrate's certificate
@pytest.mark.parametrize("n1", range(3, 13))
def test_section_values_are_regular(n1):
    # the centralizer of a section value has the minimal dimension n+1
    cal = calibrate(n1)
    rng = np.random.default_rng(70 + n1)
    t = rng.normal(size=n1 - 1) + 1j * rng.normal(size=n1 - 1)
    assert regular_centralizer_dim(steinberg_section(cal, t)) == n1


@pytest.mark.parametrize("n1", range(3, 13))
def test_the_unipotent_section_value_is_regular(n1):
    # chi = binom(n+1, k) is (mu - 1)^(n+1): the rho = 0 point, regular but
    # not semisimple, a single Jordan block
    cal = calibrate(n1)
    e = [math.comb(n1, k) for k in range(1, n1)]
    assert regular_centralizer_dim(reconstruct_from_chi(cal, e)) == n1


@pytest.mark.parametrize("n1", [3, 4, 7])
def test_the_identity_is_not_regular(n1):
    assert regular_centralizer_dim(np.eye(n1)) == n1 ** 2


def test_unitary_conjugacy_property():
    rep = unitary_conjugacy_check(4, samples=50, seed=0)
    assert rep.max_residual < DEFAULT_TOL.bound(1.0)
    rep5 = unitary_conjugacy_check(5, samples=20, seed=1)
    assert rep5.max_residual < DEFAULT_TOL.bound(1.0)


def test_unitary_conjugacy_residual_is_at_rounding_level():
    # about 1.4e-15: the eigenvalue gate and the match pass on a residual
    # that is rounding, not zero
    rep = unitary_conjugacy_check(4, samples=3, seed=0)
    assert 1e-15 < rep.max_residual < 1e-14


def test_unitary_conjugacy_nan_residual_fails(monkeypatch):
    # the builtin max drops a NaN that is not its first argument
    monkeypatch.setattr(unitary_check, "match_multisets", lambda *a, **k: np.nan)
    rep = unitary_conjugacy_check(4, samples=3, seed=0)
    assert np.isnan(rep.max_residual)


# a calibrated section reconstructs every sampled fundamental monodromy: the
# set-level statement behind the reports above, spelled out once explicitly
def test_monodromy_set_equals_section_image_4():
    cal = calibrate(4)
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = random_stokes_params(4, rng)
        M = build_m0(p).matrix
        back = reconstruct_from_chi(cal, chi(M))
        np.testing.assert_allclose(back, M, atol=1e-9)
