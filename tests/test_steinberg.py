"""Cross-section calibration, the coefficient map chi, and reconstruction.

The size-4 generators must reproduce the reference matrices exactly (same
sign conventions). For size 5 the calibrated flip set and the chi permutation
were derived by hand beforehand and are asserted as frozen values. For
sizes 3..18 the root order, flips and chi relabeling are frozen as they came
from the exhaustive flip search that preceded the GF(2) solve; sizes past
that range are checked structurally.
"""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttstokes import reference as ref
from ttstokes import steinberg
from ttstokes.linalg import (
    Tolerance,
    cyclic_for,
    eigenvalues,
    elementary,
    match_multisets,
    shift_matrix,
    signed_shift_matrix,
)
from ttstokes.steinberg import (
    CalibrationError,
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
    unitary_conjugacy_check,
)
from ttstokes.roots import table_supported_roots
from ttstokes.stokes import build_m0, monodromy_support, random_stokes_params


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
def test_calibrate_calls_char_poly_three_times(n1, monkeypatch):
    # only the random verification evaluates chi; the relabeling itself is
    # read off the slots
    calls = []
    real = steinberg.char_poly

    def counting(M):
        calls.append(M.shape)
        return real(M)

    monkeypatch.setattr(steinberg, "char_poly", counting)
    calibrate(n1)
    assert len(calls) == 3


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
    # also past the sizes where the floating-point verification passes
    for n1 in range(3, 101):
        sources, signs = integer_slot_data(n1)[1]
        assert sorted(sources) == list(range(n1 - 1)), n1
        assert set(signs) <= {-1, 1}, n1


# exact where the floating-point verification fails (29, 30, 32 on): the
# characteristic polynomial of the section at random integer t agrees modulo
# a prime with the one the slot relabeling predicts, at n+1 values of mu
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
        assert first.dtype == complex and first.flags.writeable
        assert np.array_equal(first, cyclic_for(n1))
        # a fresh array each call: writing into one leaves the next alone
        first[0, 0] = 7.0
        again = steinberg_section(cal, np.zeros(n1 - 1))
        expect = shift_matrix(n1) if n1 % 2 else signed_shift_matrix(n1)
        assert np.array_equal(again, expect)


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


# 29, 30 and 32 on fail the relabeling verification in calibrate
@pytest.mark.parametrize("n1", [*range(3, 29), 31])
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
    assert rep.passed
    assert rep.section_residual < 1e-8
    assert rep.monodromy_residual < 1e-8


@pytest.mark.parametrize("n1", range(3, 11))
def test_cross_section_check_all_sizes(n1):
    rep = cross_section_check(calibrate(n1), samples=25, seed=n1)
    assert rep.passed, (n1, rep)


def test_section_lands_in_monodromy_support():
    cal = calibrate(6)
    mask = monodromy_support(6)
    rng = np.random.default_rng(2)
    t = rng.normal(size=5) + 1j * rng.normal(size=5)
    M = steinberg_section(cal, t)
    assert np.max(np.abs(M[~mask])) < 1e-13


@pytest.mark.parametrize("n1", [4, 5, 6])
def test_section_values_are_regular(n1):
    # the centralizer of a section value has the minimal dimension n+1
    cal = calibrate(n1)
    rng = np.random.default_rng(70 + n1)
    t = rng.normal(size=n1 - 1) + 1j * rng.normal(size=n1 - 1)
    assert regular_centralizer_dim(steinberg_section(cal, t)) == n1


def test_unitary_conjugacy_property():
    rep = unitary_conjugacy_check(4, samples=50, seed=0)
    assert rep.passed
    assert rep.max_residual < 1e-8
    rep5 = unitary_conjugacy_check(5, samples=20, seed=1)
    assert rep5.passed


def test_unitary_conjugacy_nan_residual_fails(monkeypatch):
    # the builtin max drops a NaN that is not its first argument
    monkeypatch.setattr(steinberg, "match_multisets", lambda *a, **k: np.nan)
    rep = unitary_conjugacy_check(4, samples=3, seed=0)
    assert np.isnan(rep.max_residual)
    assert not rep.passed


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
