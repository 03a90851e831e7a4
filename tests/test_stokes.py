"""Stokes factor patterns, the cyclic family of Stokes matrices, and the
fundamental monodromy.

Reference fixtures for sizes 4 and 5 come from ttstokes.reference, which was
transcribed by hand. Random-family tests draw from the constrained sampler,
since generic unconstrained coefficients would violate the family's own
transpose-inverse relation; the test that every direction has its
generator's residuals takes generic ones on purpose, so that no residual is
zero.
"""

import tracemalloc

import numpy as np
import pytest

from ttstokes import reference as ref
from ttstokes import stokes
from ttstokes.linalg import (
    DEFAULT_TOL,
    ConsistencyError,
    NumericalError,
    Tolerance,
    cyclic_for,
    match_multisets,
    max_abs,
    nan_max,
    eigenvalues,
    omega_pow,
    omega_powers,
    shift_matrix,
    signed_shift_matrix,
)
from ttstokes.roots import supported_roots, table_supported_roots
from ttstokes.stokes import (
    StokesParams,
    build_m0,
    build_q,
    full_monodromy,
    q_family,
    q_pattern,
    q_patterns,
    random_stokes_params,
    reality_residual,
)


def params_4(s1, s2):
    return StokesParams(
        4,
        {(1, 0): -s1, (2, 3): s1},
        {(1, 3): -s2},
    )


def params_5(s1, s2):
    return StokesParams(
        5,
        {(2, 0): s2, (3, 4): -s1},
        {(1, 0): s1, (2, 4): -s2},
    )


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------

def test_q_pattern_4_head():
    expect = np.eye(4, dtype=bool)
    expect[1, 0] = expect[2, 3] = True
    assert np.array_equal(q_pattern(4, 0), expect)


def test_q_pattern_5_second():
    expect = np.eye(5, dtype=bool)
    expect[1, 0] = expect[2, 4] = True
    assert np.array_equal(q_pattern(5, 1), expect)


@pytest.mark.parametrize("n1", range(3, 13))
def test_q_pattern_matches_supported_roots(n1):
    for ell in range(2 * n1):
        pat = q_pattern(n1, ell)
        slots = {(i, j) for i in range(n1) for j in range(n1) if i != j and pat[i, j]}
        assert slots == set(supported_roots(n1, ell))
        assert all(pat[i, i] for i in range(n1))


def _q_pattern_scalar(n_plus_1, ell):
    """The entry-by-entry double loop that computed q_pattern before it was
    vectorized, kept as its reference. The powers of omega come from
    omega_pow once per size instead of twice per entry, which only saves
    time: the values are the same."""
    pat = np.eye(n_plus_1, dtype=bool)
    if n_plus_1 % 2 == 0:
        ang = (n_plus_1 - 1 - ell) * np.pi / n_plus_1
    else:
        ang = (2 * n_plus_1 - 1 - 2 * ell) * np.pi / (2 * n_plus_1)
    target = complex(np.cos(ang), np.sin(ang))
    om = [omega_pow(n_plus_1, k) for k in range(n_plus_1)]
    for i in range(n_plus_1):
        for j in range(n_plus_1):
            if i == j:
                continue
            z = om[i] - om[j]
            if abs(z / abs(z) - target) < 1e-9:
                pat[i, j] = True
    return pat


@pytest.mark.parametrize("n1", range(3, 65))
def test_q_pattern_matches_scalar_reference(n1):
    stacked = q_patterns(n1)
    assert stacked.dtype == bool and stacked.shape == (2 * n1, n1, n1)
    for ell in range(2 * n1):
        expect = _q_pattern_scalar(n1, ell)
        assert np.array_equal(q_pattern(n1, ell), expect)
        assert np.array_equal(stacked[ell], expect)


def _support_masks(n_plus_1, ell):
    """The masks of q_pattern for a direction index or an array of them, the
    target angles broadcast over the omega^i - omega^j grid: the kernel that
    computed the masks apart from supported_roots before both read one
    direction map, kept as their reference."""
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


@pytest.mark.parametrize("n1", range(3, 65))
def test_patterns_and_supported_roots_equal_the_mask_kernel(n1):
    """At every ell in -2(n+1) .. 4(n+1), so that the period is covered."""
    period = 2 * n1
    stacked = q_patterns(n1)
    off = ~np.eye(n1, dtype=bool)
    for start in range(-period, 2 * period, period):
        ells = np.arange(start, start + period)
        expect = _support_masks(n1, ells)
        assert np.array_equal(stacked, expect)
        assert np.all(expect[:, off].sum(axis=0) == 1)  # one direction per root
        for ell, mask in zip(ells.tolist(), expect):
            rows, cols = np.nonzero(mask & off)
            assert supported_roots(n1, ell) == list(zip(rows.tolist(), cols.tolist()))
            if ell % 7 == 0:  # a sample of the single masks
                assert np.array_equal(q_pattern(n1, ell), mask)


def test_q_patterns_of_40_stay_under_one_megabyte():
    q_patterns(40)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        q_patterns(40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_q_pattern_returns_a_fresh_writable_bool_array():
    a = q_pattern(6, 0)
    b = q_pattern(6, 0)
    assert a.dtype == bool and a.shape == (6, 6)
    assert a.flags.writeable and not np.shares_memory(a, b)
    a[:] = False
    assert np.array_equal(q_pattern(6, 0), b) and b.any()


# ---------------------------------------------------------------------------
# building the factors and the monodromy
# ---------------------------------------------------------------------------

def test_build_q_reference_4():
    s1, s2 = 0.7, -0.4
    p = params_4(s1, s2)
    np.testing.assert_allclose(build_q(4, "head", p.head_coeffs), ref.stokes_q1_4(s1))
    np.testing.assert_allclose(build_q(4, "second", p.second_coeffs), ref.stokes_q2_4(s2))


def test_build_q_reference_5():
    s1, s2 = 1.3, 0.2
    p = params_5(s1, s2)
    np.testing.assert_allclose(build_q(5, "head", p.head_coeffs), ref.stokes_q1_5(s1, s2))
    np.testing.assert_allclose(build_q(5, "second", p.second_coeffs), ref.stokes_q2_5(s1, s2))


def test_build_q_rejects_wrong_keys():
    with pytest.raises(ValueError):
        build_q(4, "head", {(1, 0): 1.0})
    with pytest.raises(ValueError):
        build_q(4, "second", {(3, 1): 1.0})


def test_stokes_params_validates_keys():
    with pytest.raises(ValueError):
        StokesParams(4, {(1, 0): 1.0}, {(1, 3): 0.0})


def test_key_checks_keep_their_messages_and_build_each_table_once(monkeypatch):
    calls = []
    real = stokes.table_supported_roots
    monkeypatch.setattr(stokes, "table_supported_roots",
                        lambda *a: calls.append(a) or real(*a))
    stokes._table_keys.cache_clear()
    head, second = (dict.fromkeys(real(5, w), 0.0) for w in ("head", "second"))
    for _ in range(3):
        StokesParams(5, head, second)
        build_q(5, "head", head)
        build_q(5, "second", second)
    assert sorted(calls) == [(5, "head"), (5, "second")]
    with pytest.raises(ValueError) as exc:
        build_q(5, "head", {(1, 0): 1.0})
    assert str(exc.value) == (f"head coefficients keyed by [(1, 0)], "
                              f"expected {sorted(real(5, 'head'))}")
    with pytest.raises(ValueError) as exc:
        StokesParams(5, head, {**second, (0, 0): 1.0})
    assert str(exc.value) == (f"second coefficients keyed by "
                              f"{sorted([*second, (0, 0)])}, "
                              f"expected {sorted(real(5, 'second'))}")
    # a size of another type does not reuse the int size's entry
    with pytest.raises(TypeError):
        StokesParams(5.0, head, second)
    stokes._table_keys.cache_clear()


def test_build_m0_reference_4():
    s1, s2 = 0.7, -0.3
    m0 = build_m0(params_4(s1, s2))
    expect = ref.monodromy_display_4(*ref.monodromy_x_of_s_4(s1, s2))
    np.testing.assert_allclose(m0.matrix, expect, atol=1e-14)


def test_build_m0_reference_5():
    s1, s2 = -0.9, 0.45
    m0 = build_m0(params_5(s1, s2))
    expect = ref.monodromy_display_5(*ref.monodromy_x_of_s_5(s1, s2))
    np.testing.assert_allclose(m0.matrix, expect, atol=1e-14)


def test_build_m0_zero_coeffs_gives_cyclic():
    m0 = build_m0(params_4(0.0, 0.0))
    assert np.array_equal(m0.matrix, signed_shift_matrix(4).astype(complex))
    m0 = build_m0(params_5(0.0, 0.0))
    assert np.array_equal(m0.matrix, shift_matrix(5).astype(complex))


@pytest.mark.parametrize("n1", range(3, 9))
def test_build_m0_unimodular(n1):
    rng = np.random.default_rng(100 + n1)
    for _ in range(5):
        p = random_stokes_params(n1, rng)
        det = np.linalg.det(build_m0(p).matrix)
        assert abs(det - 1.0) < 1e-9 * max(1.0, abs(det))


# ---------------------------------------------------------------------------
# the cyclic family
# ---------------------------------------------------------------------------

def test_q_family_reference_4():
    s1, s2 = 0.6, -1.1
    q1, q2 = ref.stokes_q1_4(s1), ref.stokes_q2_4(s2)
    fam = q_family(4, q1, q2)
    assert sorted(fam) == list(range(8))
    np.testing.assert_allclose(fam[0], q1)
    np.testing.assert_allclose(fam[1], q2)
    P = signed_shift_matrix(4)
    np.testing.assert_allclose(fam[2], P @ q1 @ P.T, atol=1e-14)
    np.testing.assert_allclose(fam[7], P @ P @ P @ q2 @ P.T @ P.T @ P.T, atol=1e-13)


def test_q_family_reference_5():
    s1, s2 = 0.8, 0.35
    fam = q_family(5, ref.stokes_q1_5(s1, s2), ref.stokes_q2_5(s1, s2))
    assert sorted(fam) == list(range(10))
    # every member supported on its own direction's pattern
    for ell, q in fam.items():
        pat = q_pattern(5, ell)
        assert np.max(np.abs(q[~pat])) < 1e-12


@pytest.mark.parametrize("n1", range(3, 41))
def test_q_family_random_constrained(n1):
    rng = np.random.default_rng(17 * n1)
    for real in (False, True):
        p = random_stokes_params(n1, rng, real=real)
        q1 = build_q(n1, "head", p.head_coeffs)
        q2 = build_q(n1, "second", p.second_coeffs)
        fam = q_family(n1, q1, q2)
        assert len(fam) == 2 * n1
        # transpose-inverse relation across the half period, checked here
        # with LAPACK's inverse, independently of the internal gate
        for ell in range(n1):
            lhs = fam[ell + n1]
            rhs = np.linalg.inv(fam[ell].T)
            assert np.max(np.abs(lhs - rhs)) < 1e-9
        # and the closed-form inverse 2I - q of every member against it
        for q in fam.values():
            want = np.linalg.inv(q)
            err = max_abs(2 * np.eye(n1) - q - want)
            assert err <= 1e-12 * max(1.0, max_abs(want))


@pytest.mark.parametrize("n1", range(3, 101))
def test_every_direction_has_square_zero_slots(n1):
    # N^2 = 0 for every N on a direction's off-diagonal slots: path counts
    # of length two through the slots, exact as integers in float64
    slots = q_patterns(n1)
    slots[:, np.arange(n1), np.arange(n1)] = False
    counts = slots.astype(float)
    assert not (counts @ counts).any()


def _q_family_loop(n_plus_1, q1, q2, tol=DEFAULT_TOL):
    """The member-by-member q_family that the stacked one replaced, kept as
    its reference: dense shift-power products, one q_pattern per direction
    and the transpose inverse as (2I - q)^T."""
    q1 = np.asarray(q1, dtype=complex)
    q2 = np.asarray(q2, dtype=complex)
    P = cyclic_for(n_plus_1)
    scale = max(1.0, max_abs(q1), max_abs(q2))

    family = {}
    Pj = np.eye(n_plus_1)
    for j in range(n_plus_1):
        family[2 * j] = Pj @ q1 @ Pj.T
        family[(2 * j + 1) % (2 * n_plus_1)] = Pj @ q2 @ Pj.T
        Pj = P @ Pj

    for ell, q in sorted(family.items()):
        pat = q_pattern(n_plus_1, ell)
        off = max_abs(q[~pat]) if (~pat).any() else 0.0
        if off > tol.bound(scale):
            raise ConsistencyError(
                f"Stokes factor {ell} has weight {off:.3e} outside its pattern"
            )
        diag_err = max_abs(np.diag(q) - 1.0)
        if diag_err > tol.bound(scale):
            raise ConsistencyError(f"Stokes factor {ell} is not unipotent")

    for ell in range(n_plus_1):
        err = max_abs(family[ell + n_plus_1] + family[ell].T - 2 * np.eye(n_plus_1))
        if err > tol.bound(scale):
            raise ConsistencyError(
                f"transpose-inverse relation fails between factors {ell} and "
                f"{ell + n_plus_1} (residual {err:.3e})"
            )

    Pfull = np.linalg.matrix_power(P, n_plus_1)
    per = max_abs(Pfull @ q1 @ Pfull.T - q1)
    if per > tol.bound(scale):
        raise ConsistencyError(f"shift conjugation is not periodic (residual {per:.3e})")

    return family


def _family_outcome(fn, n1, q1, q2):
    try:
        return "returned", fn(n1, q1, q2)
    except ConsistencyError as exc:
        return type(exc).__name__, str(exc)


def _assert_same_family_outcome(n1, q1, q2):
    got = _family_outcome(q_family, n1, q1, q2)
    expect = _family_outcome(_q_family_loop, n1, q1, q2)
    if expect[0] != "returned":
        assert got == expect
        return expect[1]
    assert got[0] == "returned" and list(got[1]) == list(expect[1])
    for ell, q in expect[1].items():
        assert np.array_equal(got[1][ell], q)
    return None


def _random_factors(n1, rng, real):
    p = random_stokes_params(n1, rng, real=real)
    return build_q(n1, "head", p.head_coeffs), build_q(n1, "second", p.second_coeffs)


@pytest.mark.parametrize("n1", range(3, 41))
def test_q_family_equals_the_member_loop(n1):
    rng = np.random.default_rng(4000 + n1)
    for real in (False, True):
        q1, q2 = _random_factors(n1, rng, real)
        assert _assert_same_family_outcome(n1, q1, q2) is None


@pytest.mark.parametrize("n1", range(3, 13))
def test_q_family_failures_match_the_member_loop(n1):
    # one entry of a valid pair moved: the same gate must fail first, at the
    # same direction, with the same message
    rng = np.random.default_rng(5000 + n1)
    failures = 0
    for trial in range(40):
        q1, q2 = _random_factors(n1, rng, real=bool(trial % 2))
        target = q1 if rng.integers(2) else q2
        i, j = rng.integers(n1, size=2)
        target[i, j] += rng.choice([1e-12, 1e-3, 1.0])
        failures += _assert_same_family_outcome(n1, q1, q2) is not None
    assert failures > 0


def test_q_family_failure_kinds_match_the_member_loop(monkeypatch):
    s1, s2 = 0.6, -1.1
    off_pattern = ref.stokes_q1_4(s1).copy()
    off_pattern[0, 1] = 0.01
    assert "outside its pattern" in _assert_same_family_outcome(
        4, off_pattern, ref.stokes_q2_4(s2))
    # the first failing direction is odd: q1's conjugates all pass
    off_second = ref.stokes_q2_4(s2).copy()
    off_second[3, 2] = 0.01
    assert "Stokes factor 1 has weight" in _assert_same_family_outcome(
        4, ref.stokes_q1_4(s1), off_second)
    not_unipotent = ref.stokes_q1_5(s1, s2).copy()
    not_unipotent[3, 3] = 1.5
    assert "Stokes factor 0 is not unipotent" == _assert_same_family_outcome(
        5, not_unipotent, ref.stokes_q2_5(s1, s2))
    # q1's diagonal fails at direction 0 before q2's pattern at direction 1
    off_q2 = ref.stokes_q2_5(s1, s2).copy()
    off_q2[0, 4] = 0.01
    assert "Stokes factor 0 is not unipotent" == _assert_same_family_outcome(
        5, not_unipotent, off_q2)
    assert "Stokes factor 1 has weight" in _assert_same_family_outcome(
        5, ref.stokes_q1_5(s1, s2), off_q2)
    unpaired = np.eye(4, dtype=complex)
    unpaired[1, 0] = 0.3
    unpaired[2, 3] = 0.5
    assert "transpose-inverse relation fails" in _assert_same_family_outcome(
        4, unpaired, ref.stokes_q2_4(0.2))
    # a direction whose slots chain, (0, 1) then (1, 2), is not I + N with
    # N^2 = 0, so the closed-form inverse would be wrong: asserted exactly
    chained = stokes.direction_map(4)
    chained[[0, 1], [1, 2]] = 3
    with monkeypatch.context() as m, pytest.raises(
            AssertionError, match="direction 3 .* N\\^2 = 0"):
        m.setattr(stokes, "direction_map", lambda n: chained)
        q_family(4, ref.stokes_q1_4(s1), ref.stokes_q2_4(s2))
    # the (n+1)-st power of any signed (n+1)-cycle is +-I, so periodicity is
    # an exact assertion on the shift's signed permutation; it fires for a
    # shift that is not a single cycle (rows 0 and 1 swapped fix index 1)
    pairs = {n1: _random_factors(n1, np.random.default_rng(n1), real=False)
             for n1 in (4, 5)}
    for n1, (q1, q2) in pairs.items():
        broken = cyclic_for(n1)[[1, 0] + list(range(2, n1))]
        monkeypatch.setattr(stokes, "cyclic_for", lambda n, b=broken: b)
        with pytest.raises(AssertionError, match="not periodic"):
            q_family(n1, q1, q2)


@pytest.mark.parametrize("n1", [4, 5, 7])
def test_a_direction_map_that_is_not_shift_covariant_is_refused(n1, monkeypatch):
    # directions 0 and 2 swapped: each direction keeps an unchained slot set
    # and the shift stays periodic, but pattern 2 is no longer pattern 0
    # moved by the shift, so direction 2 could not be checked through q1
    real = stokes.direction_map(n1)
    swapped = real.copy()
    swapped[real == 0], swapped[real == 2] = 2, 0
    monkeypatch.setattr(stokes, "direction_map", lambda n: swapped)
    with pytest.raises(AssertionError,
                       match="pattern 2 is not pattern 0 gathered by shift power 1"):
        stokes._stokes_layout(n1)
    with pytest.raises(AssertionError, match="pattern 2 is not pattern 0"):
        q_family(n1, *_random_factors(n1, np.random.default_rng(n1), real=False))


@pytest.mark.parametrize("n1", [4, 5, 6, 7])
def test_a_reality_conjugator_that_does_not_invert_the_shift_is_refused(n1, monkeypatch):
    C = stokes.reality_conjugator(n1)
    flipped = C.copy()
    flipped[[1, n1 - 1], [n1 - 1, 1]] *= -1  # still a symmetric involution
    # the identity commutes with the shift; the shift itself is no
    # involution, which at size 4 is the only broken fact; at size 4 the
    # flipped pair still inverts the shift, so that mutant is a valid C there
    mutants = [np.eye(n1), cyclic_for(n1)] + ([flipped] if n1 != 4 else [])
    for mutant in mutants:
        monkeypatch.setattr(stokes, "reality_conjugator", lambda n, m=mutant: m)
        with pytest.raises(AssertionError, match="reality conjugator is not an involution"):
            stokes._stokes_layout(n1)


def _generic_factors(n1, rng, real, samples=3):
    """Unipotent factors on the head and second patterns with independent
    coefficients: they break the transpose-inverse and reality relations,
    so q1's residuals, at least, are far from zero."""
    qs = []
    for which in ("head", "second"):
        roots = table_supported_roots(n1, which)
        z = rng.normal(size=(2, samples, len(roots)))
        coeffs = z[0] if real else z[0] + 1j * z[1]
        qs.append(build_q(n1, which, dict(zip(roots, coeffs.T))))
    return np.stack(qs, axis=-3)


def _transpose_inverse_residuals(fam, ell):
    """The stokes cell's relative residual of q_(ell+n+1) = (2I - q_ell)^T,
    per member."""
    period = len(fam)
    rhs = 2.0 * np.eye(period // 2) - fam[ell].swapaxes(-1, -2)
    err = np.abs(fam[(ell + period // 2) % period] - rhs).max(axis=(-2, -1))
    return err / np.maximum(1.0, np.abs(rhs).max(axis=(-2, -1)))


def _reality_residuals(fam, ell):
    """max|C (2I - q_partner) C - q_ell| per member, by dense products with
    the involution, which has one +-1 in each row and so rounds nothing."""
    n1 = len(fam) // 2
    C = stokes.reality_conjugator(n1)
    lhs = C @ (2.0 * np.eye(n1) - fam[stokes._reality_partner(n1, ell)]) @ C
    return np.abs(lhs - fam[ell]).max(axis=(-2, -1))


@pytest.mark.parametrize("n1", range(3, 41))
def test_every_direction_has_its_generators_residuals_bit_for_bit(n1):
    # the stokes cell checks directions 0 and 1 only (stokes module
    # docstring): every direction's transpose-inverse and reality residual
    # must equal its generator's exactly, member by member
    layout = stokes._stokes_layout(n1)
    rng = np.random.default_rng(9000 + n1)
    period = 2 * n1
    for real in (False, True):
        qs = _generic_factors(n1, rng, real)
        stack = stokes._conjugates(layout, qs, range(period))
        fam = {ell: stack[:, ell] for ell in range(period)}
        for residuals in (_transpose_inverse_residuals, _reality_residuals):
            gens = [residuals(fam, h) for h in (0, 1)]
            assert gens[0].min() > 0.1  # not vacuous
            for ell in range(period):
                got = residuals(fam, ell)
                assert np.array_equal(got.view(np.uint64), gens[ell % 2].view(np.uint64))
        # the generators with their partners give the family's residual
        partners = {stokes._reality_partner(n1, h) for h in (0, 1)}
        part = {ell: fam[ell] for ell in (0, 1, *partners)}
        worst = nan_max(*(_reality_residual_loop({ell: q[k] for ell, q in fam.items()})
                          for k in range(len(qs))))
        assert reality_residual(part) == reality_residual(fam) == worst


def test_q_family_takes_the_shift_powers_once_as_integer_tables(monkeypatch):
    for n1 in (3, 4, 7, 8):
        perm, sign = stokes._shift_action(n1)
        assert perm.dtype == sign.dtype == np.int64
        for j in range(n1 + 1):
            dense = np.zeros((n1, n1))
            dense[np.arange(n1), perm[j]] = sign[j]
            assert np.array_equal(dense, np.linalg.matrix_power(cyclic_for(n1), j))
    calls = []
    action = stokes._shift_action
    monkeypatch.setattr(stokes, "_shift_action",
                        lambda n1: calls.append(n1) or action(n1))
    monkeypatch.setattr(np.linalg, "matrix_power", None)  # no dense power
    q1, q2 = ref.stokes_q1_5(0.8, 0.35), ref.stokes_q2_5(0.8, 0.35)
    q_family(5, np.stack([q1] * 3), np.stack([q2] * 3))
    assert calls == [5]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_q_family_rejects_non_finite_factors(bad):
    with np.errstate(invalid="ignore"):
        q2 = ref.stokes_q2_4(bad)
    with pytest.raises(ConsistencyError, match="must be finite"):
        q_family(4, ref.stokes_q1_4(0.6), q2)
    q1 = ref.stokes_q1_4(0.6)
    q1[2, 3] = bad
    with pytest.raises(ConsistencyError, match="must be finite"):
        q_family(4, q1, ref.stokes_q2_4(0.2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_m0_rejects_non_finite_coefficients(bad):
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="determinant"):
        build_m0(params_4(0.6, bad))


@pytest.mark.parametrize("n1", range(3, 17))
def test_build_m0_equals_the_dense_product_and_carries_its_determinant(n1):
    # the shift product is a gather: exactly the dense q1 q2 P, one member
    # or a stack, and the determinant it was checked by is the matrix's own
    rng = np.random.default_rng(9000 + n1)
    P = cyclic_for(n1).astype(complex)
    for samples in (None, 6):
        p = (random_stokes_params(n1, rng) if samples is None
             else _stacked_params(n1, rng, samples=samples))
        m0 = build_m0(p)
        q1, q2 = m0.factors
        assert m0.matrix.shape == q1.shape
        assert np.array_equal(m0.matrix, q1 @ q2 @ P)
        assert np.array_equal(m0.det, np.linalg.det(m0.matrix))
    for bad in (np.nan, np.inf):
        p = _stacked_params(n1, rng, samples=3)
        p.second_coeffs[next(iter(p.second_coeffs))][1] = bad
        with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                      match="of member 1 is not 1"):
            build_m0(p)
        one = random_stokes_params(n1, rng)
        one.head_coeffs[next(iter(one.head_coeffs))] = bad
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="determinant"):
            build_m0(one)


def test_stacked_family_calls_no_q_pattern_and_no_inverse(monkeypatch):
    calls = {"q_pattern": 0, "inv": []}
    inv = np.linalg.inv

    def counting_inv(a):
        calls["inv"].append(np.ndim(a))
        return inv(a)

    def counting_pattern(*args):
        calls["q_pattern"] += 1
        return q_pattern(*args)

    monkeypatch.setattr(stokes, "q_pattern", counting_pattern)
    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    fam = q_family(6, *_random_factors(6, np.random.default_rng(6), real=True))
    reality_residual(fam)
    assert calls == {"q_pattern": 0, "inv": []}


def test_q_family_rejects_unpaired_coefficients():
    # generic head coefficients break the transpose-inverse relation
    q1 = np.eye(4, dtype=complex)
    q1[1, 0] = 0.3
    q1[2, 3] = 0.5  # pairing would force this to equal -0.3
    q2 = ref.stokes_q2_4(0.2)
    with pytest.raises(ConsistencyError):
        q_family(4, q1, q2)


def test_q_family_rejects_off_pattern_entries():
    q1 = ref.stokes_q1_4(0.3)
    q1 = q1.copy()
    q1[0, 1] = 0.01  # not a supported slot for the head direction
    with pytest.raises(ConsistencyError):
        q_family(4, q1, ref.stokes_q2_4(0.0))


def test_reality_relation_reference_4():
    s1, s2 = 0.45, -0.8  # real parameters
    fam = q_family(4, ref.stokes_q1_4(s1), ref.stokes_q2_4(s2))
    assert reality_residual(fam) < 1e-12


@pytest.mark.parametrize("n1", [3, 4, 5, 6, 7, 8])
def test_reality_relation_random_real_families(n1):
    rng = np.random.default_rng(900 + n1)
    p = random_stokes_params(n1, rng, real=True)
    fam = q_family(
        n1,
        build_q(n1, "head", p.head_coeffs),
        build_q(n1, "second", p.second_coeffs),
    )
    assert reality_residual(fam) < 1e-9


def _reality_residual_loop(family):
    """The member-by-member reality_residual that the stacked one replaced,
    kept as its reference: dense products with the involution, and the
    inverse of each factor as 2I - q."""
    n_plus_1 = family[0].shape[0]
    period = 2 * n_plus_1
    C = stokes.reality_conjugator(n_plus_1)
    off = 2 if n_plus_1 % 2 == 0 else 1
    worst = 0.0
    for ell in range(period):
        partner = (-ell - off) % period
        lhs = C @ (2 * np.eye(n_plus_1) - family[partner]) @ C
        worst = nan_max(worst, max_abs(lhs - family[ell]))
    return worst


@pytest.mark.parametrize("n1", range(3, 31))
def test_reality_residual_equals_the_member_loop(n1):
    rng = np.random.default_rng(6000 + n1)
    fam = q_family(n1, *_random_factors(n1, rng, real=True))
    got = reality_residual(fam)
    assert type(got) is float and got == _reality_residual_loop(fam)


@pytest.mark.parametrize("n1", [3, 4])
def test_reality_residual_of_a_nan_family_is_nan(n1):
    # the builtin max would drop every NaN and report 0.0
    fam = {ell: np.full((n1, n1), np.nan) for ell in range(2 * n1)}
    assert np.isnan(reality_residual(fam))


# ---------------------------------------------------------------------------
# sample stacks against the per-sample loops they replaced
# ---------------------------------------------------------------------------

def _stacked_params(n1, rng, real=False, scale=1.0, samples=1):
    """S samples as the suites draw them: one (S, width) block of normals
    through the layout."""
    layout = stokes._stokes_layout(n1)
    z = rng.normal(size=(samples, layout.width(real)))
    return stokes._stokes_from_normals(layout, z, real, scale)


def _permutation_action(Pm):
    """Image index and sign of every basis vector under a signed permutation:
    Pm e_j = sign[j] e_{image[j]}."""
    image = np.argmax(np.abs(Pm) > 0.5, axis=0)
    sign = np.sign(Pm[image, np.arange(len(image))].real)
    return image.tolist(), sign.tolist()


def _paired_block_loop(block, action, rng, real, scale):
    image, sgn = action
    block_set = set(block)
    coeffs = {}

    def draw():
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
        assert beta in block_set
        c = draw()
        coeffs[alpha] = c
        coeffs[beta] = -sign * c
    return coeffs


def _random_stokes_params_loop(n_plus_1, rng, real=False, scale=1.0):
    """The one-sample sampler that the stacked one replaced, kept as its
    reference: a Python loop per root and a dense shift power per call. At
    odd sizes each second coefficient is the signed head one the shift
    pairs it with, checked against the dense second factor
    Pm^T (2I - q1)^T Pm, value for value."""
    head = table_supported_roots(n_plus_1, "head")
    second = table_supported_roots(n_plus_1, "second")
    Pm = np.linalg.matrix_power(cyclic_for(n_plus_1), n_plus_1 // 2)
    action = _permutation_action(Pm)
    if n_plus_1 % 2 == 0:
        return StokesParams(n_plus_1,
                            _paired_block_loop(head, action, rng, real, scale),
                            _paired_block_loop(second, action, rng, real, scale))
    if real:
        head_coeffs = {r: complex(rng.normal() * scale) for r in head}
    else:
        head_coeffs = {r: complex(rng.normal(), rng.normal()) * scale for r in head}
    image, sgn = action
    second_coeffs = {(i, j): -sgn[i] * sgn[j] * head_coeffs[(image[j], image[i])]
                     for i, j in second}
    q2 = Pm.T @ (2 * np.eye(n_plus_1) - build_q(n_plus_1, "head", head_coeffs)).T @ Pm
    assert np.array_equal(q2, build_q(n_plus_1, "second", second_coeffs))
    return StokesParams(n_plus_1, head_coeffs, second_coeffs)


@pytest.mark.parametrize("n1", range(3, 41))
def test_the_stacked_sampler_equals_single_draws(n1):
    for real in (False, True):
        for scale in (0.7, 1.0):
            seed = [n1, int(real), int(10 * scale)]
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            stack = _stacked_params(n1, rng, real=real, scale=scale, samples=6)
            singles = [_random_stokes_params_loop(n1, ref_rng, real, scale)
                       for _ in range(6)]
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            for which in ("head", "second"):
                got = getattr(stack, f"{which}_coeffs")
                want = [getattr(p, f"{which}_coeffs") for p in singles]
                assert list(got) == table_supported_roots(n1, which)
                for r, col in got.items():
                    assert col.shape == (6,) and col.dtype == complex
                    expect = np.array([w[r] for w in want], dtype=complex)
                    # bit for bit, signed zeros included
                    assert np.array_equal(np.ascontiguousarray(col).view(np.uint64),
                                          expect.view(np.uint64))
            one = random_stokes_params(n1, rng, real=real, scale=scale)
            want = _random_stokes_params_loop(n1, ref_rng, real, scale)
            assert one.head_coeffs == want.head_coeffs
            assert one.second_coeffs == want.second_coeffs
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_no_layout_takes_a_dense_shift_power(monkeypatch):
    # every size pairs its slots through the shift's integer action
    monkeypatch.setattr(np.linalg, "matrix_power", None)
    monkeypatch.setattr(np.linalg, "inv", None)
    for n1 in range(3, 13):
        layout = stokes._stokes_layout(n1)
        z = np.random.default_rng(n1).normal(size=(2, layout.width(real=False)))
        stokes._stokes_from_normals(layout, z, False, 1.0)


def _first_member_failure(calls):
    """Index, kind and message of the first member call that raises."""
    for k, call in enumerate(calls):
        try:
            call()
        except (ConsistencyError, NumericalError) as exc:
            return k, type(exc), str(exc)
    return None


def _assert_names_the_first_failing_member(stacked, members):
    """The stacked call raises what its first failing member raises alone,
    with that member named."""
    k, kind, message = _first_member_failure(members)
    assert "member" not in message
    with pytest.raises(kind) as exc:
        stacked()
    got = str(exc.value)
    assert f" of member {k}" in got
    assert got.replace(f" of member {k}", "") == message
    return message


def _family_calls(n1, q1, q2):
    return (lambda: q_family(n1, q1, q2),
            [lambda k=k: q_family(n1, q1[k], q2[k]) for k in range(len(q1))])


@pytest.mark.parametrize("n1", range(3, 41))
def test_the_stacked_family_equals_member_calls(n1):
    rng = np.random.default_rng(7000 + n1)
    for real in (False, True):
        p = _stacked_params(n1, rng, real=real, samples=4)
        q1 = build_q(n1, "head", p.head_coeffs)
        q2 = build_q(n1, "second", p.second_coeffs)
        m0 = build_m0(p).matrix
        fam = q_family(n1, q1, q2)
        assert m0.shape == q1.shape == (4, n1, n1)
        for k in range(4):
            one = StokesParams(n1, {r: c[k] for r, c in p.head_coeffs.items()},
                               {r: c[k] for r, c in p.second_coeffs.items()})
            assert np.array_equal(build_q(n1, "head", one.head_coeffs), q1[k])
            assert np.array_equal(build_m0(one).matrix, m0[k])
            single = q_family(n1, q1[k], q2[k])
            for ell, q in single.items():
                assert np.array_equal(fam[ell][k], q)
        if real:
            worst = nan_max(*(reality_residual(q_family(n1, a, b))
                              for a, b in zip(q1, q2)))
            assert reality_residual(fam) == worst


def test_the_stacked_build_m0_names_the_first_failing_member():
    p = _stacked_params(5, np.random.default_rng(3), samples=5)
    for k in (3, 1):
        p.head_coeffs[(2, 0)][k] = np.nan
    members = [StokesParams(5, {r: c[k] for r, c in p.head_coeffs.items()},
                            {r: c[k] for r, c in p.second_coeffs.items()})
               for k in range(5)]
    with np.errstate(all="ignore"):
        message = _assert_names_the_first_failing_member(
            lambda: build_m0(p), [lambda m=m: build_m0(m) for m in members])
    assert "determinant" in message


@pytest.mark.parametrize("n1", range(3, 13))
def test_stacked_family_failures_name_the_first_failing_member(n1):
    # corrupted members of a stack: the stack must raise what the first
    # failing member raises alone, naming that member
    rng = np.random.default_rng(8000 + n1)
    failures = 0
    for trial in range(20):
        p = _stacked_params(n1, rng, real=bool(trial % 2), samples=5)
        q1 = build_q(n1, "head", p.head_coeffs)
        q2 = build_q(n1, "second", p.second_coeffs)
        for _ in range(rng.integers(1, 3)):
            target = q1 if rng.integers(2) else q2
            k, i, j = rng.integers(5), *rng.integers(n1, size=2)
            target[k, i, j] += rng.choice([1e-12, 1e-3, 1.0])
        stacked, members = _family_calls(n1, q1, q2)
        if _first_member_failure(members) is None:
            stacked()
            continue
        failures += 1
        _assert_names_the_first_failing_member(stacked, members)
    assert failures > 0


def test_each_stacked_family_gate_names_the_first_failing_member():
    # member 1 breaks one gate and member 3 is off its pattern: member 1's
    # failure is raised, whichever gate it is
    q1 = np.stack([ref.stokes_q1_5(0.6, -1.1)] * 4)
    q2 = np.stack([ref.stokes_q2_5(0.6, -1.1)] * 4)
    unpaired = np.eye(5, dtype=complex)
    unpaired[2, 0] = 0.3
    breaks = {
        "outside its pattern": lambda q: q.__setitem__((0, 1), 0.01),
        "is not unipotent": lambda q: q.__setitem__((3, 3), 1.5),
        "transpose-inverse relation fails": lambda q: q.__setitem__(..., unpaired),
    }
    for text, brk in breaks.items():
        a = q1.copy()
        brk(a[1])
        a[3, 0, 1] = 0.5
        assert text in _assert_names_the_first_failing_member(*_family_calls(5, a, q2))
    # an unpaired member after a misshapen one is not reached
    a = q1.copy()
    a[1, 0, 1] = 0.5
    a[3] = unpaired
    assert "outside its pattern" in _assert_names_the_first_failing_member(
        *_family_calls(5, a, q2))


# ---------------------------------------------------------------------------
# full monodromy
# ---------------------------------------------------------------------------

def test_full_monodromy_trivial_4():
    m0 = build_m0(params_4(0.0, 0.0))
    np.testing.assert_allclose(full_monodromy(m0), np.eye(4), atol=1e-12)


def test_full_monodromy_trivial_5():
    m0 = build_m0(params_5(0.0, 0.0))
    np.testing.assert_allclose(full_monodromy(m0), np.eye(5), atol=1e-12)


@pytest.mark.parametrize("n1", [4, 5, 6, 7])
def test_full_monodromy_spectral_mapping(n1):
    rng = np.random.default_rng(300 + n1)
    # modest coefficients and a loose gate: taking the (n+1)-st power
    # amplifies conditioning, which is about the power, not the mapping
    m0 = build_m0(random_stokes_params(n1, rng, scale=0.4))
    tol = Tolerance(1e-5, 1e-5)
    lams = eigenvalues(m0.matrix, Tolerance(1e-8, 1e-8))
    if n1 % 2 == 0:
        expect = [(omega_pow(n1, 0.5) * lam) ** n1 for lam in lams]
    else:
        expect = [lam ** n1 for lam in lams]
    match_multisets(eigenvalues(full_monodromy(m0), tol), expect, tol)
