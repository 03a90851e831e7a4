"""Global solution parameters: the gamma polytope, monodromy eigenvalues,
the alcove bijection, closed-form coefficients for sizes 4 and 5, and the
map from asymptotic exponent data to gamma.

The diagonal eigenvalue route used in test_eigenvalues_against_diagonal_route
is an independent derivation (shift diagonalization plus the exponent
diagonal), so agreement with eigenvalues_from_gamma is a genuine two-route
check, not a tautology.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttstokes import reference as ref
from ttstokes import solutions
from ttstokes.linalg import (
    Tolerance,
    char_poly,
    eigenvalues,
    match_multisets,
    omega_pow,
    signed_shift_matrix,
)
from ttstokes.solutions import (
    AlcovePoint,
    AsymptoticDataK,
    GammaVector,
    alcove_coords,
    alcove_to_gamma,
    eigenvalues_from_gamma,
    gamma_from_k,
    gamma_to_m0,
    polytope_contains,
    random_polytope_gamma,
    s_formulas,
)
from ttstokes.steinberg import _signed_coeffs, calibrate, steinberg_section
from ttstokes.stokes import StokesParams, build_m0

from test_stokes import params_4, params_5


def gv(n1, vals):
    return GammaVector(n1, np.asarray(vals, dtype=float))


# ---------------------------------------------------------------------------
# polytope membership
# ---------------------------------------------------------------------------

def test_gamma_vector_requires_antisymmetry():
    with pytest.raises(ValueError):
        gv(4, [1.0, 0.0, 0.0, 0.0])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("cls", [GammaVector, AlcovePoint])
@pytest.mark.parametrize("vals", [
    [np.nan, 0.0, 0.0, np.nan],
    [np.inf, 0.0, 0.0, -np.inf],
    [np.inf, 0.0, 0.0, np.inf],
    [[0.0, 0.0, 0.0, 0.0], [0.5, np.nan, np.nan, -0.5]],
])
def test_non_finite_entries_are_rejected(cls, vals):
    # a NaN sum passed the old `worst > tol` symmetry test
    with pytest.raises(ValueError, match="finite"):
        cls(4, np.array(vals))


@pytest.mark.parametrize("shape", [(3,), (5,), (2, 3), (2, 2, 4)])
def test_vectors_and_stacks_of_the_wrong_shape_are_rejected(shape):
    with pytest.raises(ValueError, match="expected 4 entries"):
        GammaVector(4, np.zeros(shape))


def test_polytope_contains_origin():
    assert polytope_contains(gv(4, [0, 0, 0, 0]))
    assert polytope_contains(gv(5, [0, 0, 0, 0, 0]))


def test_polytope_vertices_on_boundary():
    assert polytope_contains(gv(4, [-1, 1, -1, 1]))
    assert polytope_contains(gv(4, [-1, -3, 3, 1]))
    assert polytope_contains(gv(4, [3, 1, -1, -3]))


def test_polytope_vertices_map_onto_the_alcove_vertices_4():
    # each transcribed vertex of the size-4 polytope is inside it, cut out by
    # at least two active gap constraints with independent normals, and sent
    # to a vertex of the alcove 0 <= rho_0 <= rho_1 <= 1
    chart = np.array([[1, 0], [0, 1], [0, -1], [-1, 0]])  # (g0, g1) -> gamma
    # gap i is gamma_(i+1) - gamma_i, wrapping to gamma_0 - gamma_3
    normals = (np.roll(np.eye(4), -1, axis=0) - np.eye(4)) @ chart
    active, images = [], []
    for v in ref.POLYTOPE_VERTICES_4:
        g = gv(4, v)
        assert np.array_equal(g.gamma, chart @ g.gamma[:2])
        p = alcove_coords(g)
        assert polytope_contains(g) and p.in_alcove()
        gaps = normals @ g.gamma[:2]
        assert gaps.min() == -2.0
        on = np.flatnonzero(gaps == -2.0)
        assert len(on) >= 2 and np.linalg.matrix_rank(normals[on]) == 2
        active.append(set(on.tolist()))
        images.append(tuple(p.rho[:2].tolist()))
    assert active == [{1, 3}, {0, 2, 3}, {0, 1, 2}]
    assert images == [(0.0, 1.0), (0.0, 0.0), (1.0, 1.0)]


def test_polytope_excludes_far_point():
    assert not polytope_contains(gv(4, [4, 0, 0, -4]))
    assert not polytope_contains(gv(4, [-1.5, 0, 0, 1.5]))


# ---------------------------------------------------------------------------
# eigenvalue lists
# ---------------------------------------------------------------------------

def test_eigenvalues_from_gamma_origin_4():
    lams = eigenvalues_from_gamma(gv(4, [0, 0, 0, 0]))
    expect = [np.exp(1j * np.pi * a / 4) for a in (1, -1, 3, -3)]
    match_multisets(lams, expect, Tolerance(1e-12, 1e-12))


def test_eigenvalues_from_gamma_vertex_all_ones():
    lams = eigenvalues_from_gamma(gv(4, [-1, -3, 3, 1]))
    np.testing.assert_allclose(lams, np.ones(4), atol=1e-12)


def test_eigenvalues_from_gamma_origin_5():
    lams = eigenvalues_from_gamma(gv(5, [0, 0, 0, 0, 0]))
    expect = [
        np.exp(-4j * np.pi / 5),
        np.exp(4j * np.pi / 5),
        np.exp(-2j * np.pi / 5),
        np.exp(2j * np.pi / 5),
        1.0,
    ]
    match_multisets(lams, expect, Tolerance(1e-12, 1e-12))


def test_eigenvalues_warn_outside_polytope():
    with pytest.warns(UserWarning):
        eigenvalues_from_gamma(gv(4, [4, 0, 0, -4]))


@pytest.mark.parametrize("n1", range(3, 11))
def test_eigenvalues_against_diagonal_route(n1):
    rng = np.random.default_rng(50 + n1)
    g = random_polytope_gamma(n1, rng)
    lams = eigenvalues_from_gamma(g)
    m = n1 // 2
    if n1 % 2 == 0:
        diag = [omega_pow(n1, -0.5 - i - g.gamma[i] / 2) for i in range(n1)]
    else:
        diag = [omega_pow(n1, -(m + 1) - i - g.gamma[i] / 2) for i in range(n1)]
    match_multisets(lams, diag, Tolerance(1e-10, 1e-10))


@pytest.mark.parametrize("n1", range(3, 11))
def test_eigenvalues_unimodular_conjugate_closed(n1):
    rng = np.random.default_rng(80 + n1)
    lams = eigenvalues_from_gamma(random_polytope_gamma(n1, rng))
    assert np.max(np.abs(np.abs(lams) - 1.0)) < 1e-12
    match_multisets(lams, np.conj(lams), Tolerance(1e-10, 1e-10))


# ---------------------------------------------------------------------------
# alcove coordinates
# ---------------------------------------------------------------------------

def test_alcove_coords_origin_4():
    p = alcove_coords(gv(4, [0, 0, 0, 0]))
    np.testing.assert_allclose(p.rho, [0.25, 0.75, -0.75, -0.25], atol=1e-14)
    assert p.in_alcove()


def test_alcove_coords_origin_5():
    p = alcove_coords(gv(5, [0, 0, 0, 0, 0]))
    np.testing.assert_allclose(p.rho, [-0.8, -0.4, 0.0, 0.4, 0.8], atol=1e-14)
    assert p.in_alcove()


def test_alcove_vertex_is_zero():
    p = alcove_coords(gv(4, [-1, -3, 3, 1]))
    np.testing.assert_allclose(p.rho, np.zeros(4), atol=1e-14)
    assert p.in_alcove()


def test_alcove_point_requires_antisymmetry():
    with pytest.raises(ValueError):
        AlcovePoint(4, np.array([0.3, 0.1, 0.0, 0.0]))


def test_alcove_roundtrip_exact():
    g = gv(4, [0.3, -0.7, 0.7, -0.3])
    back = alcove_to_gamma(alcove_coords(g))
    np.testing.assert_allclose(back.gamma, g.gamma, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 10),
    st.lists(st.floats(-4, 4, allow_nan=False), min_size=5, max_size=5),
)
def test_alcove_membership_iff_polytope(n1, free):
    # build an anti-symmetric gamma from free halves, in or out of the polytope
    m = n1 // 2
    gamma = np.zeros(n1)
    for i in range(m):
        gamma[i] = free[i % len(free)]
        gamma[n1 - 1 - i] = -gamma[i]
    g = GammaVector(n1, gamma)
    assert polytope_contains(g) == alcove_coords(g).in_alcove()


def wall_gammas(n1):
    """Gammas whose smallest cyclic gap is -2 - d, one member per offset d in
    (0, +-0.5, +-1.5, +-2, +-3(n+1)) * 1e-9: random interior gammas scaled
    onto a wall, and the offsets. d = +-1e-9 is left out: it is the slack
    itself, where any two floating routes may round apart."""
    ds = 1e-9 * np.array([0.0, 0.5, -0.5, 1.5, -1.5, 2.0, -2.0, 3 * n1, -3 * n1])
    g = random_polytope_gamma(n1, np.random.default_rng(n1), len(ds)).gamma
    g = g * ((-2.0 - ds) / np.diff(g, append=g[:, :1]).min(axis=1))[:, None]
    low = np.diff(g, append=g[:, :1]).min(axis=1)
    assert np.all(np.abs(low + 2.0 + ds) < 1e-13)
    return GammaVector(n1, g), ds


@pytest.mark.parametrize("n1", range(3, 65))
def test_alcove_and_polytope_agree_at_the_walls(n1):
    # a slack applied to rho's gaps would be n+1 times looser than the
    # polytope's and say inside at d = 1.5e-9 and 2e-9
    g, ds = wall_gammas(n1)
    inside = polytope_contains(g)
    assert inside.tolist() == (ds < 1e-9).tolist()
    p = alcove_coords(g)
    assert p.in_alcove().tolist() == inside.tolist()
    # the --rho route: the alcove point against its own gamma
    assert polytope_contains(alcove_to_gamma(p)).tolist() == inside.tolist()
    for h, want in zip(members(g), inside.tolist()):
        q = alcove_coords(h)
        assert polytope_contains(h) == q.in_alcove() == want
        assert polytope_contains(alcove_to_gamma(q)) == want


def alcove_chain(n1):
    """The alcove's defining chain of inequalities, as ``in_alcove`` once
    tested it: rho's entries in the order seq (rho[m:] then rho[:m] at even
    size, rho itself at odd size) rise, seq_k <= seq_(k+1), and seq_last <=
    2 + seq_0. Each inequality is an integer pair (c, k), meaning
    c . rho + k >= 0."""
    m = n1 // 2
    seq = [*range(m, n1), *range(m)] if n1 % 2 == 0 else [*range(n1)]
    forms = []
    for a, b, k in [*zip(seq, seq[1:], [0] * n1), (seq[-1], seq[0], 2)]:
        c = np.zeros(n1, dtype=np.int64)
        c[b] += 1
        c[a] -= 1
        forms.append((c, k))
    return forms


@pytest.mark.parametrize("n1", range(3, 129))
def test_the_alcove_chain_is_the_polytope_facets_in_integers(n1):
    # under rho = (gamma + shift)/(n+1), (n+1)(c . rho + k) is
    # c . gamma + c . shift + (n+1) k; each chain inequality must be one
    # facet gamma_(a+1) - gamma_a + 2 >= 0, and each facet must be used once,
    # so in_alcove may read the facets as (n+1) gap(rho)_a - gap(shift)_a
    shift = solutions.shift_vector(n1)
    assert shift.dtype.kind == "i"
    gap_shift = solutions._cyclic_gaps(shift)
    facets = []
    for c, k in alcove_chain(n1):
        (a,) = np.flatnonzero(c == -1)
        want = np.zeros(n1, dtype=np.int64)
        want[(a + 1) % n1] += 1
        want[a] -= 1
        assert np.array_equal(c, want)
        assert c @ shift == gap_shift[a]
        assert c @ shift + n1 * k == 2
        facets.append(int(a))
    assert sorted(facets) == list(range(n1))


@pytest.mark.parametrize("n1", range(3, 11))
def test_random_polytope_gamma_is_inside(n1):
    rng = np.random.default_rng(n1)
    for _ in range(20):
        g = random_polytope_gamma(n1, rng)
        assert polytope_contains(g)
        back = alcove_to_gamma(alcove_coords(g))
        np.testing.assert_allclose(back.gamma, g.gamma, atol=1e-11)


# ---------------------------------------------------------------------------
# stacks (S, n+1): every function equal, member by member, to its own call
# ---------------------------------------------------------------------------

STACK = 7


def members(g):
    return [GammaVector(g.n_plus_1, row) for row in g.gamma]


@pytest.mark.parametrize("n1", range(3, 25))
def test_stacked_draw_equals_single_draws(n1):
    rng_stack, rng_loop = np.random.default_rng(n1), np.random.default_rng(n1)
    g = random_polytope_gamma(n1, rng_stack, STACK)
    assert g.gamma.shape == (STACK, n1)
    loop = [random_polytope_gamma(n1, rng_loop).gamma for _ in range(STACK)]
    assert np.array_equal(g.gamma, np.stack(loop))
    # the generator is left in the same state
    assert rng_stack.uniform() == rng_loop.uniform()


@pytest.mark.parametrize("n1", range(3, 25))
def test_the_draw_is_the_alcove_chart_and_the_monodromy_the_section(n1):
    # the sorted uniforms laid out as rho and mapped by alcove_to_gamma, and
    # the section value of the verify route, both bit for bit
    m = n1 // 2
    u = np.sort(np.random.default_rng(n1).uniform(0.0, 1.0, (STACK, m)), axis=-1)
    rho = np.zeros((STACK, n1))
    if n1 % 2 == 0:
        rho[:, :m], rho[:, m:] = u, -u[:, ::-1]
    else:
        rho[:, m + 1:], rho[:, :m] = u, -u[:, ::-1]
    g = random_polytope_gamma(n1, np.random.default_rng(n1), STACK)
    assert np.array_equal(g.gamma, alcove_to_gamma(AlcovePoint(n1, rho)).gamma)
    cal = calibrate(n1)
    assert np.array_equal(gamma_to_m0(cal, g).matrix,
                          solutions._section_from_gamma(cal, g)[2])


def test_an_empty_stack_is_drawn_and_mapped():
    cal = calibrate(5)
    g = random_polytope_gamma(5, np.random.default_rng(0), 0)
    assert g.gamma.shape == (0, 5)
    assert eigenvalues_from_gamma(g).shape == (0, 5)
    assert gamma_to_m0(cal, g).matrix.shape == (0, 5, 5)


@pytest.mark.parametrize("n1", range(3, 41))
def test_stacked_eigenvalue_table_equals_member_calls(n1):
    g = random_polytope_gamma(n1, np.random.default_rng(100 + n1), STACK)
    lams = eigenvalues_from_gamma(g)
    assert lams.shape == (STACK, n1)
    assert np.array_equal(lams, np.stack([eigenvalues_from_gamma(h) for h in members(g)]))


@pytest.mark.parametrize("n1", range(3, 25))
def test_stacked_alcove_chart_equals_member_calls(n1):
    rng = np.random.default_rng(200 + n1)
    g = random_polytope_gamma(n1, rng, STACK)
    # push some members out of the polytope
    g = GammaVector(n1, g.gamma * rng.choice([1.0, 3.0], size=(STACK, 1)))
    p = alcove_coords(g)
    back = alcove_to_gamma(p)
    assert np.array_equal(p.rho, np.stack([alcove_coords(h).rho for h in members(g)]))
    assert np.array_equal(back.gamma,
                          np.stack([alcove_to_gamma(alcove_coords(h)).gamma
                                    for h in members(g)]))
    inside = polytope_contains(g)
    assert inside.dtype == bool and inside.tolist() == [
        polytope_contains(h) for h in members(g)]
    assert p.in_alcove().tolist() == [alcove_coords(h).in_alcove() for h in members(g)]


@pytest.mark.parametrize("n1", [4, 5])
def test_stacked_closed_forms_equal_member_calls(n1):
    g = random_polytope_gamma(n1, np.random.default_rng(300 + n1), STACK)
    s1, s2 = s_formulas(n1, g)
    loop = np.array([s_formulas(n1, h) for h in members(g)])
    assert np.array_equal(s1, loop[:, 0]) and np.array_equal(s2, loop[:, 1])


@pytest.mark.parametrize("n1", range(3, 25))
def test_stacked_gamma_to_m0_equals_member_calls(n1):
    cal = calibrate(n1)
    g = random_polytope_gamma(n1, np.random.default_rng(400 + n1), STACK)
    m0 = gamma_to_m0(cal, g)
    assert m0.n_plus_1 == n1 and m0.matrix.shape == (STACK, n1, n1)
    loop = np.stack([gamma_to_m0(cal, h).matrix for h in members(g)])
    assert np.array_equal(m0.matrix, loop)


def char_coeffs(g):
    return solutions._gamma_char_coeffs(g.n_plus_1, solutions._gamma_angles(g))


@pytest.mark.parametrize("n1", range(3, 65))
def test_stacked_char_coeffs_equal_member_calls(n1):
    g = random_polytope_gamma(n1, np.random.default_rng([620, n1]), STACK)
    coeffs = char_coeffs(g)
    assert coeffs.dtype == np.float64 and coeffs.shape == (STACK, n1 + 1)
    loop = np.stack([char_coeffs(h) for h in members(g)])
    assert np.array_equal(coeffs, loop)


@pytest.mark.parametrize("n1", range(3, 17))
def test_char_coeffs_agree_with_a_50_digit_expansion(n1):
    # the same eigenvalue lists, multiplied out one root at a time
    mpmath = pytest.importorskip("mpmath")
    g = random_polytope_gamma(n1, np.random.default_rng([630, n1]), 20)
    coeffs = char_coeffs(g)
    with mpmath.workdps(50):
        for row, lams in zip(coeffs, eigenvalues_from_gamma(g)):
            ref = [mpmath.mpc(1)]
            for lam in lams.tolist():
                ref = [a - lam * b for a, b in zip([0] + ref, ref + [0])]
            err = max(abs(c - z.real) for c, z in zip(row.tolist(), ref))
            assert err <= 1e-12 * max(1.0, np.abs(row).max())


def test_one_warning_per_member_outside_the_polytope_in_member_order():
    g = GammaVector(4, np.array([[4.0, 0.0, 0.0, -4.0],
                                 [0.0, 0.0, 0.0, 0.0],
                                 [-1.5, 0.0, 0.0, 1.5],
                                 [0.3, -0.7, 0.7, -0.3],
                                 [5.0, 1.0, -1.0, -5.0]]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eigenvalues_from_gamma(g)
    assert [str(w.message) for w in caught] == [
        f"gamma outside the polytope (member {k}): eigenvalues may collide "
        "or leave the expected arcs" for k in (0, 2, 4)]


OUTSIDE = np.array([[4.0, 0.0, 0.0, -4.0],
                    [0.0, 0.0, 0.0, 0.0],
                    [-1.5, 0.0, 0.0, 1.5],
                    [5.0, 1.0, -1.0, -5.0]])


def test_each_query_warns_again_and_construction_and_membership_never_do():
    cal = calibrate(4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = GammaVector(4, OUTSIDE)
        assert polytope_contains(g).tolist() == [False, True, False, False]
        assert g.inside.tolist() == [False, True, False, False]
        assert caught == []
        for _ in range(2):
            eigenvalues_from_gamma(g)
            gamma_to_m0(cal, g)
    one_call = [f"gamma outside the polytope (member {k}): eigenvalues may collide "
                "or leave the expected arcs" for k in (0, 2, 3)]
    assert [str(w.message) for w in caught] == 4 * one_call
    # each warning names the line that made the query
    assert {w.filename for w in caught} == {__file__}


@pytest.mark.parametrize("source", [OUTSIDE[0].copy(), OUTSIDE.copy()])
def test_gamma_and_what_is_derived_from_it_are_read_only_copies(source):
    g = GammaVector(4, source)
    before = [g.gamma.copy(), g.inside.copy(), g.angles.copy()]
    for arr in (g.gamma, g.inside, g.angles):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    source[...] = 0.0
    assert all(np.array_equal(a, b) for a, b in zip([g.gamma, g.inside, g.angles], before))
    assert g.gamma.shape == source.shape and g.angles.shape == source.shape[:-1] + (2,)


def _shift_vector_list(n1):
    """The offsets written out one entry at a time: shift_vector's oracle."""
    m = n1 // 2
    if n1 % 2 == 0:
        return np.array([2 * i + 1 if i < m else 2 * i + 1 - 2 * n1 for i in range(n1)])
    return np.array([2 * i - (n1 - 1) for i in range(n1)])


def test_shift_vector_is_the_list_formula_built_once_per_size():
    for n1 in range(3, 129):
        v = solutions.shift_vector(n1)
        want = _shift_vector_list(n1)
        assert v.dtype == want.dtype and np.array_equal(v, want), n1
        assert not v.flags.writeable and solutions.shift_vector(n1) is v


# ---------------------------------------------------------------------------
# closed-form coefficients, sizes 4 and 5
# ---------------------------------------------------------------------------

def test_s_formulas_4_origin():
    s1, s2 = s_formulas(4, gv(4, [0, 0, 0, 0]))
    assert abs(s1) < 1e-12 and abs(s2) < 1e-12


def test_s_formulas_4_vertex():
    s1, s2 = s_formulas(4, gv(4, [-1, -3, 3, 1]))
    assert s1 == pytest.approx(-4.0)
    assert s2 == pytest.approx(-6.0)


def test_s_formulas_4_interior_point():
    s1, s2 = s_formulas(4, gv(4, [2, 0, 0, -2]))
    assert s1 == pytest.approx(2.0 * np.sqrt(2.0))
    assert s2 == pytest.approx(-4.0)


def test_s_formulas_5_origin():
    s1, s2 = s_formulas(5, gv(5, [0, 0, 0, 0, 0]))
    assert abs(s1) < 1e-12 and abs(s2) < 1e-12


def test_s_formulas_rejects_other_sizes():
    with pytest.raises(ValueError):
        s_formulas(6, gv(6, [0] * 6))


@pytest.mark.parametrize("n1", [4, 5])
def test_s_formulas_match_eigenvalue_polynomial(n1):
    # the coefficient formulas against the product over the eigenvalue list
    rng = np.random.default_rng(60 + n1)
    for _ in range(10):
        g = random_polytope_gamma(n1, rng)
        s1, s2 = s_formulas(n1, g)
        coeffs = np.ones(1, dtype=complex)
        for lam in eigenvalues_from_gamma(g):
            coeffs = np.convolve(coeffs, [-lam, 1.0])
        if n1 == 4:
            expect = np.array([1.0, s1, -s2, s1, 1.0])
        else:
            expect = np.array([-1.0, s1, s2, -s2, -s1, 1.0])
        np.testing.assert_allclose(coeffs, expect, atol=1e-10)


# ---------------------------------------------------------------------------
# gamma -> fundamental monodromy
# ---------------------------------------------------------------------------

def test_gamma_to_m0_origin_4_is_signed_shift():
    m0 = gamma_to_m0(calibrate(4), gv(4, [0, 0, 0, 0]))
    np.testing.assert_allclose(m0.matrix, signed_shift_matrix(4), atol=1e-12)


def test_gamma_to_m0_matches_stokes_route_4():
    cal = calibrate(4)
    rng = np.random.default_rng(9)
    for _ in range(5):
        g = random_polytope_gamma(4, rng)
        s1, s2 = s_formulas(4, g)
        via_stokes = build_m0(params_4(s1, s2)).matrix
        via_gamma = gamma_to_m0(cal, g).matrix
        np.testing.assert_allclose(via_gamma, via_stokes, atol=1e-10)


def test_gamma_to_m0_matches_stokes_route_5():
    cal = calibrate(5)
    rng = np.random.default_rng(10)
    for _ in range(5):
        g = random_polytope_gamma(5, rng)
        s1, s2 = s_formulas(5, g)
        via_stokes = build_m0(params_5(s1, s2)).matrix
        via_gamma = gamma_to_m0(cal, g).matrix
        np.testing.assert_allclose(via_gamma, via_stokes, atol=1e-10)


def test_gamma_to_m0_is_real():
    m0 = gamma_to_m0(calibrate(5), gv(5, [1.0, 0.5, 0, -0.5, -1.0]))
    assert np.max(np.abs(m0.matrix.imag)) < 1e-12


@pytest.mark.parametrize("n1", range(3, 41))
def test_gamma_to_m0_is_a_real_section_value(n1):
    # the section at the real coefficients of the eigenvalue list, built in
    # float64, equals the real part of the same section built in complex128
    cal = calibrate(n1)
    rng = np.random.default_rng([610, n1])
    for _ in range(8):
        g = random_polytope_gamma(n1, rng)
        m0 = gamma_to_m0(cal, g).matrix
        t = cal.t_of_chi(_signed_coeffs(char_coeffs(g)))
        assert m0.dtype == t.dtype == np.float64
        assert np.array_equal(m0, steinberg_section(cal, t.astype(complex)).real)
        assert abs(np.linalg.det(m0) - 1.0) < 1e-9


@pytest.mark.parametrize("n1", range(3, 11))
def test_gamma_to_m0_spectrum_matches_list(n1):
    cal = calibrate(n1)
    rng = np.random.default_rng(600 + n1)
    g = random_polytope_gamma(n1, rng)
    m0 = gamma_to_m0(cal, g)
    got = eigenvalues(m0.matrix, Tolerance(1e-7, 1e-7))
    match_multisets(got, eigenvalues_from_gamma(g), Tolerance(1e-7, 1e-7))


def test_gamma_to_m0_char_poly_vertex():
    # vertex with all eigenvalues 1: char poly (mu - 1)^4
    m0 = gamma_to_m0(calibrate(4), gv(4, [-1, -3, 3, 1]))
    np.testing.assert_allclose(char_poly(m0.matrix), [1, -4, 6, -4, 1], atol=1e-12)


# ---------------------------------------------------------------------------
# asymptotic exponent data -> gamma
# ---------------------------------------------------------------------------

def test_gamma_from_k_zero():
    a = AsymptoticDataK(4, np.zeros(4))
    np.testing.assert_allclose(gamma_from_k(a).gamma, np.zeros(4), atol=1e-14)


def test_gamma_from_k_reference_case():
    a = AsymptoticDataK(4, np.array([0.0, 1.0, 0.0, 1.0]))
    assert a.N == pytest.approx(6.0)
    g = gamma_from_k(a)
    np.testing.assert_allclose(g.gamma, [-1 / 3, 1 / 3, -1 / 3, 1 / 3], atol=1e-13)


def test_gamma_from_k_boundary():
    # a -1 entry lands gamma on the polytope boundary
    a = AsymptoticDataK(3, np.array([-1.0, 0.5, 0.5]))
    g = gamma_from_k(a)
    assert polytope_contains(g)
    diffs = [g.gamma[i + 1] - g.gamma[i] for i in range(2)] + [2 * g.gamma[0]]
    assert min(diffs) == pytest.approx(-2.0)


def test_asymptotic_data_validation():
    with pytest.raises(ValueError):
        AsymptoticDataK(4, np.array([0.0, 1.0, 0.0, 2.0]))  # k_1 != k_3
    with pytest.raises(ValueError):
        AsymptoticDataK(4, np.array([-2.0, 0.0, 0.0, 0.0]))  # below -1
    with pytest.raises(ValueError):
        AsymptoticDataK(4, np.array([-1.0, -1.0, -1.0, -1.0]))  # degenerate


@pytest.mark.parametrize("k", [
    [np.nan, 0.0, 0.0],
    [0.0, np.nan, np.nan],
    [0.0, np.inf, np.inf],
])
def test_asymptotic_data_rejects_non_finite_k(k):
    # every comparison with NaN is false, so NaN passed each range test
    with pytest.raises(ValueError, match="finite"):
        AsymptoticDataK(3, np.array(k))


@pytest.mark.parametrize("n1", range(3, 9))
def test_gamma_from_k_identity_and_membership(n1):
    rng = np.random.default_rng(70 + n1)
    for _ in range(10):
        k = np.empty(n1)
        k[0] = rng.uniform(-1, 3)
        for j in range(1, n1 // 2 + 1):
            k[j] = rng.uniform(-1, 3)
            k[(n1 - j) % n1] = k[j]
        a = AsymptoticDataK(n1, k)
        g = gamma_from_k(a)
        assert polytope_contains(g)
        # defining identity linking exponents to consecutive gamma gaps
        for i in range(1, n1):
            lhs = n1 * (k[i] + 1) / a.N
            rhs = 1 + (g.gamma[i] - g.gamma[i - 1]) / 2
            assert lhs == pytest.approx(rhs, abs=1e-10)
