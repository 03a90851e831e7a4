"""Steinberg-style cross-section of the monodromy set.

The section is a product s(t) = (I + t_1 E_{r_1}) sigma_1 ... over the
adapted simple system (head block then tail block, in table order), where
each sigma_k is a signed transposition representing the reflection in r_k.
The signs need calibrating: the product sigma_1 ... sigma_n must equal the
cyclic shift matrix C that the monodromy construction uses. Once calibrated,
the coefficient map chi (signed characteristic polynomial coefficients)
restricts to a bijection between section values and coefficient space, with
chi(s(t)) a signed relabeling of t.

Everything ``calibrate`` derives comes from one walk over the generators in
integer arithmetic. The prefix P_k = sigma_1 ... sigma_k is a signed
permutation, P_k e_j = s_j e_{pi(j)}, and multiplying by sigma_{k+1} swaps
two of its columns and adjusts their signs. Before generator k (root
(i_k, j_k)) the walk records a_k = pi(i_k), b_k = pi(j_k) and s_{i_k} s_{j_k};
at the end it holds the permutation and signs of the whole product. Only
the signs s_j depend on the generator signs, not the permutation. No
generator matrix is built: a calibration holds integers only, and its
``sigmas`` builds the dense generators on demand for an independent check
of the product.

The signs come from a linear system over GF(2), not a search. Flipping
sigma_k negates its rows i_k and j_k, i.e. multiplies it on the left by the
diagonal sign matrix with -1 at those two indices. Moving that matrix to the
front past the prefix turns it into the sign matrix with -1 at a_k, b_k (the
prefix's own signs cancel in the conjugation). So the flips x in GF(2)^n
multiply the unflipped product P0 on the left by a diagonal sign matrix, and
they must solve

    sum_k x_k (e_{a_k} + e_{b_k}) = c,

where c marks the indices pi(j) at which column j of C and of P0 differ in
sign. The vectors on the left are the edges of a graph on the n+1 indices,
and the product of their transpositions is the permutation of P0. When C is
P0 up to signs that permutation is the cyclic shift, a single (n+1)-cycle,
so the graph is connected: n edges on n+1 vertices form a spanning tree,
whose edge vectors have rank n over GF(2). The solution is therefore unique,
and it exists because c has even weight (C and P0 both have determinant 1),
which is exactly the span of a spanning tree's edges. It is read off the
tree: e_v + e_0 is the sum of the edges on the tree's path from 0 to v, so
x_k is the parity of the marked v whose path uses edge k. Walked again
with the solved signs, the product must equal C entry for entry.

Once calibrated, the section is C plus each t_k, signed, in one fixed slot.
Moving every sigma to the right,

    s(t) = prod_k (I + t_k F_k) C,   F_k = P_{k-1} E_{i_k j_k} P_{k-1}^T,

and F_k = s_{i_k} s_{j_k} E_{a_k b_k} is a signed matrix unit. Since
F_k F_m = +-delta(b_k, a_m) E_{a_k b_m}, every product of two or more
factors in the expansion vanishes when b_k != a_m for all k < m, leaving
s(t) = C + sum_k t_k F_k C. Row b_k of C has a single nonzero entry c at
column col(b_k), so F_k C is the single entry s_{i_k} s_{j_k} c at slot
(a_k, col(b_k)). ``calibrate`` rejects a size where the condition fails or
two slots coincide.

The relabeling is read off the slots. e_m, the m-th signed coefficient, is
the sum of the principal m x m minors, i.e. of sgn(sigma) prod M[i, sigma(i)]
over the permutations sigma of m indices whose edges i -> sigma(i) are
nonzero entries. The entries of C are the edges i -> i+1 of one
(n+1)-cycle, so any other cycle uses a slot, and a slot at (r, c) closes
exactly one cycle with the edges of C: r -> c -> c+1 -> ... -> r, of length
L+1 with L = (r - c) mod (n+1). As a permutation it has sign (-1)^L; its
weight is the slot entry times the entries of C on the path c -> ... -> r,
which are all 1 except the corner C[n, 0], crossed exactly when r < c. So
t_k enters e_{L+1} with sign (-1)^L * slot sign * (C[n, 0] if r < c else 1).
When the lengths L of the n slots are 0..n-1 in some order, this is a
signed bijection from t onto (e_1, ..., e_n) if no term of chi uses two
slots. ``calibrate`` proves that, and that s(t) is regular: renumbered so
that an edge of C on no slot's path is the corner, s(t) is lower Hessenberg
with a +-1 superdiagonal, so s(t) - lambda I keeps rank n without its first
column and last row, for every t and lambda. Each slot's cycle is then an
interval [c', r'], two slots share a term only if theirs are disjoint, and
max c' <= min r' makes them meet pairwise (Helly's theorem on a line).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    _in_chunks,
    _modulus,
    _working,
    char_poly,
    cyclic_for,
    nan_max,
    rel_residual,
)
from .roots import Root, _tree_paths, table_supported_roots
from .stokes import _Layout, _stokes_from_normals, _stokes_layout, build_m0

__all__ = [
    "CalibrationError",
    "SectionCalibration",
    "CrossSectionReport",
    "calibrate",
    "steinberg_section",
    "chi",
    "reconstruct_from_chi",
    "cross_section_check",
    "regular_centralizer_dim",
]


class CalibrationError(RuntimeError):
    """No sign assignment makes the generator product match the shift."""


@dataclass(frozen=True)
class SectionCalibration:
    """Calibrated data of the cross-section for one size.

    ``signs[k]`` is +1 for the default generator orientation and -1 for the
    flipped one. ``chi_sources`` and ``chi_signs`` describe the relabeling
    chi(s(t))_k = chi_signs[k] * t[chi_sources[k]]. The section value is
    s(t) = C + sum_k slot_signs[k] * t_k E_{slot_rows[k], slot_cols[k]}
    with C the cyclic shift (see the module docstring). The calibration
    holds only integers and is immutable: the slot arrays are read-only, and
    they are left out of equality since root order and signs determine them.

    It also caches, built once from the fields above, what every section
    and relabeling call reads: ``shift``, the cyclic shift C as an integer
    matrix, and ``chi_source_index`` and ``chi_sign_vector``, the relabeling
    tuples as arrays. These are read-only too, and left out of equality.
    """

    n_plus_1: int
    root_order: tuple[Root, ...]
    signs: tuple[int, ...]
    chi_sources: tuple[int, ...]
    chi_signs: tuple[int, ...]
    slot_rows: np.ndarray = field(repr=False, compare=False)
    slot_cols: np.ndarray = field(repr=False, compare=False)
    slot_signs: np.ndarray = field(repr=False, compare=False)
    shift: np.ndarray = field(init=False, repr=False, compare=False)
    chi_source_index: np.ndarray = field(init=False, repr=False, compare=False)
    chi_sign_vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        derived = {
            "shift": cyclic_for(self.n_plus_1),
            "chi_source_index": self.chi_sources,
            "chi_sign_vector": self.chi_signs,
        }
        for name, value in derived.items():
            arr = np.array(value, dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def flips(self) -> tuple[int, ...]:
        return tuple(k for k, s in enumerate(self.signs) if s < 0)

    @property
    def sigmas(self) -> tuple[np.ndarray, ...]:
        """The generator matrices, read-only, built from the root order and
        signs: with indices lo < up of root k, sigma_k sends e_up to
        signs[k] e_lo and e_lo to -signs[k] e_up, fixing the other basis
        vectors. Their product is C."""
        out = []
        for (i, j), sign in zip(self.root_order, self.signs):
            lo, up = min(i, j), max(i, j)
            S = np.eye(self.n_plus_1)
            S[[lo, up], [lo, up]] = 0.0
            S[lo, up], S[up, lo] = sign, -sign
            S.setflags(write=False)
            out.append(S)
        return tuple(out)

    def chi_of_t(self, t) -> np.ndarray:
        """chi(s(t)) read off the relabeling; t is (n,) or a stack (S, n)."""
        t = np.asarray(t)
        return self.chi_sign_vector * t[..., self.chi_source_index]

    def t_of_chi(self, e) -> np.ndarray:
        """The inverse relabeling; e is (n,) or a stack (S, n). Real e
        gives float64 coordinates, complex e complex128."""
        e = _working(e)
        t = np.zeros(e.shape, dtype=e.dtype)
        # transposed, the coordinate axis comes first for (n,) and (S, n)
        t.T[self.chi_source_index] = (self.chi_sign_vector * e).T
        return t


class _Walk(NamedTuple):
    """The prefix products of the generators as a signed permutation.

    Before generator k the prefix P has P e_j = sgn_j e_{perm(j)}; ``rows``,
    ``ends`` and ``unit_signs`` record a_k = perm(i_k), b_k = perm(j_k) and
    sgn_{i_k} sgn_{j_k} there. ``perm`` and ``sgn`` end as the whole
    product's (see the module docstring).
    """

    rows: list[int]
    ends: list[int]
    unit_signs: list[int]
    perm: list[int]
    sgn: list[int]


def _walk(order: tuple[Root, ...], signs, n_plus_1: int) -> _Walk:
    """Walk the generators of ``order``, oriented by ``signs``."""
    perm = list(range(n_plus_1))
    sgn = [1] * n_plus_1
    rows, ends, unit_signs = [], [], []
    for (i, j), sign in zip(order, signs):
        rows.append(perm[i])
        ends.append(perm[j])
        unit_signs.append(sgn[i] * sgn[j])
        # sigma_k sends e_up to sign * e_lo and e_lo to -sign * e_up
        lo, up = min(i, j), max(i, j)
        perm[lo], perm[up] = perm[up], perm[lo]
        sgn[lo], sgn[up] = -sign * sgn[up], sign * sgn[lo]
    return _Walk(rows, ends, unit_signs, perm, sgn)


def _solve_flips(unsigned: _Walk, target: np.ndarray) -> tuple[int, ...]:
    """Generators to flip so that the generator product equals ``target``:
    x = c P mod 2, with P the tree paths (``roots._tree_paths``) of the
    unflipped walk's edges (a_k, b_k) (see the module docstring). Edges that
    form no tree make the sign system singular, c of odd weight inconsistent."""
    n1 = target.shape[0]
    entries = target[unsigned.perm, range(n1)]
    if np.count_nonzero(target) != n1 or not np.all(np.abs(entries) == 1):
        raise CalibrationError(
            f"generator product is not a signed cyclic shift at size {n1}")
    paths = _tree_paths(n1, list(zip(unsigned.rows, unsigned.ends)))
    if paths is None:
        raise CalibrationError(f"sign system is singular at size {n1}")
    c = np.zeros(n1, dtype=np.int64)
    c[unsigned.perm] = entries != unsigned.sgn
    if c.sum() % 2:
        raise CalibrationError(f"sign system is inconsistent at size {n1}")
    return tuple(np.flatnonzero(c @ paths % 2).tolist())


def _section_slots(walk: _Walk) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and signs of the entries where t enters the section.

    The walk must end at the cyclic shift, which gives each row's nonzero
    column there (see the module docstring).
    """
    n1 = len(walk.perm)
    earlier_ends = set()
    for a, b in zip(walk.rows, walk.ends):
        if a in earlier_ends:
            raise CalibrationError(
                f"section factors do not multiply out to single slots at "
                f"size {n1}"
            )
        earlier_ends.add(b)
    col = [0] * n1  # column of each row's nonzero in the shift
    for c, r in enumerate(walk.perm):
        col[r] = c
    cols = [col[b] for b in walk.ends]
    if len(set(zip(walk.rows, cols))) != len(cols):
        raise CalibrationError(f"two section slots coincide at size {n1}")
    slot_signs = [u * walk.sgn[c] for u, c in zip(walk.unit_signs, cols)]
    slots = tuple(np.array(x, dtype=np.int64) for x in (walk.rows, cols, slot_signs))
    for arr in slots:
        arr.setflags(write=False)
    return slots


def _relabeling(slots, corner: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """chi sources and signs read off the slots of the section, proved exact.

    ``corner`` is the shift's entry C[n, 0]. The slot at (r, c) closes a
    cycle of length L+1, L = (r - c) mod (n+1), which puts its coordinate,
    signed, into e_{L+1}; its path c -> ... -> r must pass the interval
    certificate of the module docstring.
    """
    n1 = len(slots[0]) + 1
    sources, signs, covered = [-1] * (n1 - 1), [0] * (n1 - 1), set()
    for k, (r, c, s) in enumerate(zip(*(x.tolist() for x in slots))):
        L = (r - c) % n1
        if L == n1 - 1 or sources[L] >= 0:
            raise CalibrationError(f"relabeling is not a bijection at size {n1}")
        sources[L] = k
        signs[L] = (-1) ** L * s * (corner if r < c else 1)
        covered.update((c + i) % n1 for i in range(L))
    free = [u for u in range(n1) if u not in covered]
    if not free:
        raise CalibrationError(f"the slots cover every edge of the shift at size {n1}")
    # renumbered with the free edge at the corner, slot k covers [cols[k], rows[k]]
    rows, cols = ((x - free[0] - 1) % n1 for x in slots[:2])
    if cols.max() > rows.min():
        raise CalibrationError(f"two slots close disjoint cycles at size {n1}")
    return tuple(sources), tuple(signs)


def calibrate(n_plus_1: int) -> SectionCalibration:
    """Choose generator signs and derive the section and chi relabeling.

    The root order is the head block followed by the tail block, both in
    table order. The signs solve a GF(2) system on the generators' spanning
    tree, and the slots and relabeling follow from them in integer
    arithmetic (see the module docstring), so the same size always yields
    the same calibration. CalibrationError is raised if the unflipped
    product is not the shift up to signs, if the system is singular or
    inconsistent, if the signed product differs from the shift in any entry,
    if the section does not have one slot per coordinate, if the slots do
    not relabel onto the coefficients, or if their paths cover the shift or
    two are disjoint.
    """
    order = tuple(table_supported_roots(n_plus_1, "head")
                  + table_supported_roots(n_plus_1, "tail"))
    n = n_plus_1 - 1
    if len(order) != n:
        raise CalibrationError(f"simple system has {len(order)} roots, expected {n}")
    target = cyclic_for(n_plus_1)

    flips = _solve_flips(_walk(order, [1] * n, n_plus_1), target)
    signs = tuple(-1 if k in flips else 1 for k in range(n))
    walk = _walk(order, signs, n_plus_1)
    if walk.sgn != target[walk.perm, range(n_plus_1)].tolist():
        raise CalibrationError(
            f"signed generator product differs from the shift at size {n_plus_1}")
    slots = _section_slots(walk)
    sources, chi_signs = _relabeling(slots, int(target[n, 0]))
    return SectionCalibration(n_plus_1, order, signs, sources, chi_signs, *slots)


def steinberg_section(cal: SectionCalibration, t) -> np.ndarray:
    """Section value s(t) = prod_k (I + t_k E_{root_k}) sigma_k.

    Built as the cyclic shift plus each signed t_k in its calibrated slot,
    which equals the product exactly (see the module docstring). A stack of
    coordinates (S, n) gives the stack (S, n+1, n+1) of section values.
    Real t gives a float64 value in SL(n+1, R), complex t a complex128 one.
    """
    t = _working(t)
    n1 = cal.n_plus_1
    if t.ndim not in (1, 2) or t.shape[-1] != n1 - 1:
        raise ValueError(f"expected {n1 - 1} coordinates, got shape {t.shape}")
    M = np.empty(t.shape[:-1] + (n1, n1), dtype=t.dtype)
    M[...] = cal.shift
    M[..., cal.slot_rows, cal.slot_cols] += cal.slot_signs * t
    return M


@lru_cache(maxsize=256)
def _alternating_signs(n1: int) -> np.ndarray:
    """(-1)^k for k = 1..n1-1, built once per size and read-only."""
    signs = (-1) ** np.arange(1, n1)
    signs.setflags(write=False)
    return signs


def _signed_coeffs(coeffs) -> np.ndarray:
    """e_k = (-1)^k coeffs[n+1-k], k = 1..n, of increasing-order coefficients."""
    n1 = coeffs.shape[-1] - 1
    return coeffs[..., n1 - 1:0:-1] * _alternating_signs(n1)


def chi(M) -> np.ndarray:
    """Signed characteristic coefficients (e_1, ..., e_n).

    With char poly mu^{n+1} - e_1 mu^n + e_2 mu^{n-1} - ..., this returns the
    e_k for k = 1..n, leaving out e_{n+1} which is pinned by det = 1. A
    stack (S, n+1, n+1) gives one row (S, n). A determinant away from 1
    triggers a warning, not an error, since chi is still well defined; a
    stack warns once per such member, in member order.
    """
    coeffs = char_poly(M)
    n1 = coeffs.shape[-1] - 1
    det = (-1) ** n1 * coeffs[..., 0]
    bad = _modulus(det - 1.0) > DEFAULT_TOL.bound(np.fmax(1.0, _modulus(det)))
    for d in np.atleast_1d(det)[np.atleast_1d(bad)]:
        warnings.warn(
            f"chi applied to a matrix with determinant {d}, expected 1",
            stacklevel=2,
        )
    return _signed_coeffs(coeffs)


def reconstruct_from_chi(cal: SectionCalibration, e) -> np.ndarray:
    """The unique section value with the given signed coefficients: float64
    for real e, complex128 for complex e."""
    return steinberg_section(cal, cal.t_of_chi(e))


@dataclass
class CrossSectionReport:
    """Outcome of the two-sided section/monodromy comparison."""

    n_plus_1: int
    samples: int
    section_residual: float
    monodromy_residual: float


def cross_section_check(cal: SectionCalibration, samples: int = 100,
                        seed: int = 0) -> CrossSectionReport:
    """Sample both directions of the section/monodromy correspondence.

    Section direction: random t, the value s(t) must sit inside the
    monodromy support pattern and survive the chi roundtrip. Monodromy
    direction: random constrained Stokes coefficients, M0 = q1 q2 P must
    equal the section at the t read off its slots, exactly: M0 is the shift
    plus its slot entries. Slot signs and relabeling are left to the section
    direction and to ``calibrate``'s integer proof. The samples are one draw,
    checked in row blocks, so the matrix stacks do not grow with their number.
    """
    return _cross_section_check(cal, _stokes_layout(cal.n_plus_1), samples, seed)


def _cross_section_check(cal, layout: _Layout, samples, seed) -> CrossSectionReport:
    """:func:`cross_section_check` over the size's layout."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    n1 = cal.n_plus_1
    n = n1 - 1
    # one draw split by columns: n real parts, n imaginary, Stokes coefficients
    z = rng.normal(size=(samples, 2 * n + layout.width(real=False)))
    outside = ~layout.support

    def section(a, b):
        M = steinberg_section(cal, z[a:b, :n] + 1j * z[a:b, n:2 * n])
        off = np.abs(M[:, outside]).max(axis=1, initial=0.0)
        off /= np.fmax(1.0, np.abs(M).max(axis=(1, 2)))
        rt = rel_residual(reconstruct_from_chi(cal, chi(M)), M)
        return nan_max(0.0, *off.tolist(), rt)

    def monodromy(a, b):
        M0 = build_m0(_stokes_from_normals(layout, z[a:b, 2 * n:], False, 1.0)).matrix
        t0 = cal.slot_signs * M0[:, cal.slot_rows, cal.slot_cols]
        return rel_residual(steinberg_section(cal, t0), M0)

    worst_section = _in_chunks(samples, n1 * n1, section)
    worst_monodromy = _in_chunks(samples, n1 * n1, monodromy)
    return CrossSectionReport(n1, samples, worst_section, worst_monodromy)


def regular_centralizer_dim(M) -> int:
    """Dimension of the commutant of M, via the Sylvester operator's nullity:
    the number of its singular values below 1e-9 * max(1, largest).

    Regular elements of sl(n+1) in the group sense have commutant dimension
    exactly n+1.
    """
    M = np.asarray(M, dtype=complex)
    n1 = M.shape[0]
    L = np.kron(M, np.eye(n1)) - np.kron(np.eye(n1), M.T)
    s = np.linalg.svd(L, compute_uv=False)
    cutoff = 1e-9 * max(1.0, float(s[0]))
    return int(np.sum(s < cutoff))
