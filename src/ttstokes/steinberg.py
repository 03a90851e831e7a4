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
the signs s_j depend on the generator signs, not the permutation.

The signs come from a linear solve over GF(2), not a search. Flipping
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
which is exactly the span of a spanning tree's edges. Walked again with the
solved signs, the product must equal C entry for entry.

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
signed bijection from t onto (e_1, ..., e_n). ``calibrate`` checks that,
and checks on random t that cycles through several slots add nothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    char_poly,
    cyclic_for,
    eigenvalues,
    match_multisets,
    max_abs,
    nan_max,
)
from .roots import Root, table_supported_roots
from .stokes import build_m0, monodromy_support, random_stokes_params

__all__ = [
    "CalibrationError",
    "WeylRep",
    "SectionCalibration",
    "CrossSectionReport",
    "UnitaryConjugacyReport",
    "calibrate",
    "generator_product",
    "steinberg_section",
    "chi",
    "reconstruct_from_chi",
    "cross_section_check",
    "regular_centralizer_dim",
    "unitary_conjugacy_check",
]


class CalibrationError(RuntimeError):
    """No sign assignment makes the generator product match the shift."""


@dataclass(frozen=True)
class WeylRep:
    """Signed transposition representing the reflection in one root.

    With indices a < b, the default orientation puts +1 at (a, b) and -1 at
    (b, a); flipping swaps the two signs. Either choice represents the same
    Weyl group element.
    """

    n_plus_1: int
    root: Root
    flipped: bool = False

    def matrix(self) -> np.ndarray:
        i, j = self.root
        a, b = min(i, j), max(i, j)
        S = np.eye(self.n_plus_1)
        S[a, a] = S[b, b] = 0.0
        hi = -1.0 if self.flipped else 1.0
        S[a, b] = hi
        S[b, a] = -hi
        return S


@dataclass(frozen=True)
class SectionCalibration:
    """Calibrated data of the cross-section for one size.

    ``signs[k]`` is +1 for the default generator orientation and -1 for the
    flipped one. ``chi_sources`` and ``chi_signs`` describe the relabeling
    chi(s(t))_k = chi_signs[k] * t[chi_sources[k]]. The section value is
    s(t) = C + sum_k slot_signs[k] * t_k E_{slot_rows[k], slot_cols[k]}
    with C the cyclic shift (see the module docstring). The calibration is
    immutable: the generator matrices in ``sigmas`` and the slot arrays are
    read-only, and they are left out of equality since root order and signs
    determine them.
    """

    n_plus_1: int
    root_order: tuple[Root, ...]
    signs: tuple[int, ...]
    chi_sources: tuple[int, ...]
    chi_signs: tuple[int, ...]
    sigmas: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    slot_rows: np.ndarray = field(repr=False, compare=False)
    slot_cols: np.ndarray = field(repr=False, compare=False)
    slot_signs: np.ndarray = field(repr=False, compare=False)

    @property
    def flips(self) -> tuple[int, ...]:
        return tuple(k for k, s in enumerate(self.signs) if s < 0)

    def chi_of_t(self, t) -> np.ndarray:
        t = np.asarray(t)
        return np.array(self.chi_signs) * t[np.array(self.chi_sources)]

    def t_of_chi(self, e) -> np.ndarray:
        e = np.asarray(e, dtype=complex)
        t = np.zeros(len(e), dtype=complex)
        t[np.array(self.chi_sources)] = np.array(self.chi_signs) * e
        return t


def generator_product(mats, n_plus_1: int) -> np.ndarray:
    """The product of the given generator matrices, left to right."""
    prod = np.eye(n_plus_1)
    for m in mats:
        prod = prod @ m
    return prod


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
    """Generators to flip so that the generator product equals ``target``.

    ``unsigned`` is the walk with every generator in its default
    orientation. Solves sum_k x_k (e_{a_k} + e_{b_k}) = c over GF(2), where
    c marks the indices at which ``target`` and the unflipped product differ
    in sign (see the module docstring).
    """
    n1 = target.shape[0]
    n = len(unsigned.rows)
    entries = target[unsigned.perm, range(n1)]
    if np.count_nonzero(target) != n1 or not np.all(np.abs(entries) == 1):
        raise CalibrationError(
            f"generator product is not a signed cyclic shift at size {n1}"
        )
    # augmented system [A | c], one row per index, one column per generator
    system = np.zeros((n1, n + 1), dtype=np.uint8)
    system[unsigned.perm, n] = entries != unsigned.sgn
    system[unsigned.rows, range(n)] = system[unsigned.ends, range(n)] = 1
    # Gauss-Jordan elimination; XOR is addition over GF(2)
    for col in range(n):
        hits = np.flatnonzero(system[col:, col])
        if len(hits) == 0:
            raise CalibrationError(
                f"sign system is singular at size {n1} (generator {col})"
            )
        p = col + hits[0]
        system[[col, p]] = system[[p, col]]
        rows = np.flatnonzero(system[:, col])
        system[rows[rows != col]] ^= system[col]
    if system[n:, n].any():
        raise CalibrationError(f"sign system is inconsistent at size {n1}")
    return tuple(k for k in range(n) if system[k, n])


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
    """chi sources and signs read off the slots of the section.

    ``corner`` is the shift's entry C[n, 0]. The slot at (r, c) closes a
    cycle of length L+1, L = (r - c) mod (n+1), which puts its coordinate,
    signed, into e_{L+1} (see the module docstring).
    """
    n = len(slots[0])
    sources = [-1] * n
    signs = [0] * n
    for k, (r, c, s) in enumerate(zip(*(x.tolist() for x in slots))):
        L = (r - c) % (n + 1)
        if L == n or sources[L] >= 0:
            raise CalibrationError(f"relabeling is not a bijection at size {n + 1}")
        sources[L] = k
        signs[L] = (-1) ** L * s * (corner if r < c else 1)
    return tuple(sources), tuple(signs)


def calibrate(n_plus_1: int, tol: Tolerance = DEFAULT_TOL) -> SectionCalibration:
    """Choose generator signs and derive the section and chi relabeling.

    The root order is the head block followed by the tail block, both in
    table order. The signs are the unique solution of a GF(2) system, and
    the slots and relabeling follow from them in integer arithmetic (see
    the module docstring), so the same size always yields the same
    calibration. CalibrationError is raised if the unflipped product is not
    the shift up to signs, if the system is singular or inconsistent, if the
    signed product differs from the shift in any entry, if the section does
    not have one slot per coordinate, if the slots do not relabel onto the
    coefficients, or if the relabeling fails on random coefficients.
    """
    head = table_supported_roots(n_plus_1, "head")
    tail = table_supported_roots(n_plus_1, "tail")
    order = tuple(head + tail)
    n = n_plus_1 - 1
    if len(order) != n:
        raise CalibrationError(
            f"simple system has {len(order)} roots, expected {n}"
        )
    target = cyclic_for(n_plus_1)

    flips = _solve_flips(_walk(order, [1] * n, n_plus_1), target)
    signs = tuple(-1 if k in flips else 1 for k in range(n))
    walk = _walk(order, signs, n_plus_1)
    if walk.sgn != target[walk.perm, range(n_plus_1)].tolist():
        raise CalibrationError(
            f"signed generator product differs from the shift at size {n_plus_1}"
        )
    slots = _section_slots(walk)
    sources, chi_signs = _relabeling(slots, int(target[n, 0]))
    sigmas = tuple(
        WeylRep(n_plus_1, order[k], k in flips).matrix() for k in range(n)
    )
    for s in sigmas:
        s.setflags(write=False)
    cal = SectionCalibration(
        n_plus_1, order, signs, sources, chi_signs, sigmas, *slots
    )

    # verify on random coefficients
    rng = np.random.default_rng(0)
    for _ in range(3):
        t = rng.normal(size=n) + 1j * rng.normal(size=n)
        e = chi(steinberg_section(cal, t))
        err = max_abs(e - cal.chi_of_t(t))
        if err > tol.bound(max(1.0, max_abs(t))):
            raise CalibrationError(
                f"relabeling verification failed at size {n_plus_1} "
                f"(residual {err:.3e})"
            )
    return cal


def steinberg_section(cal: SectionCalibration, t) -> np.ndarray:
    """Section value s(t) = prod_k (I + t_k E_{root_k}) sigma_k.

    Built as the cyclic shift plus each signed t_k in its calibrated slot,
    which equals the product exactly (see the module docstring).
    """
    t = np.asarray(t, dtype=complex)
    n = cal.n_plus_1 - 1
    if t.shape != (n,):
        raise ValueError(f"expected {n} coordinates, got shape {t.shape}")
    M = cyclic_for(cal.n_plus_1).astype(complex)
    M[cal.slot_rows, cal.slot_cols] += cal.slot_signs * t
    return M


def chi(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Signed characteristic coefficients (e_1, ..., e_n).

    With char poly mu^{n+1} - e_1 mu^n + e_2 mu^{n-1} - ..., this returns the
    e_k for k = 1..n, leaving out e_{n+1} which is pinned by det = 1. A
    determinant away from 1 triggers a warning, not an error, since chi is
    still well defined.
    """
    coeffs = char_poly(M)
    n1 = len(coeffs) - 1
    det = (-1) ** n1 * coeffs[0]
    if abs(det - 1.0) > tol.bound(max(1.0, abs(det))):
        warnings.warn(
            f"chi applied to a matrix with determinant {det}, expected 1",
            stacklevel=2,
        )
    return np.array([(-1) ** k * coeffs[n1 - k] for k in range(1, n1)])


def reconstruct_from_chi(cal: SectionCalibration, e) -> np.ndarray:
    """The unique section value with the given signed coefficients."""
    return steinberg_section(cal, cal.t_of_chi(e))


@dataclass
class CrossSectionReport:
    """Outcome of the two-sided section/monodromy comparison."""

    n_plus_1: int
    samples: int
    section_residual: float
    monodromy_residual: float
    passed: bool


def cross_section_check(
    cal: SectionCalibration,
    samples: int = 100,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> CrossSectionReport:
    """Sample both directions of the section/monodromy correspondence.

    Section direction: random t, the value s(t) must sit inside the
    monodromy support pattern and survive the chi roundtrip. Monodromy
    direction: random constrained Stokes coefficients, the fundamental
    monodromy must be reproduced exactly by the section at its own chi.
    """
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
        back = reconstruct_from_chi(cal, chi(M0))
        worst_monodromy = nan_max(worst_monodromy, max_abs(back - M0) / scale0)
    passed = worst_section <= tol.bound(1.0) * 10 and worst_monodromy <= tol.bound(1.0) * 10
    return CrossSectionReport(n1, samples, worst_section, worst_monodromy, passed)


def regular_centralizer_dim(M, rel_tol: float = 1e-9) -> int:
    """Dimension of the commutant of M, via the Sylvester operator's nullity.

    Regular elements of sl(n+1) in the group sense have commutant dimension
    exactly n+1.
    """
    M = np.asarray(M, dtype=complex)
    n1 = M.shape[0]
    L = np.kron(M, np.eye(n1)) - np.kron(np.eye(n1), M.T)
    s = np.linalg.svd(L, compute_uv=False)
    cutoff = rel_tol * max(1.0, float(s[0]))
    return int(np.sum(s < cutoff))


@dataclass
class UnitaryConjugacyReport:
    n_plus_1: int
    samples: int
    max_residual: float
    passed: bool


def unitary_conjugacy_check(
    n_plus_1: int,
    samples: int = 25,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> UnitaryConjugacyReport:
    """Conjugating a unitary by a suitably aligned non-unitary stays unitary.

    Construction: k1 = U D U* is unitary with distinct unimodular spectrum;
    g = V U diag(r) U* with V unitary and r positive non-unit moduli shares
    k1's eigenbasis up to V, so g k1 g^{-1} = V k1 V* must again be unitary
    with the same spectrum. Both facts are verified numerically.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        Z = rng.normal(size=(n_plus_1, n_plus_1)) + 1j * rng.normal(
            size=(n_plus_1, n_plus_1)
        )
        U, _ = np.linalg.qr(Z)
        # distinct angles, separated by construction
        base = np.sort(rng.uniform(0, 2 * np.pi, size=n_plus_1))
        angles = base + np.arange(n_plus_1) * 1e-2
        D = np.diag(np.exp(1j * angles))
        k1 = U @ D @ U.conj().T

        Z2 = rng.normal(size=(n_plus_1, n_plus_1)) + 1j * rng.normal(
            size=(n_plus_1, n_plus_1)
        )
        V, _ = np.linalg.qr(Z2)
        r = rng.uniform(0.5, 2.0, size=n_plus_1)
        g = V @ U @ np.diag(r) @ U.conj().T
        k2 = g @ k1 @ np.linalg.inv(g)

        unit_res = max_abs(k2 @ k2.conj().T - np.eye(n_plus_1))
        spec_res = match_multisets(
            eigenvalues(k2, Tolerance(1e-7, 1e-7)),
            np.diag(D),
            Tolerance(1e-7, 1e-7),
        )
        worst = nan_max(worst, unit_res, spec_res)
    return UnitaryConjugacyReport(n_plus_1, samples, worst, worst < 1e-8)
