"""Test helper: conjugating a unitary by a suitably aligned non-unitary
stays unitary, with the same spectrum.

Acceptance criterion 10 and ``test_steinberg.py`` check this linear-algebra
fact; no program path needs it, so it lives with the tests.
"""

from dataclasses import dataclass

import numpy as np

from ttstokes.linalg import eigenvalues, match_multisets, max_abs, nan_max


@dataclass
class UnitaryConjugacyReport:
    n_plus_1: int
    samples: int
    max_residual: float


def unitary_conjugacy_check(
    n_plus_1: int,
    samples: int = 25,
    seed: int = 0,
) -> UnitaryConjugacyReport:
    """Conjugating a unitary by a suitably aligned non-unitary stays unitary.

    Construction: k1 = U D U* is unitary with distinct unimodular spectrum;
    g = V U diag(r) U* with V unitary and r positive non-unit moduli shares
    k1's eigenbasis up to V, so g k1 g^{-1} = V k1 V* must again be unitary
    with the same spectrum. Both facts are verified numerically.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
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
        spec_res = match_multisets(eigenvalues(k2), np.diag(D))
        worst = nan_max(worst, unit_res, spec_res)
    return UnitaryConjugacyReport(n_plus_1, samples, worst)
