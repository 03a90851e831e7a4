"""Hand-transcribed reference data for sizes 4 and 5.

Everything in this module was written down from independent closed-form
computations before the algorithmic modules existed. Tests and the command
line's ``golden`` command treat these as golden fixtures; no algorithmic
module calls into here.

For size 4 the two Stokes factors carry parameters (s1, s2) and the
fundamental monodromy has three free entries (x10, x13, x23). For size 5 the
parameters are again (s1, s2) with four monodromy entries (x10, x20, x24,
x34). The ``*_display`` builders return the full matrix given those entries.
"""

from __future__ import annotations

import numpy as np

from .linalg import elementary

# ---------------------------------------------------------------------------
# size 4
# ---------------------------------------------------------------------------

def stokes_q1_4(s1: complex) -> np.ndarray:
    """First Stokes factor: unipotent, supported on roots (1,0) and (2,3)."""
    return np.eye(4, dtype=complex) - s1 * elementary(4, 1, 0) + s1 * elementary(4, 2, 3)


def stokes_q2_4(s2: complex) -> np.ndarray:
    """Second Stokes factor: supported on the single root (1,3)."""
    return np.eye(4, dtype=complex) - s2 * elementary(4, 1, 3)


def monodromy_display_4(x10: complex, x13: complex, x23: complex) -> np.ndarray:
    """Fundamental monodromy shape for size 4."""
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-x13, x10, 1.0, 0.0],
        [x23, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
    ], dtype=complex)


def char_display_4(x10: complex, x13: complex, x23: complex) -> np.ndarray:
    """mu^4 - x10 mu^3 + x13 mu^2 - x23 mu + 1, increasing order."""
    return np.array([1.0, -x23, x13, -x10, 1.0], dtype=complex)


def monodromy_x_of_s_4(s1: complex, s2: complex) -> tuple[complex, complex, complex]:
    """Monodromy entries produced by the (s1, s2) Stokes factors."""
    return (-s1, -s2, -s1)


# cross-section generators for size 4 (signed transpositions; the third one
# carries the flipped sign)
def weyl_generators_4() -> list[np.ndarray]:
    s0 = np.array([
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ], dtype=float)
    s1 = np.array([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ], dtype=float)
    s2 = np.array([
        [0, 0, -1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
    ], dtype=float)
    return [s0, s1, s2]


# section coordinates t = (t1, t2, t3) attached to roots ((1,0), (2,3), (0,2))
# land in the monodromy display at x10 = t1, x23 = -t2, x13 = t3; the minus
# sign comes out of multiplying the generator matrices above and is easy to
# miss, since -t2 covers the same set as t2
SECTION_X_OF_T_4 = {"x10": (0, 1), "x23": (1, -1), "x13": (2, 1)}

# chi(s(t)) = (t1, t3, -t2)
CHI_SOURCES_4 = (0, 2, 1)
CHI_SIGNS_4 = (1, 1, -1)


# polytope data for size 4: gamma = (g0, g1, -g1, -g0), vertices below
POLYTOPE_VERTICES_4 = [
    (-1.0, 1.0, -1.0, 1.0),
    (-1.0, -3.0, 3.0, 1.0),
    (3.0, 1.0, -1.0, -3.0),
]


# ---------------------------------------------------------------------------
# size 5
# ---------------------------------------------------------------------------

def stokes_q1_5(s1: complex, s2: complex) -> np.ndarray:
    """First Stokes factor for size 5, roots (2,0) and (3,4)."""
    return np.eye(5, dtype=complex) + s2 * elementary(5, 2, 0) - s1 * elementary(5, 3, 4)


def stokes_q2_5(s1: complex, s2: complex) -> np.ndarray:
    """Second Stokes factor for size 5, roots (1,0) and (2,4)."""
    return np.eye(5, dtype=complex) + s1 * elementary(5, 1, 0) - s2 * elementary(5, 2, 4)


def monodromy_display_5(
    x10: complex, x20: complex, x24: complex, x34: complex
) -> np.ndarray:
    """Fundamental monodromy shape for size 5."""
    return np.array([
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, x10, 1.0, 0.0, 0.0],
        [x24, x20, 0.0, 1.0, 0.0],
        [x34, 0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0, 0.0],
    ], dtype=complex)


def char_display_5(
    x10: complex, x20: complex, x24: complex, x34: complex
) -> np.ndarray:
    """mu^5 - x10 mu^4 - x20 mu^3 - x24 mu^2 - x34 mu - 1, increasing order."""
    return np.array([-1.0, -x34, -x24, -x20, -x10, 1.0], dtype=complex)


def monodromy_x_of_s_5(
    s1: complex, s2: complex
) -> tuple[complex, complex, complex, complex]:
    """(x10, x20, x24, x34) produced by the (s1, s2) Stokes factors."""
    return (s1, s2, -s2, -s1)


# section coordinates t = (t1..t4) attached to roots ((2,0), (3,4), (0,3), (1,2));
# with the calibrated signs they land in the display at
# x20 = t1, x34 = t2, x24 = -t3, x10 = -t4
SECTION_X_OF_T_5 = {"x20": (0, 1), "x34": (1, 1), "x24": (2, -1), "x10": (3, -1)}

# chi(s(t)) = (-t4, -t1, -t3, -t2)
CHI_SOURCES_5 = (3, 0, 2, 1)
CHI_SIGNS_5 = (-1, -1, -1, -1)
