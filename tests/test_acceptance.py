"""Acceptance gate: one test per criterion, named so the verbose pytest
line doubles as the per-criterion pass/fail record.  Each test also prints
its measured residuals and elapsed time.

Criteria summary:
 1  reference tables for sizes 4 and 5 via the roots command, < 1 s
 2  closed-form tables == argument condition, sizes 3..12, all directions, < 5 s
 3  adapted simple systems certified for sizes 3..12, < 5 s
 4  cross-section calibration, section chi roundtrip, monodromy equal to the
    section at its slots (exact support and shift), sizes 3..10, < 30 s
 5  monodromy spectra match the eigenvalue lists, 100 gamma per size 3..10, < 60 s
 6  closed-form s values == char-poly coefficients at sizes 4 and 5
 7  alcove bijection roundtrips and membership equivalence with boundary points
 8  exponent-data map: corner cases and the defining identity
 9  connection-form symmetry residuals < 1e-10, sizes 3..8
10  unitary conjugacy spectra preserved within 1e-8
11  full verify command over sizes 3..10 exits 0 in under 2 minutes
"""

import json
import time

import numpy as np
import pytest

from ttstokes.cli import main
from ttstokes.linalg import (DEFAULT_TOL, Tolerance, char_poly, eigenvalues,
                             match_multisets, max_abs)
from ttstokes.roots import (
    order_diagram,
    simple_system_check,
    supported_roots,
    table_supported_roots,
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
    shift_vector,
)
from ttstokes.steinberg import (
    calibrate,
    chi,
    cross_section_check,
    steinberg_section,
    unitary_conjugacy_check,
)
from ttstokes.stokes import q_pattern
from ttstokes import reference

from test_roots import REFERENCE_SETS


def _report(num, detail, elapsed):
    print(f"criterion {num}: PASS ({detail}; {elapsed:.2f} s)")


def test_criterion_01_reference_tables(capsys):
    t0 = time.perf_counter()
    for n1 in (4, 5):
        code = main(["roots", "--n", str(n1), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        rows = json.loads(out)["payload"]["rows"]
        assert len(rows) == 2 * n1
        assert all(row["table_agrees"] for row in rows)
        for row in rows:
            if row["ell"] in REFERENCE_SETS[n1]:
                got = {tuple(r) for r in row["roots"]}
                assert got == REFERENCE_SETS[n1][row["ell"]], (n1, row["ell"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "tables for sizes 4 and 5 reproduced", elapsed)


def test_criterion_02_tables_vs_argument_condition():
    t0 = time.perf_counter()
    checked = 0
    for n1 in range(3, 13):
        for which, ell in (("head", 0), ("second", 1), ("tail", n1 - 1)):
            assert (set(table_supported_roots(n1, which))
                    == set(supported_roots(n1, ell)))
            checked += 1
        for ell in range(2 * n1):
            pat = q_pattern(n1, ell)
            mask = np.eye(n1, dtype=bool)
            for i, j in supported_roots(n1, ell):
                mask[i, j] = True
            assert np.array_equal(pat, mask), (n1, ell)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, f"{checked} exact set equalities, sizes 3..12", elapsed)


def test_criterion_03_simple_systems():
    t0 = time.perf_counter()
    for n1 in range(3, 13):
        head_part, tail_part = order_diagram(n1).simple_roots()
        candidate = head_part + tail_part
        assert len(candidate) == n1 - 1
        cert = simple_system_check(n1, candidate)
        assert cert.ok, (n1, cert.reason)
        for coeffs in cert.coefficients.values():
            assert all(c >= 0 for c in coeffs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, "adapted simple systems certified, sizes 3..12", elapsed)


def test_criterion_04_steinberg():
    t0 = time.perf_counter()
    from ttstokes.linalg import cyclic_for
    worst_lin = 0.0
    worst_set = 0.0
    for n1 in range(3, 11):
        cal = calibrate(n1)
        prod = np.eye(n1)
        for s in cal.sigmas:
            prod = prod @ s
        assert np.array_equal(prod, cyclic_for(n1))
        rng = np.random.default_rng(n1)
        for _ in range(10):
            t = rng.normal(size=n1 - 1) + 1j * rng.normal(size=n1 - 1)
            worst_lin = max(worst_lin, max_abs(
                chi(steinberg_section(cal, t)) - cal.chi_of_t(t)))
        rep = cross_section_check(cal, samples=100, seed=n1)
        assert rep.section_residual < 1e-9 and rep.monodromy_residual < 1e-9
        worst_set = max(worst_set, rep.section_residual, rep.monodromy_residual)
    assert worst_lin < 1e-9
    assert worst_set < 1e-8

    # displayed matrices entry-for-entry at sizes 4 and 5
    rng = np.random.default_rng(0)
    cal4 = calibrate(4)
    assert all(np.array_equal(cal4.sigmas[k], reference.weyl_generators_4()[k])
               for k in range(3))
    t = rng.normal(size=3)
    expected = reference.monodromy_display_4(x10=t[0], x13=t[2], x23=-t[1])
    assert max_abs(steinberg_section(cal4, t) - expected) == 0.0
    cal5 = calibrate(5)
    t = rng.normal(size=4)
    expected = reference.monodromy_display_5(x10=-t[3], x20=t[0],
                                             x24=-t[2], x34=t[1])
    assert max_abs(steinberg_section(cal5, t) - expected) == 0.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, f"calibration 3..10, chi residual {worst_lin:.1e}, "
               f"set residual {worst_set:.1e}", elapsed)


def test_criterion_05_spectra_match_eigenvalue_lists():
    t0 = time.perf_counter()
    tol = Tolerance(1e-8, 1e-8)
    worst = 0.0
    for n1 in range(3, 11):
        cal = calibrate(n1)
        rng = np.random.default_rng(1000 + n1)
        for _ in range(100):
            g = random_polytope_gamma(n1, rng)
            lams = eigenvalues_from_gamma(g)
            got = eigenvalues(gamma_to_m0(cal, g).matrix, tol)
            worst = max(worst, match_multisets(got, lams, tol))
            worst = max(worst, float(np.max(np.abs(np.abs(got) - 1.0))))
    assert worst < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(5, f"800 spectra matched, worst residual {worst:.1e}", elapsed)


def test_criterion_06_s_formulas():
    t0 = time.perf_counter()
    worst = 0.0
    for n1 in (4, 5):
        cal = calibrate(n1)
        rng = np.random.default_rng(n1)
        for _ in range(50):
            g = random_polytope_gamma(n1, rng)
            s1, s2 = s_formulas(n1, g)
            if n1 == 4:
                expect = np.array([1.0, s1, -s2, s1, 1.0])
            else:
                expect = np.array([-1.0, s1, s2, -s2, -s1, 1.0])
            got = char_poly(gamma_to_m0(cal, g).matrix)
            worst = max(worst, max_abs(got - expect))
    assert worst < 1e-10
    for n1 in (4, 5):
        s1, s2 = s_formulas(n1, GammaVector.zero(n1))
        assert abs(s1) < 1e-12 and abs(s2) < 1e-12
    s1, s2 = s_formulas(4, GammaVector(4, np.array([-1.0, -3.0, 3.0, 1.0])))
    assert abs(s1 + 4.0) < 1e-12 and abs(s2 + 6.0) < 1e-12
    elapsed = time.perf_counter() - t0
    _report(6, f"coefficient residual {worst:.1e} + corner values", elapsed)


def test_criterion_07_alcove_bijection():
    t0 = time.perf_counter()
    worst_rt = 0.0
    for n1 in range(3, 9):
        rng = np.random.default_rng(n1)
        m = n1 // 2
        for trial in range(100):
            g = random_polytope_gamma(n1, rng)
            p = alcove_coords(g)
            worst_rt = max(worst_rt, float(np.max(np.abs(
                alcove_to_gamma(p).gamma - g.gamma))))
            back = alcove_coords(alcove_to_gamma(p))
            worst_rt = max(worst_rt, float(np.max(np.abs(back.rho - p.rho))))
            assert polytope_contains(g) == p.in_alcove()
        # membership equivalence off the polytope as well
        for trial in range(100):
            free = rng.uniform(-4, 4, size=m)
            gamma = np.zeros(n1)
            gamma[:m] = free
            gamma[n1 - m:] = -free[::-1]
            g = GammaVector(n1, gamma)
            assert polytope_contains(g) == alcove_coords(g).in_alcove()
        # boundary points: tight chain links in the alcove chart
        for trial in range(10):
            u = np.sort(rng.uniform(0, 1, size=m))
            if m > 0:
                if trial % 3 == 0:
                    u[0] = 0.0
                elif trial % 3 == 1:
                    u[-1] = 1.0
                elif m > 1:
                    u[1] = u[0]
            rho = np.zeros(n1)
            if n1 % 2 == 0:
                rho[:m] = u
                rho[m:] = -u[::-1]
            else:
                rho[m + 1:] = u
                rho[:m] = -u[::-1]
            g = alcove_to_gamma(AlcovePoint(n1, rho))
            assert polytope_contains(g)
            assert alcove_coords(g).in_alcove()
    assert worst_rt < 1e-12
    elapsed = time.perf_counter() - t0
    _report(7, f"roundtrip residual {worst_rt:.1e}, membership equivalence "
               "with boundary points", elapsed)


def test_criterion_08_exponent_data():
    t0 = time.perf_counter()
    for n1 in range(3, 9):
        z = gamma_from_k(AsymptoticDataK(n1, np.zeros(n1)))
        assert float(np.max(np.abs(z.gamma))) < 1e-14
    g = gamma_from_k(AsymptoticDataK(4, np.array([0.0, 1.0, 0.0, 1.0])))
    np.testing.assert_allclose(g.gamma, [-1 / 3, 1 / 3, -1 / 3, 1 / 3],
                               atol=1e-13)
    worst = 0.0
    rng = np.random.default_rng(8)
    for _ in range(50):
        n1 = int(rng.integers(3, 9))
        k = np.empty(n1)
        k[0] = rng.uniform(-1, 3)
        for j in range(1, n1 // 2 + 1):
            k[j] = rng.uniform(-1, 3)
            k[(n1 - j) % n1] = k[j]
        a = AsymptoticDataK(n1, k)
        g = gamma_from_k(a)
        for i in range(1, n1):
            lhs = n1 * (k[i] + 1) / a.N
            rhs = 1 + (g.gamma[i] - g.gamma[i - 1]) / 2
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12
    elapsed = time.perf_counter() - t0
    _report(8, f"corner cases exact, identity residual {worst:.1e}", elapsed)


def test_criterion_09_symmetry_identities():
    t0 = time.perf_counter()
    from ttstokes.connections import (
        OmegaHatData,
        TodaField,
        diagonalizer_check,
        omega_hat_symmetry_report,
        symmetry_report,
    )
    worst = 0.0
    for n1 in range(3, 9):
        rng = np.random.default_rng(900 + n1)
        m = n1 // 2
        for trial in range(20):
            w = np.zeros(n1)
            v = np.zeros(n1)
            for i in range(m):
                w[i] = rng.uniform(-1, 1)
                w[n1 - 1 - i] = -w[i]
                v[i] = rng.uniform(-1, 1)
                v[n1 - 1 - i] = -v[i]
            f = TodaField(n1, w, float(np.exp(rng.uniform(-0.5, 0.5))), v)
            rep = symmetry_report(f, zeta_samples=5, seed=trial)
            worst = max(worst, rep.cyclic, rep.anti, rep.reality, rep.conj,
                        rep.real_form)
            drep = diagonalizer_check(f)
            assert drep.pattern_ok
            worst = max(worst, drep.fourier_residual, drep.w_residual,
                        drep.wt_residual, drep.bridge_residual)
            k = np.empty(n1)
            c = np.empty(n1)
            k[0], c[0] = rng.uniform(-0.5, 2), rng.uniform(0.5, 2)
            for j in range(1, m + 1):
                k[j] = rng.uniform(-0.5, 2)
                c[j] = rng.uniform(0.5, 2)
                k[(n1 - j) % n1] = k[j]
                c[(n1 - j) % n1] = c[j]
            d = OmegaHatData(n1, c, k,
                             complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)))
            orep = omega_hat_symmetry_report(d, lambda_samples=5, seed=trial)
            worst = max(worst, orep.cyclic, orep.anti)
    assert worst < 1e-10
    elapsed = time.perf_counter() - t0
    _report(9, f"120 fields per identity family, worst residual {worst:.1e}",
            elapsed)


def test_criterion_10_unitary_conjugacy():
    t0 = time.perf_counter()
    worst = 0.0
    for n1 in (4, 5):
        rep = unitary_conjugacy_check(n1, samples=50, seed=n1)
        assert rep.max_residual < DEFAULT_TOL.bound(1.0)
        worst = max(worst, rep.max_residual)
    assert worst < 1e-8
    elapsed = time.perf_counter() - t0
    _report(10, f"100 conjugacy pairs, worst spectral residual {worst:.1e}",
            elapsed)


def test_criterion_11_verify_command(capsys):
    t0 = time.perf_counter()
    code = main(["verify", "--n", "3..10", "--samples", "50", "--seed", "7"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    assert code == 0, out
    assert "overall: pass" in out
    assert elapsed < 120.0
    _report(11, "verify 3..10 exit 0", elapsed)
