"""Command-line behavior: exit codes, output stability, golden content.

Most tests drive main() in-process for speed; one subprocess test makes
sure the installed console script wiring works.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from ttstokes import cli
from ttstokes.cli import main
from ttstokes.linalg import ConsistencyError, NumericalError
from ttstokes.steinberg import CalibrationError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_error_small_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--n", "2"])
    assert exc.value.code == 2


def test_usage_error_golden_size(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["golden", "--n", "6"])
    assert exc.value.code == 2


def test_usage_error_asymmetric_gamma(capsys):
    code, out, err = run_cli(capsys, "from-gamma", "--n", "4", "--gamma", "1,0,0,0")
    assert code == 2
    assert "gamma" in err


def test_verify_negative_control_tolerance(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "4", "--samples", "1",
                           "--tol", "1e-30")
    assert code == 1
    assert "FAIL" in out


def test_verify_green_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "3..6", "--samples", "5",
                           "--seed", "7")
    assert code == 0
    assert "overall: pass" in out


@pytest.mark.parametrize("command", ["verify", "steinberg"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_usage_error_samples_below_one(capsys, command, samples):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "4", f"--samples={samples}"])
    assert exc.value.code == 2
    assert "argument --samples: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["from-gamma", "--n", "4", "--gamma", "nan,0,0,nan"],
    ["from-gamma", "--n", "4", "--gamma=-inf,0,0,inf"],
    ["from-gamma", "--n", "5", "--gamma-free", "nan,0"],
    ["alcove", "--n", "4", "--rho", "0.25,nan,-0.75,-0.25"],
])
def test_usage_error_non_finite_input(capsys, flags):
    code, out, err = run_cli(capsys, *flags)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("exc_type",
                         [CalibrationError, NumericalError, ConsistencyError])
def test_library_errors_exit_1_with_message(capsys, monkeypatch, exc_type):
    def fail(n1):
        raise exc_type(f"cannot calibrate size {n1}")

    monkeypatch.setattr(cli, "calibrate", fail)
    code, out, err = run_cli(capsys, "steinberg", "--n", "32")
    assert code == 1
    assert out == ""
    assert err == "error: cannot calibrate size 32\n"


def test_verify_json_verdicts_are_booleans(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "3..6", "--suite", "stokes",
                           "--seed", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)["payload"]["results"]
    assert len(rows) == 4
    assert all(type(r["passed"]) is bool for r in rows)
    assert '"passed":"' not in out


# ---------------------------------------------------------------------------
# roots and directions content
# ---------------------------------------------------------------------------

def test_roots_table_4(capsys):
    code, out, _ = run_cli(capsys, "roots", "--n", "4")
    assert code == 0
    assert "ell=0" in out and "(1,0) (2,3)" in out
    assert "(1,3)" in out  # second direction
    assert "MISMATCH" not in out


def test_roots_json_5(capsys):
    code, out, _ = run_cli(capsys, "roots", "--n", "5", "--format", "json")
    assert code == 0
    env = json.loads(out)
    assert env["command"] == "roots"
    assert env["n_plus_1"] == 5
    rows = env["payload"]["rows"]
    assert len(rows) == 10
    assert all(r["table_agrees"] for r in rows)
    assert rows[0]["roots"] == [[2, 0], [3, 4]]
    assert env["residuals"]["table_mismatch_rows"] == 0.0


def test_directions_count(capsys):
    code, out, _ = run_cli(capsys, "directions", "--n", "6", "--format", "json")
    env = json.loads(out)
    assert len(env["payload"]["directions"]) == 12
    assert env["payload"]["directions"][0]["label"] == "1"


# ---------------------------------------------------------------------------
# from-gamma pipeline
# ---------------------------------------------------------------------------

def test_from_gamma_origin_4(capsys):
    code, out, _ = run_cli(capsys, "from-gamma", "--n", "4",
                           "--gamma", "0,0,0,0", "--format", "json")
    assert code == 0
    env = json.loads(out)
    np.testing.assert_allclose(env["payload"]["char_poly_increasing"],
                               [1, 0, 0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(env["payload"]["alcove_rho"],
                               [0.25, 0.75, -0.75, -0.25], atol=1e-12)
    assert env["payload"]["polytope_member"] is True
    assert env["payload"]["warning"] is None
    lam = env["payload"]["eigenvalues"]
    assert len(lam) == 4 and len(lam[0]) == 2  # [re, im] pairs


def test_from_gamma_vertex(capsys):
    # values starting with a minus sign need the --gamma=... form
    code, out, _ = run_cli(capsys, "from-gamma", "--n", "4",
                           "--gamma=-1,-3,3,1", "--format", "json")
    env = json.loads(out)
    np.testing.assert_allclose(env["payload"]["char_poly_increasing"],
                               [1, -4, 6, -4, 1], atol=1e-12)
    np.testing.assert_allclose(env["payload"]["alcove_rho"], np.zeros(4),
                               atol=1e-12)


def test_from_gamma_5_s_consistency(capsys):
    code, out, _ = run_cli(capsys, "from-gamma", "--n", "5",
                           "--gamma", "0,0,0,0,0", "--format", "json")
    env = json.loads(out)
    np.testing.assert_allclose(env["payload"]["s_values"], [0, 0], atol=1e-12)


def test_from_gamma_outside_polytope_still_computes(capsys):
    code, out, _ = run_cli(capsys, "from-gamma", "--n", "4",
                           "--gamma", "4,0,0,-4", "--format", "json")
    assert code == 0
    env = json.loads(out)
    assert env["payload"]["polytope_member"] is False
    assert env["payload"]["warning"] is not None
    assert len(env["payload"]["monodromy"]) == 4


def test_gamma_free_expansion(capsys):
    code, out, _ = run_cli(capsys, "from-gamma", "--n", "5",
                           "--gamma-free", "1,0.5", "--format", "json")
    env = json.loads(out)
    np.testing.assert_allclose(env["payload"]["gamma"],
                               [1, 0.5, 0, -0.5, -1], atol=1e-12)


# ---------------------------------------------------------------------------
# alcove
# ---------------------------------------------------------------------------

def test_alcove_rho_inversion(capsys):
    code, out, _ = run_cli(capsys, "alcove", "--n", "4",
                           "--rho", "0.25,0.75,-0.75,-0.25", "--format", "json")
    env = json.loads(out)
    np.testing.assert_allclose(env["payload"]["gamma"], np.zeros(4), atol=1e-12)
    assert env["payload"]["in_alcove"] is True


def test_alcove_gamma_direction(capsys):
    code, out, _ = run_cli(capsys, "alcove", "--n", "5",
                           "--gamma", "1,0.5,0,-0.5,-1")
    assert code == 0
    assert "in alcove: yes" in out


# ---------------------------------------------------------------------------
# steinberg and golden
# ---------------------------------------------------------------------------

def test_steinberg_command(capsys):
    code, out, _ = run_cli(capsys, "steinberg", "--n", "4", "--format", "json",
                           "--seed", "0")
    assert code == 0
    env = json.loads(out)
    assert env["payload"]["flipped_generators"] == [2]
    assert env["payload"]["chi_sources"] == [0, 2, 1]
    assert env["payload"]["chi_signs"] == [1, 1, -1]
    assert env["payload"]["sigma_product_is_cyclic"] is True
    assert env["residuals"]["section_residual"] < 1e-12


@pytest.mark.parametrize("n1", ["4", "5"])
def test_golden_identities_pass(capsys, n1):
    code, out, _ = run_cli(capsys, "golden", "--n", n1, "--format", "json")
    assert code == 0
    env = json.loads(out)
    idents = env["payload"]["identities"]
    assert len(idents) >= 7
    for name, rec in idents.items():
        assert rec["passed"], name
        assert rec["residual"] < 1e-9


def test_golden_4_table_lines(capsys):
    code, out, _ = run_cli(capsys, "golden", "--n", "4")
    assert code == 0
    assert "FAIL" not in out
    assert "sigma_product_cyclic" in out
    assert "generators_printed" in out


# ---------------------------------------------------------------------------
# determinism and plumbing
# ---------------------------------------------------------------------------

def test_json_byte_stability(capsys):
    _, out1, _ = run_cli(capsys, "golden", "--n", "5", "--format", "json",
                         "--seed", "3")
    _, out2, _ = run_cli(capsys, "golden", "--n", "5", "--format", "json",
                         "--seed", "3")
    assert out1 == out2


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("TTSTOKES_SEED", "11")
    _, out1, _ = run_cli(capsys, "steinberg", "--n", "4", "--format", "json")
    monkeypatch.delenv("TTSTOKES_SEED")
    _, out2, _ = run_cli(capsys, "steinberg", "--n", "4", "--format", "json",
                         "--seed", "11")
    assert out1 == out2


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "4", "--samples", "5",
                           "--suite", "steinberg", "--format", "json")
    assert code == 0
    env = json.loads(out)
    assert all(r["suite"] == "steinberg" for r in env["payload"]["results"])


def test_envelope_shape(capsys):
    _, out, _ = run_cli(capsys, "roots", "--n", "4", "--format", "json")
    env = json.loads(out)
    assert sorted(env) == ["command", "n_plus_1", "payload", "residuals",
                           "version"]
    # %.12g renders integral floats without a decimal point, so 0.0 comes
    # back as int 0; numeric is what the schema promises
    assert all(isinstance(v, (int, float)) for v in env["residuals"].values())


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ttstokes", "directions", "--n", "4",
         "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    env = json.loads(proc.stdout)
    assert env["command"] == "directions"
