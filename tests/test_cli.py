"""Command-line behavior: exit codes, output stability, golden content.

Most tests drive main() in-process for speed; one subprocess test makes
sure the installed console script wiring works.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ttstokes import cli, steinberg
from ttstokes.cli import main
from ttstokes.linalg import ConsistencyError, NumericalError
from ttstokes.steinberg import CalibrationError
from ttstokes.verify import run_suites

from test_solutions import wall_gammas


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


@pytest.mark.parametrize("command, flags", [
    ("roots", "[--format {table,json}] --n N"),
    ("directions", "[--format {table,json}] --n N"),
    ("from-gamma", "[--format {table,json}] --n N (--gamma GAMMA | --gamma-free GAMMA_FREE)"),
    ("alcove", "[--format {table,json}] --n N "
               "(--gamma GAMMA | --gamma-free GAMMA_FREE | --rho RHO)"),
    ("steinberg", "[--format {table,json}] [--tol TOL] [--seed SEED] --n N "
                  "[--samples SAMPLES]"),
    ("golden", "[--format {table,json}] [--tol TOL] [--seed SEED] --n {4,5}"),
    ("verify", "[--format {table,json}] [--tol TOL] [--seed SEED] --n SIZES "
               "[--samples SAMPLES] [--suite {connections,roots,solutions,steinberg,stokes}]"),
])
def test_usage_lists_each_commands_flags_in_order(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    assert " ".join(usage.split()) == f"usage: ttstokes {command} [-h] {flags}"


@pytest.mark.parametrize("flag", ["--tol=1e-3", "--seed=4"])
@pytest.mark.parametrize("argv", [
    ["roots", "--n", "4"],
    ["directions", "--n", "4"],
    ["from-gamma", "--n", "4", "--gamma-free", "0.5,0.25"],
    ["alcove", "--n", "4", "--gamma-free", "0.5,0.25"],
])
def test_usage_error_tol_and_seed_on_unsampled_commands(capsys, argv, flag):
    # only steinberg, golden and verify sample or judge residuals
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: ttstokes {argv[0]} [-h]")
    assert f"ttstokes {argv[0]}: error: unrecognized arguments: {flag}" in err


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


@pytest.mark.parametrize("argv", [
    ["steinberg", "--n", "4"],
    ["golden", "--n", "4"],
    ["verify", "--n", "4"],
])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_usage_error_tol_not_positive_and_finite(capsys, argv, tol):
    # inf passes every finite residual and nan fails every one, silently
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--tol={tol}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --tol: must be positive and finite" in err


@pytest.mark.parametrize("argv", [
    ["steinberg", "--n", "4"],
    ["golden", "--n", "4"],
    ["verify", "--n", "4"],
])
def test_usage_error_tol_above_one(capsys, argv):
    # a failed discrete fact scores residual 1, which such a tol would pass
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "5"])
    assert exc.value.code == 2
    assert "argument --tol: must be at most 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["steinberg", "--n", "4"],
    ["golden", "--n", "4"],
    ["verify", "--n", "4", "--samples", "5"],
])
def test_usage_error_negative_seed(capsys, argv):
    # numpy's generators take no negative seed
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--n", "4", "--tol", "abc"], "--tol"),
    (["verify", "--n", "abc"], "--n"),
    (["roots", "--n", "x"], "--n"),
    (["verify", "--n", "4", "--samples", "x"], "--samples"),
    (["steinberg", "--n", "4", "--seed", "x"], "--seed"),
])
def test_usage_error_unparsable_value_names_the_flag_only(capsys, argv, flag):
    # argparse would name the private parsing function ("invalid _tol value")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err
    assert "invalid _" not in err


@pytest.mark.parametrize("argv, flag, entry", [
    (["from-gamma", "--n", "5", "--gamma-free", "a,b"], "--gamma-free", "a"),
    (["from-gamma", "--n", "5", "--gamma-free", "0.5,"], "--gamma-free", ""),
    (["alcove", "--n", "4", "--rho", "1,x,3,4"], "--rho", "x"),
    (["alcove", "--n", "4", "--rho", ",1,2,3"], "--rho", ""),
    (["alcove", "--n", "4", "--gamma", "1,y,2,3"], "--gamma", "y"),
    (["alcove", "--n", "4", "--gamma", "1,,2,3"], "--gamma", ""),
])
def test_usage_error_unparsable_list_entry_names_the_flag_and_entry(capsys, argv, flag,
                                                                    entry):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag}: could not convert string to float: {entry!r}\n"


@pytest.mark.parametrize("flags", [
    ["from-gamma", "--n", "4", "--gamma", "nan,0,0,nan"],
    ["from-gamma", "--n", "4", "--gamma=-inf,0,0,inf"],
    ["from-gamma", "--n", "5", "--gamma-free", "nan,0"],
    ["alcove", "--n", "4", "--rho", "0.25,nan,-0.75,-0.25"],
    # finite, but the polytope and alcove arithmetic would overflow
    ["from-gamma", "--n", "4", "--gamma-free", "1e308,0"],
    ["alcove", "--n", "4", "--rho", "1e308,0,0,-1e308"],
])
@pytest.mark.filterwarnings("error")
def test_usage_error_non_finite_input(capsys, flags):
    code, out, err = run_cli(capsys, *flags)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("flags", [
    ["from-gamma", "--n", "4", "--gamma-free", f"{2.0 ** 1000!r},0"],
    ["alcove", "--n", "4", "--rho", f"{2.0 ** 1000!r},0,0,{-2.0 ** 1000!r}"],
])
@pytest.mark.filterwarnings("error")
def test_largest_accepted_input_runs_clean(capsys, flags):
    code, out, err = run_cli(capsys, *flags)
    assert code == 0
    assert "nan" not in out and err == ""


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


@pytest.mark.parametrize("n1", range(3, 65))
def test_roots_and_directions_agree(capsys, n1):
    _, out, _ = run_cli(capsys, "roots", "--n", str(n1), "--format", "json")
    rows = json.loads(out)["payload"]["rows"]
    _, out, _ = run_cli(capsys, "directions", "--n", str(n1), "--format", "json")
    dirs = json.loads(out)["payload"]["directions"]
    assert len(rows) == len(dirs) == 2 * n1
    for r, d in zip(rows, dirs):
        assert (r["ell"], r["theta"], r["label"]) == (d["ell"], d["theta"], d["label"])
        assert d["root_count"] == len(r["roots"])
    # every root lies on exactly one direction
    assert sum(d["root_count"] for d in dirs) == n1 * (n1 - 1)


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


def test_from_gamma_expands_its_polynomial_once(capsys, monkeypatch):
    from ttstokes import solutions
    calls = []
    for name in ("_gamma_angles", "_gamma_char_coeffs"):
        real = getattr(solutions, name)
        monkeypatch.setattr(solutions, name, lambda *a, _n=name, _f=real, **k:
                            calls.append(_n) or _f(*a, **k))
    code, out, _ = run_cli(capsys, "from-gamma", "--n", "6",
                           "--gamma-free", "0.1,0.2,0.3", "--format", "json")
    assert code == 0
    assert sorted(calls) == ["_gamma_angles", "_gamma_char_coeffs"]


def _centre_and_spaced():
    # gamma = 0 and the evenly spaced free half 0.5 (m, ..., 1) / m
    for n1 in range(35, 41):
        yield pytest.param(n1, ",".join(["0"] * (n1 // 2)), id=f"centre-{n1}")
    for n1 in (36, 38, 39, 40):
        m = n1 // 2
        yield pytest.param(n1, ",".join(repr(0.5 * k / m) for k in range(m, 0, -1)),
                           id=f"spaced-{n1}")


@pytest.mark.parametrize("n1, free", list(_centre_and_spaced()))
def test_from_gamma_builds_the_centre_at_large_sizes(capsys, n1, free):
    code, out, _ = run_cli(capsys, "from-gamma", "--n", str(n1),
                           "--gamma-free", free, "--format", "json")
    assert code == 0
    env = json.loads(out)
    # the coefficients are real by construction: no imaginary part to report
    assert sorted(env["residuals"]) == ["alcove_roundtrip", "char_vs_section"]
    assert env["residuals"]["char_vs_section"] < 1e-12
    assert len(env["payload"]["char_poly_increasing"]) == n1 + 1


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


@pytest.mark.parametrize("n1", range(3, 65))
def test_alcove_and_from_gamma_agree_with_the_polytope_at_the_walls(capsys, n1):
    # gamma's smallest cyclic gap is -2 - d; see test_solutions.wall_gammas
    g, ds = wall_gammas(n1)
    for row, d in zip(g.gamma.tolist(), ds.tolist()):
        text = ",".join(map(repr, row))
        for cmd in ("alcove", "from-gamma"):
            code, out, _ = run_cli(capsys, cmd, "--n", str(n1), f"--gamma={text}",
                                   "--format", "json")
            payload = json.loads(out)["payload"]
            assert code == 0
            assert payload["in_alcove"] == payload["polytope_member"] == (d < 1e-9)


def test_alcove_reads_the_polytope_of_a_rho_on_a_wall(capsys):
    # rho_4 - rho_0 = 2 + 6e-10: outside by 3e-9 on gamma's scale, inside
    # by the slack if it were taken on rho's scale
    code, out, _ = run_cli(capsys, "alcove", "--n", "5",
                           "--rho=-1.0000000003,-0.4,0,0.4,1.0000000003",
                           "--format", "json")
    payload = json.loads(out)["payload"]
    assert code == 0
    assert payload["in_alcove"] is payload["polytope_member"] is False


# ---------------------------------------------------------------------------
# steinberg and golden
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:chi applied to a matrix")
@pytest.mark.parametrize("n1", range(3, 31))
def test_steinberg_exit_code_is_the_verify_cell_verdict(capsys, n1):
    # both judge the same cross-section residuals against the same --tol
    code, _, _ = run_cli(capsys, "steinberg", "--n", str(n1), "--samples", "25",
                         "--seed", "0")
    (cell,) = run_suites([n1], samples=25, seed=0, suites=["steinberg"])
    assert code == (0 if cell.passed else 1), (n1, cell)


def test_a_nan_section_residual_fails_the_steinberg_command(capsys, monkeypatch):
    def nan_section(cal, e):
        return np.full((cal.n_plus_1, cal.n_plus_1), np.nan)

    monkeypatch.setattr(steinberg, "reconstruct_from_chi", nan_section)
    code, out, _ = run_cli(capsys, "steinberg", "--n", "4", "--format", "json")
    assert code == 1
    env = json.loads(out)
    assert env["payload"]["passed"] is False
    assert env["residuals"]["section_residual"] == "nan"


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


def test_env_seed_is_ignored(capsys, monkeypatch):
    monkeypatch.delenv("TTSTOKES_SEED", raising=False)
    _, out1, _ = run_cli(capsys, "steinberg", "--n", "4", "--format", "json")
    monkeypatch.setenv("TTSTOKES_SEED", "11")
    _, out2, _ = run_cli(capsys, "steinberg", "--n", "4", "--format", "json")
    _, out3, _ = run_cli(capsys, "steinberg", "--n", "4", "--format", "json",
                         "--seed", "11")
    assert out1 == out2
    assert out2 != out3


def test_dumps_literal_text():
    obj = {
        2: np.float64(0.1),
        "b": [np.int64(-3), np.bool_(True), np.float32(0.5), -0.0],
        "a": (complex(1, -2), np.complex128(0.25j)),
        "c": np.array([[1.0, np.inf], [-np.inf, np.nan]]),
        "d": {(1, 2): None, 10: "x\"y"},
        "e": np.int32,
    }
    assert cli._dumps(obj) == (
        '{"2":0.1,"a":[[1,-2],[0,0.25]],"b":[-3,true,0.5,0],'
        '"c":[[1,"inf"],["-inf","nan"]],"d":{"(1, 2)":null,"10":"x\\"y"},'
        '"e":"<class \'numpy.int32\'>"}')


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


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_closed_stdout_exits_1_without_traceback(fmt):
    # the reader is gone before the first write, so the write always fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ttstokes", "from-gamma", "--n", "5",
             "--gamma-free", "0.5,0.25", "--format", fmt],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
