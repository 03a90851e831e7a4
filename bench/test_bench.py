"""Tests of the benchmark itself.  Run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_gamma_inputs_are_a_function_of_the_seed():
    a = workloads.gamma_queries(3)
    assert a == workloads.gamma_queries(3)
    assert a != workloads.gamma_queries(4)
    sizes = [n for n, _ in a]
    assert all(sizes.count(n) == workloads.GAMMA_PER_SIZE
               for n in workloads.GAMMA_SIZES)
    assert len({entropy for _, entropy in a}) == len(a)


def test_verify_inputs_are_a_function_of_the_seed():
    w = workloads.WORKLOADS["verify_mid"](9)
    assert w.argv == ["verify", "--n", "11..16", "--samples", "50",
                      "--seed", "9", "--format", "json"]
    assert w.warm_argv[:3] == ["verify", "--n", "11"]
    assert w.argv == workloads.WORKLOADS["verify_mid"](9).argv


def test_spec_lists_exactly_the_emitted_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_names()
    tracer_names = set(layertrace.Tracer().metrics(1)) | {n for n, _ in run.TRACE_OVERHEAD}
    assert tracer_names == {n for n, _ in run.per_layer_names()}


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_of_the_spec(trace, capsys):
    code = run.main(["--workload", "verify_small", "--seed", "2",
                     "--seconds", "0.01", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in SPEC[kind]]
    if trace:
        assert result["metrics"]["steinberg.calibrate.repeat_ratio"]["value"] == 2.0
        assert result["metrics"]["linalg.eigenvalues.calls"]["value"] == 0


def test_import_reads_no_cached_bytecode():
    tt = workloads.import_program()
    assert tt.cli.__spec__.cached.startswith(workloads.NO_PYCACHE)
    assert not Path(workloads.NO_PYCACHE).exists()
    assert sys.pycache_prefix != workloads.NO_PYCACHE


def _snapshot():
    mods = {m.__name__: (m, dict(vars(m))) for m in layertrace.program_modules()}
    return mods, dict(mods["ttstokes.verify"][0].SUITES)


def test_uninstall_restores_every_namespace():
    tt = workloads.import_program()
    mods, suites = _snapshot()
    tracer = layertrace.Tracer()
    with tracer:
        assert tt.verify.calibrate is not mods["ttstokes.verify"][1]["calibrate"]
        assert tt.calibrate is tt.steinberg.calibrate is tt.verify.calibrate
        assert tt.verify.SUITES["roots"] is not suites["roots"]
        tt.verify.run_suites([4], samples=2, suites=["steinberg"])
    for name, (mod, before) in mods.items():
        after = vars(mod)
        assert after.keys() == before.keys(), name
        assert all(after[k] is v for k, v in before.items()), name
    assert tt.verify.SUITES.keys() == suites.keys()
    assert all(tt.verify.SUITES[k] is v for k, v in suites.items())
    assert tracer.calls["steinberg.calibrate"] == 1
    assert tracer.suite_wall["steinberg"] > 0


def test_self_time_excludes_traced_children():
    tt = workloads.import_program()
    tracer = layertrace.Tracer()
    with tracer:
        tt.linalg.eigenvalues(tt.linalg.shift_matrix(6))
    assert tracer.calls == {"linalg.eigenvalues": 1, "linalg.char_poly": 1}
    assert 0 < tracer.self_s["linalg.char_poly"]
    assert 0 < tracer.self_s["linalg.eigenvalues"]


def test_output_check_flags_an_exit_code_that_disagrees():
    row = {"suite": "roots", "n_plus_1": 3, "checks": 1, "max_residual": 0.0,
           "passed": True, "note": ""}
    rows = [dict(row, suite=s) for s in layertrace.SUITES]
    text = json.dumps({"payload": {"results": rows}})
    assert workloads.check_verify_output(0, text, [3])[1] == []
    assert workloads.check_verify_output(1, text, [3])[1]
    rows[0]["max_residual"] = 1.0
    assert workloads.check_verify_output(0, json.dumps({"payload": {"results": rows}}),
                                         [3])[1]


def test_a_cell_outside_the_tolerance_is_missed_not_failed():
    rows = [{"max_residual": r, "passed": p} for r, p in
            [(0.0, True), (2e-9, False), (1.0, False), (None, False),
             (float("nan"), False)]]
    assert workloads.count_cells(rows) == (3, 1)
