"""Reduced-size smoke test of the benchmark (about half a minute).

    PYTHONPATH=src python3 -m pytest bench/test_smoke.py -q

Runs every workload on its small op list, untraced and traced, and checks
that the result has the contract's shape, that every metric named in
BENCHMARK.json is reported with its unit, and that the correctness gate
passes.  It also checks that the gate catches a wrong report, that op
times are scaled by the speed reference measured during them, and that the
benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import pace
import run
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_run_reports_every_metric(workload, trace):
    res = run.run(workload, seed=3, seconds=0, trace=trace, small=True,
                  root=ROOT)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_gate_fails_an_op_whose_report_changes():
    passes = [{"hash_seed": "1", "ops": [{"op": "x", "ok": True,
                                          "digest": "a"}]},
              {"hash_seed": "2", "ops": [{"op": "x", "ok": True,
                                          "digest": "b"}]}]
    assert run.gate(passes) == (2, 1)


def test_cli_op_fails_on_a_wrong_known_answer():
    _, call, check = workloads.cli_op(
        ["coxeter", "--matrix", str(ROOT / "bench" / "inputs" / "H3.txt")],
        ["system_enumerated"], lambda r: r["order"] == 119)
    assert check(call())[1] is False


def test_pacer_scales_by_the_reference_during_a_span():
    p = pace.Pacer()
    n = pace.NOMINAL_S
    p.starts, p.spent = [1.0, 2.0, 3.0], [n, 2 * n, 4 * n]
    spent, factor = p.split(1.5, 3.5)
    assert spent == pytest.approx(6 * n)
    assert factor == pytest.approx(1 / 3)
    # a span holding no reference call takes the nearest one
    assert p.split(0.0, 0.5)[1] == pytest.approx(1.0)
    assert p.split(2.2, 2.3)[1] == pytest.approx(0.5)
    assert p.split(5.0, 6.0)[1] == pytest.approx(0.25)


def test_worker_digest_ignores_key_order():
    assert worker.digest({"a": 1, "b": 2}) == worker.digest({"b": 2, "a": 1})


def test_refuses_to_run_without_source(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for f in (ROOT / "bench").glob("*.py"):
        (bare / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fields", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
