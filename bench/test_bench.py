"""Self-checks of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

The traced pass must give identical counts on a repeat with the same
seed, and a different seed must change the generated parameters but not
the counts: the counts depend on level ranges and grid sizes only.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from tracing import COUNT_METRICS, PER_LAYER, Tracer, layer_metrics, merge_dumps
from workloads import REGISTERED, ROOT, SRC, WORKLOADS, SweepWorkload, draw_params, run_cli, sweep_operation

sys.path.insert(0, str(SRC))

SEED, OTHER_SEED = 11, 12


def traced_pass(name: str, seed: int, tmp_path) -> tuple[dict, dict]:
    """(count metrics, per-function table) of one traced operation or cycle."""
    workload = WORKLOADS[name]
    params = draw_params(workload, seed)
    if isinstance(workload, SweepWorkload):
        import qnodes

        op = sweep_operation(qnodes, workload, params)
        tracer = Tracer()
        restore = tracer.install()
        try:
            tracer.next_op()
            _, failures, _ = op()
        finally:
            restore()
        assert failures == []
        dump = tracer.dump()
    else:
        out = tmp_path / "child.json"
        dumps = []
        for argv in (c.argv(params) for c in workload.commands):
            code, _, stderr = run_cli(argv, [str(ROOT / "bench" / "cli_child.py"), str(out)])
            assert code == 0, stderr
            dumps.append(json.loads(out.read_text()))
        dump = merge_dumps(dumps)
    metrics, table = layer_metrics(dump)
    return {name: metrics.get(name, 0.0) for name in COUNT_METRICS}, table


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    cache = {}

    def get(name, seed, repeat=0):
        key = (name, seed, repeat)
        if key not in cache:
            cache[key] = traced_pass(name, seed, tmp_path_factory.mktemp("trace"))
        return cache[key]

    return get


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly_for_a_seed(passes, name):
    first, _ = passes(name, SEED)
    second, _ = passes(name, SEED, repeat=1)
    assert first == second


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_other_seed_changes_parameters_not_counts(passes, name):
    workload = WORKLOADS[name]
    assert draw_params(workload, SEED) != draw_params(workload, OTHER_SEED)
    assert passes(name, SEED)[0] == passes(name, OTHER_SEED)[0]


def test_osc_ladder_profile(passes):
    counts, table = passes("osc-ladder", SEED)
    assert counts["oracle.sample_useful_ratio"] == 0.5
    assert counts["grids.derivative.calls_per_moment"] == 2.0
    assert counts["special.oscillator_psi.calls"] == 402
    assert max(table, key=lambda n: table[n]["self_s"]) == "special.oscillator_psi"
    assert counts["eigensolver.solve_lowest.calls"] == 0


def test_ring_eigen_profile(passes):
    counts, table = passes("ring-eigen", SEED)
    assert max(table, key=lambda n: table[n]["self_s"]) == "eigensolver.solve_lowest"
    assert counts["eigensolver.solve_lowest.dim"] == 1024
    assert counts["eigensolver.matrix_bytes"] == 1024 * 1024 * 8
    assert counts["special.oscillator_psi.calls"] == 0


def test_times_are_scaled_by_the_reference_kernel():
    ref = run.REFERENCE_S
    loop = run.Loop(times=[1.0, 3.0, 2.0], refs=[ref, 2 * ref, ref], verified_rows=9)
    metrics = run.loop_metrics([loop])
    assert metrics["op_p50_s"] == 1.5 and metrics["op_p50_wall_s"] == 2.0
    assert metrics["rows_per_s"] == 9 / 4.5 and metrics["rows_per_wall_s"] == 9 / 6.0
    setup = run.setup_metrics([2.0, 4.0, 3.0], [ref, 4 * ref, 2 * ref])
    assert setup == {"setup_s": 1.5, "setup_wall_s": 3.0}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(REGISTERED)
    assert set(REGISTERED) <= set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert spec["paths"] == ["bench"]


@pytest.mark.parametrize("trace, published", [(0, run.END_TO_END), (1, PER_LAYER)])
def test_result_line(trace, published):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ring-eigen", "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(published)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ring-eigen", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
