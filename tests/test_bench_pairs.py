"""`tools/bench_pairs.py` runs both checkouts from source: its runs write
no bytecode, and a checkout holding a `__pycache__` is refused before the
first run.  `subprocess.run` is stubbed: no benchmark is run."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
BENCHMARK = {"run_seconds": 1, "end_to_end": [{"name": "op_p50_s", "better": "lower"}]}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def checkouts(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "qnodes").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    return tmp_path / "parent", tmp_path / "change"


@pytest.fixture
def runs(tool, monkeypatch):
    """Stub `subprocess.run`: record each call and write the record a run
    of `bench/run.py` would leave."""
    calls = []

    def run(cmd, cwd, env, **kwargs):
        calls.append((Path(cwd).name, env))
        workload, seed = cmd[cmd.index("--workload") + 1], cmd[cmd.index("--seed") + 1]
        out = Path(cwd) / ".bench_out"
        out.mkdir(exist_ok=True)
        record = {"correct": True, "attempted": 1, "failed": 0, "environment": {},
                  "metrics": {"op_p50_s": {"value": 0.02 if Path(cwd).name == "change" else 0.03}}}
        (out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(tool.subprocess, "run", run)
    # platform.platform() runs a command of its own
    monkeypatch.setattr(tool.platform, "platform", lambda: "stub")
    return calls


def _main(tool, parent, change, out):
    return tool.main(["--parent", str(parent), "--change", str(change), "--workload", "osc-ladder",
                      "--seeds", "1-2", "--out", str(out)])


def test_runs_write_no_bytecode(tool, checkouts, runs, tmp_path):
    assert _main(tool, *checkouts, tmp_path / "bench.json") == 0
    assert [side for side, _ in runs] == ["parent", "change", "change", "parent"]
    assert all(env["PYTHONDONTWRITEBYTECODE"] == "1" for _, env in runs)
    result = json.loads((tmp_path / "bench.json").read_text())
    summary = result["workloads"]["osc-ladder"]["summary"]
    assert summary["op_p50_s"]["change_wins"] == 2


@pytest.mark.parametrize("side", ["parent", "change"])
def test_checkout_holding_bytecode_is_refused(tool, checkouts, runs, tmp_path, side):
    cache = tmp_path / side / "src" / "qnodes" / "__pycache__"
    cache.mkdir()
    (cache / "grids.cpython-311.pyc").write_bytes(b"")
    with pytest.raises(SystemExit, match=f"{side} checkout .* holds bytecode caches"):
        _main(tool, *checkouts, tmp_path / "bench.json")
    assert runs == []


def test_git_directory_is_not_searched(tool, tmp_path):
    (tmp_path / ".git" / "hooks" / "__pycache__").mkdir(parents=True)
    assert tool.bytecode_caches(tmp_path) == []
