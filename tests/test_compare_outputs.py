"""`tools/compare_outputs.py` reports SAME only for byte-identical output.

The invocations are stubbed: no checkout is run.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stub(tool, outputs):
    """A `run` that returns outputs[checkout name] for every invocation."""
    return lambda checkout, args: tool.Output(*outputs[checkout.name])


CSV = b"level,path,energy\n1,analytic,4.93480220054\n"


def test_one_byte_difference_is_diff(tool):
    changed = CSV[:-2] + b"5\n"
    run = _stub(tool, {"parent": (0, CSV, b""), "change": (0, changed, b"")})
    lines = list(tool.compare(Path("parent"), Path("change"), run=run))
    assert len(lines) == len(tool.INVOCATIONS) == 57
    assert all(line.startswith(f"DIFF stdout at byte {len(CSV) - 2} ") for line in lines)


def test_identical_output_is_same(tool):
    run = _stub(tool, {"parent": (0, CSV, b"warn\n"), "change": (0, CSV, b"warn\n")})
    lines = list(tool.compare(Path("parent"), Path("change"), run=run))
    assert lines[0] == "SAME: qnodes " + " ".join(tool.INVOCATIONS[0])
    assert all(line.startswith("SAME: ") for line in lines)


@pytest.mark.parametrize(
    "change, verdict",
    [
        ((3, CSV, b""), "DIFF exit code 0 -> 3"),
        ((0, CSV, b"x"), "DIFF stderr at byte 0 (0 -> 1 bytes)"),
        ((0, CSV + b"\n", b""), f"DIFF stdout at byte {len(CSV)} ({len(CSV)} -> {len(CSV) + 1} bytes)"),
    ],
    ids=["exit-code", "stderr", "appended-byte"],
)
def test_describe_names_what_differs(tool, change, verdict):
    assert tool.describe(tool.Output(0, CSV, b""), tool.Output(*change)) == verdict
