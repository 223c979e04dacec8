"""Byte-for-byte comparison of `qnodes` output between two checkouts.

    python3 tools/compare_outputs.py --parent DIR --change DIR

Runs each invocation in `INVOCATIONS` once per checkout, as
`python -m qnodes.cli ...` with that checkout's `src/` on PYTHONPATH, and
prints one line per invocation: SAME when stdout, stderr and the exit
code are identical, DIFF (with the first differing stream and byte
offset) otherwise.  Exits 0 when every invocation is SAME, 1 otherwise.
A change that must not move any output runs this against its parent.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

ALL_PATHS = ["--paths", "analytic,oracle,eigen"]
# a representable box energy scale of 1e307 at which E_2 overflows
OVERFLOW_BOX = ["--system", "box", "--hbar", "1e19", "--param", "a=1e-90", "--param", "m=1e-89",
                "--levels", "1:3"]

INVOCATIONS: tuple[tuple[str, ...], ...] = tuple(
    tuple(args)
    for args in (
        ["sweep", "--system", "oscillator", "--levels", "0:200", "--paths", "analytic,oracle"],
        ["sweep", "--system", "oscillator", "--levels", "0:40", *ALL_PATHS],
        ["sweep", "--system", "box", "--levels", "1:40", *ALL_PATHS],
        ["sweep", "--system", "ring", "--levels", "-10:10", *ALL_PATHS],
        ["sweep", "--system", "box", "--levels", "1:40", *ALL_PATHS, "--format", "json"],
        ["sweep", "--system", "oscillator", "--levels", "0:60", "--param", "m=1.7",
         "--param", "omega=0.6", *ALL_PATHS],
        ["nodes", "--system", "oscillator", "--levels", "0:30"],
        ["verify", "--system", "ring", "--levels", "-10:10", *ALL_PATHS, "--tol", "1e-3"],
        ["verify", "--system", "ring", "--levels", "-10:10", *ALL_PATHS, "--tol", "1e-3",
         "--inject-corruption"],
        ["eigensolve", "--system", "box", "--k", "6"],
        ["nodes", "--system", "ring", "--levels", "-3:3"],
        ["verify", "--system", "box", "--levels", "1:3", "--inject-corruption"],
        ["nodes", "--system", "box", "--levels", "1:100"],
        ["nodes", "--system", "ring", "--levels", "-20:20"],
        ["eigensolve", "--system", "box", "--hbar", "1e100", "--param", "m=1e-107", "--k", "3"],
        ["verify", *OVERFLOW_BOX, *ALL_PATHS],
        ["sweep", *OVERFLOW_BOX],
        # an oscillator grid too coarse for the top levels
        ["verify", "--system", "oscillator", "--levels", "0:200", "--grid-points", "473"],
        # ring states that alias on their grid: the half-band guard exits 3
        ["sweep", "--system", "ring", "--levels", "8:10", "--paths", "oracle", "--grid-points", "16"],
        ["sweep", "--system", "ring", "--levels", "300:300", "--paths", "eigen", "--grid-points",
         "1024"],
        # level ranges that fill more than one stack of samples
        ["sweep", "--system", "box", "--levels", "1:150", "--paths", "analytic,oracle"],
        ["sweep", "--system", "oscillator", "--levels", "0:200", "--paths", "analytic,oracle",
         "--format", "json"],
        # a ring sweep whose eigen solve holds three levels: m = 0 is the exact constant
        ["sweep", "--system", "ring", "--levels", "-1:1", *ALL_PATHS],
        # a grid above the dense eigensolve's point limit
        ["eigensolve", "--system", "box", "--k", "6", "--grid-points", "20001"],
        # row shapes the column code builds: one path (no disagreement, `na`),
        # two paths without the closed forms (JSON floats), and the bench's
        # `osc-ladder` operation as a command
        ["sweep", "--system", "ring", "--levels", "-10:10", "--paths", "analytic"],
        ["sweep", "--system", "box", "--levels", "1:20", "--paths", "oracle,eigen",
         "--format", "json"],
        ["verify", "--system", "oscillator", "--levels", "0:200"],
        # three-path verify at the default --tol 1e-6
        ["verify", "--system", "box", "--levels", "1:100", *ALL_PATHS],
        ["verify", "--system", "oscillator", "--levels", "0:40", *ALL_PATHS],
        ["verify", "--system", "ring", "--levels", "-20:20", *ALL_PATHS],
        # the box oracle's sine and cosine series, and box eigenvectors to level 200
        ["sweep", "--system", "box", "--levels", "1:100", *ALL_PATHS],
        ["verify", "--system", "box", "--levels", "1:200", "--paths", "analytic,eigen",
         "--tol", "1e-1", "--grid-points", "2001"],
        # oscillator eigen residuals on a default grid, and a grid too
        # coarse for the levels, which the moments' guards reject
        ["eigensolve", "--system", "oscillator", "--k", "21"],
        ["eigensolve", "--system", "oscillator", "--k", "65", "--grid-points", "65"],
        # a printed ring cos state (slot k - 1 of an even k) too fine for its
        # grid, and the eigen m = 0 row on a grid that is not 2^a 3^b
        ["eigensolve", "--system", "ring", "--k", "10", "--grid-points", "16"],
        ["sweep", "--system", "ring", "--levels", "-2:2", "--paths", "oracle,eigen",
         "--grid-points", "1023"],
        # the smallest box grid (5 points), one grid for all three paths, and
        # the oracle rows of the benchmark's cold-start ring sweep
        ["sweep", "--system", "box", "--levels", "1:1", *ALL_PATHS],
        ["sweep", "--system", "ring", "--levels", "-3:3", "--paths", "analytic,oracle"],
        # the largest box and open-grid blocks the default grids solve, a
        # mid-size open-grid block, and the first oscillator eigen grid above
        # the point limit
        ["eigensolve", "--system", "box", "--k", "1023"],
        ["eigensolve", "--system", "oscillator", "--k", "1091"],
        ["eigensolve", "--system", "oscillator", "--k", "453"],
        ["eigensolve", "--system", "oscillator", "--k", "1092"],
        # the ring's band message at level 4, and box level 8 at half the Nyquist
        # wavenumber of 16 intervals, whose samples fail the band guard
        ["sweep", "--system", "ring", "--levels", "0:5", "--paths", "oracle", "--grid-points",
         "12"],
        ["verify", "--system", "box", "--levels", "1:12", *ALL_PATHS, "--grid-points", "17"],
        # an oscillator level past the ladder's limit, named after the levels below it
        ["verify", "--system", "oscillator", "--levels", "195:205"],
        # one coarse box state on each path: the moments' guards come before the
        # node count, on samples as on eigenstates
        ["sweep", "--system", "box", "--levels", "25:25", "--grid-points", "51", "--paths",
         "oracle"],
        ["sweep", "--system", "box", "--levels", "25:25", "--grid-points", "51", "--paths",
         "eigen"],
        ["eigensolve", "--system", "box", "--k", "25", "--grid-points", "51"],
        # 33 stacks of samples on one grid, the sweep the allocator policy helps most
        ["verify", "--system", "box", "--levels", "1:1023", "--paths", "analytic,oracle"],
        # band guards that fire inside a stack both the oracle and the eigen path
        # take: the sweep's driver names the first failing level across paths
        ["sweep", "--system", "box", "--levels", "1:150", "--paths", "oracle,eigen",
         "--grid-points", "257"],
        ["sweep", "--system", "oscillator", "--levels", "0:60", "--paths", "oracle,eigen",
         "--grid-points", "101"],
        # ring rows in full float repr: CSV rounds to 12 digits
        ["sweep", "--system", "ring", "--levels=-20:20", *ALL_PATHS, "--format", "json"],
        # the last bits of the box and ring position series at the point limits
        # (2049 box points, 2048 ring points)
        ["sweep", "--system", "box", "--levels", "1:1023", "--paths", "analytic,oracle",
         "--format", "json"],
        ["sweep", "--system", "ring", "--levels=-511:511", *ALL_PATHS, "--format", "json"],
        # the messages each system's spec declares: the box's and the
        # oscillator's least level, and the ring's `--param` keys
        ["sweep", "--system", "box", "--levels", "0:2"],
        ["sweep", "--system", "oscillator", "--levels=-1:1"],
        ["sweep", "--system", "ring", "--levels", "0:1", "--param", "a=2"],
    )
)


class Output(NamedTuple):
    """What one invocation printed, and its exit code."""

    code: int
    stdout: bytes
    stderr: bytes


def run_invocation(checkout: Path, args: tuple[str, ...]) -> Output:
    """Run `qnodes` from `checkout`'s source tree with `args`."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qnodes.cli", *args], cwd=checkout, env=env, capture_output=True
    )
    return Output(proc.returncode, proc.stdout, proc.stderr)


def first_difference(a: bytes, b: bytes) -> int:
    """Offset of the first byte where `a` and `b` differ (the shorter
    length when one is a prefix of the other)."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def describe(parent: Output, change: Output) -> str:
    """'SAME', or 'DIFF' naming what differs first."""
    if parent.code != change.code:
        return f"DIFF exit code {parent.code} -> {change.code}"
    for stream in ("stdout", "stderr"):
        a, b = getattr(parent, stream), getattr(change, stream)
        if a != b:
            return f"DIFF {stream} at byte {first_difference(a, b)} ({len(a)} -> {len(b)} bytes)"
    return "SAME"


def compare(
    parent: Path, change: Path, run: Callable[[Path, tuple[str, ...]], Output] = run_invocation
) -> Iterator[str]:
    """Yield one 'SAME: ...' or 'DIFF ...: ...' line per invocation."""
    for args in INVOCATIONS:
        verdict = describe(run(parent, args), run(change, args))
        yield f"{verdict}: qnodes {' '.join(args)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    args = parser.parse_args(argv)
    same = True
    for line in compare(args.parent.resolve(), args.change.resolve()):
        print(line, flush=True)
        same = same and line.startswith("SAME")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
