"""Paired benchmark runs of two checkouts: the BENCH trajectory file.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload box-3path --workload ring-eigen --seeds 1501-1510 \\
        --out BENCH_5.json

For each workload and seed, `bench/run.py --trace 0` runs once in each
checkout, one after the other; the side that runs first alternates from
seed to seed, so a slow drift of the host speed does not favour one side.
Each run's record is read back from the checkout's `.bench_out/`.  The
output JSON holds every run's metrics, each side's median and quartiles
per metric, the number of pairs the change won, and the run environment
of both sides.  The run length (`run_seconds`) and which direction of
each metric is better (`end_to_end`) come from the change's
BENCHMARK.json.  Standard library only.

Both sides import their own code from source in every run: the runs
write no bytecode, and a checkout that already holds a `__pycache__` is
refused before the first run, because importing cached bytecode sets up
0.02-0.04 s faster and would skew `setup_s` toward that side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'1501-1510' or '1,2,7' (or a mix) -> list of seeds in order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bytecode_caches(checkout: Path) -> list[Path]:
    """The `__pycache__` directories of a checkout, outside `.git`."""
    caches = checkout.rglob("__pycache__")
    return sorted(p for p in caches if ".git" not in p.relative_to(checkout).parts)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of `bench/run.py`, writing no bytecode; returns
    the metrics of its record."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    record = json.loads((checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "seed": seed,
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: m["value"] for name, m in record["metrics"].items()},
        "environment": record["environment"],
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per metric: both sides' spread, and wins of the change per pair."""
    out = {}
    for name, direction in better.items():
        values = {side: [r["metrics"][name] for r in runs[side] if name in r["metrics"]] for side in SIDES}
        if not all(values.values()):
            continue
        pairs = list(zip(values["parent"], values["change"]))
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in pairs)
        entry = {"better": direction, **{side: spread(values[side]) for side in SIDES}}
        entry["change_wins"], entry["pairs"] = wins, len(pairs)
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1501-1510")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        caches = bytecode_caches(checkout)
        if caches:
            raise SystemExit(
                f"{side} checkout {checkout} holds bytecode caches, so it would import faster "
                f"than a checkout without them; remove them first: {' '.join(map(str, caches))}"
            )
    result = {
        "command": ["python3", "tools/bench_pairs.py", *(argv if argv is not None else sys.argv[1:])],
        "seconds": seconds,
        "seeds": args.seeds,
        "order": "parent first on even pair indices, change first on odd ones",
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {"platform": platform.platform(), "machine": platform.machine()},
        "workloads": {},
    }
    for workload in args.workload:
        runs = {side: [] for side in SIDES}
        for index, seed in enumerate(args.seeds):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(checkouts[side], workload, seed, seconds)
                run["first"] = side == order[0]
                runs[side].append(run)
                print(f"{workload} seed {seed} {side:<6} " + "  ".join(
                    f"{k} {v:.6g}" for k, v in run["metrics"].items() if k in better), flush=True)
        result["workloads"][workload] = {
            "summary": summarize(runs, better),
            "environment": {side: runs[side][0]["environment"] for side in SIDES},
            "runs": {side: [{k: v for k, v in r.items() if k != "environment"} for r in runs[side]]
                     for side in SIDES},
        }
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    result["finished_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
