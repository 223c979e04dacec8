"""qnodes benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload's inputs are drawn from
`--seed`; the program receives only the generated configs.  Load is one
closed loop: the next operation starts when the previous one has ended,
and at most one child process runs at a time.  `--trace 0` prints the
end-to-end metrics, whose times are scaled to a fixed host speed (see
REFERENCE_S); `--trace 1` prints the per-layer metrics of a traced run.
The last stdout line is one JSON object
`{"correct", "attempted", "failed", "metrics"}`; the full record (run
environment, sample counts, failures, per-function table, spans) goes to
`.bench_out/`.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from importlib import import_module, metadata
from pathlib import Path
from types import SimpleNamespace

from tracing import PER_LAYER, Tracer, cli_layer_metrics, layer_metrics, merge_dumps
from workloads import (
    ROOT,
    SRC,
    WORKLOADS,
    CliWorkload,
    SweepWorkload,
    check_closed_forms,
    check_eigensolve,
    check_sweep,
    cli_eigen_digits,
    cli_expected,
    draw_params,
    eigen_probe_digits,
    natural_units,
    path_digits,
    run_cli,
    sweep_operation,
)

OUT_DIR = ROOT / ".bench_out"

# Set-ups per run: one per worker interpreter for the in-process
# workloads, one warm-up cycle each for cli-cold.  The median is reported;
# the workers run one after another, so the set-ups spread over the run.
SETUPS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("rows_per_s", "rows/s"),
    ("ok_frac", "fraction"),
    ("oracle_digits", "digits"),
    ("eigen_digits", "digits"),
    ("peak_rss_mb", "MB"),
)

# Units of the record's metrics that are not published.
RECORD_UNITS = {
    **dict(END_TO_END),
    "fail_frac": "fraction",
    "setup_wall_s": "s",
    "op_p50_wall_s": "s",
    "rows_per_wall_s": "rows/s",
    "host_ref_s": "s",
}

# Host-speed correction.  On a shared host the speed of a vCPU drifts by
# up to 1.5x for tens of seconds to minutes at a time, longer than a run,
# so raw wall times of the same code spread by more than the bounds from
# run to run.  A fixed reference kernel runs, untimed, between
# operations.  Each published time is scaled to the host speed at which
# that kernel takes REFERENCE_S; the raw wall times stay in the record as
# the *_wall_* metrics.
REFERENCE_S = 0.020


def reference_kernel() -> float:
    """Wall time of one fixed pass of benchmark-only work, in seconds.

    A three-term recurrence over 2001 points, like the program's own
    workloads a mix of interpreter steps and small numpy array operations.
    It calls no qnodes code, so a change to the program cannot change it.
    Call it only once numpy is imported: set-up times that import.
    """
    import numpy as np

    x = np.linspace(-6.0, 6.0, 2001)
    start = time.perf_counter()
    a, b = np.exp(-0.5 * x * x), np.sqrt(2.0) * x * np.exp(-0.5 * x * x)
    for n in range(1, 1500):
        a, b = b, np.sqrt(2.0 / (n + 1)) * x * b - np.sqrt(n / (n + 1)) * a
        np.sum(b * b)
    return time.perf_counter() - start


def scale(wall: float, ref: float) -> float:
    """`wall` seconds at the host speed where reference_kernel() takes REFERENCE_S."""
    return wall * REFERENCE_S / ref


@dataclass
class Loop:
    """Outcome of a closed loop: per attempted operation, its wall time and
    the mean reference-kernel time just before and after it."""

    times: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    verified_rows: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class Outcome:
    metrics: dict[str, float]
    loops: list[Loop]
    setup_problems: list[str]
    notes: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(len(loop.times) for loop in self.loops)

    @property
    def failed(self) -> int:
        return sum(len(loop.problems) for loop in self.loops)


def attempt(op):
    """Run one operation; a raised error is the operation's failure."""
    try:
        return op(), None
    except Exception as exc:  # counted in `failed`, never dropped
        return None, f"{type(exc).__name__}: {exc}"


def closed_loop(ops, seconds: float, loop: Loop | None = None, before_each=None) -> Loop:
    """Run whole passes over `ops` ((op, check) pairs) for `seconds`, at least one.

    Only the operation is timed; the reference kernel and the check run
    after the clock stops.  `check(result)` returns (problem or None,
    verified rows).  Results are added to `loop` when one is given.
    """
    if loop is None:
        loop = Loop()
    before = reference_kernel()
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        passes += 1
        for op, check in ops:
            if before_each is not None:
                before_each()
            start = time.perf_counter()
            result, error = attempt(op)
            loop.times.append(time.perf_counter() - start)
            after = reference_kernel()
            loop.refs.append((before + after) / 2.0)
            before = after
            problem, rows = (error, 0) if error else check(result)
            if problem:
                loop.problems.append(problem)
            else:
                loop.verified_rows += rows
    return loop


def loop_metrics(loops: list[Loop]) -> dict[str, float]:
    times = [t for loop in loops for t in loop.times]
    scaled = [scale(t, r) for loop in loops for t, r in zip(loop.times, loop.refs)]
    rows = sum(loop.verified_rows for loop in loops)
    failed = sum(len(loop.problems) for loop in loops)
    return {
        "op_p50_s": statistics.median(scaled),
        "rows_per_s": rows / sum(scaled),
        "ok_frac": 1.0 - failed / len(times),
        "fail_frac": failed / len(times),
        "op_p50_wall_s": statistics.median(times),
        "rows_per_wall_s": rows / sum(times),
        "host_ref_s": statistics.median(r for loop in loops for r in loop.refs),
    }


def setup_metrics(setups: list[float], refs: list[float]) -> dict[str, float]:
    """Medians of the set-ups, each scaled by the reference time measured with it."""
    return {
        "setup_s": statistics.median(scale(t, r) for t, r in zip(setups, refs)),
        "setup_wall_s": statistics.median(setups),
    }


def samples(setups: list[float], refs: list[float], loops: list[Loop]) -> dict:
    return {
        "setup_s_samples": setups,
        "setup_ref_s_samples": refs,
        "op_s_samples": [loop.times for loop in loops],
        "op_ref_s_samples": [loop.refs for loop in loops],
    }


# --- in-process workloads ------------------------------------------------------


def sweep_setup(workload: SweepWorkload, params):
    """`import qnodes.cli` plus one warm-up operation, timed together."""
    start = time.perf_counter()
    import_module("qnodes.cli")
    qn = sys.modules["qnodes"]
    op = sweep_operation(qn, workload, params)
    warm = attempt(op)
    return time.perf_counter() - start, qn, op, warm


def sweep_worker(workload: SweepWorkload, params, args) -> dict:
    """One fresh interpreter's share of an in-process run, as JSON data."""
    setup_s, qn, op, (warm, error) = sweep_setup(workload, params)
    setup_problems = []
    if error:
        setup_problems.append(f"warm-up: {error}")
        reference = None
    else:
        problem = check_sweep(qn, workload, warm, None) or check_closed_forms(workload, params, warm[0])
        if problem:
            setup_problems.append(f"warm-up: {problem}")
        reference = warm[2]

    def check(result):
        problem = check_sweep(qn, workload, result, reference) or check_closed_forms(workload, params, result[0])
        return problem, workload.rows_per_op

    report = {"setup_s": setup_s, "setup_problems": setup_problems}
    if args.trace:
        # untraced and traced operations take turns, so that drift in
        # machine speed does not show up as tracing overhead
        tracer, untraced, traced = Tracer(), Loop(), Loop()
        deadline = time.perf_counter() + args.seconds
        while not traced.times or time.perf_counter() < deadline:
            closed_loop([(op, check)], 0, untraced)
            restore = tracer.install()
            try:
                closed_loop([(op, check)], 0, traced, before_each=tracer.next_op)
            finally:
                restore()
        report.update(untraced=asdict(untraced), traced=asdict(traced), dump=tracer.dump())
        return report

    report["loop"] = asdict(closed_loop([(op, check)], args.seconds))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.worker > 0:
        return report  # the digits repeat exactly; the first worker measures them
    units = natural_units(workload.system, params[workload.system])
    rows = [] if warm is None else warm[0]
    if "eigen" in workload.paths:
        report["eigen_digits"] = path_digits(rows, "eigen", units)
    else:
        report["eigen_digits"] = eigen_probe_digits(qn, workload, params)
    report["oracle_digits"] = path_digits(rows, "oracle", units)
    return report


def run_worker(workload: SweepWorkload, args, seconds: float, index: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name, "--seed", str(args.seed),
         "--seconds", repr(seconds), "--trace", str(args.trace), "--worker", str(index)],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_sweep_workload(workload: SweepWorkload, params, args) -> Outcome:
    """The timed loop is split over SETUPS fresh interpreters, run one
    after another: per-process effects such as memory layout otherwise
    move a whole run's timings together."""
    if args.trace:
        cli_layer = cli_layer_metrics()
        report = run_worker(workload, args, args.seconds)
        return traced_outcome(
            report["dump"], cli_layer, Loop(**report["untraced"]), Loop(**report["traced"]), report["setup_problems"]
        )

    reports = [run_worker(workload, args, args.seconds / SETUPS, index) for index in range(SETUPS)]
    loops = [Loop(**r["loop"]) for r in reports]
    setups = [r["setup_s"] for r in reports]
    # A worker's set-up is scaled by the mean reference time of its loop,
    # which starts right after the set-up: before it numpy is not loaded.
    setup_refs = [statistics.mean(loop.refs) for loop in loops]
    metrics = {
        **setup_metrics(setups, setup_refs),
        **loop_metrics(loops),
        "oracle_digits": reports[0]["oracle_digits"] or 0.0,
        "eigen_digits": reports[0]["eigen_digits"] or 0.0,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }
    problems = [p for r in reports for p in r["setup_problems"]]
    return Outcome(metrics, loops, problems, samples(setups, setup_refs, loops))


# --- cli-cold ------------------------------------------------------------------


def run_cli_workload(workload: CliWorkload, params, args) -> Outcome:
    qn = import_module("qnodes")
    argvs = [c.argv(params) for c in workload.commands]
    expected = cli_expected(qn, workload, params)
    box = params["box"]

    def make_check(exp, reference):
        def check(result):
            code, stdout, stderr = result
            if code != 0:
                return f"exit {code}: {stderr.strip()[-300:]}", 0
            lines = stdout.splitlines()
            last = lines[-1] if lines else ""
            if exp["last"] is not None:
                if last != exp["last"]:
                    return f"last line {last!r}, expected {exp['last']!r}", 0
            else:
                problem = check_eigensolve(stdout, exp["k"], box)
                if problem:
                    return problem, 0
                if reference is not None and stdout != reference:
                    return "eigensolve output differs from the warm-up invocation", 0
            return None, exp["rows"]

        return check

    # Warm-up cycles: every command once per cycle, checked; the first
    # cycle's eigensolve output is the reference for later invocations.
    setups, setup_refs, setup_problems, warm_out = [], [], [], {}
    before = reference_kernel()
    for _ in range(SETUPS):
        start = time.perf_counter()
        for argv, exp in zip(argvs, expected):
            code, stdout, stderr = run_cli(argv)
            problem, _ = make_check(exp, None)((code, stdout, stderr))
            if problem:
                setup_problems.append(f"warm-up {argv[0]}: {problem}")
            warm_out.setdefault(argv[0], stdout)
        setups.append(time.perf_counter() - start)
        after = reference_kernel()
        setup_refs.append((before + after) / 2.0)
        before = after

    def ops(launcher=None):
        return [
            (lambda argv=argv: run_cli(argv, launcher), make_check(exp, warm_out[argv[0]] if exp["last"] is None else None))
            for argv, exp in zip(argvs, expected)
        ]

    if args.trace:
        cli_layer = cli_layer_metrics()
        OUT_DIR.mkdir(exist_ok=True)
        child_out = OUT_DIR / f"{workload.name}-seed{args.seed}.child.json"
        launcher = [str(Path(__file__).resolve().parent / "cli_child.py"), str(child_out)]
        dumps = []

        def collecting(check):
            def collect(result):
                try:
                    with open(child_out) as fh:
                        dumps.append(json.load(fh))
                    child_out.unlink()
                except (OSError, ValueError) as exc:
                    return f"traced child wrote no spans: {exc}", 0
                return check(result)

            return collect

        traced_ops = [(op, collecting(check)) for op, check in ops(launcher)]
        untraced, traced = Loop(), Loop()
        deadline = time.perf_counter() + args.seconds
        while not traced.times or time.perf_counter() < deadline:
            closed_loop(ops(), 0, untraced)
            closed_loop(traced_ops, 0, traced)
        return traced_outcome(merge_dumps(dumps), cli_layer, untraced, traced, setup_problems)

    loop = closed_loop(ops(), args.seconds)
    oracle = eigen = 0.0  # digits of output that failed its check are not measured
    if not setup_problems:
        sweep_rows = parse_csv_rows(warm_out["sweep"])
        oracle = path_digits(sweep_rows, "oracle", natural_units("ring", params["ring"]))
        eigen = cli_eigen_digits(warm_out["eigensolve"], box)
    metrics = {
        **setup_metrics(setups, setup_refs),
        **loop_metrics([loop]),
        "oracle_digits": oracle,
        "eigen_digits": eigen,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    return Outcome(metrics, [loop], setup_problems, samples(setups, setup_refs, [loop]))


def parse_csv_rows(stdout: str):
    """`qnodes sweep` CSV back into row objects for the digits measure."""
    header, *lines = stdout.splitlines()
    names = header.split(",")
    rows = []
    for line in lines:
        rec = dict(zip(names, line.split(",")))
        rows.append(SimpleNamespace(
            level=int(rec["level"]), path=rec["path"],
            **{k: float(rec[k]) for k in ("energy", "delta_q", "delta_p", "product")},
        ))
    return rows


# --- traced runs ---------------------------------------------------------------


def traced_outcome(dump, cli_layer, untraced: Loop, traced: Loop, setup_problems) -> Outcome:
    layers, table = layer_metrics(dump)
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update({k: v for k, v in layers.items() if k in metrics})
    metrics.update(cli_layer)
    metrics["trace.overhead_s"] = statistics.median(traced.times) - statistics.median(untraced.times)
    notes = {
        "untraced_ops": len(untraced.times),
        "traced_ops": len(traced.times),
        "untraced_op_p50_s": statistics.median(untraced.times),
        "traced_op_p50_s": statistics.median(traced.times),
        "layers_per_op": table,
        "spans": dump["spans"],
    }
    return Outcome(metrics, [untraced, traced], setup_problems, notes)


# --- run environment and output ------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> dict[str, int]:
    """Default thread count of each loaded OpenBLAS, asked through its C API."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment(args, outcome: Outcome) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "git_commit": git_commit(),
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "blas": vendor,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "operations": outcome.attempted,
    }


def report(workload, params, args, outcome: Outcome) -> dict:
    """Print the human-readable table, write the record; return the result line."""
    correct = outcome.failed == 0 and not outcome.setup_problems
    published = PER_LAYER if args.trace else END_TO_END
    units = dict(PER_LAYER) if args.trace else RECORD_UNITS
    env = environment(args, outcome)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    spans = outcome.notes.pop("spans", None)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "environment": env,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "fraction")}
            for name, value in outcome.metrics.items()
        },
        "failures": (outcome.setup_problems + [p for loop in outcome.loops for p in loop.problems])[:50],
        **outcome.notes,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if spans is not None:
        with open(OUT_DIR / f"{tag}.spans.jsonl", "w") as fh:
            for index, (name, start, end, parent, op) in enumerate(spans):
                fh.write(json.dumps({"op": op, "id": index, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"operations {outcome.attempted} attempted, {outcome.failed} failed")
    for name, value in outcome.metrics.items():
        print(f"  {name:<42} {value:>14.6g} {units.get(name, 'fraction')}")
    if args.trace:
        print("  per-function self time per operation (largest first):")
        table = outcome.notes["layers_per_op"]
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:<36} calls {row['calls']:>8.6g}  total {row['total_s']:.6f} s  self {row['self_s']:.6f} s")
    for problem in record["failures"][:5]:
        print(f"  FAIL {problem}")
    print(f"record {OUT_DIR.relative_to(ROOT) / (tag + '.json')}")

    return {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in published},
    }


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=-1, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qnodes" / "__init__.py").is_file():
        print(f"error: qnodes sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    params = draw_params(workload, args.seed)
    if args.worker >= 0:
        print(json.dumps(sweep_worker(workload, params, args)))
        return 0
    if isinstance(workload, SweepWorkload):
        outcome = run_sweep_workload(workload, params, args)
    else:
        outcome = run_cli_workload(workload, params, args)
    print(json.dumps(report(workload, params, args, outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
