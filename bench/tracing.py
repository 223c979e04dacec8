"""Per-layer tracing from outside the program.

`Tracer.install` replaces each traced public function with a wrapper in
*every* `qnodes` module namespace that binds it: `report`, `cli` and
`eigensolver` import their callees with `from .x import y`, so patching
only the defining module would miss those calls.  Spans (name, start,
end, parent, operation) and counts stay in memory and are written out
when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from workloads import child_env

# (span name, module, attribute).  The three closed-form uncertainty
# functions share one span name, as the analytic layer's single entry.
TRACED = (
    ("report.run_sweep", "report", "run_sweep"),
    ("report.verify_rows", "report", "verify_rows"),
    ("report.emit", "report", "emit"),
    ("analytic.uncertainties", "analytic", "box_uncertainties"),
    ("analytic.uncertainties", "analytic", "ring_uncertainties"),
    ("analytic.uncertainties", "analytic", "oscillator_uncertainties"),
    ("analytic.box_psi", "analytic", "box_psi"),
    ("analytic.ring_state_values", "analytic", "ring_state_values"),
    ("special.oscillator_psi", "special", "oscillator_psi"),
    ("oracle.sample_state", "oracle", "sample_state"),
    ("oracle.oracle_uncertainties", "oracle", "oracle_uncertainties"),
    ("oracle.position_moments", "oracle", "position_moments"),
    ("oracle.momentum_moments", "oracle", "momentum_moments"),
    ("oracle.ring_lz_by_quadrature", "oracle", "ring_lz_by_quadrature"),
    ("oracle.ring_theta_by_quadrature", "oracle", "ring_theta_by_quadrature"),
    ("grids.quad", "grids", "quad"),
    ("grids.derivative", "grids", "derivative"),
    ("grids.spectral_derivative", "grids", "spectral_derivative"),
    ("eigensolver.build_hamiltonian", "eigensolver", "build_hamiltonian"),
    ("eigensolver.solve_lowest", "eigensolver", "solve_lowest"),
    ("eigensolver.eigen_uncertainties", "eigensolver", "eigen_uncertainties"),
    ("eigensolver.ring_momentum_state", "eigensolver", "ring_momentum_state"),
    ("nodal.count_nodes", "nodal", "count_nodes"),
)

# Published per-layer metrics, in BENCHMARK.json order: (name, unit).
# Timings and calls are per operation, averaged over the traced operations.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.import.numpy_s", "s"),
    ("cli.import.scipy_s", "s"),
    ("cli.import.click_s", "s"),
    ("cli.import.qnodes_s", "s"),
    ("cli.interpreter_s", "s"),
    ("report.run_sweep.calls", "count"),
    ("report.run_sweep.total_s", "s"),
    ("report.run_sweep.self_s", "s"),
    ("report.verify_rows.total_s", "s"),
    ("report.emit.total_s", "s"),
    ("analytic.uncertainties.calls", "count"),
    ("analytic.uncertainties.total_s", "s"),
    ("analytic.box_psi.calls", "count"),
    ("analytic.box_psi.total_s", "s"),
    ("analytic.ring_state_values.calls", "count"),
    ("analytic.ring_state_values.total_s", "s"),
    ("special.oscillator_psi.calls", "count"),
    ("special.oscillator_psi.total_s", "s"),
    ("special.oscillator_psi.point_steps", "count"),
    ("oracle.sample_state.calls", "count"),
    ("oracle.sample_state.total_s", "s"),
    ("oracle.oracle_uncertainties.calls", "count"),
    ("oracle.oracle_uncertainties.total_s", "s"),
    ("oracle.oracle_uncertainties.self_s", "s"),
    ("oracle.position_moments.calls", "count"),
    ("oracle.position_moments.total_s", "s"),
    ("oracle.momentum_moments.calls", "count"),
    ("oracle.momentum_moments.total_s", "s"),
    ("oracle.ring_lz_by_quadrature.calls", "count"),
    ("oracle.ring_lz_by_quadrature.total_s", "s"),
    ("oracle.ring_theta_by_quadrature.calls", "count"),
    ("oracle.ring_theta_by_quadrature.total_s", "s"),
    ("oracle.sample_useful_ratio", "ratio"),
    ("grids.quad.calls", "count"),
    ("grids.quad.total_s", "s"),
    ("grids.derivative.calls", "count"),
    ("grids.derivative.total_s", "s"),
    ("grids.spectral_derivative.calls", "count"),
    ("grids.spectral_derivative.total_s", "s"),
    ("grids.derivative.calls_per_moment", "ratio"),
    ("grids.points_sampled", "count"),
    ("eigensolver.build_hamiltonian.total_s", "s"),
    ("eigensolver.solve_lowest.calls", "count"),
    ("eigensolver.solve_lowest.total_s", "s"),
    ("eigensolver.solve_lowest.self_s", "s"),
    ("eigensolver.solve_lowest.dim", "count"),
    ("eigensolver.solve_lowest.k", "count"),
    ("eigensolver.matrix_bytes", "B"),
    ("eigensolver.eigen_uncertainties.calls", "count"),
    ("eigensolver.eigen_uncertainties.total_s", "s"),
    ("eigensolver.eigen_uncertainties.self_s", "s"),
    ("eigensolver.ring_momentum_state.calls", "count"),
    ("eigensolver.ring_momentum_state.total_s", "s"),
    ("nodal.count_nodes.calls", "count"),
    ("nodal.count_nodes.total_s", "s"),
    ("trace.overhead_s", "s"),
)

# Counts that must repeat exactly for a seed (the determinism self-check).
COUNT_METRICS = tuple(
    name for name, unit in PER_LAYER if unit in ("count", "ratio", "B")
)

# Per-operation counts kept as the largest value seen; all others are summed.
_MAX_COUNTS = ("eigensolver.solve_lowest.dim", "eigensolver.solve_lowest.k", "eigensolver.matrix_bytes")


def _count_psi(counts, sample_keys, args, result):
    # the recurrence takes n steps over every grid point
    counts["special.oscillator_psi.point_steps"] += int(args[1]) * int(getattr(result, "size", 1))


def _count_sample(counts, sample_keys, args, result):
    counts["grids.points_sampled"] += result.grid.points
    sample_keys.add((args[0], args[1], result.grid))


def _count_solve(counts, sample_keys, args, result):
    ham, k = args[0], int(args[1])
    dim = int(ham.diagonal.size)
    # dense matrix for the periodic ring, otherwise the two tridiagonal bands
    nbytes = dim * dim * 8 if ham.periodic else (2 * dim - 1) * 8
    for key, value in (
        ("eigensolver.solve_lowest.dim", dim),
        ("eigensolver.solve_lowest.k", k),
        ("eigensolver.matrix_bytes", nbytes),
    ):
        counts[key] = max(counts.get(key, 0), value)


_HOOKS = {
    "special.oscillator_psi": _count_psi,
    "oracle.sample_state": _count_sample,
    "eigensolver.solve_lowest": _count_solve,
}


class Tracer:
    """Spans and counts of one traced run, grouped by operation index."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, operation)
        self.op = -1
        self.counts: list[dict] = []
        self._sample_keys: list[set] = []
        self._stack: list[int] = []

    def next_op(self) -> None:
        self.op += 1
        self.counts.append(defaultdict(int))
        self._sample_keys.append(set())

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if hook is not None and self.op >= 0:
                hook(self.counts[self.op], self._sample_keys[self.op], args, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function everywhere it is bound; return an undo."""
        import qnodes.cli  # noqa: F401  (loads every module that binds a callee)

        modules = [m for n, m in list(sys.modules.items()) if n == "qnodes" or n.startswith("qnodes.")]
        undo = []
        for name, module, attr in TRACED:
            original = getattr(sys.modules[f"qnodes.{module}"], attr)
            wrapper = self._wrap(name, original, _HOOKS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))

        def restore():
            for mod, key, original in undo:
                setattr(mod, key, original)

        return restore

    def dump(self) -> dict:
        """Spans and per-operation counts as plain JSON data."""
        counts = []
        for c, keys in zip(self.counts, self._sample_keys):
            counts.append({**c, "oracle.distinct_samples": len(keys)})
        return {"spans": [list(s) for s in self.spans if s is not None], "counts": counts}


def merge_dumps(dumps: list[dict]) -> dict:
    """Concatenate dumps of separate processes, renumbering spans and operations."""
    spans, counts = [], []
    for d in dumps:
        offset, op_offset = len(spans), len(counts)
        for name, start, end, parent, op in d["spans"]:
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, op + op_offset])
        counts.extend(d["counts"])
    return {"spans": spans, "counts": counts}


def layer_table(spans) -> dict[str, dict[str, float]]:
    """calls, total_s and self_s per span name, summed over operations.

    Self time is a span's duration minus that of its direct children;
    spans nest strictly in one thread, so the children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, start, end, parent, op), inner in zip(spans, child):
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - inner
    return dict(table)


def layer_metrics(dump: dict) -> tuple[dict[str, float], dict]:
    """Per-operation layer metrics and the full per-function table."""
    counts = dump["counts"]
    n_ops = len(counts)
    table = layer_table([s for s in dump["spans"] if s[4] >= 0])
    out: dict[str, float] = {}
    for name, row in table.items():
        for field, value in row.items():
            out[f"{name}.{field}"] = value / n_ops
    summed: dict[str, float] = defaultdict(float)
    for c in counts:
        for key, value in c.items():
            if key in _MAX_COUNTS:
                summed[key] = max(summed[key], value)
            else:
                summed[key] += value
    for key, value in summed.items():
        out[key] = value if key in _MAX_COUNTS else value / n_ops

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    sampled = calls("oracle.sample_state")
    out["oracle.sample_useful_ratio"] = summed["oracle.distinct_samples"] / sampled if sampled else 0.0
    moments = calls("oracle.momentum_moments")
    out["grids.derivative.calls_per_moment"] = calls("grids.derivative") / moments if moments else 0.0
    per_op_table = {
        name: {field: value / n_ops for field, value in row.items()} for name, row in table.items()
    }
    return out, per_op_table


# --- the cli layer: fresh-interpreter import costs ---------------------------

_TIMED_IMPORT = "import time; t = time.perf_counter(); import qnodes.cli; print(time.perf_counter() - t)"
_IMPORT_PACKAGES = ("numpy", "scipy", "click", "qnodes")


def _importtime_by_package(stderr: str) -> dict[str, float]:
    """Sum of `-X importtime` self times per top-level package, in seconds."""
    totals = dict.fromkeys(_IMPORT_PACKAGES, 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        top = name.split(".")[0]
        if top in totals and self_us.isdigit():
            totals[top] += int(self_us) * 1e-6
    return totals


def cli_layer_metrics(repeats: int = 3) -> dict[str, float]:
    """Medians over `repeats` fresh interpreters of the cli-layer costs."""
    env = child_env()
    imports, interp = [], []
    by_package = defaultdict(list)
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _TIMED_IMPORT], capture_output=True, text=True, env=env, check=True
        )
        imports.append(float(out.stdout.strip().splitlines()[-1]))
        prof = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qnodes.cli"],
            capture_output=True, text=True, env=env, check=True,
        )
        for package, seconds in _importtime_by_package(prof.stderr).items():
            by_package[package].append(seconds)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        interp.append(time.perf_counter() - start)
    out = {"cli.import_s": statistics.median(imports), "cli.interpreter_s": statistics.median(interp)}
    for package in _IMPORT_PACKAGES:
        out[f"cli.import.{package}_s"] = statistics.median(by_package[package])
    return out
