"""Seeded workload inputs, the operations the benchmark times, and their checks.

Only the standard library is imported at module level: the benchmark
times `import qnodes.cli` itself, so nothing here may import qnodes or
numpy before that timer starts.  Functions that need the package take
the imported `qnodes` module as an argument.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Parameters are drawn log-uniformly in [0.5, 2] around natural units
# (hbar = 1).  Wider scales hit the unit-scale defects ROADMAP item 2
# tracks; those are correctness items with their own tests.
PARAM_RANGE = (0.5, 2.0)

SYSTEM_PARAMS = {
    "box": ("length", "mass"),
    "ring": ("moment_of_inertia",),
    "oscillator": ("mass", "omega"),
}

# --param spellings the CLI accepts for each system parameter.
CLI_KEYS = {"length": "a", "mass": "m", "moment_of_inertia": "I", "omega": "omega"}

COMPARED_FIELDS = ("energy", "delta_q", "delta_p", "product")
DIGITS_CAP = 15.0


@dataclass(frozen=True)
class SweepWorkload:
    """An in-process workload: one operation is what `qnodes verify` does."""

    name: str
    system: str
    levels: tuple[int, int]
    paths: tuple[str, ...]
    tol: float
    why: str

    @property
    def level_tuple(self) -> tuple[int, ...]:
        return tuple(range(self.levels[0], self.levels[1] + 1))

    @property
    def rows_per_op(self) -> int:
        return len(self.level_tuple) * len(self.paths)


@dataclass(frozen=True)
class CliCommand:
    """One `qnodes` invocation; the seeded --param flags are appended."""

    command: str
    system: str
    levels: tuple[int, int] | None = None
    paths: tuple[str, ...] = ()
    k: int | None = None

    def argv(self, params: dict[str, dict[str, float]]) -> list[str]:
        argv = [self.command, "--system", self.system]
        if self.levels is not None:
            argv.append(f"--levels={self.levels[0]}:{self.levels[1]}")
        if self.paths:
            argv += ["--paths", ",".join(self.paths)]
        if self.k is not None:
            argv += ["--k", str(self.k)]
        for key, value in params[self.system].items():
            argv += ["--param", f"{CLI_KEYS[key]}={value!r}"]
        return argv


@dataclass(frozen=True)
class CliWorkload:
    """One fresh `qnodes` process per operation, cycling through `commands`."""

    name: str
    why: str
    commands: tuple[CliCommand, ...]


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "osc-ladder", "oscillator", (0, 200), ("analytic", "oracle"), 1e-6,
            "oscillator_psi restarts its recurrence per call (O(L^2 N)); no eigensolver, no scipy",
        ),
        SweepWorkload(
            "ring-eigen", "ring", (-10, 10), ("analytic", "oracle", "eigen"), 1e-3,
            "one dense 1024x1024 eigh dominates; FFT moments; no special-function call",
        ),
        SweepWorkload(
            "box-3path", "box", (1, 40), ("analytic", "oracle", "eigen"), 1e-3,
            "shared moment code on samples and eigenvectors, tridiagonal solve, node counting",
        ),
        CliWorkload(
            "cli-cold",
            "fresh interpreter per operation: import dominates; only eigensolve needs scipy",
            (
                CliCommand("verify", "box", levels=(1, 5)),
                # oracle rows let this workload report oracle_digits from CLI output
                CliCommand("sweep", "ring", levels=(-3, 3), paths=("analytic", "oracle")),
                CliCommand("nodes", "oscillator", levels=(0, 6)),
                CliCommand("eigensolve", "box", k=6),
            ),
        ),
    )
}


# The workloads BENCHMARK.json registers.  cli-cold runs by hand
# (`--workload cli-cold` or `all`): its operations are child processes,
# whose speed the reference kernel run in this process does not track, so
# its scaled times spread from run to run more than its wall times do.
REGISTERED = ("osc-ladder", "ring-eigen", "box-3path")


def draw_params(workload: SweepWorkload | CliWorkload, seed: int) -> dict[str, dict[str, float]]:
    """Physical parameters per system, log-uniform in PARAM_RANGE, from `seed`."""
    rng = random.Random(f"{workload.name}:{seed}")
    lo, hi = (math.log(v) for v in PARAM_RANGE)
    if isinstance(workload, SweepWorkload):
        systems = [workload.system]
    else:
        systems = sorted({c.system for c in workload.commands})
    return {
        system: {key: math.exp(rng.uniform(lo, hi)) for key in SYSTEM_PARAMS[system]}
        for system in systems
    }


def make_spec(qn, system: str, params: dict[str, float]):
    cls = {"box": qn.Box, "ring": qn.Ring, "oscillator": qn.Oscillator}[system]
    return cls(**params)


def natural_units(system: str, params: dict[str, float]) -> dict[str, float]:
    """The unit of each compared column, used as the relative-error floor."""
    if system == "box":
        a, m = params["length"], params["mass"]
        return {"energy": 1.0 / (m * a * a), "delta_q": a, "delta_p": 1.0 / a, "product": 1.0}
    if system == "ring":
        return {"energy": 1.0 / params["moment_of_inertia"], "delta_q": 1.0, "delta_p": 1.0, "product": 1.0}
    m, w = params["mass"], params["omega"]
    return {"energy": w, "delta_q": math.sqrt(1.0 / (m * w)), "delta_p": math.sqrt(m * w), "product": 1.0}


def digits(worst_rel_err: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP."""
    if worst_rel_err <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(worst_rel_err))


def path_digits(rows, path: str, units: dict[str, float]) -> float | None:
    """Worst agreement of `path` rows with the analytic row of the same level."""
    analytic = {r.level: r for r in rows if r.path == "analytic"}
    worst = None
    for row in rows:
        if row.path != path:
            continue
        ref = analytic[row.level]
        for name in COMPARED_FIELDS:
            v, r = getattr(row, name), getattr(ref, name)
            err = abs(v - r) / max(abs(r), units[name])
            worst = err if worst is None else max(worst, err)
    return None if worst is None else digits(worst)


# --- in-process operations ---------------------------------------------------


def sweep_operation(qn, workload: SweepWorkload, params: dict[str, dict[str, float]]):
    """Return op(): what `qnodes verify` does, in-process."""
    system_params = params[workload.system]
    levels = workload.level_tuple

    def op():
        cfg = qn.SweepConfig(
            system=make_spec(qn, workload.system, system_params),
            levels=levels,
            paths=workload.paths,
            tol=workload.tol,
        )
        rows = qn.run_sweep(cfg)
        failures = qn.verify_rows(cfg, rows)
        csv = qn.emit(rows, "csv")
        return rows, failures, csv

    return op


def check_sweep(qn, workload: SweepWorkload, result, reference_csv: str | None) -> str | None:
    """None if the operation's output is correct, else the reason it is not."""
    rows, failures, csv = result
    if failures:
        return f"verify_rows: {failures[0]}"
    if not csv.startswith(qn.report.CSV_HEADER + "\n"):
        return "CSV does not start with CSV_HEADER"
    body = csv.count("\n") - 1
    if body != workload.rows_per_op or len(rows) != workload.rows_per_op:
        return f"{body} CSV rows, expected {workload.rows_per_op}"
    if reference_csv is not None and csv != reference_csv:
        return "CSV differs from the warm-up operation's output"
    return None


def closed_form_energy(system: str, params: dict[str, float], n: int) -> float:
    """Energy of level n (hbar = 1), written out here rather than taken from qnodes."""
    if system == "box":
        return n * n * math.pi**2 / (2.0 * params["mass"] * params["length"] ** 2)
    if system == "ring":
        return n * n / (2.0 * params["moment_of_inertia"])
    return (n + 0.5) * params["omega"]


def check_closed_forms(workload: SweepWorkload, params: dict[str, dict[str, float]], rows) -> str | None:
    """Analytic rows' energies against `closed_form_energy`."""
    for row in rows:
        if row.path != "analytic":
            continue
        expected = closed_form_energy(workload.system, params[workload.system], row.level)
        if abs(row.energy - expected) > 1e-12 * max(abs(expected), 1.0):
            return f"analytic energy at level {row.level} is {row.energy!r}, expected {expected!r}"
    return None


def eigen_probe_digits(qn, workload: SweepWorkload, params: dict[str, dict[str, float]]) -> float:
    """eigen_digits for a workload whose operation has no eigen rows.

    An untimed analytic+eigen sweep of the same system over the lowest
    21 levels; it runs after the timed loop and is not an operation.
    """
    lo = workload.levels[0]
    cfg = qn.SweepConfig(
        system=make_spec(qn, workload.system, params[workload.system]),
        levels=tuple(range(lo, lo + 21)),
        paths=("analytic", "eigen"),
        tol=1e-3,
    )
    return path_digits(qn.run_sweep(cfg), "eigen", natural_units(workload.system, params[workload.system]))


# --- cli-cold operations -------------------------------------------------------


def child_env() -> dict[str, str]:
    """Environment for child interpreters: this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(argv: list[str], launcher: list[str] | None = None) -> tuple[int, str, str]:
    """Run one qnodes process to exit; return (exit code, stdout, stderr)."""
    cmd = [sys.executable, *(launcher or ["-m", "qnodes.cli"]), *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr


def cli_expected(qn, workload: CliWorkload, params: dict[str, dict[str, float]]) -> list[dict]:
    """Per command: the rows it reports and the last stdout line it must print.

    `last` is None for eigensolve, whose output `check_eigensolve` checks
    and later invocations must then repeat exactly.
    """
    expected = []
    for c in workload.commands:
        n_levels = None if c.levels is None else c.levels[1] - c.levels[0] + 1
        if c.command == "verify":
            rows = n_levels * 2  # default paths: analytic,oracle
            expected.append({"rows": rows, "last": f"all checks passed for {rows} rows"})
        elif c.command == "sweep":
            cfg = qn.SweepConfig(
                system=make_spec(qn, c.system, params[c.system]),
                levels=tuple(range(c.levels[0], c.levels[1] + 1)),
                paths=c.paths,
            )
            csv = qn.emit(qn.run_sweep(cfg), "csv")
            expected.append({"rows": csv.count("\n") - 1, "last": csv.splitlines()[-1]})
        elif c.command == "nodes":
            hi = c.levels[1]
            expected.append({"rows": n_levels, "last": f"{hi},{hi},{hi}"})
        else:
            expected.append({"rows": c.k, "last": None, "k": c.k})
    return expected


def check_eigensolve(stdout: str, k: int, params: dict[str, float]) -> str | None:
    lines = stdout.splitlines()
    if len(lines) != k + 1 or lines[0] != "index,energy,residual":
        return f"eigensolve printed {len(lines)} lines, expected header + {k}"
    index, energy, _ = lines[-1].split(",")
    if int(index) != k - 1:
        return f"last eigensolve row has index {index}, expected {k - 1}"
    # the 3-point stencil on 2001 points is good to ~1e-5 at these levels
    ref = closed_form_energy("box", params, k)
    if abs(float(energy) - ref) > 1e-3 * ref:
        return f"eigensolve energy {energy} far from closed form {ref!r}"
    return None


def cli_eigen_digits(stdout: str, params: dict[str, float]) -> float:
    worst = 0.0
    for line in stdout.splitlines()[1:]:
        index, energy, _ = line.split(",")
        ref = closed_form_energy("box", params, int(index) + 1)
        worst = max(worst, abs(float(energy) - ref) / ref)
    return digits(worst)
