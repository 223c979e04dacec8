"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage/config error
(a value too large for a double included: a physical value that
overflows once rescaled, an oscillator level above 200, or an integer
too large for a float), 3 numerical failure (non-convergence,
degenerate input, unwritable output).
"""

from __future__ import annotations

import json
import sys

import click

from .eigensolver import build_hamiltonian, default_eigen_grid, slot_level, solve_lowest
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateError,
    DomainError,
    GridError,
    NormalizationError,
    QnodesError,
)
from .grids import first_failure, first_rows
from .model import Box, Constants, Oscillator, Ring, SystemSpec, scales
from .nodal import node_counts
from .oracle import columns_from_stack
from .report import (
    SweepConfig,
    corrupt_first_product,
    default_metadata,
    emit,
    run_sweep,
    verify_rows,
)

_USAGE_ERRORS = (ConfigError, DomainError, OverflowError)
_NUMERICAL_ERRORS = (GridError, ConvergenceError, DegenerateError, NormalizationError)

SYSTEMS = {"box": Box, "ring": Ring, "oscillator": Oscillator}


def build_system(system: str, params: tuple[str, ...], hbar: float) -> SystemSpec:
    """Construct a SystemSpec from `--param key=value` pairs (keys from its
    `params`); one given twice, under one key or two, is a ConfigError."""
    kwargs, keys = {"constants": Constants(hbar=hbar)}, {}
    table = SYSTEMS[system].params
    for pair in params:
        if "=" not in pair:
            raise ConfigError(f"--param expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if key not in table:
            raise ConfigError(
                f"unknown parameter {key!r} for {system}; "
                f"accepted: {sorted(set(table))}"
            )
        name = table[key]
        if name in keys:
            raise ConfigError(f"parameter {name} given twice: as {keys[name]!r} and as {key!r}")
        keys[name] = key
        try:
            kwargs[name] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"parameter {key!r} is not a number: {raw!r}") from exc
    return SYSTEMS[system](**kwargs)


def parse_levels(text: str) -> tuple[int, ...]:
    """Parse an inclusive LO:HI range; either bound may be negative."""
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ConfigError(f"--levels expects LO:HI, got {text!r}")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise ConfigError(f"--levels bounds must be integers, got {text!r}") from exc
    if hi_i < lo_i:
        raise ConfigError(f"--levels range is empty: {text!r}")
    return tuple(range(lo_i, hi_i + 1))


def parse_paths(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _config(system, params, hbar, grid_points, levels, **options) -> SweepConfig:
    spec = build_system(system, params, hbar)
    return SweepConfig(spec, parse_levels(levels), grid_points=grid_points, **options)


def write_output(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        click.echo(f"error: cannot write {out}: {exc}", err=True)
        sys.exit(3)


def _run_guarded(fn):
    try:
        return fn()
    except _USAGE_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except _NUMERICAL_ERRORS as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)


def _common_options(fn):
    fn = click.option("--system", type=click.Choice(list(SYSTEMS)), required=True)(fn)
    fn = click.option(
        "--param",
        "params",
        multiple=True,
        help="System parameter as key=value (e.g. a=1, m=1, I=1, omega=1).",
    )(fn)
    fn = click.option("--hbar", type=float, default=1.0, show_default=True)(fn)
    fn = click.option(
        "--grid-points",
        type=int,
        default=None,
        help="Grid points for every path, in place of the default rule (box, ring: the fewest "
        "2^a 3^b intervals or points above the band limit). On the ring only 2^a 3^b counts "
        "keep the m = 0 row exactly 0.",
    )(fn)
    return fn


def _output_options(fn):
    """`--format` and `--out`, for the commands that write a table."""
    fn = click.option(
        "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv"
    )(fn)
    fn = click.option("--out", type=str, default=None)(fn)
    return fn


@click.group()
def main():
    """Uncertainty products vs node counts for box, ring, and oscillator."""


@main.command()
@_common_options
@_output_options
@click.option("--levels", required=True, help="Inclusive range LO:HI.")
@click.option("--paths", default="analytic", show_default=True)
@click.option("--tol", type=float, default=1e-6, show_default=True)
def sweep(system, params, hbar, grid_points, fmt, out, levels, paths, tol):
    """Evaluate uncertainties and node counts over a range of levels."""

    def body():
        cfg = _config(system, params, hbar, grid_points, levels, paths=parse_paths(paths), tol=tol)
        return emit(run_sweep(cfg), fmt, default_metadata(cfg))

    write_output(_run_guarded(body), out)


@main.command()
@_common_options
@click.option("--levels", required=True, help="Inclusive range LO:HI.")
@click.option("--paths", default="analytic,oracle", show_default=True)
@click.option("--tol", type=float, default=1e-6, show_default=True)
@click.option(
    "--inject-corruption",
    is_flag=True,
    help="Self-test: lower one product by half its bound before checking.",
)
def verify(system, params, hbar, grid_points, levels, paths, tol, inject_corruption):
    """Cross-check paths, Heisenberg bounds, and node laws; exit 1 on failure."""

    def body():
        cfg = _config(system, params, hbar, grid_points, levels, paths=parse_paths(paths), tol=tol)
        if len(cfg.paths) < 2:
            raise ConfigError("verify needs at least two paths to cross-check")
        rows = run_sweep(cfg)
        if inject_corruption:
            rows = corrupt_first_product(rows)
        return cfg, rows

    cfg, rows = _run_guarded(body)
    failures = verify_rows(cfg, rows)
    if failures:
        for line in failures:
            click.echo(f"FAIL {line}", err=True)
        click.echo(f"{len(failures)} check(s) failed", err=True)
        sys.exit(1)
    click.echo(f"all checks passed for {len(rows)} rows")


@main.command()
@_common_options
@_output_options
@click.option("--k", type=int, default=6, show_default=True, help="Number of lowest levels.")
def eigensolve(system, params, hbar, grid_points, fmt, out, k):
    """Solve the Fourier-grid Hamiltonian for the lowest levels."""

    def body():
        if k < 1:
            raise ConfigError(f"--k must be >= 1, got {k}")
        spec = build_system(system, params, hbar)
        units = scales(spec)
        try:
            grid = default_eigen_grid(spec, k=k, points=grid_points)
        except GridError as exc:
            if grid_points is None:  # the default grid's rule, past its limit
                raise
            raise ConfigError(f"grid points {grid_points}: {exc}") from exc
        except OverflowError as exc:
            raise DomainError(f"--k {k}: {exc}") from exc
        result = solve_lowest(build_hamiltonian(spec, grid), k)

        def guard(end):
            # a dense solve's residuals are roundoff on any grid: the moments'
            # guards are what catch a grid too coarse for the printed states
            states = first_rows(result.stack, end)
            return columns_from_stack(spec, states), node_counts(states)

        try:
            first_failure(guard, k)
        except QnodesError as exc:
            level = slot_level(spec, getattr(exc, "row", 0))
            raise type(exc)(f"level {level}: {exc}") from exc
        try:
            energies = units.rescale("energy", result.energies, "energy").tolist()
            residuals = units.rescale("residual", result.residuals, "energy").tolist()
        except DomainError as exc:
            raise DomainError(f"index {exc.row}: {exc}") from exc
        if fmt == "json":
            payload = {"system": system, "energies": energies, "residuals": residuals}
            return json.dumps(payload, indent=2) + "\n"
        lines = ["index,energy,residual"]
        for i, (e, r) in enumerate(zip(energies, residuals)):
            lines.append(f"{i},{format(e, '#.12g')},{r:.3e}")
        return "\n".join(lines) + "\n"

    write_output(_run_guarded(body), out)


@main.command()
@_common_options
@_output_options
@click.option("--levels", required=True, help="Inclusive range LO:HI.")
def nodes(system, params, hbar, grid_points, fmt, out, levels):
    """Count wavefunction nodes and compare with the predicted law."""

    def body():
        cfg = _config(system, params, hbar, grid_points, levels)
        columns = ("level", "nodes_predicted", "nodes_counted")
        table = [[getattr(r, c) for c in columns] for r in run_sweep(cfg)]
        if fmt == "json":
            return json.dumps([dict(zip(columns, t)) for t in table], indent=2) + "\n"
        lines = [",".join(columns)] + [",".join(map(str, t)) for t in table]
        return "\n".join(lines) + "\n"

    write_output(_run_guarded(body), out)


if __name__ == "__main__":
    main()
