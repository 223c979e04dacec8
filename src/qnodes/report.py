"""Sweeps across quantum numbers, cross-path reconciliation, and reports.

A sweep evaluates each requested level along up to three independent
paths (closed forms, quadrature oracle, finite-difference eigensolver),
checks the Heisenberg bound where it applies, and serializes the result
as CSV or JSON with deterministic formatting.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

from . import __version__
from .analytic import (
    COLUMN_UNITS,
    UncertaintyRecord,
    box_uncertainties,
    oscillator_uncertainties,
    ring_uncertainties,
)
from .eigensolver import build_hamiltonian, default_eigen_grid, eigen_records, solve_lowest
from .errors import ConfigError, DomainError, GridError, QnodesError
from .grids import first_failure, first_rows, stack_rows
from .model import Box, Ring, Scales, SystemSpec, predicted_node_count, scales, validate_state
from .nodal import node_counts
from .oracle import default_grid, records_from_stack, sample_levels

__all__ = [
    "SweepConfig",
    "SweepRow",
    "CSV_HEADER",
    "PATH_ORDER",
    "run_sweep",
    "verify_rows",
    "corrupt_first_product",
    "emit",
]

PATH_ORDER = ("analytic", "oracle", "eigen")

# Slack on the Heisenberg comparison, relative to the bound: pure roundoff.
BOUND_SLACK = 1e-12


def system_tag(spec: SystemSpec) -> str:
    return type(spec).__name__.lower()


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep: system, inclusive level list, and computation paths.

    `paths` is stored as its distinct names in `PATH_ORDER` order.
    """

    system: SystemSpec
    levels: tuple[int, ...]
    paths: tuple[str, ...] = ("analytic",)
    grid_points: int | None = None
    tol: float = 1e-6

    def __post_init__(self):
        if not self.levels:
            raise ConfigError("level range is empty")
        if not self.paths:
            raise ConfigError("at least one path must be selected")
        unknown = set(self.paths) - set(PATH_ORDER)
        if unknown:
            raise ConfigError(f"unknown paths: {sorted(unknown)}")
        object.__setattr__(self, "paths", tuple(p for p in PATH_ORDER if p in self.paths))
        for level in self.levels:
            try:
                validate_state(self.system, level)
            except Exception as exc:
                raise ConfigError(f"level {level} invalid for this system: {exc}") from exc
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"tolerance must be positive and finite, got {self.tol}")
        try:
            default_grid(self.system, 0, self.grid_points)
        except GridError as exc:
            raise ConfigError(f"grid points {self.grid_points}: {exc}") from exc


@dataclass(frozen=True)
class SweepRow:
    """One (level, path) result; its fields are the CSV columns, in order."""

    system: str
    level: int
    nodes_predicted: int
    nodes_counted: int | None
    energy: float
    delta_q: float
    delta_p: float
    product: float
    bound: float
    satisfied: str
    path: str
    disagreement: float | None


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


def _satisfied_flag(spec: SystemSpec, product: float, bound: float) -> str:
    """'na' on the ring, which has no Heisenberg check; else whether the
    product meets the bound within the roundoff slack."""
    if isinstance(spec, Ring):
        return "na"
    return "true" if product >= bound - BOUND_SLACK * bound else "false"


def _row_from_record(
    spec: SystemSpec,
    level: int,
    rec: UncertaintyRecord,
    path: str,
    nodes_counted: int | None,
    disagreement: float | None,
) -> SweepRow:
    return SweepRow(
        system=system_tag(spec),
        level=level,
        nodes_predicted=rec.nodes_predicted,
        nodes_counted=nodes_counted,
        energy=rec.energy,
        delta_q=rec.delta_q,
        delta_p=rec.delta_p,
        product=rec.product,
        bound=rec.bound,
        satisfied=_satisfied_flag(spec, rec.product, rec.bound),
        path=path,
        disagreement=disagreement,
    )


def _analytic_record(spec: SystemSpec, level: int) -> UncertaintyRecord:
    if isinstance(spec, Box):
        return box_uncertainties(spec, level)
    if isinstance(spec, Ring):
        return ring_uncertainties(spec, level)
    return oscillator_uncertainties(spec, level)


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """One row per (level, path), in `cfg.levels` order then canonical path order.

    Each distinct level is sampled once, on the one grid that resolves the
    top level, `default_grid(spec, max |level|, cfg.grid_points)`.  The
    distinct levels are taken in ascending stacks, as many per stack as
    `grids.stack_rows` allows for the largest row of the sweep's grids:
    each path takes a stack's moments and node counts in one pass, and
    only the rows are assembled level by level.  Every path computes in
    natural units; each record is rescaled once.  An error raised for a
    level names it, and is the one a level-by-level sweep would raise
    first; a column that overflows, or a level too large for a float (an
    OverflowError), raises DomainError.
    """
    spec = cfg.system
    units = scales(spec)
    grids = []

    eigen_result = None
    if "eigen" in cfg.paths:
        # a level with N predicted nodes needs eigenstates 0 .. N
        top = max(cfg.levels, key=lambda l: predicted_node_count(spec, l))
        k = predicted_node_count(spec, top) + 1
        try:
            eigen_grid = default_eigen_grid(spec, k=k, points=cfg.grid_points)
        except (QnodesError, OverflowError) as exc:
            raise _at_level(top, exc) from exc
        eigen_result = solve_lowest(build_hamiltonian(spec, eigen_grid), k)
        grids.append(eigen_grid)

    levels = sorted(set(cfg.levels))
    sampled = "analytic" in cfg.paths or "oracle" in cfg.paths
    if sampled:
        top = max(levels, key=abs)
        try:
            grid = default_grid(spec, top, cfg.grid_points)
        except (QnodesError, OverflowError) as exc:
            raise _at_level(top, exc) from exc
        grids.append(grid)
    # ring samples are complex
    itemsize = 16 if isinstance(spec, Ring) else 8
    rows = stack_rows(itemsize * max(g.points for g in grids))
    stacks = [levels[i : i + rows] for i in range(0, len(levels), rows)]
    samples = sample_levels(spec, stacks, grid) if sampled else (None for _ in stacks)
    by_level: dict[int, list[SweepRow]] = {}
    for stack, psi in zip(stacks, samples):
        by_level.update(_sweep_stack(spec, units, cfg.paths, stack, psi, eigen_result))
    return [row for level in cfg.levels for row in by_level[level]]


def _at_level(level: int, exc: Exception) -> QnodesError:
    """The error to raise for `exc`, naming `level`: a qnodes error keeps
    its type, and an OverflowError (a level too large for a float) becomes
    a DomainError."""
    kind = DomainError if isinstance(exc, OverflowError) else type(exc)
    return kind(f"level {level}: {exc}")


def _sweep_stack(spec, units, paths, levels, psi, eigen_result) -> dict[int, list[SweepRow]]:
    """Each level's rows, for the ascending `levels` sampled in the stack
    `psi` (None when no path needs samples); an error is that of the first
    failing level (`grids.first_failure`) and names it."""

    def run(end):
        part = None if psi is None else first_rows(psi, end)
        return _stack_rows(spec, units, paths, levels[:end], part, eigen_result)

    try:
        return first_failure(run, len(levels))
    except (QnodesError, OverflowError) as exc:
        raise _at_level(levels[getattr(exc, "row", 0)], exc) from exc


def _stack_rows(spec, units, paths, levels, psi, eigen_result) -> dict[int, list[SweepRow]]:
    """Each level's rows, each built once with the level's disagreement.

    The steps run in a level's order (node count, closed forms, oracle
    record, eigen record), each over the whole stack.
    """
    measured = [None] * len(levels) if psi is None else node_counts(psi).tolist()
    # (path, record per level, nodes counted per level) in canonical path order
    columns = []
    if "analytic" in paths:
        analytic = _each(levels, lambda level: _analytic_record(spec, level))
        columns.append(("analytic", analytic, measured))
    if "oracle" in paths:
        natural = records_from_stack(spec, levels, psi)
        columns.append(("oracle", _each(natural, lambda rec: rec.rescaled(units)), measured))
    if "eigen" in paths:
        natural = eigen_records(spec, eigen_result, levels)
        records = _each(natural, lambda rec: rec.rescaled(units))
        columns.append(("eigen", records, [rec.nodes_measured for rec in records]))
    out = {}
    for i, level in enumerate(levels):
        results = [(path, records[i], nodes[i]) for path, records, nodes in columns]
        dis = None
        if len(results) >= 2:
            dis = _max_disagreement([rec for _, rec, _ in results], units)
        out[level] = [
            _row_from_record(spec, level, rec, path, nodes, dis) for path, rec, nodes in results
        ]
    return out


def _each(items, make) -> list:
    """[make(item) for item in items]; an error names the item's index as
    its `row`."""
    out = []
    for row, item in enumerate(items):
        try:
            out.append(make(item))
        except (QnodesError, OverflowError) as exc:
            exc.row = row
            raise
    return out


def _max_disagreement(rows, units: Scales) -> float:
    """Worst relative difference of a physical column between two rows
    (or records: anything with the physical columns as attributes).

    Each denominator is floored at the column's unit, so values far below
    one natural unit are compared absolutely in that unit.  NaN if any
    difference is NaN.
    """
    worst = 0.0
    for i, a in enumerate(rows):
        for b in rows[i + 1 :]:
            for name, unit in COLUMN_UNITS.items():
                va, vb = getattr(a, name), getattr(b, name)
                rel = abs(va - vb) / max(abs(va), abs(vb), getattr(units, unit))
                if math.isnan(rel):
                    return math.nan
                worst = max(worst, rel)
    return worst


def verify_rows(cfg: SweepConfig, rows: list[SweepRow]) -> list[str]:
    """Check finiteness, bounds, node laws, and cross-path agreement.

    Returns the failures.  The satisfied flag is recomputed from the
    product and bound fields, and each level's disagreement from that
    level's rows, so a corrupted row cannot slip through on a stale flag
    or a disagreement computed before the corruption.  A row fails when
    its stored or its recomputed disagreement exceeds the tolerance or is
    NaN; the failure names the worse of the two.
    """
    by_level: dict[int, list[SweepRow]] = {}
    for row in rows:
        by_level.setdefault(row.level, []).append(row)
    units = scales(cfg.system)
    recomputed = {level: _max_disagreement(group, units) for level, group in by_level.items()}
    failures: list[str] = []
    for row in rows:
        where = f"{row.system} level {row.level} ({row.path})"
        for name in COLUMN_UNITS:
            if not math.isfinite(getattr(row, name)):
                failures.append(f"{where}: {name} is {getattr(row, name)!r}, not finite")
        if _satisfied_flag(cfg.system, row.product, row.bound) == "false":
            failures.append(
                f"{where}: product {row.product:.12g} below bound {row.bound:.12g}"
            )
        if row.nodes_counted is not None and row.nodes_counted != row.nodes_predicted:
            failures.append(
                f"{where}: counted {row.nodes_counted} nodes, predicted {row.nodes_predicted}"
            )
        exceeded = [
            d
            for d in (row.disagreement, recomputed[row.level])
            if d is not None and not d <= cfg.tol
        ]
        if exceeded:
            worst = max(exceeded, key=lambda d: math.inf if math.isnan(d) else d)
            failures.append(
                f"{where}: cross-path disagreement {worst:.3e} "
                f"exceeds tolerance {cfg.tol:.3e}"
            )
    return failures


def corrupt_first_product(rows: list[SweepRow]) -> list[SweepRow]:
    """Self-test mutation: lower the first row's product by half its bound.

    Used to prove the checker catches a broken pipeline rather than
    rubber-stamping whatever it is fed.
    """
    if not rows:
        return rows
    first = rows[0]
    bad = replace(first, product=first.product - first.bound / 2.0)
    return [bad] + rows[1:]


def _cell(value) -> str:
    if value is None:
        return ""
    return format(value, "#.12g") if isinstance(value, float) else str(value)


def emit(
    rows: list[SweepRow],
    fmt: str = "csv",
    metadata: dict | None = None,
) -> str:
    """Serialize rows as CSV (fixed header, 12 significant digits) or JSON.

    The columns and JSON keys are the fields of `SweepRow`, in order.
    JSON is standard: a value that is not finite raises ValueError.
    """
    if not rows:
        raise ConfigError("no rows to emit")
    if fmt == "csv":
        lines = [CSV_HEADER] + [",".join(map(_cell, vars(r).values())) for r in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {"metadata": metadata or {}, "rows": [asdict(r) for r in rows]}
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    raise ConfigError(f"unknown output format {fmt!r}")


def default_metadata(cfg: SweepConfig) -> dict:
    spec = cfg.system
    return {
        "units": asdict(scales(spec)),
        "system": system_tag(spec),
        "grids": {"points_override": cfg.grid_points},
        "tolerances": {"cross_path": cfg.tol, "bound_slack": BOUND_SLACK},
        "version": __version__,
    }
