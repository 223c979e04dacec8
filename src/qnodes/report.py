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
    UncertaintyRecord,
    box_uncertainties,
    oscillator_uncertainties,
    ring_uncertainties,
)
from .eigensolver import build_hamiltonian, default_eigen_grid, eigen_uncertainties, solve_lowest
from .errors import ConfigError, GridError, QnodesError
from .model import Box, Ring, Scales, SystemSpec, scales, validate_state
from .nodal import count_nodes
from .oracle import default_grid, record_from_samples, sample_levels

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

# Compared columns and the unit (a `Scales` field) each is measured in.
_COLUMN_UNITS = {"energy": "energy", "delta_q": "length", "delta_p": "momentum", "product": "hbar"}


def system_tag(spec: SystemSpec) -> str:
    return type(spec).__name__.lower()


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep: system, inclusive level list, and computation paths."""

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
        for level in self.levels:
            try:
                validate_state(self.system, level)
            except Exception as exc:
                raise ConfigError(f"level {level} invalid for this system: {exc}") from exc
        if not self.tol > 0:
            raise ConfigError(f"tolerance must be positive, got {self.tol}")
        if self.grid_points is not None:
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


def _meets_bound(product: float, bound: float) -> bool:
    return product >= bound - BOUND_SLACK * bound


def _satisfied_flag(spec: SystemSpec, product: float, bound: float) -> str:
    if isinstance(spec, Ring):
        return "na"
    return "true" if _meets_bound(product, bound) else "false"


def _row_from_record(
    spec: SystemSpec, level: int, rec: UncertaintyRecord, path: str, nodes_counted: int | None
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
        disagreement=None,
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
    top level, `default_grid(spec, max |level|, cfg.grid_points)`.  Every
    path computes in natural units; each record is rescaled once.
    """
    spec = cfg.system
    units = scales(spec)
    paths = tuple(p for p in PATH_ORDER if p in cfg.paths)

    eigen_result = None
    if "eigen" in paths:
        if isinstance(spec, Ring):
            k = 2 * max(abs(l) for l in cfg.levels) + 1
        elif isinstance(spec, Box):
            k = max(cfg.levels)
        else:
            k = max(cfg.levels) + 1
        grid = default_eigen_grid(spec, k=k, points=cfg.grid_points)
        eigen_result = solve_lowest(build_hamiltonian(spec, grid), k)

    levels = sorted(set(cfg.levels))
    if "analytic" in paths or "oracle" in paths:
        grid = default_grid(spec, max(abs(l) for l in levels), cfg.grid_points)
        samples = sample_levels(spec, levels, grid)
    else:
        samples = ((level, None) for level in levels)
    by_level: dict[int, list[SweepRow]] = {}
    for level, psi in samples:
        try:
            by_level[level] = _sweep_level(spec, units, paths, level, psi, eigen_result)
        except QnodesError as exc:
            raise type(exc)(f"level {level}: {exc}") from exc
    return [row for level in cfg.levels for row in by_level[level]]


def _sweep_level(spec, units, paths, level, psi, eigen_result) -> list[SweepRow]:
    per_level: list[SweepRow] = []
    measured = None if psi is None else count_nodes(psi).count
    if "analytic" in paths:
        rec = _analytic_record(spec, level)
        per_level.append(_row_from_record(spec, level, rec, "analytic", measured))
    if "oracle" in paths:
        rec = record_from_samples(spec, level, psi).rescaled(units)
        per_level.append(_row_from_record(spec, level, rec, "oracle", measured))
    if "eigen" in paths:
        rec = eigen_uncertainties(spec, eigen_result, level)
        per_level.append(_row_from_record(spec, level, rec, "eigen", rec.nodes_measured))
    if len(per_level) >= 2:
        dis = _max_disagreement(per_level, units)
        per_level = [replace(r, disagreement=dis) for r in per_level]
    return per_level


def _max_disagreement(rows: list[SweepRow], units: Scales) -> float:
    """Worst relative difference of a compared column between two rows.

    Each denominator is floored at the column's unit, so values far below
    one natural unit are compared absolutely in that unit.  NaN if any
    difference is NaN.
    """
    worst = 0.0
    for i, a in enumerate(rows):
        for b in rows[i + 1 :]:
            for name, unit in _COLUMN_UNITS.items():
                va, vb = getattr(a, name), getattr(b, name)
                rel = abs(va - vb) / max(abs(va), abs(vb), getattr(units, unit))
                if math.isnan(rel):
                    return math.nan
                worst = max(worst, rel)
    return worst


def verify_rows(cfg: SweepConfig, rows: list[SweepRow]) -> list[str]:
    """Check finiteness, bounds, node laws, and cross-path agreement.

    Returns the failures.  The satisfied flag is recomputed from the
    product and bound fields so a corrupted row cannot slip through on a
    stale flag.
    """
    failures: list[str] = []
    for row in rows:
        where = f"{row.system} level {row.level} ({row.path})"
        for name in (*_COLUMN_UNITS, "bound"):
            if not math.isfinite(getattr(row, name)):
                failures.append(f"{where}: {name} is {getattr(row, name)!r}, not finite")
        if row.system != "ring" and not _meets_bound(row.product, row.bound):
            failures.append(
                f"{where}: product {row.product:.12g} below bound {row.bound:.12g}"
            )
        if row.nodes_counted is not None and row.nodes_counted != row.nodes_predicted:
            failures.append(
                f"{where}: counted {row.nodes_counted} nodes, predicted {row.nodes_predicted}"
            )
        if row.disagreement is not None and not row.disagreement <= cfg.tol:
            failures.append(
                f"{where}: cross-path disagreement {row.disagreement:.3e} "
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
    """
    if not rows:
        raise ConfigError("no rows to emit")
    if fmt == "csv":
        lines = [CSV_HEADER] + [",".join(map(_cell, vars(r).values())) for r in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {"metadata": metadata or {}, "rows": [asdict(r) for r in rows]}
        return json.dumps(payload, indent=2) + "\n"
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
