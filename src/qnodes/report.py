"""Sweeps across quantum numbers, cross-path reconciliation, and reports.

A sweep evaluates each requested level along up to three independent
paths (closed forms, quadrature oracle, finite-difference eigensolver),
checks the Heisenberg bound where it applies, and serializes the result
as CSV or JSON with deterministic formatting.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, replace

from . import __version__
from .analytic import (
    UncertaintyRecord,
    box_uncertainties,
    oscillator_uncertainties,
    ring_uncertainties,
)
from .eigensolver import build_hamiltonian, default_eigen_grid, eigen_uncertainties, solve_lowest
from .errors import ConfigError, GridError, QnodesError
from .model import Box, Ring, SystemSpec, validate_state
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

CSV_HEADER = (
    "system,level,nodes_predicted,nodes_counted,energy,delta_q,delta_p,"
    "product,bound,satisfied,path,disagreement"
)

# Slack on the Heisenberg comparison: pure roundoff, nothing physical.
BOUND_SLACK = 1e-12


def system_tag(spec: SystemSpec) -> str:
    if isinstance(spec, Box):
        return "box"
    if isinstance(spec, Ring):
        return "ring"
    return "oscillator"


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
    """One (level, path) result; field order mirrors the CSV columns."""

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


def _satisfied_flag(spec: SystemSpec, product: float, bound: float) -> str:
    if isinstance(spec, Ring):
        return "na"
    return "true" if product >= bound - BOUND_SLACK else "false"


def _row_from_record(
    spec: SystemSpec, level: int, rec: UncertaintyRecord, path: str
) -> SweepRow:
    return SweepRow(
        system=system_tag(spec),
        level=level,
        nodes_predicted=rec.nodes_predicted,
        nodes_counted=rec.nodes_measured,
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
    top level, `default_grid(spec, max |level|, cfg.grid_points)`.
    """
    spec = cfg.system
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
            by_level[level] = _sweep_level(spec, paths, level, psi, eigen_result)
        except QnodesError as exc:
            raise type(exc)(f"level {level}: {exc}") from exc
    return [row for level in cfg.levels for row in by_level[level]]


def _sweep_level(spec, paths, level, psi, eigen_result) -> list[SweepRow]:
    per_level: list[SweepRow] = []
    measured = None if psi is None else count_nodes(psi).count
    if "analytic" in paths:
        rec = replace(_analytic_record(spec, level), nodes_measured=measured)
        per_level.append(_row_from_record(spec, level, rec, "analytic"))
    if "oracle" in paths:
        rec = replace(record_from_samples(spec, level, psi), nodes_measured=measured)
        per_level.append(_row_from_record(spec, level, rec, "oracle"))
    if "eigen" in paths:
        rec = eigen_uncertainties(spec, eigen_result, level)
        per_level.append(_row_from_record(spec, level, rec, "eigen"))
    if len(per_level) >= 2:
        dis = _max_disagreement(per_level)
        per_level = [replace(r, disagreement=dis) for r in per_level]
    return per_level


_COMPARED_FIELDS = ("energy", "delta_q", "delta_p", "product")


def _max_disagreement(rows: list[SweepRow]) -> float:
    worst = 0.0
    for i, a in enumerate(rows):
        for b in rows[i + 1 :]:
            for name in _COMPARED_FIELDS:
                va, vb = getattr(a, name), getattr(b, name)
                rel = abs(va - vb) / max(abs(va), abs(vb), 1.0)
                worst = max(worst, rel)
    return worst


def verify_rows(cfg: SweepConfig, rows: list[SweepRow]) -> list[str]:
    """Check bounds, node laws, and cross-path agreement; return failures.

    The satisfied flag is recomputed from the product and bound fields so a
    corrupted row cannot slip through on a stale flag.
    """
    failures: list[str] = []
    for row in rows:
        if row.system != "ring" and row.product < row.bound - BOUND_SLACK:
            failures.append(
                f"{row.system} level {row.level} ({row.path}): product "
                f"{row.product:.12g} below bound {row.bound:.12g}"
            )
        if row.nodes_counted is not None and row.nodes_counted != row.nodes_predicted:
            failures.append(
                f"{row.system} level {row.level} ({row.path}): counted "
                f"{row.nodes_counted} nodes, predicted {row.nodes_predicted}"
            )
        if row.disagreement is not None and row.disagreement > cfg.tol:
            failures.append(
                f"{row.system} level {row.level} ({row.path}): cross-path "
                f"disagreement {row.disagreement:.3e} exceeds tolerance {cfg.tol:.3e}"
            )
    return failures


def corrupt_first_product(rows: list[SweepRow], hbar: float = 1.0) -> list[SweepRow]:
    """Self-test mutation: lower the first row's product by hbar/4.

    Used to prove the checker catches a broken pipeline rather than
    rubber-stamping whatever it is fed.
    """
    if not rows:
        return rows
    first = rows[0]
    bad = replace(first, product=first.product - hbar / 4.0)
    return [bad] + rows[1:]


def _fmt(value: float) -> str:
    return format(float(value), "#.12g")


def emit(
    rows: list[SweepRow],
    fmt: str = "csv",
    metadata: dict | None = None,
) -> str:
    """Serialize rows as CSV (fixed header, 12 significant digits) or JSON."""
    if not rows:
        raise ConfigError("no rows to emit")
    if fmt == "csv":
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        for r in rows:
            out.write(
                ",".join(
                    [
                        r.system,
                        str(r.level),
                        str(r.nodes_predicted),
                        "" if r.nodes_counted is None else str(r.nodes_counted),
                        _fmt(r.energy),
                        _fmt(r.delta_q),
                        _fmt(r.delta_p),
                        _fmt(r.product),
                        _fmt(r.bound),
                        r.satisfied,
                        r.path,
                        "" if r.disagreement is None else _fmt(r.disagreement),
                    ]
                )
                + "\n"
            )
        return out.getvalue()
    if fmt == "json":
        payload = {
            "metadata": metadata or {},
            "rows": [
                {
                    "system": r.system,
                    "level": r.level,
                    "nodes_predicted": r.nodes_predicted,
                    "nodes_counted": r.nodes_counted,
                    "energy": r.energy,
                    "delta_q": r.delta_q,
                    "delta_p": r.delta_p,
                    "product": r.product,
                    "bound": r.bound,
                    "satisfied": r.satisfied,
                    "path": r.path,
                    "disagreement": r.disagreement,
                }
                for r in rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ConfigError(f"unknown output format {fmt!r}")


def default_metadata(cfg: SweepConfig) -> dict:
    spec = cfg.system
    return {
        "units": {"hbar": spec.constants.hbar},
        "system": system_tag(spec),
        "grids": {"points_override": cfg.grid_points},
        "tolerances": {"cross_path": cfg.tol, "bound_slack": BOUND_SLACK},
        "version": __version__,
    }
