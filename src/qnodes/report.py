"""Sweeps across quantum numbers, cross-path reconciliation, and reports.

A sweep evaluates each requested level along up to three independent
paths (closed forms, quadrature oracle, Fourier-grid eigensolver),
checks the Heisenberg bound where it applies, and serializes the result
as CSV or JSON with deterministic formatting.  Each path carries its
results as one array per column over a stack of levels; they are
rescaled, compared across paths and flagged a column at a time, and the
rows are built once, at the end.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .analytic import COLUMN_UNITS, uncertainty_columns
from .eigensolver import build_hamiltonian, default_eigen_grid, eigen_columns, solve_lowest
from .errors import ConfigError, DomainError, GridError, QnodesError
from .grids import first_failure, first_rows, raise_first, stack_rows
from .model import Oscillator, Scales, SystemSpec, predicted_node_count, scales, validate_state
from .nodal import node_counts
from .oracle import alias_check, columns_from_stack, default_grid, sample_levels
from .special import MAX_OSCILLATOR_N, oscillator_ladder

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


_FIELDS = tuple(f.name for f in fields(SweepRow))
CSV_HEADER = ",".join(_FIELDS)


def _new_row(*values) -> SweepRow:
    """The SweepRow of `values`, in field order, with its `__dict__` filled
    in one update instead of the frozen `__init__`'s one
    `object.__setattr__` per field; it is the same frozen value."""
    row = object.__new__(SweepRow)
    row.__dict__.update(zip(_FIELDS, values))
    return row


def _satisfied_flags(spec: SystemSpec, product: np.ndarray, bound: np.ndarray) -> list[str]:
    """Per element, 'na' on a periodic grid (the ring), which has no Heisenberg
    check; else whether the product meets the bound within the roundoff slack."""
    if spec.boundary == "periodic":
        return ["na"] * len(product)
    # an infinite bound makes a NaN threshold, which no product meets
    with np.errstate(invalid="ignore"):
        return np.where(product >= bound - BOUND_SLACK * bound, "true", "false").tolist()


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """One row per (level, path), in `cfg.levels` order then canonical path order.

    Every path works on one grid: the eigen grid when the eigen path runs
    (`default_eigen_grid`, which is `default_grid` of the top level), else
    `default_grid(spec, max |level|, cfg.grid_points)`.  Each distinct
    level is sampled once on it, and the levels are taken in ascending
    stacks, as many per stack as `grids.stack_rows` allows for a row of
    that grid: each path takes a stack's moments and node counts in one
    pass, as an array per column, rescaled once; the disagreements and
    rows are made last, over all levels.  Every path computes in natural
    units.  An error raised for a level names it, and is the one a
    level-by-level sweep would raise first; a column that overflows, or a
    level too large to sample (for a float, or for the oscillator's
    ladder: an OverflowError), raises DomainError.
    """
    spec = cfg.system
    units = scales(spec)

    levels = sorted(set(cfg.levels))
    sampled = "analytic" in cfg.paths or "oracle" in cfg.paths
    too_large = None
    ladder_cut = bisect_right(levels, MAX_OSCILLATOR_N) if isinstance(spec, Oscillator) else None
    for row, level in enumerate(levels if sampled else ()):
        try:
            float(level)
            if row == ladder_cut:
                oscillator_ladder((), level)  # the first level past its limit
        except OverflowError as exc:  # unsampled: the levels below it are swept first
            too_large, levels = _at_level(level, exc), levels[:row]
            break
    eigen = "eigen" in cfg.paths
    if eigen:
        # a level with N predicted nodes needs eigenstates 0 .. N
        top = max(cfg.levels, key=lambda l: predicted_node_count(spec, l))
        k = predicted_node_count(spec, top) + 1
    else:
        top = max(levels, key=abs, default=0)
    try:
        grid = (
            default_eigen_grid(spec, k, cfg.grid_points)
            if eigen
            else default_grid(spec, top, cfg.grid_points)
        )
    except (QnodesError, OverflowError) as exc:
        raise _at_level(top, exc) from exc
    eigen_result = solve_lowest(build_hamiltonian(spec, grid), k) if eigen else None
    # samples on a periodic grid (the ring's) are complex
    rows = stack_rows((16 if spec.boundary == "periodic" else 8) * grid.points)
    stacks = [levels[i : i + rows] for i in range(0, len(levels), rows)]
    samples = sample_levels(spec, stacks, grid) if sampled and stacks else (None for _ in stacks)
    parts = [
        _sweep_stack(spec, units, cfg.paths, stack, psi, eigen_result)
        for stack, psi in zip(stacks, samples)
    ]
    if too_large is not None:
        raise too_large
    columns = {
        path: [np.concatenate(c, axis=-1) for c in zip(*(part[path] for part in parts))]
        for path in cfg.paths
    }
    return _rows(spec, units, cfg.levels, levels, columns)


def _at_level(level: int, exc: Exception) -> QnodesError:
    """The error to raise for `exc`, naming `level`: a qnodes error keeps
    its type, and an OverflowError (a level too large for a float) becomes
    a DomainError."""
    kind = DomainError if isinstance(exc, OverflowError) else type(exc)
    return kind(f"level {level}: {exc}")


def _sweep_stack(spec, units, paths, levels, psi, eigen_result) -> dict[str, tuple]:
    """Each path's (physical (column, level) array in `COLUMN_UNITS` order,
    node counts) for the ascending `levels` sampled in the stack `psi`
    (None when no path needs samples).  The steps run in a level's order
    (the grid's aliasing check, each path's columns and rescale, then the
    samples' node count), each over the whole stack, so the moments'
    guards come before the node count's on samples as on eigenstates
    (`eigen_columns`); an error is that of the first failing level across
    the steps (`grids.first_failure`, run only here), and names it."""

    def run(end):
        part = None if psi is None else first_rows(psi, end)
        if part is not None:
            raise_first(alias_check(spec, levels[:end], part.grid))
        natural = {
            "analytic": lambda: uncertainty_columns(spec, levels[:end]),
            "oracle": lambda: columns_from_stack(spec, part),
            "eigen": lambda: eigen_columns(spec, eigen_result, levels[:end]),
        }
        out = {}
        for path in paths:
            c = natural[path]()
            physical = [units.rescale(name, c[name], unit) for name, unit in COLUMN_UNITS.items()]
            out[path] = np.array(physical), c.get("nodes")
        counted = None if part is None else node_counts(part)
        return {path: (v, counted if nodes is None else nodes) for path, (v, nodes) in out.items()}

    try:
        return first_failure(run, len(levels))
    except (QnodesError, OverflowError) as exc:
        raise _at_level(levels[getattr(exc, "row", 0)], exc) from exc


def _rows(spec, units, order, levels, columns) -> list[SweepRow]:
    """The rows of the levels in `order`, from each path's (physical
    columns, node counts) over the ascending, distinct `levels`."""
    disagreement = [None] * len(levels)
    if len(columns) >= 2:
        values = np.hstack([v for v, _ in columns.values()])
        groups = np.tile(np.arange(len(levels)), len(columns))
        disagreement = _max_disagreement(values, groups, units).tolist()
    # each path's (nodes counted, physical columns..., satisfied) per level
    cells = {}
    for path, (values, nodes) in columns.items():
        *_, product, bound = values
        flags = _satisfied_flags(spec, product, bound)
        cells[path] = list(zip(nodes.tolist(), *values.tolist(), flags))
    index = {level: i for i, level in enumerate(levels)}
    predicted = [predicted_node_count(spec, level) for level in levels]
    tag, rows = system_tag(spec), []
    for level in order:
        i = index[level]
        for path in columns:
            rows.append(_new_row(tag, level, predicted[i], *cells[path][i], path, disagreement[i]))
    return rows


def _max_disagreement(values: np.ndarray, groups, units: Scales) -> np.ndarray:
    """Per group, the worst relative difference of a physical column
    between two of its rows: `values` is a (column, row) array in
    `COLUMN_UNITS` order, and `groups` numbers the group (0, 1, ...) of
    each row.

    Each denominator is floored at the column's unit, so values far below
    one natural unit are compared absolutely in that unit.  A group is NaN
    if any of its differences is NaN, and 0.0 if it has one row.
    """
    groups = np.asarray(groups, dtype=int)
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    floors = np.array([getattr(units, unit) for unit in COLUMN_UNITS.values()])[:, None]
    worst = np.zeros(np.max(groups, initial=-1) + 1)
    # pair each row with the one `step` places on in `order`, while any pair shares a group
    for step in range(1, len(order)):
        same = sorted_groups[step:] == sorted_groups[:-step]
        if not same.any():
            break
        a, b = values[:, order[:-step][same]], values[:, order[step:][same]]
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN give NaN, as floats do
            rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floors)
            np.maximum.at(worst, sorted_groups[step:][same], rel.max(axis=0))
    return worst


def verify_rows(cfg: SweepConfig, rows: list[SweepRow]) -> list[str]:
    """Check finiteness, bounds, node laws, and cross-path agreement.

    Returns the failures.  The satisfied flag is recomputed from the
    product and bound fields, and each level's disagreement from that
    level's rows, so a corrupted row cannot slip through on a stale flag
    or a disagreement computed before the corruption.  A row fails when
    its stored or its recomputed disagreement exceeds the tolerance or is
    NaN; the failure names the worse of the two.

    Each check runs over a column at once; messages are formatted only
    for the rows that fail one.
    """
    values = np.array([[getattr(r, n) for r in rows] for n in COLUMN_UNITS], dtype=float)
    index: dict[int, int] = {}
    groups = [index.setdefault(row.level, len(index)) for row in rows]
    recomputed = _max_disagreement(values, groups, scales(cfg.system))[groups]
    finite = np.isfinite(values)
    *_, product, bound = values
    below = np.array(_satisfied_flags(cfg.system, product, bound), dtype=str) == "false"
    miscounted = np.array(
        [r.nodes_counted is not None and r.nodes_counted != r.nodes_predicted for r in rows], dtype=bool
    )
    stored = np.array([r.disagreement for r in rows], dtype=float)
    has_stored = np.array([r.disagreement is not None for r in rows], dtype=bool)
    # `not d <= tol`: a NaN disagreement fails
    wide = (has_stored & ~(stored <= cfg.tol)) | ~(recomputed <= cfg.tol)
    failing = ~finite.all(axis=0) | below | miscounted | wide
    failures: list[str] = []
    for i in np.flatnonzero(failing).tolist():
        row, dis = rows[i], float(recomputed[i])
        names = [name for name, ok in zip(COLUMN_UNITS, finite[:, i]) if not ok]
        found = [f"{name} is {getattr(row, name)!r}, not finite" for name in names]
        if below[i]:
            found.append(f"product {row.product:.12g} below bound {row.bound:.12g}")
        if miscounted[i]:
            found.append(f"counted {row.nodes_counted} nodes, predicted {row.nodes_predicted}")
        exceeded = [d for d in (row.disagreement, dis) if d is not None and not d <= cfg.tol]
        if exceeded:
            worst = max(exceeded, key=lambda d: math.inf if math.isnan(d) else d)
            found.append(f"cross-path disagreement {worst:.3e} exceeds tolerance {cfg.tol:.3e}")
        where = f"{row.system} level {row.level} ({row.path})"
        failures += [f"{where}: {line}" for line in found]
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
    """A value's CSV text: the one rule for a cell."""
    if value is None:
        return ""
    return format(value, "#.12g") if isinstance(value, float) else str(value)


def _csv_column(column: tuple) -> tuple[str, tuple]:
    """(`%` format, values) that print a whole column as `_cell` prints
    each of its cells: a column of plain floats takes `%#.12g`, one of ints
    and strings `%s`, and any other (a None, a bool, numpy scalars, a float
    column holding an int) `%s` of its `_cell` strings."""
    kinds = set(map(type, column))
    if kinds == {float}:
        return "%#.12g", column
    if kinds <= {int, str}:
        return "%s", column
    return "%s", tuple(map(_cell, column))


def emit(
    rows: list[SweepRow],
    fmt: str = "csv",
    metadata: dict | None = None,
) -> str:
    """Serialize rows as CSV (fixed header, 12 significant digits) or JSON.

    The columns and JSON keys are the fields of `SweepRow`, in order.
    The CSV is formatted a column at a time: one `%` template per call,
    its format per column chosen by `_csv_column`, prints every row.
    JSON is standard: a value that is not finite raises ValueError.
    """
    if not rows:
        raise ConfigError("no rows to emit")
    if fmt == "csv":
        columns = zip(*(vars(r).values() for r in rows))
        formats, columns = zip(*map(_csv_column, columns))
        template = ",".join(formats)
        lines = [CSV_HEADER] + [template % values for values in zip(*columns)]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        # a row's fields are all scalars: its __dict__ is what asdict copies
        payload = {"metadata": metadata or {}, "rows": [dict(vars(r)) for r in rows]}
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
