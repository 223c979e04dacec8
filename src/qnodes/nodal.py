"""Node counting on sampled wavefunctions.

It reads the real part of the samples: a real state's own values, or
Re psi of a complex ring state.  `count_nodes` judges near-zero samples
against one fixed threshold, `ZERO_RTOL` times the peak magnitude;
`node_counts` counts every row of a stack of samples the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, GridError
from .grids import SampledFunction, raise_first

__all__ = ["NodeReport", "count_nodes", "node_counts"]

# Samples below this fraction of the peak magnitude are "touching zero":
# they are bridged, and a graze without a sign change is not a node.
ZERO_RTOL = 1e-9


@dataclass(frozen=True)
class NodeReport:
    """Detected sign-change nodes of a real-valued sample."""

    count: int
    locations: np.ndarray


def count_nodes(f: SampledFunction) -> NodeReport:
    """Count strict sign changes of the (real part of the) samples of one
    state; a stack raises GridError (`node_counts` counts its rows).

    Samples with magnitude below ZERO_RTOL * max|f| are bridged: a node is
    a sign change between the significant samples on either side, located
    by linear interpolation.  Zeros within one grid cell of a Dirichlet
    wall are not counted.
    """
    if f.values.ndim != 1:
        raise GridError("count_nodes takes one sample; node_counts counts a stack's rows")
    _, locations = _nodes(f)
    return NodeReport(count=int(locations.size), locations=np.sort(locations))


def node_counts(f: SampledFunction) -> np.ndarray:
    """`count_nodes(...).count` of every row of a stack of samples (a
    sample is a stack of one); a DegenerateError names the first
    degenerate row."""
    rows, _ = _nodes(f)
    return np.bincount(rows, minlength=f.values.size // f.grid.points)


def _nodes(f: SampledFunction) -> tuple[np.ndarray, np.ndarray]:
    """(row, location) of every node of every row of `f` (a sample is a
    stack of one).

    The significant samples of all rows are compressed into one array;
    a sign change between the last sample of a row and the first of the
    next is no node.  Column indices are taken only at the changes.
    """
    y = np.real(f.values).reshape(-1, f.grid.points)
    x = f.grid.x
    magnitude = np.abs(y)
    peak = magnitude.max(axis=1)
    mask = magnitude > (ZERO_RTOL * peak)[:, None]
    counts = np.count_nonzero(mask, axis=1)
    # Open grids truncate decaying tails, so a mostly-below-threshold sample
    # is normal there; confined states must fill their domain.
    sparse = (counts < y.shape[1] / 2.0) & (f.grid.boundary != "open")
    raise_first(
        (peak == 0.0, lambda row: DegenerateError("samples are identically zero")),
        (counts < 3, lambda row: DegenerateError("fewer than 3 samples above the zero threshold")),
        (sparse, lambda row: DegenerateError(
            f"{y.shape[1] - counts[row]} of {y.shape[1]} samples below the zero "
            "threshold; function is numerically zero on most of the grid"
        )),
    )

    ys = y[mask]
    ends = np.cumsum(counts)
    starts = ends - counts
    # every significant sample is nonzero, so its sign bit is its sign
    negative = np.signbit(ys)
    left = np.flatnonzero(negative[:-1] != negative[1:])
    crossing = np.zeros(ys.size, dtype=bool)
    crossing[ends - 1] = True
    left = left[~crossing[left]]
    right = left + 1
    period = f.grid.upper - f.grid.lower
    wraps = np.zeros(0, dtype=np.intp)
    if f.grid.boundary == "periodic":
        # one full period: a row's last significant sample pairs with its
        # first, one period on, so a zero in the wrap cell counts
        wraps = np.flatnonzero(negative[ends - 1] != negative[starts])
        left = np.concatenate((left, ends[wraps] - 1))
        right = np.concatenate((right, starts[wraps]))
    columns = np.flatnonzero(mask)
    x0 = x[columns[left] % y.shape[1]]
    x1 = x[columns[right] % y.shape[1]]
    x1[x1.size - wraps.size :] += period
    y0, y1 = ys[left], ys[right]
    locations = x0 - y0 * (x1 - x0) / (y1 - y0)
    rows = np.searchsorted(ends, left, side="right")

    if f.grid.boundary == "periodic":
        locations = f.grid.lower + (locations - f.grid.lower) % period
    if f.grid.boundary == "dirichlet":
        h = f.grid.h
        inside = (locations > f.grid.lower + h) & (locations < f.grid.upper - h)
        rows, locations = rows[inside], locations[inside]
    return rows, locations

