"""Node counting on sampled wavefunctions and density-flatness checks.

Both read the real part of the samples: a real state's own values, or
Re psi of a complex ring state.  `count_nodes` judges near-zero samples
against one fixed threshold, `ZERO_RTOL` times the peak magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError
from .grids import SampledFunction

__all__ = ["NodeReport", "count_nodes", "density_flatness"]

# Samples below this fraction of the peak magnitude are "touching zero":
# they are bridged, and a graze without a sign change is not a node.
ZERO_RTOL = 1e-9


@dataclass(frozen=True)
class NodeReport:
    """Detected sign-change nodes of a real-valued sample."""

    count: int
    locations: np.ndarray


def count_nodes(f: SampledFunction) -> NodeReport:
    """Count strict sign changes of the (real part of the) samples.

    Samples with magnitude below ZERO_RTOL * max|f| are bridged: a node is
    a sign change between the significant samples on either side, located
    by linear interpolation.  Zeros within one grid cell of a Dirichlet
    wall are not counted.
    """
    y = np.real(f.values)
    x = f.grid.x
    magnitude = np.abs(y)
    peak = float(np.max(magnitude))
    if peak == 0.0:
        raise DegenerateError("samples are identically zero")
    eps = ZERO_RTOL * peak
    mask = magnitude > eps
    significant = np.flatnonzero(mask)
    if significant.size < 3:
        raise DegenerateError("fewer than 3 samples above the zero threshold")
    # Open grids truncate decaying tails, so a mostly-below-threshold sample
    # is normal there; confined states must fill their domain.
    if f.grid.boundary != "open" and significant.size < y.size / 2.0:
        raise DegenerateError(
            f"{y.size - significant.size} of {y.size} samples below the zero "
            "threshold; function is numerically zero on most of the grid"
        )

    ys = y[mask]
    # every significant sample is nonzero, so its sign bit is its sign
    negative = np.signbit(ys)
    left = np.flatnonzero(negative[:-1] != negative[1:])
    period = f.grid.upper - f.grid.lower
    wrap = f.grid.boundary == "periodic" and negative[-1] != negative[0]
    if wrap:
        # one full period: the last significant sample pairs with the first,
        # one period on, so a zero in the wrap cell counts
        left = np.append(left, ys.size - 1)
    right = (left + 1) % ys.size
    x0, x1 = x[significant[left]], x[significant[right]]
    if wrap:
        x1[-1] += period
    y0, y1 = ys[left], ys[right]
    locations = x0 - y0 * (x1 - x0) / (y1 - y0)

    if f.grid.boundary == "periodic":
        locations = f.grid.lower + (locations - f.grid.lower) % period
    if f.grid.boundary == "dirichlet":
        h = f.grid.h
        locations = locations[(locations > f.grid.lower + h) & (locations < f.grid.upper - h)]
    return NodeReport(count=int(locations.size), locations=np.sort(locations))


def density_flatness(rho: SampledFunction) -> tuple[float, bool]:
    """Max deviation of a density from its mean, and whether it is nodeless.

    Returns (max|rho - mean(rho)|, min(rho) > 0).  For any definite-m ring
    state the sampled density is exactly constant and strictly positive.
    """
    values = np.real(rho.values)
    if np.ptp(values) == 0.0:
        # exactly constant samples: zero deviation with no roundoff from the mean
        return 0.0, bool(values[0] > 0.0)
    mean = float(np.mean(values))
    max_dev = float(np.max(np.abs(values - mean)))
    return max_dev, bool(np.min(values) > 0.0)
