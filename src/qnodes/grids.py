"""Uniform grids, composite-Simpson quadrature, and discrete derivatives."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridError

__all__ = ["GridSpec", "SampledFunction", "quad", "derivative", "spectral_derivative"]

_BOUNDARIES = ("dirichlet", "periodic", "open")


@dataclass(frozen=True)
class GridSpec:
    """Uniform discretization of an interval.

    Non-periodic grids include both endpoints and need an odd point count
    (composite Simpson pairs intervals).  Periodic grids cover
    [lower, upper) without the duplicate endpoint; any count >= 3 works
    because the rectangle rule is the natural periodic quadrature.
    """

    lower: float
    upper: float
    points: int
    boundary: str = "open"

    def __post_init__(self):
        if self.boundary not in _BOUNDARIES:
            raise GridError(f"unknown boundary policy {self.boundary!r}")
        if not self.upper > self.lower:
            raise GridError(f"need upper > lower, got [{self.lower}, {self.upper}]")
        if self.points < 3:
            raise GridError(f"need at least 3 points, got {self.points}")
        if self.boundary != "periodic" and self.points % 2 == 0:
            raise GridError(
                f"composite Simpson needs an odd point count, got {self.points}"
            )

    @property
    def h(self) -> float:
        if self.boundary == "periodic":
            return (self.upper - self.lower) / self.points
        return (self.upper - self.lower) / (self.points - 1)

    @cached_property
    def x(self) -> np.ndarray:
        """Grid points, built once per grid and read-only."""
        if self.boundary == "periodic":
            x = self.lower + self.h * np.arange(self.points)
        else:
            x = np.linspace(self.lower, self.upper, self.points)
        x.flags.writeable = False
        return x


def _check_count(grid: GridSpec, values: np.ndarray) -> None:
    """Raise GridError unless `values` holds one value per grid point."""
    if values.shape != (grid.points,):
        raise GridError(
            f"value count {values.shape} does not match grid point count {grid.points}"
        )


@dataclass(frozen=True)
class SampledFunction:
    """Samples of a state (or a density) on a grid, real or complex.

    Only samples are `SampledFunction`s; an integrand is a plain array
    that `quad(grid, values)` integrates.  `values` is a read-only view;
    integer samples are promoted to float64 once, here, so every
    derivative sees inexact values.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        _check_count(self.grid, values)
        values = values.astype(np.result_type(values, 1.0), copy=False).view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @cached_property
    def density(self) -> np.ndarray:
        """|values|^2, built once per sample and read-only."""
        if np.iscomplexobj(self.values):
            density = np.abs(self.values) ** 2
        else:
            # equals np.abs(values) ** 2 bit for bit, in one pass
            density = np.square(self.values)
        density.flags.writeable = False
        return density

    @cached_property
    def norm(self) -> float:
        """Quadrature of `density`: the squared norm, computed once."""
        return float(np.real(quad(self.grid, self.density)))


def quad(grid: GridSpec, y: np.ndarray) -> float | complex:
    """Integrate the values `y`, one per point of `grid`, over the grid.

    Composite Simpson on closed grids (O(h^4) for smooth integrands);
    rectangle rule on periodic grids, which is spectrally accurate for
    smooth periodic integrands.
    """
    _check_count(grid, y)
    h = grid.h
    if grid.boundary == "periodic":
        return h * y.sum()
    s = y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()
    return s * h / 3.0


@lru_cache(maxsize=64)
def _fd_weights(offsets: tuple[int, ...], deriv: int) -> np.ndarray:
    """Finite-difference weights for d^deriv/dx^deriv on integer offsets,
    read-only because they are cached."""
    k = np.arange(len(offsets))
    a = np.array(offsets, dtype=float) ** k[:, None]
    b = np.zeros(len(offsets))
    b[deriv] = float(math.factorial(deriv))
    weights = np.linalg.solve(a, b)
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=8)
def _edge_rows(deriv: int, width: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """One-sided `width`-point weight rows for the first three points
    (left) and the last three points (right, outermost first) of a grid."""
    left = tuple(_fd_weights(tuple(range(-i, width - i)), deriv) for i in range(3))
    right = tuple(_fd_weights(tuple(range(-(width - 1 - i), i + 1)), deriv) for i in range(3))
    return left, right


_CENTRAL_6 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_CENTRAL_6_SECOND = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0


def _order6(f: SampledFunction, central: np.ndarray, deriv: int, width: int) -> np.ndarray:
    """d^deriv/dx^deriv: 7-point central stencil inside, one-sided
    `width`-point stencils at the three points of each non-periodic edge;
    periodic grids wrap around."""
    y = f.values
    scale = f.grid.h**deriv
    n = y.size
    if n < width:
        raise GridError(f"need at least {width} points for the order-6 stencil, got {n}")
    if f.grid.boundary == "periodic":
        out = np.zeros_like(y)
        for k, c in zip(range(-3, 4), central):
            if c:
                out += c * np.roll(y, -k)
        return out / scale

    out = np.empty_like(y)
    np.divide(np.convolve(y, central[::-1], mode="valid"), scale, out=out[3:-3])
    # one row at a time: stacked into a matrix, BLAS changes the last bits
    left, right = _edge_rows(deriv, width)
    head, tail = y[:width], y[-width:]
    for i in range(3):
        out[i] = left[i] @ head / scale
        out[n - 1 - i] = right[i] @ tail / scale
    return out


def derivative(f: SampledFunction) -> np.ndarray:
    """First derivative of sampled values, order-6 accurate (7-point edges)."""
    return _order6(f, _CENTRAL_6, 1, 7)


def second_derivative(f: SampledFunction) -> np.ndarray:
    """Second derivative, order-6 interior stencil with 9-point one-sided edges."""
    return _order6(f, _CENTRAL_6_SECOND, 2, 9)


def spectral_derivative(f: SampledFunction) -> np.ndarray:
    """FFT derivative on a periodic grid; exact for band-limited samples."""
    if f.grid.boundary != "periodic":
        raise GridError("spectral derivative requires a periodic grid")
    n = f.grid.points
    length = f.grid.upper - f.grid.lower
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    return np.fft.ifft(1j * k * np.fft.fft(f.values))
