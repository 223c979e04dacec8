"""Uniform grids, composite-Simpson quadrature, discrete derivatives, and
momentum moments by Parseval."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridError

__all__ = [
    "GridSpec",
    "SampledFunction",
    "quad",
    "derivative",
    "spectral_derivative",
    "spectral_moments",
]

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
        """Grid points, built once per grid and read-only.

        Open grids are built as h (j - m) about the centre point m, so a
        grid centred on 0 is exactly antisymmetric: x[N-1-j] == -x[j].
        """
        if self.boundary == "periodic":
            x = self.lower + self.h * np.arange(self.points)
        elif self.boundary == "open":
            m = self.points // 2
            x = 0.5 * (self.lower + self.upper) + self.h * np.arange(-m, m + 1)
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


@lru_cache(maxsize=16)
def _parseval_weights(grid: GridSpec, real: bool) -> tuple[np.ndarray, ...]:
    """(weights, kappa, <p> weights, <p^2> weights, high band) per float
    of the FFT of one period of samples on `grid`, read-only because they
    are cached.

    The FFT's complex bins are read as interleaved (re, im) floats, so
    each value appears twice.  <p^k> = sum_j w_j kappa_j^k v_j^2 with
    weight w = h/M per bin (Parseval, M samples per period); an `rfft` bin
    other than 0 and M/2 also stands for its mirror bin and counts twice.
    The high band is the bins with |kappa| above half the Nyquist
    wavenumber: the tail of an `rfft`, the middle of an `fft`.
    """
    m = grid.points if grid.boundary == "periodic" else grid.points - 1
    if real:
        k = np.arange(m // 2 + 1, dtype=float)
        weight = np.where((k == 0) | (2 * k == m), 1.0, 2.0) * grid.h / m
        high = slice(2 * (m // 4 + 1), None)
    else:
        k = np.fft.fftfreq(m, 1.0 / m)
        weight = np.full(m, grid.h / m)
        high = slice(2 * (m // 4 + 1), 2 * (m - m // 4))
    w0 = np.repeat(weight, 2)
    kappa = np.repeat(2.0 * np.pi / (m * grid.h) * k, 2)
    w1 = w0 * kappa
    w2 = w0 * kappa**2
    for array in (w0, kappa, w1, w2):
        array.flags.writeable = False
    return w0, kappa, w1, w2, high


def spectral_moments(f: SampledFunction) -> tuple[float, float, float, float]:
    """(<-i d/dx>, <-d^2/dx^2>, high-band share, centred variance) of the
    samples, by Parseval.

    One period of the samples is transformed once: a periodic grid's
    samples as they are, an open grid's without the duplicate end point
    (exact for samples that have decayed at both ends).  Real samples take
    an `rfft`, a first moment of exactly 0.0 and a variance equal to the
    second moment; complex ones an `fft`, and the variance is the centred
    sum of w (kappa - <kappa>)^2 |c|^2, so a sample of one wavenumber has
    a variance at roundoff, not the cancellation of <kappa^2> - <kappa>^2.
    The share is the fraction of the second moment carried by wavenumbers
    above half the Nyquist wavenumber pi / h, the moment floored at one
    natural unit (hbar^2 = 1) so that a state at rest reads roundoff over
    1, not roundoff over roundoff.  It is at roundoff when a grid of
    spacing 2h would still resolve the samples.
    """
    if f.grid.boundary == "dirichlet":
        raise GridError("Parseval moments need an open or periodic grid")
    y = f.values if f.grid.boundary == "periodic" else f.values[:-1]
    real = not np.iscomplexobj(y)
    w0, kappa, w1, w2, high = _parseval_weights(f.grid, real)
    v = (np.fft.rfft(y) if real else np.fft.fft(y)).view(np.float64)
    u = v * w2
    top = float(v[high] @ u[high])
    mean2 = float(v @ u)
    share = top / max(mean2, 1.0)
    if real:
        return 0.0, mean2, share, mean2
    mean = float(v @ (v * w1))
    centred = kappa - mean
    np.square(centred, out=centred)
    centred *= w0
    return mean, mean2, share, float(v @ (v * centred))
