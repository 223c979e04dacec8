"""Uniform grids, rectangle-rule quadrature, discrete derivatives, and
momentum moments by Parseval (FFT, or a sine series between hard walls).

The unit of work is a stack: the samples of one state, or a (levels,
points) array of the samples of many states on one grid.  Every integral,
derivative and moment works along the last axis, row by row with the
same arithmetic as a single sample, so a stack's results equal its rows'
bit for bit; one sample gives plain floats, a stack one value per row.

A stack's size is bounded by `STACK_BYTES`.  Importing this module sets
one allocator policy (`keep_stack_memory`: glibc's mmap threshold at
32 MiB, its trim threshold at 32 stacks, 16 MiB), so the memory one stack
frees serves the next instead of going back to the OS: an oscillator
0:200 sweep took about 1,200 minor page faults without it and takes none
with it.  It changes no result.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridError, QnodesError

__all__ = [
    "GridSpec",
    "SampledFunction",
    "STACK_BYTES",
    "keep_stack_memory",
    "stack_rows",
    "raise_first",
    "first_failure",
    "quad",
    "derivative",
    "spectral_derivative",
    "spectral_moments",
]

_BOUNDARIES = ("dirichlet", "periodic", "open")

# Memory budget of one stack of samples: it bounds a sweep's peak memory
# whatever its level range, and keeps each stack's per-row temporaries
# (density, FFT, derivatives) within a few MiB.
STACK_BYTES = 1 << 19

# glibc mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def keep_stack_memory() -> None:
    """Keep the memory a stack frees in the process for the next stack.

    By default glibc's malloc gives each stack's temporaries back to the
    OS when they are freed (by munmap, or by trimming the heap) and faults
    them in again for the next stack.  Any mallopt call freezes malloc's
    dynamic thresholds, so both are set: blocks up to 32 MiB (glibc's
    ceiling, above the 8 MiB dense eigen block at the 2049-point limit)
    come from the heap, and the heap keeps up to 32 stacks' worth (16 MiB)
    free at its top.  Called once, at import; a C library without mallopt
    is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 32 * STACK_BYTES)


keep_stack_memory()


def stack_rows(bytes_per_row: int) -> int:
    """Rows of a stack of samples of `bytes_per_row` each: max(1, STACK_BYTES // bytes_per_row)."""
    return max(1, STACK_BYTES // bytes_per_row)


@dataclass(frozen=True)
class GridSpec:
    """Uniform discretization of an interval.

    Non-periodic grids include both endpoints and need an odd point count,
    for the centre point that an open grid's <x> is folded about.  Periodic
    grids cover [lower, upper) without the duplicate endpoint; any count
    >= 3 works.
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
                f"non-periodic grids need an odd point count (a centre point), got {self.points}"
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
    """Raise GridError unless `values` holds one value per grid point, in
    one row (a sample) or in each row of a stack."""
    if values.ndim not in (1, 2) or values.shape[-1] != grid.points:
        raise GridError(
            f"value count {values.shape} does not match grid point count {grid.points}"
        )


@dataclass(frozen=True)
class SampledFunction:
    """Samples of a state (or a density) on a grid, real or complex: one
    row of `grid.points` values, or a stack of such rows, one per state.

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
        """|values|^2, built once per sample (or stack) and read-only."""
        if np.iscomplexobj(self.values):
            density = np.abs(self.values) ** 2
        else:
            # equals np.abs(values) ** 2 bit for bit, in one pass
            density = np.square(self.values)
        density.flags.writeable = False
        return density

    @cached_property
    def norm(self) -> float | np.ndarray:
        """Quadrature of `density`: the squared norm, computed once; a
        read-only array of one norm per row for a stack."""
        norm = np.real(quad(self.grid, self.density))
        if norm.ndim == 0:
            return float(norm)
        norm.flags.writeable = False
        return norm


def per_sample(f: SampledFunction, *values) -> tuple:
    """`values` computed for `f`: as floats for one sample, as they are
    (one per row) for a stack."""
    if f.values.ndim == 2:
        return values
    return tuple(float(v) for v in values)


def floored(a, floor: float):
    """max(a, floor) per element, as Python's max: a NaN is kept."""
    return np.where(a < floor, floor, a)


def raise_first(*checks) -> None:
    """Raise the error of the first row of a stack that fails a check.

    Each check is (failed, error): a boolean per row (a single one for a
    sample) and a function from a row index to the exception.  A row's
    checks are taken in argument order, so the error is the one a loop
    over the rows, checking each row in turn, would raise first.  The
    exception carries that index as its `row`.
    """
    first = None
    for failed, error in checks:
        hit = np.flatnonzero(failed)
        if hit.size and (first is None or hit[0] < first[0]):
            first = (int(hit[0]), error)
    if first is not None:
        row, error = first
        exc = error(row)
        exc.row = row
        raise exc


def first_rows(f: SampledFunction, end: int) -> SampledFunction:
    """The stack of the first `end` rows of the stack `f` (`f` itself if
    that is all of them)."""
    if end == len(f.values):
        return f
    return SampledFunction(f.grid, f.values[:end])


def first_failure(run, rows: int):
    """run(rows), or the error of the first failing row of a stack when
    `run` raises: run(end) computes the first `end` rows.

    An error names its row as its `row` (0 if it names none).  The rows
    before it are then run again, until a prefix of the stack passes, so
    the error raised is that of the first failing row and, within it, of
    its first failing step: the one a loop over the rows would raise.
    """
    end, first = rows, None
    while first is None or end:
        try:
            result = run(end)
        except (QnodesError, OverflowError) as exc:
            first, end = exc, getattr(exc, "row", 0)
            continue
        if first is None:
            return result
        break
    raise first


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row dot products along the last axis.

    A batched (1, n) @ (n, 1) matmul takes BLAS's vector dot for each
    row, so every row sums in the order `a_row @ b_row` does (`einsum`
    and a matrix product do not).
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def quad(grid: GridSpec, y: np.ndarray):
    """Integrate the values `y`, one per point of `grid`, over the grid;
    a stack of rows gives one integral per row.

    The rectangle rule over one period (the trapezoid rule on closed grids,
    whose end samples are zero between walls and decayed on open grids):
    exact for the density of a state below the Nyquist wavenumber pi/h
    (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).
    """
    _check_count(grid, y)
    if grid.boundary == "periodic":
        return grid.h * y.sum(axis=-1)
    return grid.h * (y[..., 1:-1].sum(axis=-1) + 0.5 * (y[..., 0] + y[..., -1]))


def _fd_weights(offsets: tuple[int, ...], deriv: int) -> np.ndarray:
    """Finite-difference weights for d^deriv/dx^deriv on integer offsets,
    read-only because `_edge_rows` caches them."""
    k = np.arange(len(offsets))
    a = np.array(offsets, dtype=float) ** k[:, None]
    b = np.zeros(len(offsets))
    b[deriv] = float(math.factorial(deriv))
    weights = np.linalg.solve(a, b)
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=1)
def _edge_rows() -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """One-sided 7-point weight rows for the first three points (left) and
    the last three points (right, outermost first) of a grid."""
    left = tuple(_fd_weights(tuple(range(-i, 7 - i)), 1) for i in range(3))
    right = tuple(_fd_weights(tuple(range(-(6 - i), i + 1)), 1) for i in range(3))
    return left, right


_CENTRAL_6 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0


def derivative(f: SampledFunction) -> np.ndarray:
    """First derivative of sampled values, order-6 accurate: 7-point
    central stencil inside, one-sided 7-point stencils at the three points
    of each non-periodic edge; periodic grids wrap around."""
    y, scale, width = f.values, f.grid.h, 7
    n = y.shape[-1]
    if n < width:
        raise GridError(f"need at least {width} points for the order-6 stencil, got {n}")
    if f.grid.boundary == "periodic":
        out = np.zeros_like(y)
        for k, c in zip(range(-3, 4), _CENTRAL_6):
            if c:
                out += c * np.roll(y, -k, axis=-1)
        return out / scale

    out = np.empty_like(y)
    # np.convolve takes one sample at a time
    for row, dst in zip(y.reshape(-1, n), out.reshape(-1, n)):
        np.divide(np.convolve(row, _CENTRAL_6[::-1], mode="valid"), scale, out=dst[3:-3])
    # one weight row at a time: stacked into a matrix, BLAS changes the last bits
    left, right = _edge_rows()
    head, tail = y[..., :width], y[..., -width:]
    for i in range(3):
        out[..., i] = dot(head, left[i]) / scale
        out[..., n - 1 - i] = dot(tail, right[i]) / scale
    return out


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
    The high band is the bins from `first` on, with |kappa| above half the
    Nyquist wavenumber (7/8 of it on an open grid): the tail of an `rfft`,
    the middle of an `fft`.  A Dirichlet grid is half the period of its odd
    extension: its weights are halved, and its band starts at k = J/2.
    """
    walls = grid.boundary == "dirichlet"
    m = grid.points if grid.boundary == "periodic" else (grid.points - 1) * (2 if walls else 1)
    first = {"dirichlet": m // 4, "periodic": m // 4 + 1, "open": 7 * m // 16 + 1}[grid.boundary]
    if real:
        k = np.arange(m // 2 + 1, dtype=float)
        weight = np.where((k == 0) | (2 * k == m), 1.0, 2.0) * grid.h / m * (0.5 if walls else 1.0)
        high = slice(2 * first, None)
    else:
        k = np.fft.fftfreq(m, 1.0 / m)
        weight = np.full(m, grid.h / m)
        high = slice(2 * first, 2 * (m + 1 - first))
    w0 = np.repeat(weight, 2)
    kappa = np.repeat(2.0 * np.pi / (m * grid.h) * k, 2)
    w1 = w0 * kappa
    w2 = w0 * kappa**2
    for array in (w0, kappa, w1, w2):
        array.flags.writeable = False
    return w0, kappa, w1, w2, high


def spectral_moments(f: SampledFunction) -> tuple:
    """(<-i d/dx>, <-d^2/dx^2>, high-band share, centred variance) of the
    samples (per row of a stack), by Parseval.

    One period of the samples is transformed once: a periodic grid's
    samples as they are, an open grid's without the duplicate end point
    (exact for samples that have decayed at both ends), or a Dirichlet
    grid's real samples as the odd extension of the interior (zero at the
    walls), whose `rfft` gives their DST-I.  Real samples take an `rfft`, a
    first moment of exactly 0.0 and a variance equal to the second moment;
    complex ones an `fft`, and the variance is the centred sum of
    w (kappa - <kappa>)^2 |c|^2, so a sample of one wavenumber has a
    variance at roundoff, not the cancellation of <kappa^2> - <kappa>^2.
    The share is the fraction of the second moment carried by the high
    band (`_parseval_weights`), the moment floored at one natural unit
    (hbar^2 = 1) so that a state at rest reads roundoff over 1, not
    roundoff over roundoff.  It is at roundoff when a grid of spacing 2h
    (8h/7 on an open grid) would still resolve the samples.
    """
    y = f.values if f.grid.boundary == "periodic" else f.values[..., :-1]
    real = not np.iscomplexobj(y)
    if f.grid.boundary == "dirichlet":
        if not real:
            raise GridError("Dirichlet samples must be real: a complex <p> has no sine-series form")
        y = np.concatenate([y, -f.values[..., :0:-1]], axis=-1)
        y[..., :: f.grid.points - 1] = 0.0
    w0, kappa, w1, w2, high = _parseval_weights(f.grid, real)
    v = (np.fft.rfft(y, axis=-1) if real else np.fft.fft(y, axis=-1)).view(np.float64)
    u = v * w2
    top = dot(v[..., high], u[..., high])
    mean2 = dot(v, u)
    share = top / floored(mean2, 1.0)
    if real:
        return per_sample(f, np.zeros_like(mean2), mean2, share, mean2)
    mean = dot(v, v * w1)
    centred = kappa - mean[..., None]
    np.square(centred, out=centred)
    centred *= w0
    return per_sample(f, mean, mean2, share, dot(v, v * centred))
