"""Grid-based verification path: expectation values by quadrature.

Nothing in this module uses the closed-form moments; states are sampled
(or handed over as eigenvectors) and every moment is recomputed from
Simpson quadrature and high-order discrete derivatives.  Grids, samples
and moments are in the system's natural units (`model.scales`);
`oracle_uncertainties` rescales its record once.
"""

from __future__ import annotations

import math

import numpy as np

from .analytic import UncertaintyRecord, box_psi, ring_state_values
from .errors import GridError, NormalizationError
from .grids import (
    GridSpec,
    SampledFunction,
    derivative,
    quad,
    second_derivative,
    spectral_derivative,
)
from .model import (
    Box,
    Oscillator,
    Ring,
    RingSuperposition,
    SystemSpec,
    predicted_node_count,
    scales,
    validate_state,
)
from .special import oscillator_ladder, oscillator_psi

__all__ = [
    "default_grid",
    "sample_state",
    "sample_levels",
    "position_moments",
    "momentum_moments",
    "oracle_uncertainties",
    "record_from_samples",
    "ring_lz_by_quadrature",
    "ring_theta_by_quadrature",
]

# Normalization tolerances: precondition vs hard error.
_NORM_TOL = 1e-6
# Stencil-order guard for <p^2>: relative disagreement between the order-6
# derivative and np.gradient's order-2 stencil on the same grid.
_STENCIL_ORDER_TOL = 1e-2

DEFAULT_BOX_POINTS = 4001
DEFAULT_OSCILLATOR_POINTS = 8001
DEFAULT_RING_POINTS = 4096


def default_grid(spec: SystemSpec, idx: int = 0, points: int | None = None) -> GridSpec:
    """Natural-unit grid suited to the system and quantum number.

    The box grid is [0, 1], the ring's [0, 2 pi).  The oscillator
    half-width is the classical turning point sqrt(2n+1) plus a 10-sigma
    tail margin.
    """
    if isinstance(spec, Box):
        return GridSpec(0.0, 1.0, points or DEFAULT_BOX_POINTS, "dirichlet")
    if isinstance(spec, Ring):
        return GridSpec(0.0, 2.0 * math.pi, points or DEFAULT_RING_POINTS, "periodic")
    half_width = max(math.sqrt(2.0 * abs(int(idx)) + 1.0) + 10.0, 12.0)
    return GridSpec(-half_width, half_width, points or DEFAULT_OSCILLATOR_POINTS, "open")


def sample_state(
    spec: SystemSpec,
    state: int | RingSuperposition,
    grid: GridSpec | None = None,
) -> SampledFunction:
    """Sample the natural-unit eigenfunction (or ring superposition) on a
    natural-unit grid."""
    if isinstance(spec, Ring):
        grid = grid or default_grid(spec)
        return SampledFunction(grid, ring_state_values(state, grid.x))
    idx = validate_state(spec, state)
    grid = grid or default_grid(spec, idx)
    psi = box_psi if isinstance(spec, Box) else oscillator_psi
    return SampledFunction(grid, psi(type(spec)(), idx, grid.x))


def sample_levels(spec: SystemSpec, levels, grid: GridSpec):
    """Yield (level, sample) for ascending distinct `levels`, all on `grid`.

    Oscillator levels come from one streamed pass of `oscillator_ladder`.
    """
    if not isinstance(spec, Oscillator):
        for level in levels:
            yield level, sample_state(spec, level, grid)
        return
    wanted = set(levels)
    for n, phi in enumerate(oscillator_ladder(grid.x, max(levels))):
        if n in wanted:
            yield n, SampledFunction(grid, phi)


def _check_normalized(psi: SampledFunction) -> None:
    norm = float(np.real(quad(SampledFunction(psi.grid, np.abs(psi.values) ** 2))))
    if abs(norm - 1.0) > _NORM_TOL:
        raise NormalizationError(f"state norm^2 is {norm!r}, deviates beyond {_NORM_TOL}")


def position_moments(psi: SampledFunction) -> tuple[float, float]:
    """(<x>, <x^2>) by quadrature of x |psi|^2 and x^2 |psi|^2."""
    _check_normalized(psi)
    x = psi.grid.x
    density = np.abs(psi.values) ** 2
    mean_x = float(quad(SampledFunction(psi.grid, x * density)))
    mean_x2 = float(quad(SampledFunction(psi.grid, x**2 * density)))
    return mean_x, mean_x2


def momentum_moments(
    psi: SampledFunction, check_resolution: bool = True
) -> tuple[float, float]:
    """(<p>, <p^2>) in natural units (hbar = 1) from discrete derivatives.

    <p> is the real part of the quadrature of psi* (-i) psi'; <p^2> uses
    the integration-by-parts form integral |psi'|^2, which is nonnegative
    by construction.  With `check_resolution` the second moment is
    recomputed from a low-order derivative stencil and a GridError is
    raised when the two estimates disagree beyond 1 percent: the grid
    cannot resolve the state's oscillations.
    """
    _check_normalized(psi)
    dpsi = derivative(psi)
    mean_p = float(np.real(quad(SampledFunction(psi.grid, np.conj(psi.values) * -1j * dpsi))))
    mean_p2 = float(np.real(quad(SampledFunction(psi.grid, np.abs(dpsi) ** 2))))
    if check_resolution:
        low = np.gradient(psi.values, psi.grid.h)
        p2_low = float(np.real(quad(SampledFunction(psi.grid, np.abs(low) ** 2))))
        if abs(p2_low - mean_p2) > _STENCIL_ORDER_TOL * max(abs(mean_p2), 1.0):
            raise GridError(
                "grid too coarse for momentum moments: stencil-order "
                f"disagreement {abs(p2_low - mean_p2):.3e} on <p^2> = {mean_p2:.6e}"
            )
    return mean_p, mean_p2


def p2_by_second_derivative(psi: SampledFunction) -> float:
    """Cross-check form <p^2> = -integral psi* psi'' (natural units)."""
    d2 = second_derivative(psi)
    return -float(np.real(quad(SampledFunction(psi.grid, np.conj(psi.values) * d2))))


def ring_lz_by_quadrature(
    psi: SampledFunction, lz_psi: np.ndarray | None = None
) -> tuple[float, float]:
    """(<L_z>, Delta L_z) in units of hbar, applying -i d/dtheta spectrally.

    The spread is computed from the centered state (L_z - <L_z>) psi before
    squaring so that a definite-m state yields zero to roundoff.  A caller
    that already holds L_z psi passes it as `lz_psi`.
    """
    if psi.grid.boundary != "periodic":
        raise GridError("ring L_z statistics need a periodic grid")
    _check_normalized(psi)
    if lz_psi is None:
        lz_psi = -1j * spectral_derivative(psi)
    mean = float(np.real(quad(SampledFunction(psi.grid, np.conj(psi.values) * lz_psi))))
    centered = lz_psi - mean * psi.values
    var = float(np.real(quad(SampledFunction(psi.grid, np.abs(centered) ** 2))))
    return mean, math.sqrt(max(var, 0.0))


def ring_theta_by_quadrature(psi: SampledFunction) -> tuple[float, float]:
    """Naive [0, 2 pi) interval statistics of theta for a sampled ring state.

    theta and theta^2 are not periodic, so the rectangle rule on the ring
    grid would only be O(h) accurate.  Instead the moments are evaluated
    against the Fourier series of theta on the branch [0, 2 pi):

        theta   = pi      - sum_k (2/k) sin(k theta)
        theta^2 = 4 pi^2/3 + sum_k (4/k^2 cos(k theta) - 4 pi/k sin(k theta))

    paired with the density's Fourier coefficients, which the FFT of the
    samples gives exactly for trigonometric-polynomial densities.
    """
    if psi.grid.boundary != "periodic":
        raise GridError("ring theta statistics need a periodic grid")
    if psi.grid.lower != 0.0 or abs(psi.grid.upper - 2.0 * math.pi) > 1e-12:
        raise GridError("theta statistics assume the branch [0, 2 pi)")
    rho = np.abs(psi.values) ** 2
    n = psi.grid.points
    # c[k] = integral rho e^{-i k theta} dtheta, exact below the Nyquist limit
    c = np.fft.fft(rho) * psi.grid.h
    total = float(np.real(c[0]))
    k = np.arange(1, n // 2)
    re = np.real(c[1 : n // 2])
    im = np.imag(c[1 : n // 2])
    mean = math.pi * total + float(np.sum(2.0 / k * im))
    mean2 = (4.0 * math.pi**2 / 3.0) * total + float(
        np.sum(4.0 / k**2 * re + 4.0 * math.pi / k * im)
    )
    mean /= total
    mean2 /= total
    var = mean2 - mean**2
    return mean, math.sqrt(max(var, 0.0))


def oracle_uncertainties(
    spec: SystemSpec,
    state: int | RingSuperposition,
    grid: GridSpec | None = None,
) -> UncertaintyRecord:
    """Physical UncertaintyRecord purely from quadrature moments.

    A `grid`, if given, is in natural units.
    """
    record = record_from_samples(spec, state, sample_state(spec, state, grid))
    return record.rescaled(scales(spec))


def record_from_samples(
    spec: SystemSpec, state: int | RingSuperposition, psi: SampledFunction
) -> UncertaintyRecord:
    """Natural-unit UncertaintyRecord of the natural-unit samples `psi`.

    The one moment pipeline of the oracle and eigen paths: the norm is
    checked once and psi is differentiated once.  The energy is <L_z^2>/2
    on the ring, <p^2>/2 plus the oscillator's <x^2>/2 otherwise.
    """
    if isinstance(spec, Ring):
        lz_psi = -1j * spectral_derivative(psi)
        _, dp = ring_lz_by_quadrature(psi, lz_psi)
        _, dq = ring_theta_by_quadrature(psi)
        mean_lz2 = float(np.real(quad(SampledFunction(psi.grid, np.abs(lz_psi) ** 2))))
        energy = mean_lz2 / 2.0
    else:
        x = psi.grid.x
        density = np.abs(psi.values) ** 2
        mean_x = float(quad(SampledFunction(psi.grid, x * density)))
        var_x = float(quad(SampledFunction(psi.grid, (x - mean_x) ** 2 * density)))
        mean_p, mean_p2 = momentum_moments(psi)
        dq = math.sqrt(max(var_x, 0.0))
        dp = math.sqrt(max(mean_p2 - mean_p**2, 0.0))
        energy = mean_p2 / 2.0
        if isinstance(spec, Oscillator):
            energy += 0.5 * (var_x + mean_x**2)
    nodes = -1 if isinstance(state, RingSuperposition) else predicted_node_count(spec, state)
    return UncertaintyRecord(
        delta_q=dq,
        delta_p=dp,
        product=dq * dp,
        bound=0.5,
        energy=energy,
        nodes_predicted=nodes,
    )
