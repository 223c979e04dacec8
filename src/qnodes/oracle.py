"""Grid-based verification path: expectation values by quadrature.

Nothing in this module uses the closed-form moments; states are sampled
(or handed over as eigenvectors) and every moment is recomputed from
Simpson quadrature and high-order discrete derivatives.
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
    """Grid suited to the system and quantum number.

    The oscillator half-width scales with the classical turning point
    sqrt(2n+1) plus a 10-sigma tail margin, in units of the oscillator
    length sqrt(hbar / m omega).
    """
    if isinstance(spec, Box):
        return GridSpec(0.0, spec.length, points or DEFAULT_BOX_POINTS, "dirichlet")
    if isinstance(spec, Ring):
        return GridSpec(0.0, 2.0 * math.pi, points or DEFAULT_RING_POINTS, "periodic")
    n = max(int(abs(idx)), 0)
    xscale = math.sqrt(spec.constants.hbar / (spec.mass * spec.omega))
    half_width = max(math.sqrt(2.0 * n + 1.0) + 10.0, 12.0) * xscale
    return GridSpec(-half_width, half_width, points or DEFAULT_OSCILLATOR_POINTS, "open")


def sample_state(
    spec: SystemSpec,
    state: int | RingSuperposition,
    grid: GridSpec | None = None,
) -> SampledFunction:
    """Sample the analytic eigenfunction (or ring superposition) on a grid."""
    if isinstance(spec, Ring):
        grid = grid or default_grid(spec)
        return SampledFunction(grid, ring_state_values(state, grid.x))
    idx = validate_state(spec, state)
    grid = grid or default_grid(spec, idx)
    if isinstance(spec, Box):
        return SampledFunction(grid, box_psi(spec, idx, grid.x))
    return SampledFunction(grid, oscillator_psi(spec, idx, grid.x))


def sample_levels(spec: SystemSpec, levels, grid: GridSpec):
    """Yield (level, sample) for ascending distinct `levels`, all on `grid`.

    Oscillator levels come from one streamed pass of `oscillator_ladder`.
    """
    if not isinstance(spec, Oscillator):
        for level in levels:
            yield level, sample_state(spec, level, grid)
        return
    wanted = set(levels)
    for n, phi in enumerate(oscillator_ladder(spec, grid.x, max(levels))):
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
    psi: SampledFunction, hbar: float = 1.0, check_resolution: bool = True
) -> tuple[float, float]:
    """(<p>, <p^2>) from discrete derivatives.

    <p> is the real part of the quadrature of psi* (-i hbar) psi'; <p^2>
    uses the integration-by-parts form hbar^2 integral |psi'|^2, which is
    nonnegative by construction.  With `check_resolution` the second
    moment is recomputed from a low-order derivative stencil and a
    GridError is raised when the two estimates disagree beyond 1 percent:
    the grid cannot resolve the state's oscillations.
    """
    _check_normalized(psi)
    dpsi = derivative(psi)
    mean_p = float(
        np.real(quad(SampledFunction(psi.grid, np.conj(psi.values) * (-1j * hbar) * dpsi)))
    )
    mean_p2 = hbar**2 * float(np.real(quad(SampledFunction(psi.grid, np.abs(dpsi) ** 2))))
    if check_resolution:
        low = np.gradient(psi.values, psi.grid.h)
        p2_low = hbar**2 * float(
            np.real(quad(SampledFunction(psi.grid, np.abs(low) ** 2)))
        )
        if abs(p2_low - mean_p2) > _STENCIL_ORDER_TOL * max(abs(mean_p2), 1.0):
            raise GridError(
                "grid too coarse for momentum moments: stencil-order "
                f"disagreement {abs(p2_low - mean_p2):.3e} on <p^2> = {mean_p2:.6e}"
            )
    return mean_p, mean_p2


def p2_by_second_derivative(psi: SampledFunction, hbar: float = 1.0) -> float:
    """Cross-check form <p^2> = -hbar^2 integral psi* psi''."""
    d2 = second_derivative(psi)
    return -(hbar**2) * float(
        np.real(quad(SampledFunction(psi.grid, np.conj(psi.values) * d2)))
    )


def ring_lz_by_quadrature(
    psi: SampledFunction, hbar: float = 1.0, lz_psi: np.ndarray | None = None
) -> tuple[float, float]:
    """(<L_z>, Delta L_z) by applying -i hbar d/dtheta spectrally.

    The spread is computed from the centered state (L_z - <L_z>) psi before
    squaring so that a definite-m state yields zero to roundoff.  A caller
    that already holds L_z psi passes it as `lz_psi`.
    """
    if psi.grid.boundary != "periodic":
        raise GridError("ring L_z statistics need a periodic grid")
    _check_normalized(psi)
    if lz_psi is None:
        lz_psi = -1j * hbar * spectral_derivative(psi)
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
    """Assemble an UncertaintyRecord purely from quadrature moments."""
    return record_from_samples(spec, state, sample_state(spec, state, grid))


def record_from_samples(
    spec: SystemSpec, state: int | RingSuperposition, psi: SampledFunction
) -> UncertaintyRecord:
    """UncertaintyRecord of the sampled state `psi` from quadrature moments.

    The one moment pipeline of the oracle and eigen paths: the norm is
    checked once and psi is differentiated once.  The energy is <L_z^2>/2I
    on the ring, <p^2>/2m plus the oscillator potential otherwise.
    """
    hbar = spec.constants.hbar
    if isinstance(spec, Ring):
        lz_psi = -1j * hbar * spectral_derivative(psi)
        _, dp = ring_lz_by_quadrature(psi, hbar, lz_psi)
        _, dq = ring_theta_by_quadrature(psi)
        mean_lz2 = float(np.real(quad(SampledFunction(psi.grid, np.abs(lz_psi) ** 2))))
        energy = mean_lz2 / (2.0 * spec.moment_of_inertia)
    else:
        x = psi.grid.x
        density = np.abs(psi.values) ** 2
        mean_x = float(quad(SampledFunction(psi.grid, x * density)))
        var_x = float(quad(SampledFunction(psi.grid, (x - mean_x) ** 2 * density)))
        mean_p, mean_p2 = momentum_moments(psi, hbar)
        dq = math.sqrt(max(var_x, 0.0))
        dp = math.sqrt(max(mean_p2 - mean_p**2, 0.0))
        energy = mean_p2 / (2.0 * spec.mass)
        if isinstance(spec, Oscillator):
            energy += 0.5 * spec.mass * spec.omega**2 * (var_x + mean_x**2)
    nodes = -1 if isinstance(state, RingSuperposition) else predicted_node_count(spec, state)
    return UncertaintyRecord(
        delta_q=dq,
        delta_p=dp,
        product=dq * dp,
        bound=hbar / 2.0,
        energy=energy,
        nodes_predicted=nodes,
        provenance="oracle",
    )
