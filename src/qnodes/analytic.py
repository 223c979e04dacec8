"""Closed-form wavefunctions, energies, and uncertainty products.

Everything here is an exact expression evaluated in double precision; the
independent numerical checks live in `oracle` and `eigensolver`.  Each
closed form is written in natural units and multiplied by the system's
`scales` once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grids import GridSpec, SampledFunction, quad
from .model import (
    Box,
    Oscillator,
    Ring,
    RingSuperposition,
    Scales,
    predicted_node_count,
    scales,
    validate_state,
)

__all__ = [
    "ExpectationSet",
    "UncertaintyRecord",
    "box_psi",
    "box_energy",
    "box_expectations",
    "box_uncertainties",
    "ring_psi",
    "ring_state_values",
    "ring_energy",
    "ring_density",
    "ring_lz_stats",
    "ring_theta_stats",
    "ring_uncertainties",
    "oscillator_energy",
    "oscillator_expectations",
    "oscillator_uncertainties",
]

# Uniform density on an interval of width w has standard deviation w/sqrt(12).
UNIFORM_THETA_SPREAD = 2.0 * math.pi / math.sqrt(12.0)


@dataclass(frozen=True)
class ExpectationSet:
    """First and second moments of position and momentum (or their
    angular analogues theta and L_z for ring states)."""

    mean_x: float
    mean_x2: float
    mean_p: float
    mean_p2: float

    def __post_init__(self):
        if self.mean_x2 - self.mean_x**2 < -1e-12:
            raise DomainError("negative position variance")
        if self.mean_p2 - self.mean_p**2 < -1e-12:
            raise DomainError("negative momentum variance")


@dataclass(frozen=True)
class UncertaintyRecord:
    """Uncertainties of a conjugate pair plus bookkeeping for one state.

    delta_q is the position spread (Delta x, or Delta theta on the ring);
    delta_p its conjugate (Delta p, or Delta L_z).  `bound` is hbar/2.
    nodes_measured is filled by the counting paths, None otherwise.
    """

    delta_q: float
    delta_p: float
    product: float
    bound: float
    energy: float
    nodes_predicted: int
    nodes_measured: int | None = None

    def __post_init__(self):
        if self.delta_q < 0 or self.delta_p < 0:
            raise DomainError("uncertainties must be nonnegative")

    def rescaled(self, units: Scales) -> UncertaintyRecord:
        """This natural-unit record in physical units: the one rescale."""
        return UncertaintyRecord(
            delta_q=self.delta_q * units.length,
            delta_p=self.delta_p * units.momentum,
            product=self.product * units.hbar,
            bound=self.bound * units.hbar,
            energy=self.energy * units.energy,
            nodes_predicted=self.nodes_predicted,
            nodes_measured=self.nodes_measured,
        )


# --- particle in a box ------------------------------------------------------


def box_psi(spec: Box, n: int, x):
    """Normalized box eigenfunction sqrt(2/a) sin(n pi x / a) on [0, a]."""
    n = validate_state(spec, n)
    a = scales(spec).length
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > a):
        raise DomainError(f"x must lie in [0, {a}]")
    out = np.sqrt(2.0 / a) * np.sin(n * np.pi * x / a)
    return out if out.ndim else float(out)


def _natural_energy(spec, idx: int) -> float:
    """n^2 pi^2 / 2 (box), m^2 / 2 (ring) or n + 1/2 (oscillator)."""
    if isinstance(spec, Box):
        return idx**2 * math.pi**2 / 2.0
    if isinstance(spec, Ring):
        return idx**2 / 2.0
    return idx + 0.5


def box_energy(spec: Box, n: int) -> float:
    """E_n = hbar^2 n^2 pi^2 / (2 m a^2)."""
    return _natural_energy(spec, validate_state(spec, n)) * scales(spec).energy


def box_expectations(spec: Box, n: int) -> ExpectationSet:
    """<x> = a/2, <x^2> = a^2 (1/3 - 1/(2 n^2 pi^2)), <p> = 0,
    <p^2> = hbar^2 n^2 pi^2 / a^2."""
    n = validate_state(spec, n)
    units = scales(spec)
    return ExpectationSet(
        mean_x=0.5 * units.length,
        mean_x2=(1.0 / 3.0 - 1.0 / (2.0 * n**2 * math.pi**2)) * units.length**2,
        mean_p=0.0,
        mean_p2=n**2 * math.pi**2 * units.momentum**2,
    )


def box_uncertainties(spec: Box, n: int) -> UncertaintyRecord:
    """Delta x = a sqrt(1/12 - 1/(2 n^2 pi^2)), Delta p = hbar n pi / a."""
    n = validate_state(spec, n)
    dx = math.sqrt(1.0 / 12.0 - 1.0 / (2.0 * n**2 * math.pi**2))
    dp = n * math.pi
    return UncertaintyRecord(
        delta_q=dx,
        delta_p=dp,
        product=dx * dp,
        bound=0.5,
        energy=_natural_energy(spec, n),
        nodes_predicted=predicted_node_count(spec, n),
    ).rescaled(scales(spec))


# --- particle on a ring -----------------------------------------------------


def ring_psi(spec: Ring, m: int, theta):
    """Ring eigenfunction e^{i m theta} / sqrt(2 pi); periodic in theta."""
    out = ring_state_values(validate_state(spec, m), theta)
    return out if out.ndim else complex(out)


def ring_state_values(state: int | RingSuperposition, theta) -> np.ndarray:
    """Vectorized amplitude of a definite-m state or a superposition."""
    theta = np.asarray(theta, dtype=float)
    if isinstance(state, RingSuperposition):
        out = np.zeros(theta.shape, dtype=complex)
        for m, c in state.terms:
            out += c * np.exp(1j * m * theta)
        return out / np.sqrt(2.0 * np.pi)
    return np.exp(1j * int(state) * theta) / np.sqrt(2.0 * np.pi)


def ring_energy(spec: Ring, m: int) -> float:
    """E_m = m^2 hbar^2 / (2 I)."""
    return _natural_energy(spec, validate_state(spec, m)) * scales(spec).energy


def ring_density(spec: Ring, m: int, theta):
    """|psi_m|^2 = 1/(2 pi), independent of theta and m."""
    validate_state(spec, m)
    theta = np.asarray(theta, dtype=float)
    out = np.full(theta.shape, 1.0 / (2.0 * np.pi))
    return out if out.ndim else float(out)


def ring_lz_stats(spec: Ring, state: int | RingSuperposition) -> tuple[float, float]:
    """Mean and spread of L_z from the expansion coefficients.

    A definite m state gives (m hbar, 0); a superposition gives the
    discrete mean and standard deviation over the |c_k|^2 distribution.
    """
    unit = scales(spec).momentum
    if isinstance(state, RingSuperposition):
        weights = [(m, abs(c) ** 2) for m, c in state.terms]
        mean = sum(w * m for m, w in weights)
        var = sum(w * (m - mean) ** 2 for m, w in weights)
        return unit * mean, unit * math.sqrt(max(var, 0.0))
    m = validate_state(spec, state)
    return unit * m, 0.0


def ring_theta_stats(
    spec: Ring, state: int | RingSuperposition, points: int = 4097
) -> tuple[float, float]:
    """Naive interval statistics of theta on the fixed branch [0, 2 pi).

    mean = integral theta rho(theta), Delta theta = sqrt(<theta^2> - mean^2),
    computed by Simpson quadrature of the density.  For any definite m the
    density is uniform and Delta theta = 2 pi / sqrt(12).  The statistic is
    branch-dependent by construction.
    """
    grid = GridSpec(0.0, 2.0 * np.pi, points, "open")
    theta = grid.x
    rho = np.abs(ring_state_values(state, theta)) ** 2
    norm = quad(SampledFunction(grid, rho))
    rho = rho / norm
    mean = quad(SampledFunction(grid, theta * rho))
    var = quad(SampledFunction(grid, (theta - mean) ** 2 * rho))
    return float(mean), float(math.sqrt(max(var, 0.0)))


def ring_uncertainties(spec: Ring, m: int) -> UncertaintyRecord:
    """Delta theta and Delta L_z for a definite-m ring state.

    No Heisenberg comparison is meaningful here: Delta L_z is exactly zero
    while the naive Delta theta stays finite, so callers must treat the
    bound column as informational only.
    """
    m = validate_state(spec, m)
    _, dtheta = ring_theta_stats(spec, m)
    return UncertaintyRecord(
        delta_q=dtheta,
        delta_p=0.0,
        product=0.0,
        bound=0.5,
        energy=_natural_energy(spec, m),
        nodes_predicted=predicted_node_count(spec, m),
    ).rescaled(scales(spec))


# --- harmonic oscillator ----------------------------------------------------


def oscillator_energy(spec: Oscillator, n: int) -> float:
    """E_n = (n + 1/2) hbar omega."""
    return _natural_energy(spec, validate_state(spec, n)) * scales(spec).energy


def oscillator_expectations(spec: Oscillator, n: int) -> ExpectationSet:
    """<x> = <p> = 0 by symmetry; <x^2> = hbar (n + 1/2)/(m w),
    <p^2> = m hbar w (n + 1/2)."""
    n = validate_state(spec, n)
    units = scales(spec)
    return ExpectationSet(
        mean_x=0.0,
        mean_x2=(n + 0.5) * units.length**2,
        mean_p=0.0,
        mean_p2=(n + 0.5) * units.momentum**2,
    )


def oscillator_uncertainties(spec: Oscillator, n: int) -> UncertaintyRecord:
    """Delta x Delta p = hbar (n + 1/2); equality with the bound at n = 0."""
    n = validate_state(spec, n)
    spread = math.sqrt(n + 0.5)
    return UncertaintyRecord(
        delta_q=spread,
        delta_p=spread,
        product=n + 0.5,
        bound=0.5,
        energy=_natural_energy(spec, n),
        nodes_predicted=predicted_node_count(spec, n),
    ).rescaled(scales(spec))
