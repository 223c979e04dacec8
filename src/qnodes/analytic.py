"""Closed-form wavefunctions, energies, and uncertainty products.

Everything here is an exact expression evaluated in double precision, with
no quadrature and no grid; the independent numerical checks, ring Delta
theta by quadrature included, live in `oracle` and `eigensolver`.  Each
closed form is written in natural units and multiplied by the system's
`scales` once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
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
    "UncertaintyRecord",
    "COLUMN_UNITS",
    "box_psi",
    "box_energy",
    "box_uncertainties",
    "ring_psi",
    "ring_state_values",
    "ring_energy",
    "ring_density",
    "ring_lz_stats",
    "ring_uncertainties",
    "oscillator_energy",
    "oscillator_uncertainties",
]

# Uniform density on an interval of width w has standard deviation w/sqrt(12).
UNIFORM_THETA_SPREAD = 2.0 * math.pi / math.sqrt(12.0)


# Each physical column of a record or sweep row and the `Scales` field
# it is measured in, in CSV column order.
COLUMN_UNITS = {
    "energy": "energy",
    "delta_q": "length",
    "delta_p": "momentum",
    "product": "hbar",
    "bound": "hbar",
}


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
        """This natural-unit record in physical units: the one rescale.

        Raises DomainError naming the first column that overflows.
        """
        return UncertaintyRecord(
            **{
                name: units.rescale(name, getattr(self, name), unit)
                for name, unit in COLUMN_UNITS.items()
            },
            nodes_predicted=self.nodes_predicted,
            nodes_measured=self.nodes_measured,
        )


# --- particle in a box ------------------------------------------------------


def box_psi(spec: Box, n, x):
    """Normalized box eigenfunction sqrt(2/a) sin(n pi x / a) on [0, a].

    An integer array `n` broadcasts against `x`: an (L, 1) array of
    quantum numbers gives the (L, x.size) stack of their samples.
    """
    if np.ndim(n):
        n = np.array([validate_state(spec, k) for k in np.ravel(n)]).reshape(np.shape(n))
    else:
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
    return scales(spec).rescale("energy", _natural_energy(spec, validate_state(spec, n)), "energy")


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


def ring_state_values(state, theta) -> np.ndarray:
    """Vectorized amplitude of a definite-m state or a superposition.

    An integer array of m broadcasts against `theta`: an (L, 1) array
    gives the (L, theta.size) stack of their samples.
    """
    theta = np.asarray(theta, dtype=float)
    if isinstance(state, RingSuperposition):
        out = np.zeros(theta.shape, dtype=complex)
        for m, c in state.terms:
            out += c * np.exp(1j * m * theta)
        return out / np.sqrt(2.0 * np.pi)
    m = np.asarray(state) if np.ndim(state) else int(state)
    return np.exp(1j * m * theta) / np.sqrt(2.0 * np.pi)


def ring_energy(spec: Ring, m: int) -> float:
    """E_m = m^2 hbar^2 / (2 I)."""
    return scales(spec).rescale("energy", _natural_energy(spec, validate_state(spec, m)), "energy")


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
    if isinstance(state, RingSuperposition):
        weights = [(m, abs(c) ** 2) for m, c in state.terms]
        mean = sum(w * m for m, w in weights)
        spread = math.sqrt(max(sum(w * (m - mean) ** 2 for m, w in weights), 0.0))
    else:
        mean, spread = validate_state(spec, state), 0.0
    rescale = scales(spec).rescale
    return rescale("mean L_z", mean, "momentum"), rescale("Delta L_z", spread, "momentum")


def ring_uncertainties(spec: Ring, m: int) -> UncertaintyRecord:
    """Delta theta and Delta L_z for a definite-m ring state.

    The density is uniform, so Delta theta = 2 pi / sqrt(12) for every m.
    No Heisenberg comparison is meaningful here: Delta L_z is exactly zero
    while the naive Delta theta stays finite, so callers must treat the
    bound column as informational only.
    """
    m = validate_state(spec, m)
    return UncertaintyRecord(
        delta_q=UNIFORM_THETA_SPREAD,
        delta_p=0.0,
        product=0.0,
        bound=0.5,
        energy=_natural_energy(spec, m),
        nodes_predicted=predicted_node_count(spec, m),
    ).rescaled(scales(spec))


# --- harmonic oscillator ----------------------------------------------------


def oscillator_energy(spec: Oscillator, n: int) -> float:
    """E_n = (n + 1/2) hbar omega."""
    return scales(spec).rescale("energy", _natural_energy(spec, validate_state(spec, n)), "energy")


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
