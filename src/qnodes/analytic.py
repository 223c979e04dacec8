"""Closed-form wavefunctions, energies, and uncertainty products.

Everything here is an exact expression evaluated in double precision, with
no quadrature and no grid; the independent numerical checks, ring Delta
theta by quadrature included, live in `oracle` and `eigensolver`.  The
closed forms are written in natural units, as one column per quantity
over an array of levels (`uncertainty_columns`), and multiplied by the
system's `scales` once; the one-level functions take one row of them.
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
    SystemSpec,
    predicted_node_count,
    scales,
    validate_state,
)

__all__ = [
    "UncertaintyRecord",
    "COLUMN_UNITS",
    "uncertainty_columns",
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

    @classmethod
    def from_columns(cls, columns, row: int = 0, **nodes) -> UncertaintyRecord:
        """Row `row` of `columns` (an array per COLUMN_UNITS name), with `nodes`."""
        return cls(**{name: float(columns[name][row]) for name in COLUMN_UNITS}, **nodes)

    def rescaled(self, units: Scales) -> UncertaintyRecord:
        """This natural-unit record in physical units, by `Scales.rescale`.

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


def level_floats(levels) -> np.ndarray:
    """float(k) of each integer k in `levels`; one too large for a float
    raises OverflowError naming its index as the error's `row`."""
    out = []
    for k in levels:
        try:
            out.append(float(k))
        except OverflowError as exc:
            exc.row = len(out)
            raise
    return np.array(out)


def uncertainty_columns(spec: SystemSpec, levels) -> dict[str, np.ndarray]:
    """Natural-unit closed forms of the quantum numbers `levels`, an array
    per name of COLUMN_UNITS (see the one-level functions below).

    Each element takes the float operations of the scalar expression: n^2
    is an exact integer, rounded once.  A level too large for a float
    raises OverflowError naming its index as the error's `row`.
    """
    levels = [validate_state(spec, k) for k in levels]
    if isinstance(spec, Box):
        n2 = level_floats([n * n for n in levels])
        with np.errstate(over="ignore"):  # inf, as in floats: `Scales.rescale` rejects it
            dq = np.sqrt(1.0 / 12.0 - 1.0 / (2.0 * n2 * math.pi**2))
            dp = level_floats(levels) * math.pi
            product, energy = dq * dp, n2 * math.pi**2 / 2.0
    elif isinstance(spec, Ring):
        energy = level_floats([m * m for m in levels]) / 2.0
        dq = np.full(len(levels), UNIFORM_THETA_SPREAD)
        dp = product = np.zeros(len(levels))
    else:
        product = energy = level_floats(levels) + 0.5
        dq = dp = np.sqrt(product)
    bound = np.full(len(levels), 0.5)
    return {"energy": energy, "delta_q": dq, "delta_p": dp, "product": product, "bound": bound}


def _record(spec: SystemSpec, idx: int) -> UncertaintyRecord:
    """The physical record of the level `idx`."""
    return UncertaintyRecord.from_columns(
        uncertainty_columns(spec, [idx]), nodes_predicted=predicted_node_count(spec, idx)
    ).rescaled(scales(spec))


def _energy(spec: SystemSpec, idx: int) -> float:
    natural = uncertainty_columns(spec, [idx])["energy"][0]
    return scales(spec).rescale("energy", natural, "energy")


# --- particle in a box ------------------------------------------------------


def box_psi(spec: Box, n, x):
    """Normalized box eigenfunction sqrt(2/a) sin(n pi x / a) on [0, a].

    An integer array `n` broadcasts against `x`: an (L, 1) array of
    quantum numbers gives the (L, x.size) stack of their samples.
    """
    # as floats, which the product with x takes anyway: an integer
    # beyond int64 would make an array of Python objects
    n = level_floats([validate_state(spec, k) for k in np.ravel(n)]).reshape(np.shape(n))
    a = scales(spec).length
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > a):
        raise DomainError(f"x must lie in [0, {a}]")
    out = np.sqrt(2.0 / a) * np.sin(n * np.pi * x / a)
    return out if out.ndim else float(out)


def box_energy(spec: Box, n: int) -> float:
    """E_n = hbar^2 n^2 pi^2 / (2 m a^2)."""
    return _energy(spec, n)


def box_uncertainties(spec: Box, n: int) -> UncertaintyRecord:
    """Delta x = a sqrt(1/12 - 1/(2 n^2 pi^2)), Delta p = hbar n pi / a."""
    return _record(spec, n)


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
    m = level_floats(np.ravel(state)).reshape(np.shape(state))
    return np.exp(1j * m * theta) / np.sqrt(2.0 * np.pi)


def ring_energy(spec: Ring, m: int) -> float:
    """E_m = m^2 hbar^2 / (2 I)."""
    return _energy(spec, m)


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
    return _record(spec, m)


# --- harmonic oscillator ----------------------------------------------------


def oscillator_energy(spec: Oscillator, n: int) -> float:
    """E_n = (n + 1/2) hbar omega."""
    return _energy(spec, n)


def oscillator_uncertainties(spec: Oscillator, n: int) -> UncertaintyRecord:
    """Delta x Delta p = hbar (n + 1/2); equality with the bound at n = 0."""
    return _record(spec, n)
