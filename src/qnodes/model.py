"""Physical systems, quantum numbers, and predicted node counts.

Default natural units: hbar = mass = length = omega = inertia = 1, so
every headline number is dimensionless.  All parameters can be overridden
at construction time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import DomainError, NormalizationError

__all__ = [
    "Constants",
    "Box",
    "Ring",
    "Oscillator",
    "SystemSpec",
    "RingSuperposition",
    "validate_state",
    "predicted_node_count",
]


def _check_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class Constants:
    """Fundamental constants; only the reduced Planck constant here."""

    hbar: float = 1.0

    def __post_init__(self):
        _check_positive("hbar", self.hbar)


@dataclass(frozen=True)
class Box:
    """Particle in a 1D box of length `length` with hard walls."""

    length: float = 1.0
    mass: float = 1.0
    constants: Constants = field(default_factory=Constants)

    def __post_init__(self):
        _check_positive("box length", self.length)
        _check_positive("mass", self.mass)


@dataclass(frozen=True)
class Ring:
    """Particle constrained to a ring, parameterized by its moment of inertia."""

    moment_of_inertia: float = 1.0
    constants: Constants = field(default_factory=Constants)

    def __post_init__(self):
        _check_positive("moment of inertia", self.moment_of_inertia)


@dataclass(frozen=True)
class Oscillator:
    """1D harmonic oscillator with mass `mass` and angular frequency `omega`."""

    mass: float = 1.0
    omega: float = 1.0
    constants: Constants = field(default_factory=Constants)

    def __post_init__(self):
        _check_positive("mass", self.mass)
        _check_positive("omega", self.omega)


SystemSpec = Box | Ring | Oscillator

# Normalization must hold to this tolerance for superpositions.
_NORM_TOL = 1e-12


@dataclass(frozen=True)
class RingSuperposition:
    """Normalized superposition of definite angular-momentum ring states.

    `terms` is a sequence of (m, coefficient) pairs with distinct integer m
    and sum(|c|^2) == 1 within 1e-12.
    """

    terms: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        terms = tuple((int(m), complex(c)) for m, c in self.terms)
        object.__setattr__(self, "terms", terms)
        ms = [m for m, _ in terms]
        if len(set(ms)) != len(ms):
            raise DomainError(f"m values must be pairwise distinct, got {ms}")
        norm = sum(abs(c) ** 2 for _, c in terms)
        if abs(norm - 1.0) > _NORM_TOL:
            raise NormalizationError(
                f"sum of |coefficient|^2 is {norm!r}, deviates from 1 beyond {_NORM_TOL}"
            )

    def amplitude(self, theta):
        """Wavefunction value sum_k c_k e^{i m_k theta} / sqrt(2 pi)."""
        tau = (2.0 * cmath.pi) ** -0.5
        return sum(c * cmath.exp(1j * m * theta) for m, c in self.terms) * tau


def validate_state(spec: SystemSpec, idx: int) -> int:
    """Check that `idx` is a legal quantum number for `spec` and return it.

    Box requires n >= 1, oscillator n >= 0, ring accepts any integer m.
    """
    if idx != int(idx):
        raise DomainError(f"quantum number must be an integer, got {idx!r}")
    idx = int(idx)
    if isinstance(spec, Box) and idx < 1:
        raise DomainError(f"box principal quantum number must be >= 1, got {idx}")
    if isinstance(spec, Oscillator) and idx < 0:
        raise DomainError(f"oscillator quantum number must be >= 0, got {idx}")
    return idx


def predicted_node_count(spec: SystemSpec, idx: int) -> int:
    """Closed-form interior node count for the state `idx` of `spec`.

    Box: n - 1.  Oscillator: n.  Ring: 2|m|, counting the zeros of
    Re(psi_m) = cos(m theta)/sqrt(2 pi) over one period; the modulus of
    psi_m never vanishes and the density is nodeless.
    """
    idx = validate_state(spec, idx)
    if isinstance(spec, Box):
        return idx - 1
    if isinstance(spec, Oscillator):
        return idx
    return 2 * abs(idx)
