"""Physical systems, their unit scales, quantum numbers, and node counts.

Default natural units: hbar = mass = length = omega = inertia = 1, so
every headline number is dimensionless.  All parameters can be overridden
at construction time.  `scales` is the only code that reads hbar or a
system parameter: every numerical path computes in natural units and
multiplies by these scales once, through `Scales.rescale`, one column of
values at a time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from functools import lru_cache

import numpy as np

from .errors import DomainError, NormalizationError
from .grids import raise_first

__all__ = [
    "Constants",
    "Box",
    "Ring",
    "Oscillator",
    "SystemSpec",
    "Scales",
    "scales",
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


@dataclass(frozen=True)
class Scales:
    """Physical size of one natural unit of each column.

    length: a, sqrt(hbar / m omega) or 1 rad; momentum: hbar / length;
    energy: hbar^2 / m a^2, hbar omega or hbar^2 / I; hbar scales the
    product Delta q Delta p and its bound.
    """

    length: float
    momentum: float
    energy: float
    hbar: float

    def rescale(self, name: str, value, unit: str):
        """The natural-unit `value` (a float or an array) of quantity `name`
        times the `unit` scale.

        Raises DomainError, naming the quantity, value and scale, for the
        first product that is not finite, and its index as the error's
        `row`: no physical row could then be represented.
        """
        scale = getattr(self, unit)
        with np.errstate(over="ignore"):  # an overflow raises below
            out = np.multiply(value, scale)
        raise_first((~np.isfinite(out), lambda row: DomainError(
            f"{name} {np.ravel(value)[row].item()!r} overflows to "
            f"{out.flat[row].item()!r} at the {unit} scale {scale!r}"
        )))
        return out if out.ndim else float(out)


def _scale(*factors: tuple[float, int], root: int = 1) -> float:
    """prod(value ** power) ** (1 / root) for root 1 or 2, rounded to a
    double once.

    In 40-digit decimal arithmetic no intermediate leaves the double
    range; a result beyond it becomes inf or 0.
    """
    with localcontext(Context(prec=40)):
        value = math.prod((Decimal(v) ** k for v, k in factors), start=Decimal(1))
        return float(value.sqrt() if root == 2 else value)


@lru_cache(maxsize=64)
def scales(spec: SystemSpec) -> Scales:
    """Unit scales of `spec`, each from its own closed form.

    Raises DomainError, naming the scale, when one leaves the normal
    double range: no physical row could then be represented.
    """
    hbar = spec.constants.hbar
    if isinstance(spec, Box):
        a = spec.length
        energy = _scale((hbar, 2), (spec.mass, -1), (a, -2))
        out = Scales(a, _scale((hbar, 1), (a, -1)), energy, hbar)
    elif isinstance(spec, Ring):
        out = Scales(1.0, hbar, _scale((hbar, 2), (spec.moment_of_inertia, -1)), hbar)
    else:
        m, w = spec.mass, spec.omega
        out = Scales(
            length=_scale((hbar, 1), (m, -1), (w, -1), root=2),
            momentum=_scale((hbar, 1), (m, 1), (w, 1), root=2),
            energy=_scale((hbar, 1), (w, 1)),
            hbar=hbar,
        )
    for name, value in vars(out).items():
        if not sys.float_info.min <= value < math.inf:
            raise DomainError(f"{name} scale {value!r} is outside the normal double range")
    return out


# Normalization must hold to this tolerance for superpositions.
_NORM_TOL = 1e-12


@dataclass(frozen=True)
class RingSuperposition:
    """Normalized superposition of definite angular-momentum ring states.

    `terms` is a sequence of (m, coefficient) pairs with distinct integer m
    and sum(|c|^2) == 1 within 1e-12; `analytic.ring_state_values`
    evaluates it.
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


def validate_state(spec: SystemSpec, idx: int) -> int:
    """Check that `idx` is a legal quantum number for `spec` and return it.

    Box requires n >= 1, oscillator n >= 0, ring accepts any integer m.
    """
    try:
        integral = idx == int(idx)
    except (TypeError, ValueError, OverflowError):  # int() of a non-number, a NaN or an infinity
        integral = False
    if not integral:
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
