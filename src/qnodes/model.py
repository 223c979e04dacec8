"""Physical systems, their unit scales, quantum numbers, and node counts.

A system is its spec: each class declares its grid's `boundary`, its
`lowest` quantum number (None on the ring), its `node_law` (per_level,
offset) for per_level |n| + offset nodes, the `stiffness` k of V = k x^2
/ 2, its `--param` spellings (`params`) and its unit scales (`_scales`).

Default natural units: hbar = mass = length = omega = inertia = 1, so
every headline number is dimensionless.  All parameters can be overridden
at construction time.  `scales` (each class's `_scales`) is the only code
that reads hbar or a system parameter: every numerical path computes in
natural units and multiplies by these scales once, through
`Scales.rescale`, one column of values at a time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from functools import lru_cache
from typing import ClassVar

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

    boundary: ClassVar[str] = "dirichlet"
    lowest: ClassVar[tuple[int, str] | None] = (1, "box principal quantum number")
    node_law: ClassVar[tuple[int, int]] = (1, -1)
    stiffness: ClassVar[float] = 0.0
    params: ClassVar[dict[str, str]] = {"a": "length", "length": "length", "m": "mass", "mass": "mass"}

    length: float = 1.0
    mass: float = 1.0
    constants: Constants = field(default_factory=Constants)

    def __post_init__(self):
        _check_positive("box length", self.length)
        _check_positive("mass", self.mass)

    def _scales(self, hbar: float) -> Scales:
        a = self.length
        return Scales(a, _scale((hbar, 1), (a, -1)), _scale((hbar, 2), (self.mass, -1), (a, -2)), hbar)


@dataclass(frozen=True)
class Ring:
    """Particle constrained to a ring, parameterized by its moment of inertia."""

    boundary: ClassVar[str] = "periodic"
    lowest: ClassVar[tuple[int, str] | None] = None
    node_law: ClassVar[tuple[int, int]] = (2, 0)
    stiffness: ClassVar[float] = 0.0
    params: ClassVar[dict[str, str]] = {"I": "moment_of_inertia", "inertia": "moment_of_inertia"}

    moment_of_inertia: float = 1.0
    constants: Constants = field(default_factory=Constants)

    def __post_init__(self):
        _check_positive("moment of inertia", self.moment_of_inertia)

    def _scales(self, hbar: float) -> Scales:
        return Scales(1.0, hbar, _scale((hbar, 2), (self.moment_of_inertia, -1)), hbar)


@dataclass(frozen=True)
class Oscillator:
    """1D harmonic oscillator with mass `mass` and angular frequency `omega`."""

    boundary: ClassVar[str] = "open"
    lowest: ClassVar[tuple[int, str] | None] = (0, "oscillator quantum number")
    node_law: ClassVar[tuple[int, int]] = (1, 0)
    stiffness: ClassVar[float] = 1.0
    params: ClassVar[dict[str, str]] = {"m": "mass", "mass": "mass", "omega": "omega", "w": "omega"}

    mass: float = 1.0
    omega: float = 1.0
    constants: Constants = field(default_factory=Constants)

    def __post_init__(self):
        _check_positive("mass", self.mass)
        _check_positive("omega", self.omega)

    def _scales(self, hbar: float) -> Scales:
        m, w = self.mass, self.omega
        length = _scale((hbar, 1), (m, -1), (w, -1), root=2)
        return Scales(length, _scale((hbar, 1), (m, 1), (w, 1), root=2), _scale((hbar, 1), (w, 1)), hbar)


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
    out = spec._scales(spec.constants.hbar)
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

    Box requires n >= 1, oscillator n >= 0 (`lowest`), ring any integer m.
    """
    try:
        integral = idx == int(idx)
    except (TypeError, ValueError, OverflowError):  # int() of a non-number, a NaN or an infinity
        integral = False
    if not integral:
        raise DomainError(f"quantum number must be an integer, got {idx!r}")
    idx = int(idx)
    if spec.lowest is not None and idx < spec.lowest[0]:
        raise DomainError(f"{spec.lowest[1]} must be >= {spec.lowest[0]}, got {idx}")
    return idx


def predicted_node_count(spec: SystemSpec, idx: int) -> int:
    """Closed-form interior node count for the state `idx` of `spec`, per
    its node law per_level |idx| + offset, which is also the top eigen slot
    the level reads (`eigensolver.slot_level` is its inverse).

    Box: n - 1.  Oscillator: n.  Ring: 2|m|, counting the zeros of
    Re(psi_m) = cos(m theta)/sqrt(2 pi) over one period; the modulus of
    psi_m never vanishes and the density is nodeless.
    """
    idx = validate_state(spec, idx)
    return spec.node_law[0] * abs(idx) + spec.node_law[1]
