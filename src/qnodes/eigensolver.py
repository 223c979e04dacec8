"""Fourier-grid Hamiltonians and a formula-free eigenpair oracle.

Each system's kinetic energy -(1/2) d^2/dq^2 is the dense matrix of its
spectral definition, T = F^-1 diag(k^2/2) F over one period of a uniform
grid: the limit of central finite differences as the stencil's order
grows (Colbert & Miller, *J. Chem. Phys.* 96, 1982 (1992)).  The ring's
grid is that period; the oscillator's open grid is taken as one, the
Fourier grid Hamiltonian (Marston & Balint-Kurti, *J. Chem. Phys.* 91,
3571 (1989)); between the box's walls T acts on the odd extension over
twice the box, the sine DVR.  One index rule gives every entry from
T's circulant column c = F^-1 (k^2/2): c[i - j] on the ring and the
oscillator, c[i - j] - c[i + j + 2] on the box's unknowns
(`Hamiltonian.kinetic`).  Each operator commutes with its mirror
(x -> a - x, theta -> -theta, x -> -x), so it folds into an even and an
odd block of about half the size, built entry by entry by that rule, and
`numpy.linalg.eigh` solves each block densely.  The m-th levels of the ring's even (cos) and odd (sin)
blocks are the degenerate +/-m pair (symmetry reduction: Trefethen,
*Spectral Methods in MATLAB*, SIAM 2000, ch. 3).  Box and ring vectors
are the sampled sine and Fourier modes, with energies exact to roundoff
on any grid that holds them; the oscillator's converge exponentially
with the points.  A dense solve's residuals are roundoff on any grid, so
a grid too coarse for a level is caught by the moments' guards
(`eigen_columns`), not by the residual.

Grids, Hamiltonians, energies and states are in the system's natural
units (`model.scales`); `eigen_uncertainties` rescales its record once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analytic import UncertaintyRecord
from .errors import ConfigError, ConvergenceError, GridError
from .grids import GridSpec, SampledFunction, dot, raise_first
from .model import (
    Ring,
    SystemSpec,
    not_an_integer,
    predicted_node_count,
    require_boundary,
    scales,
    validate_state,
)
from .nodal import node_counts
from .oracle import columns_from_stack, default_grid

__all__ = [
    "Hamiltonian",
    "EigenResult",
    "default_eigen_grid",
    "build_hamiltonian",
    "solve_lowest",
    "eigen_uncertainties",
    "eigen_columns",
    "ring_momentum_state",
    "slot_level",
]

_RESIDUAL_TOL = 1e-8
# The most points a dense solve may take: its blocks and their eigenvectors
# grow as points^2 and its time as points^3 (all 1023 box levels on 2049
# points: a 0.59-0.76 s solve on one core of a 2-vCPU Xeon host; the whole
# `qnodes eigensolve` process peaks at 196 MB, in some runs at 180 MB)
_MAX_EIGEN_POINTS = 2049


def _period(grid: GridSpec) -> int:
    """Points in one period of T: the ring's and the oscillator's grid, or
    the odd extension of the box over twice its intervals."""
    return 2 * (grid.points - 1) if grid.boundary == "dirichlet" else grid.points


def _symbol(grid: GridSpec, freq=np.fft.fftfreq) -> np.ndarray:
    """k^2 / 2 at the wavenumbers k of T's period, in `freq`'s order
    (`numpy.fft.fftfreq`, or `rfftfreq` for the half spectrum)."""
    return 0.5 * (2.0 * math.pi * freq(_period(grid), grid.h)) ** 2


@dataclass(frozen=True)
class Hamiltonian:
    """-(1/2) d^2/dq^2 + V(q) in natural units, as the Fourier-grid matrix
    on the unknowns of `grid`.

    `potential` holds V(q_i) per unknown: every grid point, or the box's
    interior points (its walls are not unknowns).  `kinetic(i, j)` gives
    T's entries by their index rule on T's circulant `column`; `diagonal`
    is H's diagonal, one entry per unknown (the benchmark's tracer reads
    its size).  A periodic grid makes the mirror j -> N - j, not
    N - 1 - j; `solve_lowest` folds the (mirror-symmetric) operator by it.
    `grid` is the full state grid (for the box this includes the wall
    points).
    """

    grid: GridSpec
    potential: np.ndarray

    @cached_property
    def column(self) -> np.ndarray:
        """c = F^-1 (k^2/2) over T's period of P points (`_period`)."""
        return np.fft.ifft(_symbol(self.grid)).real

    def kinetic(self, i, j) -> np.ndarray:
        """T[i, j] for the index arrays `i` and `j`, broadcast together:
        the ring's and the oscillator's T is the circulant c[i - j], and
        the box's unknown u is point u + 1 of its odd extension, so its T
        is c[i - j] - c[i + j + 2], indices taken mod P."""
        entries = np.take(self.column, i - j, mode="wrap")
        if self.grid.boundary == "dirichlet":
            entries -= np.take(self.column, i + j + 2, mode="wrap")
        return entries

    @property
    def norm1(self) -> float:
        """A bound on ||H||_1: max |V| plus sum |c| per circulant term of T."""
        terms = 2 if self.grid.boundary == "dirichlet" else 1
        return terms * float(np.abs(self.column).sum()) + float(np.abs(self.potential).max())

    @property
    def diagonal(self) -> np.ndarray:
        u = np.arange(self.potential.size)
        return self.potential + self.kinetic(u, u)

    @property
    def periodic(self) -> bool:
        return self.grid.boundary == "periodic"


@dataclass(frozen=True)
class EigenResult:
    """Eigenpairs in natural units, one per parity slot: the energies, the
    states (row j of `stack` is state j, its unit chain vector / sqrt h),
    and residual norms ||H psi - E psi|| of the unit chain vectors.

    States alternate even, odd, even, ... under the mirror; the ring's come
    as [m=0, cos 1, sin 1, cos 2, sin 2, ...].  The energies ascend, and
    are the lowest, only over the levels the grid resolves (those
    `eigen_columns` accepts); beyond them the slots keep this parity order,
    not energy order.  A +/-m pair, or a doublet split below roundoff, is
    solved in two blocks, so its energies may be out of order by roundoff.
    On a ring without potential, state 0 is m = 0 by symmetry: energy 0.0,
    residual 0.0 and the constant, however few levels are solved.  No other
    level of any system lies near 0, and no energy is floored.
    """

    energies: np.ndarray
    stack: SampledFunction
    residuals: np.ndarray

    @cached_property
    def states(self) -> list[SampledFunction]:
        """State j as its own sample: row j of `stack`."""
        return [SampledFunction(self.stack.grid, row) for row in self.stack.values]


def default_eigen_grid(spec: SystemSpec, k: int = 6, points: int | None = None) -> GridSpec:
    """Natural-unit grid on which the Fourier-grid Hamiltonian resolves the
    k lowest levels: the oracle's grid of the level of the top slot k - 1
    (`slot_level`, `oracle.default_grid`), on which the moments' band
    guards pass (`eigen_columns`).  A rule asking for more than
    `_MAX_EIGEN_POINTS` points raises GridError; `points` overrides the rule.
    """
    grid = default_grid(spec, slot_level(spec, k - 1), points)
    if points is None and grid.points > _MAX_EIGEN_POINTS:
        raise GridError(
            f"{type(spec).__name__.lower()} eigen grid for {k} levels needs "
            f"{grid.points} points, above the limit of {_MAX_EIGEN_POINTS}"
        )
    return grid


def build_hamiltonian(spec: SystemSpec, grid: GridSpec) -> Hamiltonian:
    """Fourier-grid Hamiltonian on the natural-unit `grid` of boundary
    `spec.boundary`: V = k x^2 / 2 (k = `spec.stiffness`) on the unknowns,
    the box's interior points or every point, 0.0 but on the oscillator."""
    require_boundary(spec, grid, "Hamiltonian needs")
    unknowns = grid.x[1:-1] if grid.boundary == "dirichlet" else grid.x
    return Hamiltonian(grid, 0.5 * spec.stiffness * unknowns**2)


class _Mirror:
    """The mirror j -> N - j (mod N) of a periodic chain of N unknowns, else
    j -> N - 1 - j, and the even and odd blocks it folds an operator into.

    Unknowns a <= mirror(a) carry the blocks.  Even-block unknown a is the
    unit vector (e_a + e_mirror(a))/sqrt 2, or e_a if a is its own mirror;
    odd-block unknowns are (e_a - e_mirror(a))/sqrt 2, over the unknowns
    with a partner, which are contiguous.  Unfolded, a unit block vector
    is a unit chain vector.
    """

    def __init__(self, n: int, periodic: bool):
        j = np.arange(n)
        # mirror(j) = reflect - j, modulo n on the ring
        self.reflect = 0 if periodic else n - 1
        mirror = (self.reflect - j) % n
        self.fold = np.minimum(j, mirror)
        # +1 before the mirror, -1 beyond it, 0 on a self-mirrored unknown
        self.side = np.sign(mirror - j)
        self.paired = self.side[: int(self.fold.max()) + 1] != 0

    def block(self, ham: Hamiltonian, odd: bool) -> np.ndarray:
        """The dense even or odd block of `ham`.

        Even-block entry (a, b) is (H[a, b] + H[a, R(b)]) s_a s_b, with R
        the mirror and s = 1 on a paired unknown, 1/sqrt 2 on a
        self-mirrored one; odd-block entry (a, b) is H[a, b] - H[a, R(b)]
        over the paired unknowns.  Each T entry comes from its index rule
        (`Hamiltonian.kinetic`); the chain's matrix is never built.
        """
        units = np.flatnonzero(self.paired) if odd else np.arange(self.paired.size)
        a, b, m = units[:, None], units, units.size
        # R(b) = reflect - b: `kinetic` wraps it mod the ring's period
        block, far = ham.kinetic(a, b), ham.kinetic(a, self.reflect - b)
        (np.subtract if odd else np.add)(block, far, out=block)
        if not odd:
            s = np.where(self.paired, 1.0, math.sqrt(0.5))
            block *= s
            block *= s[:, None]
        block.flat[:: m + 1] += ham.potential[units]
        return block

    def unfold(self, vecs: np.ndarray, odd: bool) -> np.ndarray:
        """Chain vectors of the block vectors `vecs`, one per row."""
        if odd:
            padded = np.zeros((len(vecs), self.paired.size))
            padded[:, self.paired] = vecs
            return padded[:, self.fold] * (self.side / math.sqrt(2.0))
        return vecs[:, self.fold] * np.where(self.paired, 1.0 / math.sqrt(2.0), 1.0)[self.fold]


def _parity_pairs(ham: Hamiltonian, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k lowest eigenpairs from the even and odd mirror blocks, unfolded.

    Each block is solved densely (`numpy.linalg.eigh`), and its lowest
    levels fill its slots: open chains alternate [even 0, odd 0, even 1,
    ...], as the levels a grid resolves do; the ring is [m=0, cos 1, sin 1,
    ...].  Returns the energies and the unit chain vectors, one per row.
    """
    n = ham.potential.size
    mirror = _Mirror(n, ham.periodic)
    slot = np.arange(k)
    even = (slot % 2 == int(ham.periodic)) | (slot == 0)
    energies, rows = np.empty(k), np.empty((k, n))
    for slots, odd in ((even, False), (~even, True)):
        count = int(np.count_nonzero(slots))
        if not count:
            continue
        try:
            values, vecs = np.linalg.eigh(mirror.block(ham, odd))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"dense eigensolver failed: {exc}") from exc
        energies[slots] = values[:count]
        rows[slots] = mirror.unfold(vecs[:, :count].T, odd)
    return energies, rows


def _residuals(ham: Hamiltonian, rows: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """||H v - E v|| of the chain vectors `rows` (one per row) on the full
    operator, T applied by its spectral definition: one FFT over its
    period (between walls, of the odd extension), times k^2/2, and back."""
    grid, n = ham.grid, ham.potential.size
    period, box = _period(grid), grid.boundary == "dirichlet"
    chain = rows
    if box:
        chain = np.zeros((len(rows), period))
        chain[:, 1 : n + 1] = rows
        chain[:, n + 2 :] = -rows[:, ::-1]
    image = np.fft.irfft(_symbol(grid, np.fft.rfftfreq) * np.fft.rfft(chain), period)
    image = image[:, 1 : n + 1] if box else image
    image += (ham.potential - energies[:, None]) * rows
    return np.sqrt(dot(image, image))


def solve_lowest(ham: Hamiltonian, k: int) -> EigenResult:
    """k eigenpairs by parity slot (see `EigenResult`), continuum-normalized
    with a positive leading lobe: the k lowest where the grid resolves them.

    The even and odd mirror blocks are solved (`_parity_pairs`), every pair
    is checked against the full operator, and the unit chain vectors (with
    the box's walls) over sqrt h have rectangle-rule norm^2 1 to roundoff;
    signs are set on the whole block.  A grid of more than
    `_MAX_EIGEN_POINTS` points raises GridError before any block is built.
    """
    dim = ham.potential.size
    if not 1 <= k <= dim:
        raise ConfigError(f"requested {k} eigenpairs from a {dim}-dimensional matrix")
    if ham.grid.points > _MAX_EIGEN_POINTS:
        raise GridError(
            f"a dense eigensolve on {ham.grid.points} points is above the limit of {_MAX_EIGEN_POINTS}"
        )
    energies, full = _parity_pairs(ham, k)
    residuals = _residuals(ham, full, energies)
    if ham.periodic and not ham.potential.any():
        # the free ring's lowest level is m = 0: exactly 0, the constant
        full[0], energies[0], residuals[0] = 1.0 / math.sqrt(dim), 0.0, 0.0
    if ham.grid.boundary == "dirichlet":
        full = np.pad(full, ((0, 0), (1, 1)))
    full *= 1.0 / math.sqrt(ham.grid.h)
    magnitude = np.abs(full)
    lead = np.argmax(magnitude > 1e-8 * magnitude.max(axis=1)[:, None], axis=1)
    flip = full[np.arange(k), lead] < 0
    # in place: a copy of the flipped rows would set the solve's peak memory
    np.negative(full, out=full, where=flip[:, None])

    scale = max(float(np.max(np.abs(energies))), 1.0)
    if np.any(residuals > _RESIDUAL_TOL * scale):
        raise ConvergenceError(
            f"eigenpair residual {residuals.max():.3e} exceeds "
            f"{_RESIDUAL_TOL * scale:.3e}"
        )
    stack = SampledFunction(ham.grid, full)
    return EigenResult(energies=energies, stack=stack, residuals=residuals)


def ring_momentum_state(result: EigenResult, m: int) -> SampledFunction:
    """Definite angular-momentum state e^{i m theta} from a ring eigensolve:
    its row of the ring's complex stack (`_eigen_stack`); m = 0 is state 0."""
    stack, _ = _eigen_stack(Ring(), result, [m])
    return SampledFunction(stack.grid, stack.values[0])


def eigen_columns(spec: SystemSpec, result: EigenResult, levels) -> dict[str, np.ndarray]:
    """Natural-unit columns of the computed eigenstates of `levels`
    (distinct quantum numbers), from one stack of their states
    (`_eigen_stack`): those of `oracle.columns_from_stack`, the computed
    eigenvalues as "energy" and the node counts measured on the states as
    "nodes".  Each step raises for its own first failing level, its index
    in `levels` as the error's `row`; a sweep's driver
    (`report._sweep_stack`) names the first failing level across steps.
    """
    psi, slot = _eigen_stack(spec, result, levels)
    columns = columns_from_stack(spec, psi)
    return columns | {"energy": result.energies[slot], "nodes": node_counts(psi)}


def slot_level(spec: SystemSpec, slot: int) -> int:
    """The level |n| whose state fills `EigenResult` slot `slot`: the
    inverse of the node law s = per_level |n| + offset, rounded up: box
    level slot + 1, oscillator level slot, ring level |m| = (slot + 1) // 2
    (slots 2|m| - 1 and 2|m| hold +/-m)."""
    per_level, offset = spec.node_law
    return -((offset - slot) // per_level)


def _eigen_stack(
    spec: SystemSpec, result: EigenResult, levels
) -> tuple[SampledFunction, np.ndarray]:
    """(stack of the computed states of `levels`, each one's energy slot):
    the one map from quantum numbers to `EigenResult` slots.

    A level's top slot is its node count (`spec.node_law`): box level n is
    slot n - 1, oscillator level n slot n.  Ring level m reads slots
    2|m| - 1 and 2|m|, the cos and sin members of the +/-m pair, each with
    a positive leading lobe (at theta = 0 and theta = h), so (cos + i
    sign(m) sin)/sqrt 2 is the unit L_z eigenstate m hbar; m = 0 is slot 0
    as it is, in the same complex stack.  A level that is not an integer
    (a fraction, a NaN, an infinity) raises DomainError, and one outside
    the solved slots GridError, its index in `levels` as the `row`.
    """
    given, levels = levels, np.array(levels)
    ring = spec.boundary == "periodic"
    # the last slot a level reads, and its first: a ring level's cos slot
    top = spec.node_law[0] * (np.abs(levels) if ring else levels) + spec.node_law[1]
    slot = top - (levels != 0) if ring else top
    k = len(result.energies)
    with np.errstate(invalid="ignore"):  # a NaN's or an infinity's remainder is NaN
        fractional = np.mod(levels, 1) != 0
    unsolved = (slot < 0) | (top >= k)
    raise_first(
        (fractional, lambda row: not_an_integer(given[row])),
        (unsolved, lambda row: GridError(f"eigenstate {levels[row]} not among the {k} solved")),
    )
    # integer indices also for an empty list of levels
    slot, top, states = slot.astype(int), top.astype(int), result.stack.values
    psi = states[slot]
    if ring:
        sign = 1j * np.sign(levels)[:, None]
        psi = (psi + sign * states[top]) / np.where(levels, math.sqrt(2.0), 1.0)[:, None]
    return SampledFunction(result.stack.grid, psi), slot


def eigen_uncertainties(
    spec: SystemSpec, result: EigenResult, index: int
) -> UncertaintyRecord:
    """Physical UncertaintyRecord for one computed natural-unit eigenstate:
    the rescaled `eigen_columns` of the one legal (`validate_state`) `index`."""
    index = validate_state(spec, index)
    columns = eigen_columns(spec, result, [index])
    measured = int(columns["nodes"][0])
    nodes = {"nodes_predicted": predicted_node_count(spec, index), "nodes_measured": measured}
    return UncertaintyRecord.from_columns(columns, **nodes).rescaled(scales(spec))
