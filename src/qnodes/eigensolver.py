"""Finite-difference Hamiltonians and a formula-free eigenpair oracle.

The three systems are discretized with the order-6 central Laplacian
(Fornberg, *Math. Comp.* 51, 1988): hard walls close it with
odd-reflection ghost points (box), the ring's operator is circulant, and
the oscillator lives on a truncated open interval where the state has
decayed below roundoff.  Each operator commutes with its mirror
(x -> a - x, theta -> -theta, x -> -x), so it folds into an even and an
odd block of about half the size.  The three-point operator's tridiagonal
blocks label the levels (`scipy.linalg.eigh_tridiagonal`): bisection runs
only to a fixed tolerance in natural energy units, which tells the levels
apart, and inverse iteration gives each a vector (scipy is imported at the
first solve, so `import qnodes` and the commands without the eigen path
never load it).  Each energy is that vector's Rayleigh quotient on the
order-6 operator.  The box's and the ring's three-point vectors are
discrete sine and Fourier modes, exact eigenvectors of the order-6
operator as well.  A block in which a level
misses `_RESIDUAL_TOL` (the oscillator's) takes a Rayleigh-Ritz step:
its levels and the next `_GUARD_LEVELS` three-point vectors span a
subspace, and the order-6 operator's lowest eigenpairs in it replace the
levels (Parlett, *The Symmetric Eigenvalue Problem*, SIAM 1998, ch. 11).
On a coarse grid, while a level misses, the step is taken again with
twice the guard, up to all of the block's three-point vectors: the dense
order-6 block.  The m-th
levels of the ring's even (cos) and odd (sin) blocks are the degenerate
+/-m pair (symmetry reduction: Trefethen, *Spectral Methods in MATLAB*,
SIAM 2000, ch. 3).

Grids, Hamiltonians, energies and states are in the system's natural
units (`model.scales`); `eigen_uncertainties` rescales its record once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analytic import COLUMN_UNITS, UncertaintyRecord
from .errors import ConfigError, ConvergenceError, GridError, QnodesError
from .grids import GridSpec, SampledFunction, dot, first_failure, quad, raise_first
from .model import Box, Oscillator, Ring, SystemSpec, predicted_node_count, scales
from .nodal import node_counts
from .oracle import columns_from_stack

__all__ = [
    "Hamiltonian",
    "EigenResult",
    "default_eigen_grid",
    "build_hamiltonian",
    "solve_lowest",
    "eigen_uncertainties",
    "eigen_columns",
    "ring_momentum_state",
]

_RESIDUAL_TOL = 1e-8
# absolute, in natural energy units: same-parity levels are at least ~0.47
# apart on every grid, while ||T||_1 grows as 1/h^2
_BISECTION_TOL = 1e-4
# the three-point levels a Rayleigh-Ritz step first adds above a block's
# own: on its default grid every oscillator level then meets `_RESIDUAL_TOL`
_GUARD_LEVELS = 6

# -(1/2) d^2/dq^2 as integer central weights over a denominator times h^2:
# the three-point stencil, and the order-6 one (Fornberg's
# [2, -27, 270, -490, 270, -27, 2] / 180).  `_apply` takes the order-6
# weights' partial sums on the first differences f(q + h) - f(q), so a
# constant's differences, and so its image, are exactly zero.
_KINETIC_2 = (np.array([-1.0, 2.0, -1.0]), 2.0)
_KINETIC_6 = (np.array([-2.0, 27.0, -270.0, 490.0, -270.0, 27.0, -2.0]), 360.0)
_STEP_WEIGHTS_6 = np.cumsum(-_KINETIC_6[0])[:-1]

# Default eigen grids: the largest relative energy error (kappa h)^6 / 560
# of the order-6 operator at the top level's wavenumber kappa, far below
# the default cross-path tolerance of 1e-6, so kappa h <= 0.133
_GRID_ERROR = 1e-8
_MAX_KAPPA_H = (560.0 * _GRID_ERROR) ** (1.0 / 6.0)
# and the most points the rule may ask for (2^13 intervals): a solve holds
# a few (levels, points) arrays, and 347 box or ring levels fill 23 MB each
_MAX_EIGEN_POINTS = (1 << 13) + 1
# the oscillator's kappa per p_max: over a classical orbit,
# <p^8> / <p^2> = (35/64) p_max^6
_OSCILLATOR_MEAN_P6 = (35.0 / 128.0) ** (1.0 / 6.0)


@dataclass(frozen=True)
class Hamiltonian:
    """-(1/2) d^2/dq^2 + V(q) in natural units, to order 6, on the unknowns
    of `grid`.

    `potential` holds V(q_i) per unknown: every grid point, or the box's
    interior points (its walls are not unknowns).  `diagonal` is the
    three-point operator's, 1/h^2 + V(q_i), one entry per unknown (the
    benchmark's tracer reads its size).  A periodic grid makes the mirror
    j -> N - j, not N - 1 - j; `solve_lowest` folds the (mirror-symmetric)
    operator by it.  `grid` is the full state grid (for the box this
    includes the wall points).
    """

    grid: GridSpec
    potential: np.ndarray

    @property
    def diagonal(self) -> np.ndarray:
        return 1.0 / self.grid.h**2 + self.potential

    @property
    def periodic(self) -> bool:
        return self.grid.boundary == "periodic"

    @cached_property
    def halo(self) -> tuple[np.ndarray, np.ndarray]:
        """(unknown, sign) of each chain position -3 .. n + 2, n unknowns:
        position j holds sign * v[unknown].  The ring wraps around, the
        box reflects oddly in its walls (sign 0 on a wall), and the
        oscillator's chain is zero beyond its ends."""
        n = self.potential.size
        j = np.arange(-3, n + 3)
        if self.periodic:
            return j % n, np.ones(j.size)
        if self.grid.boundary == "open":
            return np.clip(j, 0, n - 1), ((j >= 0) & (j < n)).astype(float)
        # unknown u is point u + 1 of n + 1 intervals: the odd, periodic extension
        period = 2 * (n + 1)
        point = (j + 1) % period
        beyond = point > n + 1
        point = np.where(beyond, period - point, point)
        sign = np.where(beyond, -1.0, 1.0) * ((point > 0) & (point <= n))
        return np.clip(point - 1, 0, n - 1), sign


@dataclass(frozen=True)
class EigenResult:
    """Lowest eigenpairs in natural units: ascending energies, the stack of
    normalized sampled states (row j is state j), and residual norms
    ||H psi - E psi|| on the order-6 operator.  Box and ring states are
    three-point eigenvectors; the oscillator's are the Ritz vectors of a
    Rayleigh-Ritz step in their parity block (`_parity_pairs`), orthonormal
    to roundoff.

    States alternate even, odd, even, ... under the mirror; the ring's come
    as [m=0, cos 1, sin 1, cos 2, sin 2, ...].  A +/-m pair, or a doublet
    split below roundoff, is solved in two blocks, so its energies may be
    out of order by roundoff.  An energy within the roundoff floor of a
    Rayleigh quotient (eps times the operator's 1-norm) of zero is exactly
    0.0: its digits are roundoff.  Where the operator maps the constant
    vector to exactly zero (the ring), that state is the constant, so the
    ring's m = 0 is exact however few levels are solved.
    """

    energies: np.ndarray
    stack: SampledFunction
    residuals: np.ndarray

    @cached_property
    def states(self) -> list[SampledFunction]:
        """State j as its own sample: row j of `stack`."""
        return [SampledFunction(self.stack.grid, row) for row in self.stack.values]


def default_eigen_grid(spec: SystemSpec, k: int = 6, points: int | None = None) -> GridSpec:
    """Natural-unit grid on which the order-6 operator resolves the k
    lowest levels.

    The box's grid is [0, 1], the ring's [0, 2 pi) and the oscillator's
    [-L, L], L = max(sqrt(2k+1) + 8, 12).  By default a grid takes the
    fewest intervals, a power of two, for which the relative energy error
    (kappa h)^6 / 560 of the top level is at most `_GRID_ERROR`.  On the
    box (2^p + 1 points) and the ring (2^p points) the top level is one
    wavenumber, kappa = k pi and floor(k/2) (at least 1).  The oscillator's
    (2^p + 1 points) spreads over momenta up to p_max = sqrt(2k+1); its
    error h^6 <p^8> / (1120 <p^2>) is, over the classical momentum
    distribution, (kappa h)^6 / 560 with kappa = (35/128)^(1/6) p_max.  A
    rule asking for more than `_MAX_EIGEN_POINTS` points raises GridError;
    `points` overrides the rule.
    """
    # in floats: a k too large for one overflows
    top = float(k)
    if isinstance(spec, Box):
        lower, upper, boundary, kappa = 0.0, 1.0, "dirichlet", math.pi * top
    elif isinstance(spec, Ring):
        lower, upper, boundary, kappa = 0.0, 2.0 * math.pi, "periodic", max(top // 2.0, 1.0)
    else:
        p_max = math.sqrt(2.0 * top + 1.0)
        upper = max(p_max + 8.0, 12.0)
        lower, boundary, kappa = -upper, "open", _OSCILLATOR_MEAN_P6 * p_max
    if points is None:
        need = math.ceil((upper - lower) * kappa / _MAX_KAPPA_H)
        intervals = 1 << (need - 1).bit_length()
        points = intervals if boundary == "periodic" else intervals + 1
        if points > _MAX_EIGEN_POINTS:
            raise GridError(
                f"{type(spec).__name__.lower()} eigen grid for {k} levels needs "
                f"{points} points, above the limit of {_MAX_EIGEN_POINTS}"
            )
    return GridSpec(lower, upper, points, boundary)


def build_hamiltonian(spec: SystemSpec, grid: GridSpec) -> Hamiltonian:
    """Order-6 finite-difference Hamiltonian on the natural-unit `grid`:
    no potential on the box's interior points or the ring, V = x^2/2 on
    the oscillator's points."""
    boundary = {Box: "dirichlet", Ring: "periodic", Oscillator: "open"}[type(spec)]
    if grid.boundary != boundary:
        raise GridError(f"{type(spec).__name__.lower()} Hamiltonian needs a {boundary} grid")
    if isinstance(spec, Box):
        potential = np.zeros(grid.points - 2)
    elif isinstance(spec, Ring):
        potential = np.zeros(grid.points)
    else:
        potential = 0.5 * grid.x**2
    return Hamiltonian(grid, potential)


def _apply(ham: Hamiltonian, v: np.ndarray) -> np.ndarray:
    """H v with the order-6 operator, for `v` one state or a stack of them.

    The integer weights come first, one correlation per row on the first
    differences of its padded chain (`Hamiltonian.halo`), then one scale
    by 1/(360 h^2): row by row, so a stack's rows equal its states' bit
    for bit.
    """
    rows = np.atleast_2d(v)
    n = rows.shape[1]
    index, sign = ham.halo
    padded = np.empty((len(rows), n + 6))
    padded[:, 3:-3] = rows
    padded[:, :3] = rows[:, index[:3]] * sign[:3]
    padded[:, -3:] = rows[:, index[-3:]] * sign[-3:]
    out = np.empty_like(padded[:, :n])
    for row, steps in zip(out, np.diff(padded)):
        row[:] = np.correlate(steps, _STEP_WEIGHTS_6, "valid")
    out *= 1.0 / (_KINETIC_6[1] * ham.grid.h**2)
    out += ham.potential * rows
    return out.reshape(v.shape)


class _Mirror:
    """The mirror j -> N - j (mod N) of a periodic chain of N unknowns, else
    j -> N - 1 - j, and the even and odd blocks it folds an operator into.

    Unknowns a <= mirror(a) carry the blocks.  Even-block unknown a is the
    unit vector (e_a + e_mirror(a))/sqrt 2, or e_a if a is its own mirror;
    odd-block unknowns are (e_a - e_mirror(a))/sqrt 2, over the unknowns
    with a partner.  Unfolded, a unit block vector is a unit chain vector.
    """

    def __init__(self, n: int, periodic: bool):
        j = np.arange(n)
        mirror = (n - j) % n if periodic else n - 1 - j
        self.fold = np.minimum(j, mirror)
        # +1 before the mirror, -1 beyond it, 0 on a self-mirrored unknown
        self.side = np.sign(mirror - j)
        self.paired = self.side[: int(self.fold.max()) + 1] != 0
        self.odd_index = np.cumsum(self.paired) - 1

    def bands(self, ham: Hamiltonian) -> tuple[np.ndarray, np.ndarray]:
        """The even and odd blocks of `ham` with the three-point stencil
        `_KINETIC_2`, each tridiagonal in (1, 1)-banded storage (A[i, j] at
        [1 + i - j, j]).

        Block entry (a, b) sums the chain rows a over the columns that fold
        to b, times sqrt 2 on a paired row and 1/sqrt 2 on a paired column
        (even), or times the column's side (odd).  Folding moves no column
        further than its offset, so the blocks keep the stencil's width.
        """
        stencil, denominator = _KINETIC_2
        index, sign = ham.halo
        a = np.arange(self.paired.size)
        scale = 1.0 / (denominator * ham.grid.h**2)
        reach = len(stencil) // 2
        cols = np.concatenate([index[a + 3 + d] for d in range(-reach, reach + 1)])
        values = np.concatenate([w * scale * sign[a + 3 + d] for d, w in enumerate(stencil, -reach)])
        values[reach * a.size : (reach + 1) * a.size] += ham.potential[: a.size]
        rows = np.tile(a, len(stencil))
        b, side, paired = self.fold[cols], self.side[cols], self.paired[rows]
        even = np.zeros((len(stencil), a.size))
        weights = math.sqrt(2.0) ** (paired * 1 - (side != 0))
        np.add.at(even, (reach + rows - b, b), values * weights)
        keep = paired & (side != 0)
        r, c = self.odd_index[rows[keep]], self.odd_index[b[keep]]
        odd = np.zeros((len(stencil), int(np.count_nonzero(self.paired))))
        np.add.at(odd, (reach + r - c, c), values[keep] * side[keep])
        return even, odd

    def unfold(self, vecs: np.ndarray, odd: bool) -> np.ndarray:
        """Chain vectors of the block vectors `vecs`, one per row."""
        if odd:
            padded = np.zeros((len(vecs), self.paired.size))
            padded[:, self.paired] = vecs
            return padded[:, self.fold] * (self.side / math.sqrt(2.0))
        return vecs[:, self.fold] * np.where(self.paired, 1.0 / math.sqrt(2.0), 1.0)[self.fold]


def _bisect(band: np.ndarray, first: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Levels `first` .. `stop` - 1 (ascending from 0) of the tridiagonal
    `band`, in (1, 1)-banded storage, and their unit vectors, one per row.

    Bisection (`dstebz`) runs only to the absolute `_BISECTION_TOL`: that
    fixes which level is which, and inverse iteration (`dstein`) converges
    each vector from it.  An empty range bisects nothing.
    """
    if stop == first:
        return np.empty(0), np.empty((0, band.shape[1]))
    import scipy.linalg

    try:
        coarse, vecs = scipy.linalg.eigh_tridiagonal(
            band[1], band[2, :-1], select="i", select_range=(first, stop - 1), tol=_BISECTION_TOL
        )
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc
    return coarse, vecs.T


def _quotients(ham: Hamiltonian, rows: np.ndarray, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order-6 Rayleigh quotients w + v.(H - w)v / v.v of the `rows` about
    the `shifts` w, and their residual norms ||H v - E v||.

    About w, the quotient's sum carries only (H - w) v, not terms of size
    ||H||_1; its error is quadratic in the vector's.
    """
    image = _apply(ham, rows)
    gap = image - shifts[:, None] * rows
    energies = shifts + dot(rows, gap) / dot(rows, rows)
    image -= energies[:, None] * rows
    return energies, np.sqrt(dot(image, image))


def _ritz(ham: Hamiltonian, basis: np.ndarray, count: int) -> tuple[np.ndarray, ...]:
    """One Rayleigh-Ritz step: the `count` lowest eigenpairs of the order-6
    operator within the span of the orthonormal chain vectors `basis`, one
    per row.  Returns the unit Ritz vectors (one per row), their quotients
    about the Ritz values (`_quotients`) and their residual norms."""
    import scipy.linalg

    try:
        gram = basis @ _apply(ham, basis).T
        values, coeffs = scipy.linalg.eigh(gram, subset_by_index=(0, count - 1))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Rayleigh-Ritz eigensolver failed: {exc}") from exc
    rows = coeffs.T @ basis
    return rows, *_quotients(ham, rows, values)


def _parity_pairs(ham: Hamiltonian, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """k lowest eigenpairs from the even and odd mirror blocks, unfolded.

    The three-point operator's blocks label the levels (`_bisect`).  Open
    chains alternate [even 0, odd 0, even 1, ...] (ascending: a Jacobi
    matrix's levels alternate in parity); the ring is [m=0, cos 1, sin 1,
    ...].  Each energy is its vector's order-6 Rayleigh quotient.  A block
    in which a level misses `_RESIDUAL_TOL` takes a Rayleigh-Ritz step
    (`_ritz`) on its three-point vectors and the next `_GUARD_LEVELS`.  A
    coarse grid's three-point vectors are further from the order-6 ones:
    while a level misses, the step is taken again with a guard twice as
    large, up to all of the block's three-point vectors, which span it (the
    dense solve of its order-6 matrix).  Ritz vectors are orthonormal, so no two levels can take
    one eigenvector.  Returns the energies, the unit chain vectors (one
    per row), their residual norms on the full operator, and the
    quotients' roundoff floor eps ||H||_1; see `EigenResult` for a zero
    energy.
    """
    n = ham.potential.size
    mirror = _Mirror(n, ham.periodic)
    slot = np.arange(k)
    even = (slot % 2 == int(ham.periodic)) | (slot == 0)
    blocks = list(zip((even, ~even), (False, True), mirror.bands(ham)))
    rows, shifts, bases = np.empty((k, n)), np.empty(k), []
    for slots, odd, band in blocks:
        shifts[slots], vecs = _bisect(band, 0, int(np.count_nonzero(slots)))
        rows[slots] = mirror.unfold(vecs, odd)
        bases.append(vecs)
    energies, residuals = _quotients(ham, rows, shifts)

    for (slots, odd, band), vecs in zip(blocks, bases):
        count, size = len(vecs), band.shape[1]
        stops = {min(count + (_GUARD_LEVELS << i), size) for i in range(size.bit_length())}
        for stop in sorted(stops):
            tol = _RESIDUAL_TOL * max(float(np.max(np.abs(energies))), 1.0)
            if not np.any(residuals[slots] > tol):
                break
            vecs = np.concatenate([vecs, _bisect(band, len(vecs), stop)[1]])
            ritz = _ritz(ham, mirror.unfold(vecs, odd), count)
            rows[slots], energies[slots], residuals[slots] = ritz

    # a zero energy within roundoff of an exact constant null vector is that vector
    stencil = _KINETIC_6[0] / (_KINETIC_6[1] * ham.grid.h**2)
    norm1 = np.max(np.abs(ham.potential + stencil[3])) + np.sum(np.abs(stencil)) - abs(stencil[3])
    floor = np.finfo(float).eps * float(norm1)
    zero = np.abs(energies) <= floor
    if zero.any() and not _apply(ham, np.ones(n)).any():
        rows[zero] = 1.0 / math.sqrt(n)
        energies[zero] = residuals[zero] = 0.0
    return energies, rows, residuals, floor


def solve_lowest(ham: Hamiltonian, k: int) -> EigenResult:
    """k lowest eigenpairs, continuum-normalized with a positive leading lobe.

    The even and odd mirror blocks are solved (`_parity_pairs`) and every
    pair is checked against the full order-6 operator; see `EigenResult`.
    The norms and signs are taken on the whole block of eigenvectors, one
    row per state.
    """
    dim = ham.potential.size
    if not 1 <= k <= dim:
        raise ConfigError(f"requested {k} eigenpairs from a {dim}-dimensional matrix")
    energies, full, residuals, floor = _parity_pairs(ham, k)
    if ham.grid.boundary == "dirichlet":
        full = np.pad(full, ((0, 0), (1, 1)))
    full /= np.sqrt(np.real(quad(ham.grid, np.square(full))))[:, None]
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
    energies[np.abs(energies) <= floor] = 0.0
    stack = SampledFunction(ham.grid, full)
    return EigenResult(energies=energies, stack=stack, residuals=residuals)


def ring_momentum_state(result: EigenResult, m: int) -> SampledFunction:
    """Definite angular-momentum state e^{i m theta} from a ring eigensolve.

    States 2|m| - 1 and 2|m| are the even (cos) and odd (sin) members of
    the +/-m pair, each with a positive leading lobe: the cos state at
    theta = 0, the sin state at theta = h.  So (u + i sign(m) w)/sqrt 2 is
    the normalized L_z eigenstate with eigenvalue m hbar.  m = 0 is
    nondegenerate and returned as-is.
    """
    if m == 0:
        return result.states[0]
    stack = _ring_momentum_stack(result, np.array([m]))
    return SampledFunction(stack.grid, stack.values[0])


def _ring_momentum_stack(result: EigenResult, ms: np.ndarray) -> SampledFunction:
    """The stack of `ring_momentum_state` of each nonzero m in `ms`."""
    first = 2 * np.abs(ms) - 1
    raise_first((first + 1 >= len(result.energies), lambda row: GridError(
        f"need at least {first[row] + 2} solved levels for |m| = {abs(ms[row])}"
    )))
    states = result.stack.values
    sign = 1j * np.copysign(1.0, ms)[:, None]
    psi = (states[first] + sign * states[first + 1]) / math.sqrt(2.0)
    return SampledFunction(result.stack.grid, psi)


def eigen_columns(spec: SystemSpec, result: EigenResult, levels) -> dict[str, np.ndarray]:
    """Natural-unit columns of the computed eigenstates of `levels`
    (distinct quantum numbers), from one stack of their states: those of
    `oracle.columns_from_stack`, with the computed eigenvalues as the
    energy, and the node counts measured on the states as "nodes".

    `levels` are quantum numbers: box n >= 1, oscillator n >= 0, ring any
    integer m (mapped through its degenerate pair).  An error is that of
    the first failing level, named by its index in `levels` as the
    error's `row`.
    """
    levels = list(levels)
    return first_failure(lambda end: _eigen_columns(spec, result, levels[:end]), len(levels))


def _eigen_columns(spec: SystemSpec, result: EigenResult, levels: list) -> dict[str, np.ndarray]:
    groups = [list(range(len(levels)))]
    if isinstance(spec, Ring):
        # m = 0 is a real state and the others complex: a stack each
        zero = [i for i, m in enumerate(levels) if m == 0]
        groups = [zero, [i for i, m in enumerate(levels) if m]]
    out = {name: np.empty(len(levels)) for name in COLUMN_UNITS}
    out["nodes"] = np.empty(len(levels), dtype=int)
    for rows in filter(None, groups):
        try:
            psi, pos = _eigen_stack(spec, result, [levels[i] for i in rows])
            columns = columns_from_stack(spec, psi)
            columns |= {"energy": result.energies[pos], "nodes": node_counts(psi)}
        except QnodesError as exc:
            exc.row = rows[getattr(exc, "row", 0)]
            raise
        for name, values in columns.items():
            out[name][rows] = values
    return out


def _eigen_stack(
    spec: SystemSpec, result: EigenResult, levels
) -> tuple[SampledFunction, np.ndarray]:
    """(stack of the states of `levels`, index of each one's energy); a
    ring's `levels` are all 0 or all nonzero."""
    levels = np.array(levels)
    if isinstance(spec, Ring):
        pos = np.where(levels == 0, 0, 2 * np.abs(levels) - 1)
        if levels.all():
            return _ring_momentum_stack(result, levels), pos
    else:
        pos = levels - 1 if isinstance(spec, Box) else levels
        k = len(result.energies)
        raise_first(((pos < 0) | (pos >= k), lambda row: GridError(
            f"eigenstate {levels[row]} not among the {k} solved"
        )))
    return SampledFunction(result.stack.grid, result.stack.values[pos]), pos


def eigen_uncertainties(
    spec: SystemSpec, result: EigenResult, index: int
) -> UncertaintyRecord:
    """Physical UncertaintyRecord for one computed natural-unit eigenstate:
    the rescaled `eigen_columns` of the one quantum number `index`."""
    columns = eigen_columns(spec, result, [index])
    measured = int(columns["nodes"][0])
    nodes = {"nodes_predicted": predicted_node_count(spec, index), "nodes_measured": measured}
    return UncertaintyRecord.from_columns(columns, **nodes).rescaled(scales(spec))
