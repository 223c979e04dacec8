"""Finite-difference Hamiltonians and a formula-free eigenpair oracle.

The three systems are discretized with the standard three-point Laplacian:
hard walls drop the boundary points (box), the ring couples first and last
points, and the oscillator lives on a truncated open interval where the
state has decayed below roundoff.  Each matrix commutes with its mirror
(x -> a - x, x -> -x, theta -> -theta), so it splits into an even and an
odd symmetric tridiagonal block of about half the size, each solved for
about half the levels (`scipy.linalg.eigh_tridiagonal`).  Bisection runs
only to a fixed tolerance in natural energy units, which tells the levels
apart; inverse iteration converges the vectors from it, and each energy is
the vector's Rayleigh quotient (Parlett, *The Symmetric Eigenvalue
Problem*, SIAM 1998, ch. 4).  The m-th levels of the ring's even (cos) and
odd (sin) blocks are the degenerate +/-m pair (symmetry reduction:
Trefethen, *Spectral Methods in MATLAB*, SIAM 2000, ch. 3).

Grids, Hamiltonians, energies and states are in the system's natural
units (`model.scales`); `eigen_uncertainties` rescales its record once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

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

DEFAULT_EIGEN_POINTS = {Box: 2001, Oscillator: 2001, Ring: 1024}


@dataclass(frozen=True)
class Hamiltonian:
    """Symmetric discretization of -(1/2) d^2/dq^2 + V(q) in natural units.

    `diagonal` holds 1/h^2 + V(q_i) per unknown; `off_diagonal` is the
    uniform coupling -1/(2 h^2).  A periodic grid adds the two corner
    couplings and makes the mirror j -> N - j, not N - 1 - j; `solve_lowest`
    folds the (mirror-symmetric) matrix by it.  `grid` is the full state
    grid (for the box this includes the wall points the matrix excludes).
    """

    grid: GridSpec
    diagonal: np.ndarray

    @property
    def off_diagonal(self) -> float:
        return -1.0 / (2.0 * self.grid.h**2)

    @property
    def periodic(self) -> bool:
        return self.grid.boundary == "periodic"


@dataclass(frozen=True)
class EigenResult:
    """Lowest eigenpairs in natural units: ascending energies, the stack of
    normalized sampled states (row j is state j), and residual norms
    ||H psi - E psi||.

    States alternate even, odd, even, ... under the mirror; the ring's come
    as [m=0, cos 1, sin 1, cos 2, sin 2, ...].  A +/-m pair, or a doublet
    split below roundoff, is solved in two blocks, so its energies may be
    out of order by roundoff.  An energy within the roundoff floor of its
    block's Rayleigh quotient (eps times the block's 1-norm) of zero is
    exactly 0.0: its digits are roundoff.  Where the operator maps the
    constant vector to exactly zero (the ring), that state is the constant,
    so the ring's m = 0 is exact however few levels are solved.
    """

    energies: np.ndarray
    stack: SampledFunction
    residuals: np.ndarray

    @cached_property
    def states(self) -> list[SampledFunction]:
        """State j as its own sample: row j of `stack`."""
        return [SampledFunction(self.stack.grid, row) for row in self.stack.values]


def default_eigen_grid(spec: SystemSpec, k: int = 6, points: int | None = None) -> GridSpec:
    """Natural-unit grid suited to resolving the k lowest levels."""
    if points is None:
        points = DEFAULT_EIGEN_POINTS[type(spec)]
    if isinstance(spec, Box):
        return GridSpec(0.0, 1.0, points, "dirichlet")
    if isinstance(spec, Ring):
        return GridSpec(0.0, 2.0 * math.pi, points, "periodic")
    half_width = max(math.sqrt(2.0 * k + 1.0) + 8.0, 12.0)
    return GridSpec(-half_width, half_width, points, "open")


def build_hamiltonian(spec: SystemSpec, grid: GridSpec) -> Hamiltonian:
    """Three-point finite-difference Hamiltonian on the natural-unit `grid`.

    The hopping is t = 1/(2 h^2); the oscillator adds V = x^2/2.
    """
    boundary = {Box: "dirichlet", Ring: "periodic", Oscillator: "open"}[type(spec)]
    if grid.boundary != boundary:
        raise GridError(f"{type(spec).__name__.lower()} Hamiltonian needs a {boundary} grid")
    t = 1.0 / (2.0 * grid.h**2)
    if isinstance(spec, Box):
        diag = np.full(grid.points - 2, 2.0 * t)
    elif isinstance(spec, Ring):
        diag = np.full(grid.points, 2.0 * t)
    else:
        diag = 2.0 * t + 0.5 * grid.x**2
    return Hamiltonian(grid, diag)


def _apply(ham: Hamiltonian, v: np.ndarray) -> np.ndarray:
    """H v for each row of `v`."""
    out = ham.diagonal * v
    out[..., :-1] += ham.off_diagonal * v[..., 1:]
    out[..., 1:] += ham.off_diagonal * v[..., :-1]
    if ham.periodic:
        out[..., 0] += ham.off_diagonal * v[..., -1]
        out[..., -1] += ham.off_diagonal * v[..., 0]
    return out


def _lowest_tridiagonal(
    diagonal: np.ndarray, off: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """`count` lowest eigenpairs of T, and the energies' roundoff floor eps ||T||_1.

    Bisection (`dstebz`) runs only to the absolute `_BISECTION_TOL`: that
    fixes which level is which, and inverse iteration (`dstein`) converges
    each vector from it.  Each energy is then the Rayleigh quotient
    v.Tv / v.v of its vector, whose error is quadratic in the vector's; its
    roundoff, not the bisection, sets the floor.
    """
    rows = np.abs(diagonal) + np.pad(np.abs(off), (0, 1)) + np.pad(np.abs(off), (1, 0))
    try:
        coarse, vecs = scipy.linalg.eigh_tridiagonal(
            diagonal, off, select="i", select_range=(0, count - 1), tol=_BISECTION_TOL
        )
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc
    # (T - w) v about the bisected w: the quotient's sum then carries only
    # the small residual, not terms of size ||T||_1
    gap = diagonal[:, None] * vecs
    gap[:-1] += off[:, None] * vecs[1:]
    gap[1:] += off[:, None] * vecs[:-1]
    gap -= coarse * vecs
    energies = coarse + np.einsum("ij,ij->j", vecs, gap) / np.einsum("ij,ij->j", vecs, vecs)
    return energies, vecs, np.finfo(float).eps * float(rows.max())


def _parity_pairs(ham: Hamiltonian, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k lowest eigenpairs from the even and odd mirror blocks, unfolded.

    The mirror is j -> N - j (mod N) on a periodic chain of N unknowns, else
    j -> N - 1 - j; unknowns j <= mirror(j) carry the blocks.  Couplings to a
    self-mirrored unknown carry sqrt 2 in the even block, which it alone joins.
    If the last unknown couples to its own mirror, the even diagonal gains +c
    there and the odd -c.  Open chains alternate [even 0, odd 0, even 1, ...]
    (ascending: a Jacobi matrix's levels alternate in parity); the ring is
    [m=0, cos 1, sin 1, ...].  Returns the Rayleigh-quotient energies, unit
    vectors and each energy's block floor; see `EigenResult` for a zero energy.
    """
    n, c = ham.diagonal.size, ham.off_diagonal
    root2 = math.sqrt(2.0)
    j = np.arange(n)
    mirror = (n - j) % n if ham.periodic else n - 1 - j
    fold = np.minimum(j, mirror)
    half = int(fold.max()) + 1
    own = mirror[:half] == j[:half]
    even_diag = ham.diagonal[:half].copy()
    even_off = np.where(own[:-1] | own[1:], c * root2, c)
    odd_diag = ham.diagonal[:half][~own]
    if mirror[half - 1] == half:
        even_diag[-1] += c
        odd_diag[-1] -= c
    slot = np.arange(k)
    even_slot = (slot % 2 == int(ham.periodic)) | (slot == 0)
    n_odd = k - int(np.count_nonzero(even_slot))
    even_e, even_v, even_tol = _lowest_tridiagonal(even_diag, even_off, k - n_odd)

    # unfold by mirror symmetry: chain point j takes unknown min(j, mirror(j));
    # in place where possible, as these temporaries set a sweep's peak memory
    energies, floors, rows = np.empty(k), np.empty(k), np.empty((k, n))
    energies[even_slot], floors[even_slot] = even_e, even_tol
    even_v *= np.where(own, 1.0, 1.0 / root2)[:, None]
    rows[even_slot] = even_v.T[:, fold]
    if n_odd:
        odd_e, odd_v, odd_tol = _lowest_tridiagonal(odd_diag, np.full(odd_diag.size - 1, c), n_odd)
        padded = np.zeros((n_odd, half))
        padded[:, ~own] = odd_v.T
        padded /= root2
        odd_v = padded[:, fold]
        odd_v *= np.sign(mirror - j)
        energies[~even_slot], floors[~even_slot] = odd_e, odd_tol
        rows[~even_slot] = odd_v

    # a zero energy within roundoff of an exact constant null vector is that vector
    zero = np.abs(energies) <= floors
    if zero.any() and not _apply(ham, np.ones(n)).any():
        rows[zero] = 1.0 / math.sqrt(n)
        energies[zero] = 0.0
    return energies, rows.T, floors


def solve_lowest(ham: Hamiltonian, k: int) -> EigenResult:
    """k lowest eigenpairs, continuum-normalized with a positive leading lobe.

    The even and odd mirror blocks are solved (`_parity_pairs`) and every
    pair is checked against the full operator; see `EigenResult`.  The
    residuals, norms and signs are taken on the whole block of
    eigenvectors, one row per state.
    """
    dim = ham.diagonal.size
    if not 1 <= k <= dim:
        raise ConfigError(f"requested {k} eigenpairs from a {dim}-dimensional matrix")
    energies, vecs, floors = _parity_pairs(ham, k)

    # one contiguous row per state, as `_parity_pairs` builds them: each
    # row's dot products sum as a vector's
    rows = np.ascontiguousarray(vecs.T)
    # the residual in place in H v: these k x n temporaries set a solve's peak memory
    gap = _apply(ham, rows)
    gap -= energies[:, None] * rows
    residuals = np.sqrt(dot(gap, gap))
    full = rows
    if ham.grid.boundary == "dirichlet":
        full = np.zeros((k, ham.grid.points))
        full[:, 1:-1] = rows
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
    energies[np.abs(energies) <= floors] = 0.0
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
