"""Finite-difference Hamiltonians and a formula-free eigenpair oracle.

The three systems are discretized with the standard three-point Laplacian:
hard walls drop the boundary points (box), the ring couples first and last
points, and the oscillator lives on a truncated open interval where the
state has decayed below roundoff.  Box/oscillator matrices are symmetric
tridiagonal and solved by bisection plus inverse iteration
(`scipy.linalg.eigh_tridiagonal`); the periodic ring matrix carries corner
entries and goes through the dense symmetric solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .analytic import UncertaintyRecord
from .errors import ConfigError, ConvergenceError, GridError
from .grids import GridSpec, SampledFunction, quad
from .model import Box, Ring, SystemSpec
from .nodal import count_nodes
from .oracle import record_from_samples, ring_lz_by_quadrature

__all__ = [
    "Hamiltonian",
    "EigenResult",
    "default_eigen_grid",
    "build_hamiltonian",
    "solve_lowest",
    "eigen_uncertainties",
    "ring_momentum_state",
]

_RESIDUAL_TOL = 1e-8

DEFAULT_BOX_EIGEN_POINTS = 2001
DEFAULT_OSCILLATOR_EIGEN_POINTS = 2001
DEFAULT_RING_EIGEN_POINTS = 1024


@dataclass(frozen=True)
class Hamiltonian:
    """Symmetric discretization of -(hbar^2/2M) d^2/dq^2 + V(q).

    `diagonal` holds hbar^2/(M h^2) + V(q_i) per unknown; `off_diagonal`
    is the uniform coupling -hbar^2/(2 M h^2).  `periodic` adds the two
    corner couplings.  `grid` is the full state grid (for the box this
    includes the wall points the matrix excludes).
    """

    grid: GridSpec
    diagonal: np.ndarray
    off_diagonal: float
    periodic: bool


@dataclass(frozen=True)
class EigenResult:
    """Lowest eigenpairs: ascending energies, normalized sampled states,
    and residual norms ||H psi - E psi||."""

    energies: np.ndarray
    states: list[SampledFunction]
    residuals: np.ndarray


def default_eigen_grid(spec: SystemSpec, k: int = 6, points: int | None = None) -> GridSpec:
    """Grid suited to resolving the k lowest levels of the system."""
    if isinstance(spec, Box):
        return GridSpec(0.0, spec.length, points or DEFAULT_BOX_EIGEN_POINTS, "dirichlet")
    if isinstance(spec, Ring):
        return GridSpec(0.0, 2.0 * math.pi, points or DEFAULT_RING_EIGEN_POINTS, "periodic")
    xscale = math.sqrt(spec.constants.hbar / (spec.mass * spec.omega))
    half_width = max(math.sqrt(2.0 * k + 1.0) + 8.0, 12.0) * xscale
    return GridSpec(
        -half_width, half_width, points or DEFAULT_OSCILLATOR_EIGEN_POINTS, "open"
    )


def build_hamiltonian(spec: SystemSpec, grid: GridSpec) -> Hamiltonian:
    """Three-point finite-difference Hamiltonian on `grid`."""
    hbar = spec.constants.hbar
    h = grid.h
    if isinstance(spec, Box):
        if grid.boundary != "dirichlet":
            raise GridError("box Hamiltonian needs a dirichlet grid")
        t = hbar**2 / (2.0 * spec.mass * h**2)
        diag = np.full(grid.points - 2, 2.0 * t)
        return Hamiltonian(grid, diag, -t, periodic=False)
    if isinstance(spec, Ring):
        if grid.boundary != "periodic":
            raise GridError("ring Hamiltonian needs a periodic grid")
        t = hbar**2 / (2.0 * spec.moment_of_inertia * h**2)
        diag = np.full(grid.points, 2.0 * t)
        return Hamiltonian(grid, diag, -t, periodic=True)
    if grid.boundary != "open":
        raise GridError("oscillator Hamiltonian needs an open truncated grid")
    t = hbar**2 / (2.0 * spec.mass * h**2)
    diag = 2.0 * t + 0.5 * spec.mass * spec.omega**2 * grid.x**2
    return Hamiltonian(grid, diag, -t, periodic=False)


def _apply(ham: Hamiltonian, v: np.ndarray) -> np.ndarray:
    out = ham.diagonal * v
    out[:-1] += ham.off_diagonal * v[1:]
    out[1:] += ham.off_diagonal * v[:-1]
    if ham.periodic:
        out[0] += ham.off_diagonal * v[-1]
        out[-1] += ham.off_diagonal * v[0]
    return out


def solve_lowest(ham: Hamiltonian, k: int) -> EigenResult:
    """k lowest eigenpairs, continuum-normalized with a positive leading lobe."""
    dim = ham.diagonal.size
    if k > dim:
        raise ConfigError(f"requested {k} eigenpairs from a {dim}-dimensional matrix")
    if ham.periodic:
        mat = (
            np.diag(ham.diagonal)
            + np.diag(np.full(dim - 1, ham.off_diagonal), 1)
            + np.diag(np.full(dim - 1, ham.off_diagonal), -1)
        )
        mat[0, -1] = mat[-1, 0] = ham.off_diagonal
        energies, vecs = scipy.linalg.eigh(mat, subset_by_index=[0, k - 1])
    else:
        energies, vecs = scipy.linalg.eigh_tridiagonal(
            ham.diagonal,
            np.full(dim - 1, ham.off_diagonal),
            select="i",
            select_range=(0, k - 1),
        )

    states = []
    residuals = np.empty(k)
    for j in range(k):
        v = vecs[:, j]
        residuals[j] = float(np.linalg.norm(_apply(ham, v) - energies[j] * v))
        full = v
        if ham.grid.boundary == "dirichlet":
            full = np.concatenate(([0.0], v, [0.0]))
        norm2 = float(np.real(quad(SampledFunction(ham.grid, np.abs(full) ** 2))))
        full = full / math.sqrt(norm2)
        lead = np.flatnonzero(np.abs(full) > 1e-8 * np.max(np.abs(full)))[0]
        if full[lead] < 0:
            full = -full
        states.append(SampledFunction(ham.grid, full))

    scale = max(float(np.max(np.abs(energies))), 1.0)
    if np.any(residuals > _RESIDUAL_TOL * scale):
        raise ConvergenceError(
            f"eigenpair residual {residuals.max():.3e} exceeds "
            f"{_RESIDUAL_TOL * scale:.3e}"
        )
    return EigenResult(energies=energies, states=states, residuals=residuals)


def ring_momentum_state(
    result: EigenResult, m: int, hbar: float = 1.0
) -> SampledFunction:
    """Definite angular-momentum combination for a ring eigensolve.

    The FD ring spectrum is exactly degenerate in +/-m, so the dense solver
    returns an arbitrary real cos/sin-like basis of each pair.  Combining
    the pair as u + i w (sign chosen so <L_z> matches sign(m)) recovers the
    e^{i m theta} eigenstate of L_z up to a phase.  m = 0 is nondegenerate
    and returned as-is.
    """
    if m == 0:
        return result.states[0]
    first = 2 * abs(m) - 1
    if first + 1 >= len(result.states):
        raise GridError(f"need at least {first + 2} solved levels for |m| = {abs(m)}")
    u = result.states[first].values
    w = result.states[first + 1].values
    psi = (u + 1j * w) / math.sqrt(2.0)
    state = SampledFunction(result.states[first].grid, psi)
    mean, _ = ring_lz_by_quadrature(state, hbar)
    if mean * m < 0:
        psi = np.conj(psi)
        state = SampledFunction(state.grid, psi)
    return state


def eigen_uncertainties(
    spec: SystemSpec, result: EigenResult, index: int
) -> UncertaintyRecord:
    """UncertaintyRecord for one computed eigenstate.

    `index` is the quantum number: box n >= 1, oscillator n >= 0, ring any
    integer m (mapped through its degenerate pair).  Node counts are
    measured on the state itself.
    """
    if isinstance(spec, Ring):
        psi = ring_momentum_state(result, index, spec.constants.hbar)
        pos = 0 if index == 0 else 2 * abs(index) - 1
    else:
        pos = index - 1 if isinstance(spec, Box) else index
        if pos < 0 or pos >= len(result.states):
            raise GridError(f"eigenstate {index} not among the {len(result.states)} solved")
        psi = result.states[pos]
    return replace(
        record_from_samples(spec, index, psi),
        energy=float(result.energies[pos]),
        nodes_measured=count_nodes(psi).count,
        provenance="eigen",
    )
