"""Finite-difference Hamiltonians and a formula-free eigenpair oracle.

The three systems are discretized with the standard three-point Laplacian:
hard walls drop the boundary points (box), the ring couples first and last
points, and the oscillator lives on a truncated open interval where the
state has decayed below roundoff.  Box/oscillator matrices are symmetric
tridiagonal and solved by bisection plus inverse iteration
(`scipy.linalg.eigh_tridiagonal`).

The periodic ring matrix carries corner entries, but it commutes with the
reflection theta -> -theta, so it splits into an even (cos) and an odd
(sin) block, both symmetric tridiagonal and solved the same way.  The m-th
level of the even block and the m-th of the odd block are the two members
of the degenerate +/-m pair (symmetry reduction of a circulant operator:
Trefethen, *Spectral Methods in MATLAB*, SIAM 2000, ch. 3).

Grids, Hamiltonians, energies and states are in the system's natural
units (`model.scales`); `eigen_uncertainties` rescales its record once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .analytic import UncertaintyRecord
from .errors import ConfigError, ConvergenceError, GridError
from .grids import GridSpec, SampledFunction, quad
from .model import Box, Oscillator, Ring, SystemSpec, scales
from .nodal import count_nodes
from .oracle import record_from_samples

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
    """Symmetric discretization of -(1/2) d^2/dq^2 + V(q) in natural units.

    `diagonal` holds 1/h^2 + V(q_i) per unknown; `off_diagonal` is the
    uniform coupling -1/(2 h^2).  `periodic` adds the two corner
    couplings; `solve_lowest` then solves the even and odd parity blocks
    instead of the full matrix.  `grid` is the full state grid (for the
    box this includes the wall points the matrix excludes).
    """

    grid: GridSpec
    diagonal: np.ndarray
    off_diagonal: float
    periodic: bool


@dataclass(frozen=True)
class EigenResult:
    """Lowest eigenpairs in natural units: ascending energies, normalized
    sampled states, and residual norms ||H psi - E psi||.

    Ring states come in parity order [m=0, cos 1, sin 1, cos 2, sin 2, ...].
    The two members of a +/-m pair are solved in separate blocks, so their
    energies agree only to roundoff and may be out of order by that much.
    """

    energies: np.ndarray
    states: list[SampledFunction]
    residuals: np.ndarray


def default_eigen_grid(spec: SystemSpec, k: int = 6, points: int | None = None) -> GridSpec:
    """Natural-unit grid suited to resolving the k lowest levels."""
    if isinstance(spec, Box):
        return GridSpec(0.0, 1.0, points or DEFAULT_BOX_EIGEN_POINTS, "dirichlet")
    if isinstance(spec, Ring):
        return GridSpec(0.0, 2.0 * math.pi, points or DEFAULT_RING_EIGEN_POINTS, "periodic")
    half_width = max(math.sqrt(2.0 * k + 1.0) + 8.0, 12.0)
    return GridSpec(
        -half_width, half_width, points or DEFAULT_OSCILLATOR_EIGEN_POINTS, "open"
    )


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
    return Hamiltonian(grid, diag, -t, periodic=isinstance(spec, Ring))


def _apply(ham: Hamiltonian, v: np.ndarray) -> np.ndarray:
    out = ham.diagonal * v
    out[:-1] += ham.off_diagonal * v[1:]
    out[1:] += ham.off_diagonal * v[:-1]
    if ham.periodic:
        out[0] += ham.off_diagonal * v[-1]
        out[-1] += ham.off_diagonal * v[0]
    return out


def _lowest_tridiagonal(
    diagonal: np.ndarray, off: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    try:
        return scipy.linalg.eigh_tridiagonal(
            diagonal, off, select="i", select_range=(0, count - 1)
        )
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc


def _ring_parity_pairs(ham: Hamiltonian, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k lowest ring eigenpairs from the even and odd blocks, unfolded.

    With N points and mirror j -> N - j, the even block's unknowns are
    j = 0..N//2 and the odd block's j = 1..(N+1)//2 - 1 (an odd state
    vanishes at theta = 0 and, for even N, at theta = pi).  An even unknown
    with a distinct mirror stands for two ring points and is scaled by
    sqrt 2, so its couplings to the self-mirrored unknowns carry sqrt 2 and
    the block stays symmetric.  For odd N the last unknown's outer
    neighbour is its own mirror: the even diagonal gains +c, the odd -c.
    Returns energies and unit-norm ring vectors in the order
    [m=0, cos 1, sin 1, cos 2, sin 2, ...].
    """
    n, c = ham.diagonal.size, ham.off_diagonal
    half = n // 2
    root2 = math.sqrt(2.0)
    even_diag = ham.diagonal[: half + 1].copy()
    even_off = np.full(half, c)
    odd_diag = ham.diagonal[1 : n - half].copy()
    # ring amplitude of each even unknown: 1 if self-mirrored, else 1/sqrt 2
    scale = np.full(half + 1, 1.0 / root2)
    scale[0] = 1.0
    even_off[0] *= root2
    if n % 2 == 0:
        scale[half] = 1.0
        even_off[-1] *= root2
    else:
        even_diag[-1] += c
        odd_diag[-1] -= c
    n_even, n_odd = k // 2 + 1, (k - 1) // 2
    even_e, even_v = _lowest_tridiagonal(even_diag, even_off, n_even)

    # unfold by mirror symmetry: ring point j takes unknown min(j, N - j)
    j = np.arange(n)
    fold = np.minimum(j, n - j)
    full_even = (even_v * scale[:, None])[fold]
    energies, vecs = np.empty(k), np.empty((n, k))
    energies[0], vecs[:, 0] = even_e[0], full_even[:, 0]
    energies[1::2], vecs[:, 1::2] = even_e[1:], full_even[:, 1:]
    if n_odd:
        odd_e, odd_v = _lowest_tridiagonal(odd_diag, np.full(odd_diag.size - 1, c), n_odd)
        padded = np.zeros((half + 1, n_odd))
        padded[1 : n - half] = odd_v / root2
        energies[2::2] = odd_e
        vecs[:, 2::2] = np.sign(n - 2 * j)[:, None] * padded[fold]
    return energies, vecs


def solve_lowest(ham: Hamiltonian, k: int) -> EigenResult:
    """k lowest eigenpairs, continuum-normalized with a positive leading lobe.

    A periodic (ring) Hamiltonian is solved as its even and odd parity
    blocks; the states come in the order of `_ring_parity_pairs`.
    """
    dim = ham.diagonal.size
    if k > dim:
        raise ConfigError(f"requested {k} eigenpairs from a {dim}-dimensional matrix")
    if ham.periodic:
        energies, vecs = _ring_parity_pairs(ham, k)
    else:
        energies, vecs = _lowest_tridiagonal(
            ham.diagonal, np.full(dim - 1, ham.off_diagonal), k
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
    first = 2 * abs(m) - 1
    if first + 1 >= len(result.states):
        raise GridError(f"need at least {first + 2} solved levels for |m| = {abs(m)}")
    u = result.states[first].values
    w = result.states[first + 1].values
    psi = (u + 1j * math.copysign(1.0, m) * w) / math.sqrt(2.0)
    return SampledFunction(result.states[first].grid, psi)


def eigen_uncertainties(
    spec: SystemSpec, result: EigenResult, index: int
) -> UncertaintyRecord:
    """Physical UncertaintyRecord for one computed natural-unit eigenstate.

    `index` is the quantum number: box n >= 1, oscillator n >= 0, ring any
    integer m (mapped through its degenerate pair).  Node counts are
    measured on the state itself.
    """
    if isinstance(spec, Ring):
        psi = ring_momentum_state(result, index)
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
    ).rescaled(scales(spec))
