"""Finite-difference spectra converge at order 6 to the exact energies.

The three Hamiltonians are discretized with the order-6 seven-point
Laplacian and diagonalized.  The relative energy error of a level with
wavenumber kappa is about (kappa h)^6 / 560, so halving the grid spacing
should cut it by about 2^6 = 64x.  The default eigen grid already puts the
six lowest levels within 3e-10, where the smallest errors reach roundoff,
so the tables start from a grid with 4x its spacing and halve that: they
show the measured ratios for the six lowest levels of each system, plus a
check that the computed eigenstates carry the right number of nodes.  The
ring's m = 0 level is exactly 0 and has no discretization error: its
computed energy is roundoff, so the table shows its absolute error and no
ratio.
"""

import numpy as np

from qnodes import (
    Box,
    Oscillator,
    Ring,
    box_energy,
    build_hamiltonian,
    count_nodes,
    default_eigen_grid,
    oscillator_energy,
    ring_energy,
    solve_lowest,
)


def exact_levels(spec, k):
    if isinstance(spec, Box):
        return [box_energy(spec, n) for n in range(1, k + 1)]
    if isinstance(spec, Oscillator):
        return [oscillator_energy(spec, n) for n in range(k)]
    ms = sorted(range(-k, k + 1), key=lambda m: (m * m, m < 0))
    return [ring_energy(spec, m) for m in ms[:k]]


def spaced(grid, factor):
    """Points of `grid` with its spacing times `factor`."""
    if grid.boundary == "periodic":
        return int(factor * grid.points)
    return int(factor * (grid.points - 1)) + 1


k = 6
for spec in (Box(), Oscillator(), Ring()):
    name = type(spec).__name__
    exact = np.array(exact_levels(spec, k))
    default = default_eigen_grid(spec, k)
    coarse = default_eigen_grid(spec, k, spaced(default, 1 / 4))
    errors = {}
    for factor in (1, 2):
        grid = default_eigen_grid(spec, k, spaced(coarse, factor))
        result = solve_lowest(build_hamiltonian(spec, grid), k)
        err = np.abs(np.array(result.energies) - exact)
        errors[factor] = err / np.where(exact == 0.0, 1.0, np.abs(exact))
    print(f"\n{name} ({coarse.points} -> {spaced(coarse, 2)} points; the default grid has {default.points})")
    print(f"{'level':>6} {'E exact':>10} {'err (h)':>12} {'err (h/2)':>13} {'ratio':>7}")
    for i in range(k):
        e1, e2 = errors[1][i], errors[2][i]
        if exact[i] == 0.0:
            print(f"{i:>6} {exact[i]:>10.4f} {e1:>12.2e} {e2:>13.2e} {'-':>7}  absolute")
            continue
        ratio = e1 / e2 if e2 > 0 else float("inf")
        print(f"{i:>6} {exact[i]:>10.4f} {e1:>12.2e} {e2:>13.2e} {ratio:>7.2f}  relative")

# node counts on the computed states (box: level i has i interior nodes)
spec = Box()
result = solve_lowest(build_hamiltonian(spec, default_eigen_grid(spec, k)), k)
counted = [count_nodes(psi).count for psi in result.states]
print(f"\nBox eigenstate node counts: {counted} (expected {list(range(k))})")
