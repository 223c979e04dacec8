"""Fourier-grid spectra: exact for the box and the ring, exponentially
convergent for the oscillator.

The eigen path's kinetic matrix is T = F^-1 diag(k^2/2) F over one period
of the grid, the limit of central finite differences as the stencil's
order grows.  Every sampled sine (box) or Fourier (ring) mode a grid holds
is an exact eigenvector of it, so the six lowest box and ring energies are
exact to roundoff on any grid that holds level 6: the first table solves
them on grids from the fewest points that hold them up to twice the
default.  The oscillator's states are not band-limited, so its energies
converge only as the points widen the grid's band, but exponentially: the
second table shows the largest relative error of its six lowest levels
falling with the points on the default grid's extent.  The ring's m = 0
level is exactly 0, so the tables show absolute errors for the box and
the ring.  The last line checks the node counts of the computed box
states.
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

k = 6


def energies(spec, points):
    grid = default_eigen_grid(spec, k, points)
    return solve_lowest(build_hamiltonian(spec, grid), k).energies


exact = {
    Box: [box_energy(Box(), n) for n in range(1, k + 1)],
    Ring: [ring_energy(Ring(), m) for m in (0, 1, -1, 2, -2, 3)],
    Oscillator: [oscillator_energy(Oscillator(), n) for n in range(k)],
}

print("Box and ring: largest absolute error of the six lowest levels")
print(f"{'system':>10} {'points':>7} {'max |E - exact|':>16}")
for spec, points in ((Box(), (9, 17, 33)), (Ring(), (7, 8, 16, 32))):
    for p in points:
        err = np.max(np.abs(energies(spec, p) - exact[type(spec)]))
        print(f"{type(spec).__name__:>10} {p:>7} {err:>16.2e}")

spec = Oscillator()
default = default_eigen_grid(spec, k)
print(f"\nOscillator on [{default.lower:.2f}, {default.upper:.2f}] (the default grid has "
      f"{default.points} points): largest relative error of the six lowest levels")
print(f"{'points':>7} {'max rel error':>14}")
target = np.array(exact[Oscillator])
for p in (21, 31, 41, 51, 61, 81, default.points):
    err = np.max(np.abs(energies(spec, p) - target) / target)
    print(f"{p:>7} {err:>14.2e}")

# node counts on the computed states (box: level i has i interior nodes)
spec = Box()
result = solve_lowest(build_hamiltonian(spec, default_eigen_grid(spec, k)), k)
counted = [count_nodes(psi).count for psi in result.states]
print(f"\nBox eigenstate node counts: {counted} (expected {list(range(k))})")
