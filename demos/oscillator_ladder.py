"""The harmonic oscillator saturates Heisenberg exactly once.

Every oscillator eigenstate obeys Delta x Delta p = hbar (n + 1/2): the
ground state sits exactly on the hbar/2 bound (it is a minimum-uncertainty
Gaussian) and each rung of the ladder adds exactly hbar.  The node count
climbs in lockstep -- state n has exactly n nodes -- so the uncertainty
product is a simple affine function of the number of nodes.

The quadrature oracle reproduces the ladder to roundoff, a few parts in
10^16 in the table below (n <= 10), although the wavefunction oscillates
ever faster over a classical turning region of half-width sqrt(2n+1)
oscillator lengths.
"""

from qnodes import (
    Oscillator,
    count_nodes,
    oracle_uncertainties,
    oscillator_uncertainties,
    sample_state,
)

spec = Oscillator(mass=1.0, omega=1.0)

print(f"{'n':>3} {'product/hbar':>13} {'n + 1/2':>8} {'nodes':>6} "
      f"{'oracle rel err':>15}")
for n in range(0, 11):
    ana = oscillator_uncertainties(spec, n)
    ora = oracle_uncertainties(spec, n)
    psi = sample_state(spec, n)
    nodes = count_nodes(psi).count
    rel = abs(ora.product - ana.product) / ana.product
    print(f"{n:>3} {ana.product:>13.10f} {n + 0.5:>8.1f} {nodes:>6} "
          f"{rel:>15.2e}")

ground = oscillator_uncertainties(spec, 0)
print()
print(f"Ground state: product - bound = {ground.product - ground.bound:.2e}.")
print("Only the nodeless Gaussian touches the hbar/2 floor; every node")
print("added after that raises the product by exactly hbar.")
