"""Why the ring evades the position-momentum uncertainty argument.

A definite-m state e^{i m theta}/sqrt(2 pi) has a perfectly flat density:
Delta L_z = 0 exactly, while the naive interval spread of theta is stuck at
the uniform value 2 pi / sqrt(12).  The product Delta theta Delta L_z is
therefore zero -- no contradiction, because theta is not a well-defined
self-adjoint conjugate to L_z on the circle.

Nodes still behave: the real part of e^{i m theta} is cos(m theta), which
crosses zero 2|m| times per revolution.  Superposing +m and -m makes the
density lumpy, gives L_z a genuine spread, and the node count survives.
"""

import math

from qnodes import (
    Ring,
    RingSuperposition,
    count_nodes,
    ring_lz_by_quadrature,
    ring_lz_stats,
    ring_theta_by_quadrature,
    sample_state,
)

spec = Ring(moment_of_inertia=1.0)
uniform = 2.0 * math.pi / math.sqrt(12.0)

print(f"{'m':>3} {'Delta theta':>12} {'Delta L_z':>12} {'nodes of Re psi':>16}")
for m in range(0, 6):
    psi = sample_state(spec, m)
    _, dtheta = ring_theta_by_quadrature(psi)
    _, dlz, _ = ring_lz_by_quadrature(psi)
    nodes = count_nodes(psi).count
    print(f"{m:>3} {dtheta:>12.8f} {dlz:>12.2e} {nodes:>16}")

print(f"\nEvery definite-m row shows Delta theta = 2 pi/sqrt(12) = "
      f"{uniform:.8f}: the density carries no angular information at all.")

c = 1.0 / math.sqrt(2.0)
cat = RingSuperposition(((1, c), (-1, c)))
mean, spread = ring_lz_stats(spec, cat)
cat_psi = sample_state(spec, cat)
_, spread_quad, _ = ring_lz_by_quadrature(cat_psi)
_, dtheta_cat = ring_theta_by_quadrature(cat_psi)
print(f"\nSuperposition (|+1> + |-1>)/sqrt(2):")
print(f"  <L_z> = {mean:+.3f} hbar, Delta L_z = {spread:.12f} hbar "
      f"(coefficients) = {spread_quad:.12f} hbar (quadrature)")
print(f"  density ~ cos^2(theta), Delta theta = {dtheta_cat:.8f}")
print("  Localizing the particle on the ring costs angular-momentum spread,")
print("  exactly as the uncertainty trade-off demands.")
