"""Walk up the particle-in-a-box ladder and watch Delta x Delta p grow.

For the infinite square well of width a the closed forms are

    Delta x = a sqrt(1/12 - 1/(2 n^2 pi^2)),   Delta p = hbar n pi / a,

so the product starts at about 0.568 hbar in the ground state (comfortably
above the hbar/2 floor) and climbs linearly for large n while Delta x
saturates at the uniform-distribution value a / sqrt(12).  The same numbers
are recomputed here from quadrature on sampled wavefunctions to show that
the two routes agree to roundoff: a few parts in 10^16 in the table below.
"""

import numpy as np

from qnodes import Box, box_uncertainties, oracle_uncertainties

spec = Box(length=1.0, mass=1.0)

print(f"{'n':>3} {'Delta x':>12} {'Delta p':>12} {'product':>14} "
      f"{'oracle rel err':>15}")
for n in range(1, 13):
    ana = box_uncertainties(spec, n)
    ora = oracle_uncertainties(spec, n)
    rel = abs(ora.product - ana.product) / ana.product
    print(f"{n:>3} {ana.delta_q:>12.8f} {ana.delta_p:>12.6f} "
          f"{ana.product:>14.10f} {rel:>15.2e}")

print()
limit = 1.0 / np.sqrt(12.0)
dx_50 = box_uncertainties(spec, 50).delta_q
print(f"Delta x approaches a/sqrt(12) = {limit:.8f}; at n = 50 it is "
      f"{dx_50:.8f} ({100.0 * dx_50 / limit:.4f}% of the limit).")
print("The product never dips below hbar/2 and grows without bound: the")
print("well walls keep Delta x finite while each extra node costs momentum.")
