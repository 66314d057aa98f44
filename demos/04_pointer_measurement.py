"""The pointer measurement model, classical against quantum.

Coupling a target to a device through x*P for unit time correlates the
pointer X with the target position and kicks the target momentum by the
device P.  Classically both relative-state propositions hold at once:
conditioning on the target x shifts the pointer distribution by x, AND
conditioning on the device P shifts the target momentum by -P - even after
the pointer has actually been read.  The quantum model satisfies each
proposition separately, but reading the pointer destroys the momentum
correlation: the instantiated probe fails by an O(1) residual.
"""

import numpy as np

from kvnlab import Grid2D, make_gaussian, make_point, marginal
from kvnlab.measurement import (
    check_simultaneity,
    quantum_gaussian,
    quantum_pointer_couple,
    quantum_readout,
    quantum_simultaneity_probe,
    readout,
    von_neumann_couple,
)
from kvnlab.phasespace import Axis

grid = Grid2D(32, 32, -10.0, 10.0, -10.0, 10.0)
target = make_gaussian(grid, 0.3, 0.0, 1.3, 1.3)
device = make_gaussian(grid, 0.0, 0.0, 1.3, 1.3)

after = von_neumann_couple(target, device)
record = readout(after, "X")
mean_X = float((record.values * record.probabilities).sum())
print(f"pointer mean after coupling: {mean_X:+.4f}  (target <x> = +0.3)")

r1, r2, r_inst = check_simultaneity(after, target, device)
print("\nclassical model")
print(f"  proposition 1 (pointer tracks x)      residual: {r1:.2e}")
print(f"  proposition 2 (momentum kicked by -P) residual: {r2:.2e}")
print(f"  proposition 2 after reading the needle:        {r_inst:.2e}")

axis = Axis(128, -8.0, 8.0)
phi = quantum_gaussian(axis, 0.3, 0.9)
eta = quantum_gaussian(axis, 0.0, 0.5)
q1, q2 = quantum_simultaneity_probe(phi, eta, axis)
print("\nquantum model (same coupling, 1D target and pointer)")
print(f"  proposition 1 residual:                 {q1:.2e}")
print(f"  proposition 2 after reading the needle: {q2:.2e}   <- the contrast")

# a delta-calibrated quantum pointer reads off |phi(x)|^2 exactly
from kvnlab.measurement import quantum_point

eta0 = quantum_point(axis, 0.0)
rec = quantum_readout(quantum_pointer_couple(phi, eta0, axis), axis)
gap = np.abs(rec.probabilities - np.abs(phi) ** 2 * axis.d).sum()
print(f"\ndelta-device readout vs |phi|^2, L1 gap: {gap:.2e}")
