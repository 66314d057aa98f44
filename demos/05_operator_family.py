"""Integrating out the device: the measurement operator family.

Projecting the coupled state onto device labels leaves an indexed family of
operators on the target.  Summed over labels they resolve the identity, and
their squared norms reproduce the joint readout statistics in any of the
four label representations.  Two of the printed closed forms differ from
the unitary route; the gap is reported, never patched.  It is a closed form
in the device kernel: a reflection of the target's x cells for X_piP, and
the row sums of |K|^2 against a phase-versus-shift gap for piX_piP.
"""

import numpy as np

from kvnlab import Grid2D, apply_kraus, kraus_build, make_gaussian, make_point, marginal
from kvnlab.measurement import LABEL_REPS, printed_kernel_discrepancy, von_neumann_couple

grid = Grid2D(32, 32, -10.0, 10.0, -10.0, 10.0)
target = make_gaussian(grid, 0.3, -0.2, 1.3, 1.3)
device = make_gaussian(grid, 0.0, 0.1, 1.28, 1.3)
after = von_neumann_couple(target, device)

print("completeness defect and readout agreement per label representation:")
for rep in LABEL_REPS:
    family = kraus_build(device, rep, grid)
    probs = family.joint_probabilities(target)
    joint = marginal(after, family.label_axes)
    l1 = np.abs(probs - joint.array * joint.cell_measure()).sum()
    print(f"  {rep:8s} completeness {family.completeness_defect():.2e}   "
          f"label/readout L1 {l1:.2e}")

# a point target fires exactly one label
pt = make_point(grid, 1.25, 0.625)
pd = make_point(grid, -1.25, 1.875)
family = kraus_build(pd, "X_P", grid)
probs = family.joint_probabilities(pt)
a, b = np.argwhere(probs > 1e-12)[0]
print(f"\npoint target through a point device fires one label: "
      f"(X, P) = ({family.label_values[0][a]:.3f}, {family.label_values[1][b]:.3f})")
prob, post = apply_kraus(pt, family.operator(a, b))
print(f"its probability is {prob:.3f}; the conditional state is again a point")

print("\nprinted closed forms vs the unitary route:")
for rep, gaps in printed_kernel_discrepancy(device, target).items():
    print(f"  {rep:8s} probability L1 {gaps['probability_l1']:.3e}   "
          f"action L2 {gaps['action_l2']:.3e}")
print("the X_piP form carries a sign asymmetry, the piX_piP form trades a")
print("phase for a lattice shift; both gaps are reported as data.")
