"""Error, disturbance, and the uncertainty suite for the pointer model.

The error operator N(t) = X(t) - x and disturbance D(t) = p(t) - p have
exact closed forms, so epsilon and eta come from initial-state moments.
They commute, the paired inequalities are sign-trivial, and the only
non-trivial bound lives on the conjugate side:

    epsilon * eta_pi_x + epsilon * sigma(pi_x) + sigma(x) * eta_pi_x >= 1/2.
"""

import numpy as np

from kvnlab import Grid2D, error_disturbance, kennard_robertson, make_gaussian, make_point
from kvnlab.uncertainty import check_trivial, unbiased_scan

grid = Grid2D(64, 64, -8.0, 8.0, -8.0, 8.0)

# point states: calibration reading of the device
target = make_point(grid, 0.5, 0.25)
device = make_point(grid, 2.0, -1.5)
rep = error_disturbance(target, device, t=1.0)
print("point states at t = 1:")
print(f"  epsilon = {rep.epsilon:.3f}  (|X| of the device)")
print(f"  eta     = {rep.eta:.3f}  (|P| of the device)")
print(f"  <[N, D]> = {rep.comm_ND}")

# the distributional unbiased condition kills the means, not the spreads
tg = make_gaussian(grid, 0.5, 0.0, 0.8, 0.8)
dg = make_gaussian(grid, 0.0, 0.0, 0.6, 0.7)
rows = unbiased_scan(tg, dg, [0.5, 1.0, 2.0])
print("\nunbiased scan, centered Gaussian device:")
print(f"{'t':>6} {'unbiased':>9} {'epsilon':>9} {'eta':>8} {'zero-error claim':>17}")
for row in rows:
    print(f"{row.t:6.2f} {str(row.unbiased):>9} {row.epsilon:9.4f} "
          f"{row.eta:8.4f} {str(row.zero_error_claim_holds):>17}")
print("(at t=1 the condition holds and the MEANS vanish; the spread-free")
print(" claim fails for any non-point state and is recorded as data)")

# inequality slacks over a time sweep
print("\ninequality slacks for Gaussian target (x) device:")
print(f"{'t':>6} {'slack trivial':>14} {'slack product':>14}")
for t in (0.25, 0.5, 1.0, 2.0):
    r = error_disturbance(tg, dg, t)
    checks = check_trivial(r)
    assert checks.product_holds and checks.sum_holds
    print(f"{t:6.2f} {r.slack_trivial:14.5f} {r.slack_ozawa_like:14.5f}")

lhs, rhs, holds = kennard_robertson(tg, "x", "pi_x")
print(f"\nKennard-Robertson on the target: sigma(x) sigma(pi_x) = {lhs:.6f} >= {rhs}")
print("a Gaussian saturates the bound; the product inequality above stays")
print("positive for every product state, hitting zero only for a sharp")
print("device as the coupling time goes to zero.")
