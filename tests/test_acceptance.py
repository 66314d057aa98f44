"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  The whole suite is sized for a desk machine (well under
two minutes total).
"""

import math
import time

import numpy as np

from kvnlab import algebra as al
from kvnlab import dynamics as dyn
from kvnlab import measurement as ms
from kvnlab import phasespace as ps
from kvnlab import uncertainty as un

from _oracles import dense_evolve


def _report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


# ---------------------------------------------------------------------------
# 1. symbolic identity suite
# ---------------------------------------------------------------------------


def test_criterion_1_symbolic_identity_suite():
    start = time.monotonic()
    results = al.verify_identity_suite()
    elapsed = time.monotonic() - start
    names = {r.name for r in results}
    required = {
        "deformed_pair_ccr",
        "backreaction_x_h_vs_pi_x_h",
        "backreaction_x_h_vs_pi_p_h",
        "backreaction_p_h_vs_pi_x_h",
        "backreaction_p_h_vs_pi_p_h",
        "error_disturbance_commute",
        "error_vs_p_equals_disturbance_vs_x",
        "planck_liouvillian_kinetic",
        "planck_liouvillian_quadratic_potential",
        "planck_liouvillian_bilinear",
    } | {f"pointer_heisenberg_{g}" for g in ("x", "p", "X", "P", "pi_p", "pi_X")} \
      | {"pointer_heisenberg_pi_x_sign_adjusted", "pointer_heisenberg_pi_P_sign_adjusted"}
    ok = (
        required <= names
        and all(r.passed and r.residual.is_zero() for r in results)
        and elapsed < 5.0
    )
    _report(1, "symbolic identity suite, exact residuals, < 5 s", ok)


# ---------------------------------------------------------------------------
# 2. free-particle trajectory on a 256x256 grid
# ---------------------------------------------------------------------------


def test_criterion_2_free_particle_trajectory():
    start = time.monotonic()
    grid = ps.Grid2D(256, 256, -16.0, 16.0, -8.0, 8.0)
    m, p0 = 1.0, 2.0  # p0 on the momentum lattice
    h = dyn.HamiltonianSpec.free(m)

    point = ps.make_point(grid, 0.0, p0)
    plan = dyn.PropagationPlan(dt=0.25, n_steps=14)  # quarter-domain: |p0/m*t| <= 8
    peaks = []

    def watch(step, snap):
        dens = ps.joint_density(snap)
        i, j = np.unravel_index(np.argmax(dens.array), dens.array.shape)
        peaks.append((step + 1, dens.values[0][i]))

    dyn.kvn_evolve(point, h, plan, observer=watch)
    point_ok = all(
        abs(xv - (p0 / m) * (k * plan.dt)) <= grid.dx + 1e-12 for k, xv in peaks
    )

    gauss = ps.make_gaussian(grid, -4.0, 1.0, 0.5, 0.25)
    out = dyn.kvn_evolve(gauss, h, dyn.PropagationPlan(dt=0.1, n_steps=40))
    x_err = abs(ps.expectation(out, "x") - (-4.0 + 1.0 / m * 4.0))
    p_drift = abs(ps.expectation(out, "p") - 1.0)
    gauss_ok = x_err < grid.dx / 2 and p_drift < 1e-9

    elapsed = time.monotonic() - start
    _report(2, "free-particle trajectory on 256x256, < 10 s",
            point_ok and gauss_ok and elapsed < 10.0)


# ---------------------------------------------------------------------------
# 3. dense-matrix oracle equivalence and Strang order
# ---------------------------------------------------------------------------


def test_criterion_3_oracle_equivalence_and_strang_order():
    grid = ps.Grid2D(8, 8, -4.0, 4.0, -4.0, 4.0)
    rng = np.random.default_rng(12)
    amp = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    state = ps.PhaseState(grid, "xp", amp).normalized()
    measure = grid.dx * grid.dp

    def l2(a, b):
        return math.sqrt(float(np.sum(np.abs(a - b) ** 2)) * measure)

    t = 0.5
    free_err = l2(
        dyn.kvn_evolve(state, dyn.HamiltonianSpec.free(1.0),
                       dyn.PropagationPlan(t / 4, 4), check_stability=False).amp,
        dense_evolve(state, dyn.HamiltonianSpec.free(1.0), t),
    )
    h_osc = dyn.HamiltonianSpec.harmonic(1.0, 1.0)
    ref = dense_evolve(state, h_osc, t)
    harm_err = l2(
        dyn.kvn_evolve(state, h_osc, dyn.PropagationPlan(t / 2500, 2500),
                       check_stability=False).amp,
        ref,
    )
    e_coarse = l2(dyn.kvn_evolve(state, h_osc, dyn.PropagationPlan(t / 10, 10),
                                 check_stability=False).amp, ref)
    e_half = l2(dyn.kvn_evolve(state, h_osc, dyn.PropagationPlan(t / 20, 20),
                               check_stability=False).amp, ref)
    ratio = e_coarse / e_half
    _report(3, "8x8 dense-oracle match < 1e-6 and Strang ratio in [3, 5]",
            free_err < 1e-6 and harm_err < 1e-6 and 3.0 <= ratio <= 5.0)


# ---------------------------------------------------------------------------
# 4. quantum pointer readout reproduces the target density
# ---------------------------------------------------------------------------


def test_criterion_4_quantum_readout_reproduction():
    axis = ps.Axis(128, -8.0, 8.0)
    phi = ms.quantum_gaussian(axis, 0.4, 0.9)
    eta = ms.quantum_point(axis, 0.0)
    record = ms.quantum_readout(ms.quantum_pointer_couple(phi, eta, axis), axis)
    l1 = float(np.abs(record.probabilities - np.abs(phi) ** 2 * axis.d).sum())
    _report(4, "delta-device pointer readout matches |phi|^2, L1 < 1e-6", l1 < 1e-6)


# ---------------------------------------------------------------------------
# 5. classical simultaneity vs the quantum counterpart
# ---------------------------------------------------------------------------


def test_criterion_5_simultaneity_contrast():
    grid = ps.Grid2D(32, 32, -10.0, 10.0, -10.0, 10.0)
    rng = np.random.default_rng(2024)

    def draw():
        return ps.make_gaussian(
            grid,
            rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
            rng.uniform(1.25, 1.32), rng.uniform(1.25, 1.32),
        )

    classical_ok = True
    for _ in range(10):
        target, device = draw(), draw()
        after = ms.von_neumann_couple(target, device)
        r1, r2 = ms.check_simultaneity(after, target, device)
        classical_ok = classical_ok and r1 < 1e-6 and r2 < 1e-6

    axis = ps.Axis(128, -8.0, 8.0)
    q1, q2 = ms.quantum_simultaneity_probe(
        ms.quantum_gaussian(axis, 0.3, 0.9),
        ms.quantum_gaussian(axis, 0.0, 0.5),
        axis,
    )
    _report(5, "classical residuals < 1e-6 on 10 draws, quantum counterpart > 0.1",
            classical_ok and q2 > 0.1)


# ---------------------------------------------------------------------------
# 6. operator-family completeness and label statistics
# ---------------------------------------------------------------------------


def test_criterion_6_kraus_family():
    grid = ps.Grid2D(32, 32, -10.0, 10.0, -10.0, 10.0)
    target = ps.make_gaussian(grid, 0.3, -0.2, 1.3, 1.3)
    device = ps.make_gaussian(grid, 0.0, 0.1, 1.28, 1.3)
    family = ms.kraus_build(device, "X_P", grid)
    completeness = family.completeness_defect()
    probs = family.joint_probabilities(target)
    after = ms.von_neumann_couple(target, device)
    joint = ps.marginal(after, ("X", "P"))
    l1 = float(np.abs(probs - joint.array * joint.cell_measure()).sum())
    _report(6, "completeness defect < 1e-6 and label/readout L1 < 1e-9",
            completeness < 1e-6 and l1 < 1e-9)


# ---------------------------------------------------------------------------
# 7. uncertainty suite
# ---------------------------------------------------------------------------


def test_criterion_7_uncertainty_suite():
    grid = ps.Grid2D(64, 64, -8.0, 8.0, -8.0, 8.0)
    rng = np.random.default_rng(7)

    def draw():
        return ps.make_gaussian(
            grid,
            rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
            rng.uniform(0.55, 1.0), rng.uniform(0.55, 1.0),
        )

    comm_ok = all(
        abs(un.error_disturbance(draw(), draw(), t).comm_ND) < 1e-9
        for t in (0.5, 1.0, 2.0)
    )

    point_rep = un.error_disturbance(
        ps.make_point(grid, 0.5, 0.25), ps.make_point(grid, 2.0, -1.5), 1.0
    )
    point_ok = abs(point_rep.epsilon - 2.0) < 1e-12 and abs(point_rep.eta - 1.5) < 1e-12

    slack_ok = all(
        un.error_disturbance(draw(), draw(), 1.0).slack_ozawa_like >= -1e-8
        for _ in range(20)
    )

    s = ps.make_gaussian(grid, 0.2, -0.1, 0.9, 1.0)
    lhs, rhs, holds = un.kennard_robertson(s, "x", "pi_x")
    kr_ok = holds and lhs >= 0.5 * (1 - 1e-6) and abs(lhs / 0.5 - 1.0) < 0.01

    _report(7, "commutator zero, point values exact, slacks >= -1e-8, KR saturated",
            comm_ok and point_ok and slack_ok and kr_ok)


# ---------------------------------------------------------------------------
# 8. classical limit scan
# ---------------------------------------------------------------------------


def test_criterion_8_classical_limit():
    grid = ps.Grid2D(128, 128, -12.0, 12.0, -6.0, 6.0)
    state = ps.make_gaussian(grid, 0.0, 1.0, 1.0, 0.5)
    h = dyn.HamiltonianSpec.free(1.0)
    scan = dyn.classical_limit_scan(state, h, 1.0, [0.0, 0.2, 0.1, 0.05], n_steps=50)
    zero_exact = scan[0][1] == 0.0
    devs = [dev for _, dev in scan[1:]]
    monotone = devs[0] > devs[1] > devs[2]
    ratios_ok = devs[1] / devs[0] <= 0.7 and devs[2] / devs[1] <= 0.7
    _report(8, "deviations strictly decreasing with ratio <= 0.7, exact 0 at hbar=0",
            zero_exact and monotone and ratios_ok)


# ---------------------------------------------------------------------------
# 9. pulsed-interaction composition
# ---------------------------------------------------------------------------


def test_criterion_9_pulsed_composition():
    grid = ps.Grid2D(32, 32, -8.0, 8.0, -8.0, 8.0)
    plan = dyn.PropagationPlan(0.05, 1)
    h_free = dyn.HamiltonianSpec.free(1.0)

    target = ps.make_gaussian(grid, -1.0, 0.5, 1.0, 1.0)
    device = ps.make_gaussian(grid, 0.0, 0.0, 1.0, 1.0)
    s = ps.product_state(target, device)
    pulsed0 = dyn.pulsed_propagator(s, h_free, None, 0.0, 0.4, 1.0, plan)
    free = dyn.free_evolve_bipartite(
        dyn.free_evolve_bipartite(s, h_free, None, 0.4, plan), h_free, None, 0.6, plan
    )
    eps0_ok = ps.l2_distance(pulsed0, free) < 1e-12

    s_pt = ps.product_state(ps.make_point(grid, 1.0, 0.5), ps.make_point(grid, 0.0, 1.0))
    h0 = dyn.HamiltonianSpec.zero()
    eps = 0.5
    reduction = dyn.pulsed_propagator(s_pt, h0, h0, eps, 0.3, 1.0, plan)
    direct = dyn.couple_evolve(s_pt, 1.0, eps)
    static_ok = ps.l2_distance(reduction, direct) < 1e-9

    x0, p0, X0, t1 = 1.0, 1.0, -1.0, 0.5
    s2 = ps.product_state(ps.make_point(grid, x0, p0), ps.make_point(grid, X0, 0.0))
    out = dyn.pulsed_propagator(s2, h_free, None, 1.0, t1, 1.0, plan)
    pointer_ok = abs(ps.expectation(out, "X") - (X0 + x0 + p0 * t1)) < grid.dx

    _report(9, "pulsed run: eps=0 free, static reduction, pointer closed form",
            eps0_ok and static_ok and pointer_ok)
