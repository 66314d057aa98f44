import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from kvnlab import _slabs
from kvnlab import dynamics as dyn
from kvnlab import phasespace as ps
from kvnlab.errors import IllegalHamiltonian, ShiftOverflow, UnstablePlan, UnsupportedHamiltonian

from _oracles import (CountingPool, dense_couple, dense_evolve, free_evolve_bipartite_steps,
                      projected_step_loop, pulsed_three_calls, wrapped_mass)


@pytest.fixture
def grid():
    return ps.Grid2D(128, 128, -12.0, 12.0, -6.0, 6.0)


def test_hamiltonian_spec_validation():
    with pytest.raises(IllegalHamiltonian):
        dyn.HamiltonianSpec(mass=-1.0)
    with pytest.raises(UnsupportedHamiltonian):
        dyn.HamiltonianSpec(potential=(0.0, 0.0, 0.0, 1.0))  # cubic
    h = dyn.HamiltonianSpec.harmonic(mass=2.0, omega=3.0)
    assert h.potential == (0.0, 0.0, 9.0)
    assert h.t_prime(2.0) == 1.0  # p/m


def test_hamiltonian_symbolic_form():
    from fractions import Fraction

    from kvnlab import algebra as al

    h = dyn.HamiltonianSpec.harmonic(mass=2.0, omega=1.0)
    expr = h.to_operator_expr()
    expected = al.multiply(al.p, al.p).scaled(Fraction(0.25)) + al.multiply(
        al.x, al.x
    ).scaled(Fraction(1.0))
    assert expr == expected
    # the symbolic Liouvillian of the same spec: (p/2m') pi_x - 2 m' w^2 ...
    liou = al.liouvillian_of(expr)
    assert liou == al.multiply(al.p, al.pi_x).scaled(Fraction(0.5)) - al.multiply(
        al.x, al.pi_p
    ).scaled(Fraction(2.0))


def test_plan_validation():
    with pytest.raises(ValueError):
        dyn.PropagationPlan(dt=0.0, n_steps=1)
    with pytest.raises(ValueError):
        dyn.PropagationPlan(dt=0.1, n_steps=0)
    with pytest.raises(ValueError):
        dyn.PropagationPlan(dt=0.1, n_steps=1, splitting="euler")


def test_zero_hamiltonian_identity(grid):
    s = ps.make_point(grid, 1.0, 2.0)
    out = dyn.kvn_evolve(s, dyn.HamiltonianSpec.zero(), dyn.PropagationPlan(0.1, 10))
    assert out is s


def test_static_hamiltonian_returns_xp(grid):
    s = ps.to_representation(ps.make_gaussian(grid, 1.0, 0.5, 1.0, 0.5), "pix_p")
    zero = dyn.HamiltonianSpec.zero()
    for out in (dyn.kvn_evolve(s, zero, dyn.PropagationPlan(0.1, 3)),
                dyn.qm_evolve(s, zero, dyn.PropagationPlan(0.1, 3, hbar=0.2))):
        assert out.rep == "xp"
        assert ps.l2_distance(out, s) < 1e-12


def test_qm_evolve_static_calls_observer(grid):
    s = ps.make_gaussian(grid, 1.0, 0.5, 1.0, 0.5)
    seen = []
    plan = dyn.PropagationPlan(0.1, 4, hbar=0.2)
    dyn.qm_evolve(s, dyn.HamiltonianSpec.zero(), plan, observer=lambda i, st: seen.append((i, st.rep)))
    assert seen == [(i, "xp") for i in range(4)]


def test_free_point_state_follows_linear_orbit(grid):
    # p0 on the momentum lattice and integer-cell shifts per step
    p0 = 1.5  # lattice point of the p grid (dp = 3/32)
    s = ps.make_point(grid, 0.0, p0)
    hits = []

    def observer(step, snap):
        dens = ps.joint_density(snap)
        i, j = np.unravel_index(np.argmax(dens.array), dens.array.shape)
        hits.append((dens.values[0][i], dens.values[1][j]))

    plan = dyn.PropagationPlan(dt=0.25, n_steps=8)  # 1.5*0.25 = 2 cells
    dyn.kvn_evolve(s, dyn.HamiltonianSpec.free(1.0), plan, observer=observer)
    for k, (xv, pv) in enumerate(hits, start=1):
        assert abs(xv - p0 * k * plan.dt) <= grid.dx / 2 + 1e-12
        assert pv == p0


def test_free_gaussian_mean_and_momentum_conservation(grid):
    s = ps.make_gaussian(grid, -2.0, 1.0, 0.8, 0.4)
    plan = dyn.PropagationPlan(dt=0.05, n_steps=40)
    out = dyn.kvn_evolve(s, dyn.HamiltonianSpec.free(1.0), plan)
    assert abs(ps.expectation(out, "x") - 0.0) < grid.dx / 2
    assert abs(ps.expectation(out, "p") - 1.0) < 1e-9
    assert abs(out.norm() - 1.0) < 1e-9


def test_harmonic_first_moments_rotate():
    grid = ps.Grid2D(64, 64, -8.0, 8.0, -8.0, 8.0)
    omega = 1.0
    h = dyn.HamiltonianSpec.harmonic(1.0, omega)
    s = ps.make_gaussian(grid, 2.0, 0.0, 0.7, 0.7)
    period = 2.0 * math.pi / omega
    quarter = dyn.kvn_evolve(s, h, dyn.PropagationPlan(period / 2048, 512))
    assert abs(ps.expectation(quarter, "x")) < 0.02
    assert abs(ps.expectation(quarter, "p") + 2.0) < 0.02
    full = dyn.kvn_evolve(s, h, dyn.PropagationPlan(period / 2048, 2048))
    assert abs(ps.expectation(full, "x") - 2.0) < 0.02
    assert abs(ps.expectation(full, "p")) < 0.02


def _small_grid():
    return ps.Grid2D(8, 8, -4.0, 4.0, -4.0, 4.0)


def test_dense_oracle_free_particle():
    grid = _small_grid()
    s = ps.make_point(grid, 1.0, 1.0)
    h = dyn.HamiltonianSpec.free(1.0)
    t = 0.7
    out = dyn.kvn_evolve(s, h, dyn.PropagationPlan(t / 8, 8), check_stability=False)
    ref = dense_evolve(s, h, t)
    err = math.sqrt(np.sum(np.abs(out.amp - ref) ** 2) * grid.dx * grid.dp)
    assert err < 1e-6


def _random_state(grid, seed):
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal((grid.n_x, grid.n_p)) + 1j * rng.standard_normal(
        (grid.n_x, grid.n_p)
    )
    return ps.PhaseState(grid, "xp", amp).normalized()


def test_dense_oracle_harmonic_and_strang_order():
    grid = _small_grid()
    s = _random_state(grid, 4)
    h = dyn.HamiltonianSpec.harmonic(1.0, 1.0)
    t = 0.5

    fine = dyn.kvn_evolve(s, h, dyn.PropagationPlan(t / 2500, 2500), check_stability=False)
    ref = dense_evolve(s, h, t)
    err_fine = math.sqrt(np.sum(np.abs(fine.amp - ref) ** 2) * grid.dx * grid.dp)
    assert err_fine < 1e-6

    coarse = dyn.kvn_evolve(s, h, dyn.PropagationPlan(t / 10, 10), check_stability=False)
    halved = dyn.kvn_evolve(s, h, dyn.PropagationPlan(t / 20, 20), check_stability=False)
    e1 = math.sqrt(np.sum(np.abs(coarse.amp - ref) ** 2) * grid.dx * grid.dp)
    e2 = math.sqrt(np.sum(np.abs(halved.amp - ref) ** 2) * grid.dx * grid.dp)
    assert 3.0 <= e1 / e2 <= 5.0


def test_lie_splitting_is_first_order():
    grid = _small_grid()
    s = _random_state(grid, 5)
    h = dyn.HamiltonianSpec.harmonic(1.0, 1.0)
    t = 0.5
    ref = dense_evolve(s, h, t)
    e = []
    for n in (10, 20):
        out = dyn.kvn_evolve(s, h, dyn.PropagationPlan(t / n, n, splitting="lie"),
                             check_stability=False)
        e.append(math.sqrt(np.sum(np.abs(out.amp - ref) ** 2) * grid.dx * grid.dp))
    assert 1.7 <= e[0] / e[1] <= 2.3


def test_unstable_plan_detected():
    grid = ps.Grid2D(64, 64, -6.0, 6.0, -6.0, 6.0)
    s = ps.make_gaussian(grid, 3.0, 1.5, 0.7, 0.7)  # drifting into the wall
    with pytest.raises(UnstablePlan):
        dyn.kvn_evolve(s, dyn.HamiltonianSpec.free(1.0), dyn.PropagationPlan(0.1, 40))
    # each step moves the state by less than one cell, and the observer
    # keeps the steps apart, so only the per-factor guard can see the wall
    with pytest.raises(UnstablePlan, match="wraps"):
        dyn.kvn_evolve(s, dyn.HamiltonianSpec.free(1.0), dyn.PropagationPlan(0.01, 400),
                       observer=lambda i, st: None)


def test_sub_cell_shift_guard_is_symmetric():
    axis = ps.Axis(8, -4.0, 4.0)
    prob = np.full(8, 1.0 / 8)
    amp = np.sqrt(prob).astype(complex)
    for frac in (0.3, -0.3):
        edges = dyn._edges(axis, 0, frac * axis.d, 1)
        assert dyn._edge_mass(amp, edges) == pytest.approx(1.0 / 8)
    assert dyn._edge_mass(amp, dyn._edges(axis, 0, 0.0, 1)) == 0.0


@pytest.mark.parametrize("shape, dim, dep, cells", [
    ((16, 16), 0, 1, 3.5), ((16, 16), 1, 0, 0.4), ((8, 8, 8, 8), 1, 3, 2.5),
    ((8, 8, 8, 8), 2, 0, 1.2), ((8, 8, 8, 8), 3, 2, 0.7), ((8, 8, 8, 8), 0, 1, 20.0),
])
def test_edge_slabs_hold_every_wrapped_cell(shape, dim, dep, cells):
    rng = np.random.default_rng(dim + 4 * dep)
    axis = ps.Axis(shape[dim], -4.0, 4.0)
    amp = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # shifts of both signs, up to ``cells`` cells; 20 cells wraps the whole axis both ways
    view = [1] * len(shape)
    view[dep] = shape[dep]
    shift = cells * axis.d * rng.uniform(-1.0, 1.0, shape[dep]).reshape(view)
    for s in (shift, np.maximum(shift, 0.0), np.minimum(shift, 0.0)):
        got = dyn._edge_mass(amp, dyn._edges(axis, dim, s, len(shape)))
        assert got == pytest.approx(wrapped_mass(amp, axis, dim, s), rel=1e-12)
        if len(shape) == 2:
            # a 2D guard gathers its cells, and serves the real path's float64 amplitudes
            got = dyn._edge_mass(amp.real, dyn._edges(axis, dim, s, 2))
            assert got == pytest.approx(wrapped_mass(amp.real, axis, dim, s), rel=1e-12)


def test_qm_evolve_matches_dense_deformed_oracle():
    from _oracles import dense_deformed_evolve

    grid = _small_grid()
    s = _random_state(grid, 6)
    h = dyn.HamiltonianSpec(mass=1.0, potential=(0.0, 0.3, 0.4))
    hbar, t = 0.35, 0.4
    for conv, (a, b) in dyn.DEFORM_CONVENTIONS.items():
        out = dyn.qm_evolve(s, h, dyn.PropagationPlan(t / 800, 800, hbar=hbar),
                            convention=conv, check_stability=False)
        ref = dense_deformed_evolve(s, h, t, hbar, a, b)
        err = math.sqrt(np.sum(np.abs(out.amp - ref) ** 2) * grid.dx * grid.dp)
        assert err < 1e-5, conv


def test_free_bipartite_evolution_factorizes():
    grid = ps.Grid2D(16, 16, -6.0, 6.0, -6.0, 6.0)
    rng = np.random.default_rng(9)

    def rand2d():
        amp = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        return ps.PhaseState(grid, "xp", amp).normalized()

    target, device = rand2d(), rand2d()
    h_t = dyn.HamiltonianSpec.free(1.0)
    h_d = dyn.HamiltonianSpec(mass=2.0, potential=(0.0, 0.2, 0.0))
    # random states fill the box, so the wrap guard is off
    joint = ps.product_state(target, device)
    step = dyn._split_step(dyn._generators(joint.axes(), ((0, h_t), (2, h_d))), 0.05, "strang")
    joint = dyn._propagate(joint, [step] * 5, check_wrap=False)
    t_alone = dyn.kvn_evolve(target, h_t, dyn.PropagationPlan(0.05, 5), check_stability=False)
    d_alone = dyn.kvn_evolve(device, h_d, dyn.PropagationPlan(0.05, 5), check_stability=False)
    assert ps.l2_distance(joint, ps.product_state(t_alone, d_alone)) < 1e-10


def test_qm_evolve_hbar_zero_delegates(grid):
    s = ps.make_gaussian(grid, 0.0, 1.0, 1.0, 0.5)
    h = dyn.HamiltonianSpec.free(1.0)
    q = dyn.qm_evolve(s, h, dyn.PropagationPlan(0.05, 10, hbar=0.0))
    c = dyn.kvn_evolve(s, h, dyn.PropagationPlan(0.05, 10))
    assert ps.l2_distance(q, c) < 1e-12


def test_qm_evolve_unitary_and_momentum_marginal_invariant(grid):
    s = ps.make_gaussian(grid, 0.0, 1.0, 1.0, 0.5)
    h = dyn.HamiltonianSpec.free(1.0)
    out = dyn.qm_evolve(s, h, dyn.PropagationPlan(0.05, 20, hbar=0.3))
    assert abs(out.norm() - 1.0) < 1e-9
    drift = np.abs(
        ps.marginal(out, ("p",)).array - ps.marginal(s, ("p",)).array
    ).max()
    assert drift < 1e-6


def test_classical_limit_scan_free_particle(grid):
    s = ps.make_gaussian(grid, 0.0, 1.0, 1.0, 0.5)
    h = dyn.HamiltonianSpec.free(1.0)
    scan = dyn.classical_limit_scan(s, h, 1.0, [0.0, 0.2, 0.1, 0.05], n_steps=50)
    assert scan[0] == (0.0, 0.0)
    devs = [dev for _, dev in scan[1:]]
    assert devs[0] > devs[1] > devs[2] > 0
    assert devs[1] / devs[0] <= 0.7
    assert devs[2] / devs[1] <= 0.7
    assert all(d <= 2.0 for d in devs)


def test_free_flight_4d_wrap_raises_unstable_plan():
    # 3.0 of free flight carries the Gaussian at p0 = 6 past x = 16
    grid = ps.Grid2D(32, 32, -16.0, 16.0, -16.0, 16.0)
    g = ps.make_gaussian(grid, 0.0, 6.0, 2.0, 2.0)
    free = dyn.HamiltonianSpec.free(1.0)
    with pytest.raises(UnstablePlan, match="wraps"):
        dyn.free_evolve_bipartite(ps.product_state(g, g), free, free, 3.0,
                                  dyn.PropagationPlan(0.05, 1))


def test_split_steps_fuse_without_observer():
    axes = ps.BipartiteState(_small_grid(), _small_grid(), (False,) * 4,
                             np.zeros((8,) * 4)).axes()
    free = dyn.HamiltonianSpec.free(1.0)
    step = dyn._split_step(dyn._generators(axes, ((0, free), (2, free))), 0.05, "strang")
    fused = dyn._fuse(step * 20)
    assert [f.axis for f in fused] == [0, 2]
    assert all(abs(f.tau - 1.0) < 1e-12 for f in fused)
    # V != 0: neighbouring Strang half kicks merge, nothing else does
    step = dyn._split_step(dyn._generators(axes[:2], ((0, dyn.HamiltonianSpec.harmonic()),)),
                           0.05, "strang")
    fused = dyn._fuse(step * 20)
    assert [f.axis for f in fused] == [1] + [0, 1] * 20
    assert [f.tau for f in fused[2:-1:2]] == [0.05] * 19


@pytest.mark.parametrize("splitting", ["strang", "lie"])
@pytest.mark.parametrize("h_device", [None, dyn.HamiltonianSpec.free(2.0),
                                      dyn.HamiltonianSpec(mass=2.0, potential=(0.0, 0.2, 0.3))])
def test_fused_free_flight_matches_step_loop(splitting, h_device):
    grid = ps.Grid2D(16, 16, -6.0, 6.0, -6.0, 6.0)
    rng = np.random.default_rng(11)
    amp = rng.standard_normal((16,) * 4) + 1j * rng.standard_normal((16,) * 4)
    s = ps.BipartiteState(grid, grid, (False,) * 4, amp).normalized()
    h_t = dyn.HamiltonianSpec.harmonic(1.0, 1.0)
    # random states fill the box, so the wrap guard is off
    step = dyn._split_step(dyn._generators(s.axes(), ((0, h_t), (2, h_device))), 0.05, splitting)
    out = dyn._propagate(s, [step] * 10, check_wrap=False)
    ref = free_evolve_bipartite_steps(s, h_t, h_device, 0.5, 0.05, splitting)
    assert np.abs(out.amp - ref).max() < 1e-12


@pytest.mark.parametrize("axis", range(4))
def test_engine_factor_is_phase_in_conjugate_representation(axis):
    # an off-centre p range makes the axis phases of the transforms nontrivial
    grid = ps.Grid2D(8, 8, -4.0, 4.0, -3.0, 5.0)
    rng = np.random.default_rng(axis)
    amp = rng.standard_normal((8,) * 4) + 1j * rng.standard_normal((8,) * 4)
    s = ps.BipartiteState(grid, grid, (False,) * 4, amp).normalized()
    other = 3 - axis
    shift = dyn._along(0.8 * s.axes()[other].coords() + 0.3, other, 4)
    tau, curv = 0.37, 0.2
    out = dyn._propagate(s, [[dyn._Shear(axis, shift, tau, curv)]], check_wrap=False)
    flags = tuple(i == axis for i in range(4))
    view = s.with_conj(flags)
    k = dyn._along(view.axis_values(axis), axis, 4)
    phased = view.amp * np.exp(-1j * tau * (shift * k + curv * k**2))
    ref = ps.BipartiteState(grid, grid, flags, phased).with_conj((False,) * 4)
    assert np.abs(out.amp - ref.amp).max() < 1e-13


def test_couple_evolve_point_map():
    grid = ps.Grid2D(16, 16, -4.0, 4.0, -4.0, 4.0)
    target = ps.make_point(grid, 1.0, 0.5)
    device = ps.make_point(grid, -1.0, 1.5)
    s = ps.product_state(target, device)
    out = dyn.couple_evolve(s, 1.0, 1.0)
    dens = ps.joint_density(out)
    idx = np.unravel_index(np.argmax(dens.array), dens.array.shape)
    got = [float(dens.values[k][idx[k]]) for k in range(4)]
    assert got == [1.0, 0.5 - 1.5, -1.0 + 1.0, 1.5]
    assert abs(out.norm() - 1.0) < 1e-12


def test_couple_evolve_t_zero_identity():
    grid = ps.Grid2D(16, 16, -4.0, 4.0, -4.0, 4.0)
    s = ps.product_state(ps.make_point(grid, 1.0, 0.5), ps.make_point(grid, 0.0, 0.0))
    assert dyn.couple_evolve(s, 1.0, 0.0) is s


def test_couple_evolve_matches_dense_blocks():
    grid = ps.Grid2D(8, 8, -4.0, 4.0, -4.0, 4.0)
    rng = np.random.default_rng(21)
    amp = rng.standard_normal((8, 8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8, 8))
    s = ps.BipartiteState(grid, grid, (False,) * 4, amp).normalized()
    lam, t = 0.8, 0.6
    out = dyn.couple_evolve(s, lam, t, check_wrap=False)
    ref = dense_couple(s, lam, t)
    err = math.sqrt(np.sum(np.abs(out.amp - ref) ** 2) * out.cell_measure())
    assert err < 1e-9


def test_couple_evolve_device_marginal_is_convolution():
    grid = ps.Grid2D(64, 64, -8.0, 8.0, -8.0, 8.0)
    target = ps.make_gaussian(grid, 0.5, 0.0, 0.7, 0.7)
    device = ps.make_gaussian(grid, -0.3, 0.0, 0.6, 0.6)
    out = dyn.couple_evolve(ps.product_state(target, device), 1.0, 1.0)
    got = ps.marginal(out, ("X",)).array
    rho_x = ps.marginal(target, ("x",)).array
    rho_X = ps.marginal(device, ("x",)).array
    # circular convolution on the shared lattice, anchored at x = 0
    i0 = int(round(-grid.x_min / grid.dx))
    conv = np.zeros_like(got)
    for i, w in enumerate(rho_x):
        conv += w * grid.dx * np.roll(rho_X, i - i0)
    assert np.abs(got - conv).max() < 1e-9


def test_couple_evolve_shift_overflow():
    grid = ps.Grid2D(16, 16, -4.0, 4.0, -4.0, 4.0)
    target = ps.make_point(grid, 1.0, 0.5)
    device = ps.make_point(grid, 0.0, 3.5)  # kick of 7 pushes p past the edge
    s = ps.product_state(target, device)
    with pytest.raises(ShiftOverflow):
        dyn.couple_evolve(s, 1.0, 2.0)


def _point_pair(grid):
    return ps.product_state(ps.make_point(grid, 0.5, 0.5), ps.make_point(grid, 0.0, 0.0))


def _nan_couple(grid):
    return dyn.couple_evolve(_point_pair(grid), math.nan, 1.0)


def _nan_potential(grid):
    h = dyn.HamiltonianSpec(potential=(0.0, 0.0, math.nan))
    return dyn.kvn_evolve(ps.make_point(grid, 0.5, 0.5), h, dyn.PropagationPlan(0.1, 2))


def _nan_pulse(grid):
    h = dyn.HamiltonianSpec.free(1.0)
    return dyn.pulsed_propagator(_point_pair(grid), h, h, math.nan, 0.4, 1.0,
                                 dyn.PropagationPlan(0.1, 4))


@pytest.mark.parametrize("call, error", [(_nan_couple, ShiftOverflow),
                                         (_nan_potential, UnstablePlan),
                                         (_nan_pulse, ShiftOverflow)],
                         ids=["couple", "potential", "pulse"])
def test_non_finite_shift_raises(call, error):
    # a NaN shift marks no cell as wrapped, so the guard must fail closed
    with pytest.raises(error, match="non-finite"):
        call(ps.Grid2D(16, 16, -4.0, 4.0, -4.0, 4.0))


def test_nan_amplitude_fails_the_guards():
    grid = ps.Grid2D(16, 16, -4.0, 4.0, -4.0, 4.0)
    s = ps.PhaseState(grid, "xp", np.full((16, 16), math.nan))
    h = dyn.HamiltonianSpec.free(1.0)
    with pytest.raises(UnstablePlan, match="wraps nan"):
        dyn.kvn_evolve(s, h, dyn.PropagationPlan(0.1, 2))
    with pytest.raises(UnstablePlan, match="boundary mass grew by nan"):
        dyn.qm_evolve(s, h, dyn.PropagationPlan(0.1, 2, hbar=0.1))


def test_pulsed_eps_zero_equals_free():
    grid = ps.Grid2D(32, 32, -8.0, 8.0, -8.0, 8.0)
    target = ps.make_gaussian(grid, -1.0, 0.5, 1.0, 1.0)
    device = ps.make_gaussian(grid, 0.0, 0.0, 1.0, 1.0)
    s = ps.product_state(target, device)
    h_t = dyn.HamiltonianSpec.free(1.0)
    plan = dyn.PropagationPlan(0.05, 1)
    pulsed = dyn.pulsed_propagator(s, h_t, None, 0.0, 0.4, 1.0, plan)
    free = dyn.free_evolve_bipartite(
        dyn.free_evolve_bipartite(s, h_t, None, 0.4, plan), h_t, None, 0.6, plan
    )
    assert ps.l2_distance(pulsed, free) < 1e-12


def test_pulsed_static_reduces_to_coupling():
    grid = ps.Grid2D(16, 16, -4.0, 4.0, -4.0, 4.0)
    s = ps.product_state(ps.make_point(grid, 1.0, 0.5), ps.make_point(grid, 0.0, 1.0))
    h0 = dyn.HamiltonianSpec.zero()
    eps = 0.5
    pulsed = dyn.pulsed_propagator(s, h0, h0, eps, 0.3, 1.0, dyn.PropagationPlan(0.1, 1))
    direct = dyn.couple_evolve(s, 1.0, eps)
    assert ps.l2_distance(pulsed, direct) < 1e-9


def test_pulsed_pointer_reads_position_at_pulse_time():
    grid = ps.Grid2D(32, 32, -8.0, 8.0, -8.0, 8.0)
    x0, p0, X0 = 1.0, 1.0, -1.0
    s = ps.product_state(ps.make_point(grid, x0, p0), ps.make_point(grid, X0, 0.0))
    h_t = dyn.HamiltonianSpec.free(1.0)
    t1, t_total = 0.5, 1.0
    out = dyn.pulsed_propagator(s, h_t, None, 1.0, t1, t_total, dyn.PropagationPlan(0.05, 1))
    expected = X0 + (x0 + p0 * t1)
    assert abs(ps.expectation(out, "X") - expected) < grid.dx


@pytest.mark.parametrize("shape, axis, cores", [((32,) * 4, a, 2) for a in range(4)]
                         + [((512, 512), a, 2) for a in range(2)]
                         + [((32,) * 4, 1, 3), ((512, 512), 0, 3), ((256, 256), 0, 2),
                            ((256, 256), 1, 2), ((256, 128), 0, 2)])
def test_threaded_factor_is_bit_identical_to_serial(monkeypatch, shape, axis, cores):
    rng = np.random.default_rng(axis)
    nd = len(shape)
    amp = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s = (ps.PhaseState(ps.Grid2D(*shape, -4.0, 4.0, -4.0, 4.0), "xp", amp) if nd == 2
         else ps.BipartiteState(ps.Grid2D(32, 32, -4.0, 4.0, -4.0, 4.0),
                                ps.Grid2D(32, 32, -4.0, 4.0, -4.0, 4.0), (False,) * 4, amp))
    # one shift varies along every other axis, so its phase is cut with the
    # array; the other is a constant, so its phase is not
    full = 0.1 * rng.standard_normal(tuple(1 if i == axis else n for i, n in enumerate(shape)))
    flat = np.full((1,) * nd, 0.3)
    factors = [dyn._Shear(axis, full, 0.7, 0.2), dyn._Shear(axis, flat, 0.4)]
    # the observer freezes the array after step 0, as a PhaseState would
    steps = [factors, factors[:1]]

    def run(pool):
        monkeypatch.setattr(_slabs, "_pool", pool)
        seen = []
        out = dyn._propagate(s, steps, lambda i, a: (a.setflags(write=False), seen.append(a)),
                             check_wrap=False)
        return out.amp.tobytes(), seen[0].tobytes()

    serial = run((None, 1))
    with CountingPool(cores - 1) as pool:
        threaded = run((pool, cores))
    assert threaded == serial
    # 2**16 elements and up split: 256^2 does, 256x128 does not
    assert pool.submitted == (3 * (cores - 1) if amp.size >= 1 << 16 else 0)


def test_split_runs_every_slab_once(monkeypatch):
    # the pool takes every slab but the calling thread's, and the calling
    # thread runs each one the pool has not started; with more threads than
    # cores and a short switch interval, every slab still runs exactly once
    arr = np.zeros((256, 256))

    def block(idx):
        arr[idx] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with CountingPool(7) as pool:
            monkeypatch.setattr(_slabs, "_pool", (pool, 8))
            for _ in range(50):
                _slabs.split(arr, (1,), block)
    finally:
        sys.setswitchinterval(interval)
    assert (arr == 50).all()
    assert pool.submitted == 7 * 50


def test_split_does_not_wait_for_a_busy_pool(monkeypatch):
    # a pool thread that does not get to its task (here it is busy with
    # another) costs no wait: the calling thread runs every slab and
    # cancels the task
    release = threading.Event()
    arr = np.zeros((256, 256))
    ran_on = set()

    def block(idx):
        ran_on.add(threading.get_ident())
        arr[idx] += 1

    with CountingPool(1) as pool:
        busy = pool.submit(release.wait, 10.0)
        monkeypatch.setattr(_slabs, "_pool", (pool, 2))
        try:
            _slabs.split(arr, (0,), block)
            assert not busy.done()
        finally:
            release.set()
    assert ran_on == {threading.get_ident()}
    assert (arr == 1).all()


def test_together_drops_unstarted_tasks_when_the_caller_fails(monkeypatch):
    # the calling thread's task raises while the pool thread is busy with
    # another: the task the pool has not started is cancelled and never run,
    # the error propagates, and the pool takes the next work as before
    release, done = threading.Event(), threading.Event()
    ran_on = []

    def fail():
        raise RuntimeError("caller task failed")

    def on_pool():
        ran_on.append(threading.get_ident())
        done.set()

    with CountingPool(1) as pool:
        busy = pool.submit(release.wait, 10.0)
        monkeypatch.setattr(_slabs, "_pool", (pool, 2))
        try:
            with pytest.raises(RuntimeError, match="caller task failed"):
                _slabs.together(_slabs.PARALLEL_MIN, [fail, on_pool])
            assert not busy.done()
        finally:
            release.set()
        assert busy.result() is True
        assert ran_on == []
        # the caller's task waits until the pool has run the other one
        _slabs.together(_slabs.PARALLEL_MIN, [lambda: done.wait(10.0), on_pool])
    assert done.is_set() and len(ran_on) == 1 and ran_on[0] != threading.get_ident()
    assert pool.submitted == 3


def test_observed_256_flight_is_bit_identical_to_serial(monkeypatch):
    # a 256^2 state reaches the parallel threshold: each factor runs on two
    # slabs, one of them on the pool.  The first step runs its kick and
    # drift, each later one its drift, and each but the last a pass with
    # its trailing and the next step's leading kick
    grid = ps.Grid2D(256, 256, -16.0, 16.0, -8.0, 8.0)
    s = ps.make_gaussian(grid, -4.0, 0.0, 0.5, 0.25)
    h = dyn.HamiltonianSpec.harmonic(1.0, 1.0)

    def run(pool):
        monkeypatch.setattr(_slabs, "_pool", pool)
        seen = []
        out = dyn.kvn_evolve(s, h, dyn.PropagationPlan(0.05, 20),
                             observer=lambda i, st: seen.append(st.amp.tobytes()))
        return seen, out.amp.tobytes()

    serial = run((None, 1))
    with CountingPool(1) as pool:
        threaded = run((pool, 2))
    assert threaded == serial
    assert len(serial[0]) == 20
    assert pool.submitted == 2 * 20 + 1


def _step_loop(s, steps):
    """The amplitude of the xp state ``s`` after each of ``steps``, one
    complex dynamics._pass per factor, and where the loop stopped: (step,
    factor, wrap mass) of the first factor whose wrapped cells
    (wrapped_mass) hold more than 1e-6, or None."""
    axes = s.axes()
    amp = s.amp.copy()
    seen = []
    for i, step in enumerate(steps):
        for j, f in enumerate(step):
            mass = wrapped_mass(amp, axes[f.axis], f.axis, f.tau * f.shift) * s.cell_measure()
            if mass > 1e-6:
                return seen, (i, j, mass)
            dyn._pass(amp, amp, f.axis, [dyn._compile(f, axes[f.axis], 2, False)[0]])
        seen.append(amp.copy())
    return seen, None


# passes: the split passes of 20 observed steps
@pytest.mark.parametrize("n, h, splitting, hbar, passes", [
    (64, dyn.HamiltonianSpec.harmonic(1.0, 1.0), "strang", 0.0, 2 * 20 + 1),
    (256, dyn.HamiltonianSpec.harmonic(1.0, 1.0), "strang", 0.0, 2 * 20 + 1),
    # one factor per step: each pass runs two steps' shears
    (64, dyn.HamiltonianSpec.free(1.0), "strang", 0.0, 20 // 2),
    # deformed factors (curv != 0) under the boundary-mass check
    (64, dyn.HamiltonianSpec.harmonic(1.0, 1.0), "strang", 0.1, 2 * 20 + 1),
    # the potential kick does not merge with the next kinetic shear
    (64, dyn.HamiltonianSpec.harmonic(1.0, 1.0), "lie", 0.0, 2 * 20),
])
def test_observed_flight_matches_step_loop(monkeypatch, n, h, splitting, hbar, passes):
    grid = ps.Grid2D(n, n, -12.0, 12.0, -8.0, 8.0)
    g = ps.make_gaussian(grid, -2.0, 0.5, 0.8, 0.5)
    plan = dyn.PropagationPlan(0.05, 20, splitting, hbar)
    a, b = dyn.DEFORM_CONVENTIONS["full_appendixE"] if hbar else (-1.0, 1.0)
    step = dyn._split_step(dyn._generators(g.axes(), ((0, h),), hbar, a, b), plan.dt, splitting)
    split = dyn.split
    # the real Gaussian takes the real path unless a factor is deformed;
    # times e^{0.3i} it takes the complex path
    for phase in (1.0, np.exp(0.3j)):
        s = ps.PhaseState(grid, "xp", g.amp * phase)
        splits, seen = [], []
        monkeypatch.setattr(dyn, "split", lambda *args: (splits.append(1), split(*args)))
        out = dyn.qm_evolve(s, h, plan, observer=lambda i, st: seen.append(st.amp))
        monkeypatch.setattr(dyn, "split", split)
        assert len(splits) == passes
        if phase == 1.0 and not hbar:
            ref = projected_step_loop(s, [step] * plan.n_steps)
            assert len(seen) == len(ref) == plan.n_steps
            assert not any(x.imag.any() for x in seen + [out.amp])
        else:
            ref, stop = _step_loop(s, [step] * plan.n_steps)
            assert stop is None and len(seen) == len(ref) == plan.n_steps
            assert np.array_equal(seen[0], ref[0])
            if splitting == "lie":
                assert all(np.array_equal(x, y) for x, y in zip(seen, ref))
                assert np.array_equal(out.amp, ref[-1])
        for x, y in zip(seen + [out.amp], ref + ref[-1:]):
            assert np.abs(x - y).max() < 1e-13


@pytest.mark.parametrize("shape, axis", [((64, 32), 0), ((64, 32), 1), ((256, 256), 1),
                                         ((16,) * 4, 2)])
def test_real_pass_is_the_projected_complex_pass(shape, axis):
    # on a float64 array one factor, and a merged pair, equal the complex
    # pass followed by .real, and the pass returns the squared norm .real drops
    rng = np.random.default_rng(axis + len(shape))
    a = rng.standard_normal(shape)
    ax = ps.Axis(shape[axis], -4.0, 4.0)
    view = [1] * len(shape)
    view[axis - 1] = shape[axis - 1]
    shift = rng.uniform(-3.0, 3.0, shape[axis - 1]).reshape(view)
    fs = [dyn._Shear(axis, shift, 0.3), dyn._Shear(axis, shift, 0.7)]

    def projected(src, f):
        work = src.astype(np.complex128)
        dyn._pass(work, work, axis, [dyn._compile(f, ax, len(shape), False)[0]])
        return work.real.copy(), float(np.sum(work.imag ** 2))

    phases = [dyn._compile(f, ax, len(shape), False, True)[0] for f in fs]
    one, seen, two = np.empty_like(a), np.empty_like(a), np.empty_like(a)
    dropped_one = dyn._pass(a, one, axis, phases[:1])
    dropped_two = dyn._pass(a, two, axis, phases, seen)
    ref_one, lost_one = projected(a, fs[0])
    ref_two, lost_two = projected(ref_one, fs[1])
    assert np.array_equal(seen, one)
    assert np.abs(one - ref_one).max() <= 1e-15 * np.abs(ref_one).max()
    assert np.abs(two - ref_two).max() <= 1e-15 * np.abs(ref_two).max()
    assert dropped_one == pytest.approx(lost_one, rel=1e-9)
    assert dropped_two == pytest.approx(lost_one + lost_two, rel=1e-9)


def test_real_flight_keeps_to_the_nyquist_budget(monkeypatch):
    # a Gaussian 2 cells wide carries mass at the Nyquist bins: on the real
    # path alone this flight drops 3.1e-10 of its squared norm, crossing 1e-12
    # between steps 20 and 25.  The pass that would cross it runs again on
    # the complex path, as does every later one
    grid = ps.Grid2D(256, 256, -16.0, 16.0, -8.0, 8.0)
    s = ps.make_gaussian(grid, -4.0, 0.0, 0.25, 0.125)
    h = dyn.HamiltonianSpec.harmonic(1.0, 1.0)
    plan = dyn.PropagationPlan(0.05, 40)

    def run(pool):
        monkeypatch.setattr(_slabs, "_pool", pool)
        seen = []
        out = dyn.kvn_evolve(s, h, plan, observer=lambda i, st: seen.append(st.amp))
        return seen + [out.amp]

    with CountingPool(1) as pool:
        threaded = run((pool, 2))
    serial = run((None, 1))
    assert pool.submitted > 0
    assert all(np.array_equal(x, y) for x, y in zip(threaded, serial))
    assert 1.0 - np.sum(np.abs(serial[-1]) ** 2) * s.cell_measure() <= 1e-12 + 1e-14
    crossed = [i for i, amp in enumerate(serial) if amp.imag.any()][0]
    assert 20 <= crossed < 25 and all(amp.imag.any() for amp in serial[crossed:])
    step = dyn._split_step(dyn._generators(s.axes(), ((0, h),)), plan.dt, "strang")
    ref, stop = _step_loop(s, [step] * plan.n_steps)
    assert stop is None
    for x, y in zip(serial, ref + ref[-1:]):
        assert math.sqrt(np.sum(np.abs(x - y) ** 2) * s.cell_measure()) < 1e-6
    monkeypatch.setattr(dyn, "_NYQUIST_LIMIT", math.inf)
    unbounded = run((None, 1))[-1]
    assert not unbounded.imag.any()
    assert 1.0 - np.sum(np.abs(unbounded) ** 2) * s.cell_measure() == pytest.approx(3.1e-10, rel=0.05)


def test_observed_flight_raises_where_the_step_loop_stops():
    # the harmonic orbit reaches p = 4 at the edge of the box; the first
    # factor to wrap too much is the leading half kick of step 12
    grid = ps.Grid2D(64, 64, -8.0, 8.0, -4.0, 4.0)
    s = ps.make_gaussian(grid, -4.0, 0.0, 0.5, 0.25)
    h = dyn.HamiltonianSpec.harmonic(1.0, 1.0)
    plan = dyn.PropagationPlan(0.05, 40)
    step = dyn._split_step(dyn._generators(s.axes(), ((0, h),)), plan.dt, "strang")
    _, (k, j, mass) = _step_loop(s, [step] * plan.n_steps)
    assert (k, j) == (12, 0)
    calls = []
    with pytest.raises(UnstablePlan) as err:
        dyn.kvn_evolve(s, h, plan, observer=lambda i, st: calls.append(i))
    assert calls == list(range(k))
    assert str(err.value) == f"potential kick wraps {mass:.3e} of the mass around the p range"

    # an observer that raises stops the run at that step
    class Stop(Exception):
        pass

    def observer(i, st):
        calls.append(i)
        if i == 3:
            raise Stop

    calls.clear()
    with pytest.raises(Stop):
        dyn.kvn_evolve(s, h, plan, observer=observer)
    assert calls == [0, 1, 2, 3]


def _pulsed_pair():
    grid = ps.Grid2D(32, 32, -8.0, 8.0, -4.0, 4.0)
    return ps.product_state(ps.make_gaussian(grid, -1.0, 0.5, 1.0, 0.5),
                            ps.make_gaussian(grid, 0.0, 0.0, 1.0, 0.5))


_PULSED_CASES = [
    (dyn.HamiltonianSpec.free(1.0), dyn.HamiltonianSpec.free(1.0), 0.5,
     dyn.PropagationPlan(0.05, 20)),
    (dyn.HamiltonianSpec.free(1.0), None, 0.5, dyn.PropagationPlan(0.1, 1)),
    (dyn.HamiltonianSpec.harmonic(1.0, 0.5),
     dyn.HamiltonianSpec(mass=2.0, potential=(0.0, 0.1, 0.1)), 0.5,
     dyn.PropagationPlan(0.2, 1)),
    (dyn.HamiltonianSpec.harmonic(1.0, 0.5),
     dyn.HamiltonianSpec(mass=2.0, potential=(0.0, 0.1, 0.1)), 0.5,
     dyn.PropagationPlan(0.2, 1, splitting="lie")),
    (dyn.HamiltonianSpec.harmonic(1.0, 0.5), dyn.HamiltonianSpec.free(1.0), 0.0,
     dyn.PropagationPlan(0.2, 1)),
]


@pytest.mark.parametrize("h_t, h_d, eps, plan", _PULSED_CASES)
def test_pulsed_program_matches_three_calls(h_t, h_d, eps, plan):
    s = _pulsed_pair()
    out = dyn.pulsed_propagator(s, h_t, h_d, eps, 0.4, 1.0, plan)
    ref = pulsed_three_calls(s, h_t, h_d, eps, 0.4, 1.0, plan)
    assert np.abs(out.amp - ref.amp).max() < 1e-13


@pytest.mark.parametrize("h_t, h_d, eps, plan", _PULSED_CASES)
def test_pulsed_product_path_matches_materialized_state(h_t, h_d, eps, plan):
    # the three-call oracle takes the product path too; the materialized
    # state, with no factors, runs every factor on the 4D array
    s = _pulsed_pair()
    out = dyn.pulsed_propagator(s, h_t, h_d, eps, 0.4, 1.0, plan)
    ref = dyn.pulsed_propagator(_materialized(s), h_t, h_d, eps, 0.4, 1.0, plan)
    assert ref.factors is None
    assert np.abs(out.amp - ref.amp).max() < 1e-13


def _materialized(s):
    """The product state ``s`` as a plain 4D amplitude, without its factors."""
    t, d = s.factors
    return ps.BipartiteState(t.grid, d.grid, (False,) * 4, np.multiply.outer(t.amp, d.amp))


def _random_pair(n, seed):
    """A product of two box-filling random n x n states, not normalized."""
    rng = np.random.default_rng(seed)
    grid = ps.Grid2D(n, n, -8.0, 8.0, -4.0, 4.0)
    t, d = (ps.PhaseState(grid, "xp", rng.standard_normal((n, n))
                          + 1j * rng.standard_normal((n, n))) for _ in range(2))
    return ps.product_state(t, d)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("h_t, h_d, eps, plan", _PULSED_CASES)
def test_formed_coupling_matches_materialized_state(monkeypatch, n, h_t, h_d, eps, plan):
    # random states fill the box, so every program runs without its guards
    propagate = dyn._propagate
    monkeypatch.setattr(dyn, "_propagate", lambda s, steps, after_step=None, check_wrap=True:
                        propagate(s, steps, after_step, check_wrap=False))
    s = _random_pair(n, n)
    out = dyn.pulsed_propagator(s, h_t, h_d, eps, 0.4, 1.0, plan)
    ref = dyn.pulsed_propagator(_materialized(s), h_t, h_d, eps, 0.4, 1.0, plan)
    assert np.abs(out.amp - ref.amp).max() < 1e-13
    s = _random_pair(n, n + 1)
    out = dyn.couple_evolve(s, 0.8, 0.6, check_wrap=False)
    ref = dyn.couple_evolve(_materialized(s), 0.8, 0.6, check_wrap=False)
    assert np.abs(out.amp - ref.amp).max() < 1e-13


@pytest.mark.parametrize("cores", [2, 3])
def test_formed_pulsed_program_is_bit_identical_to_serial(monkeypatch, cores):
    free = dyn.HamiltonianSpec.free(1.0)

    def run(pool):
        monkeypatch.setattr(_slabs, "_pool", pool)
        out = dyn.pulsed_propagator(_pulsed_pair(), free, free, 0.5, 0.4, 1.0,
                                    dyn.PropagationPlan(0.05, 20))
        return out.amp.tobytes()

    serial = run((None, 1))
    with CountingPool(cores - 1) as pool:
        threaded = run((pool, cores))
    assert threaded == serial
    # the inverse transforms of the formation and the target flight after t1
    assert pool.submitted == 2 * (cores - 1)


def test_free_flight_of_product_is_product_of_flights():
    s = _pulsed_pair()
    h_t = dyn.HamiltonianSpec.harmonic(1.0, 0.5)
    h_d = dyn.HamiltonianSpec(mass=2.0, potential=(0.0, 0.1, 0.1))
    plan = dyn.PropagationPlan(0.2, 1)
    out = dyn.free_evolve_bipartite(s, h_t, h_d, 1.0, plan)
    assert out.factors is not None
    ref = dyn.free_evolve_bipartite(_materialized(s), h_t, h_d, 1.0, plan)
    assert ref.factors is None
    assert np.abs(out.amp - ref.amp).max() < 1e-13


def _raised(run, s):
    try:
        run(s)
    except (ShiftOverflow, UnstablePlan) as exc:
        return type(exc), str(exc)
    return None


_WIDE = ps.Grid2D(32, 32, -16.0, 16.0, -16.0, 16.0)
_PAIR = ps.Grid2D(32, 32, -8.0, 8.0, -4.0, 4.0)
_FREE = dyn.HamiltonianSpec.free(1.0)


def _flight(duration, h_target=_FREE):
    return lambda s: dyn.free_evolve_bipartite(s, h_target, _FREE, duration,
                                               dyn.PropagationPlan(duration, 1))


def _scaled(state, factor):
    return ps.PhaseState(state.grid, "xp", factor * state.amp)


def _couple(lam_t):
    return lambda s: dyn.couple_evolve(s, 1.0, lam_t)


# (target, device, run, error, axis named in its message).  The "device of
# mass" cases wrap 9.4e-7 and 2.2e-6 of the target's own mass in its flight,
# and 5.6e-7 and 2.0e-6 in the kick of a coupling, so only the device mass
# (4 and 1/4) decides whether the 4D wrap mass passes 1e-6.  In "coupling
# kick" the pointer shift wraps 2e-8, and in "coupling pointer shift" the kick.
_WRAP_CASES = {
    "D1 target flight": (lambda: ps.make_gaussian(_WIDE, 0.0, 6.0, 2.0, 2.0),
                         lambda: ps.make_gaussian(_WIDE, 0.0, 6.0, 2.0, 2.0),
                         _flight(3.0), UnstablePlan, "x"),
    "device flight": (lambda: ps.make_gaussian(_WIDE, 0.0, 0.0, 2.0, 2.0),
                      lambda: ps.make_gaussian(_WIDE, 0.0, 6.0, 2.0, 2.0),
                      _flight(3.0, h_target=None), UnstablePlan, "X"),
    "kick": (lambda: ps.make_point(ps.Grid2D(16, 16, -4.0, 4.0, -4.0, 4.0), 1.0, 0.5),
             lambda: ps.make_point(ps.Grid2D(16, 16, -4.0, 4.0, -4.0, 4.0), 0.0, 3.5),
             lambda s: dyn.pulsed_propagator(s, dyn.HamiltonianSpec.zero(),
                                             dyn.HamiltonianSpec.zero(), 2.0, 0.3, 1.0,
                                             dyn.PropagationPlan(0.1, 1)),
             ShiftOverflow, "p"),
    "device of mass 4": (lambda: ps.make_gaussian(_PAIR, 1.0, 1.0, 1.0, 0.5),
                         lambda: _scaled(ps.make_gaussian(_PAIR, 0.0, 0.0, 1.0, 0.5), 2.0),
                         _flight(1.1), UnstablePlan, "x"),
    "device of mass 1/4": (lambda: ps.make_gaussian(_PAIR, 1.0, 1.0, 1.0, 0.5),
                           lambda: _scaled(ps.make_gaussian(_PAIR, 0.0, 0.0, 1.0, 0.5), 0.5),
                           _flight(1.2), None, None),
    "coupling kick": (lambda: ps.make_gaussian(_PAIR, 0.0, -1.0, 1.0, 0.5),
                      lambda: ps.make_gaussian(_PAIR, 0.0, 1.0, 1.0, 0.5),
                      _couple(1.0), ShiftOverflow, "p"),
    "coupling pointer shift": (lambda: ps.make_gaussian(_PAIR, 2.0, 0.0, 1.0, 0.5),
                               lambda: ps.make_gaussian(_PAIR, 2.0, 0.0, 1.0, 0.5),
                               _couple(1.0), ShiftOverflow, "X"),
    "coupling, device of mass 4": (lambda: ps.make_gaussian(_PAIR, 0.0, -1.0, 1.0, 0.5),
                                   lambda: _scaled(ps.make_gaussian(_PAIR, 0.0, 1.0, 1.0, 0.5),
                                                   2.0),
                                   _couple(0.4), ShiftOverflow, "p"),
    "coupling, device of mass 1/4": (lambda: ps.make_gaussian(_PAIR, 0.0, -1.0, 1.0, 0.5),
                                     lambda: _scaled(ps.make_gaussian(_PAIR, 0.0, 1.0, 1.0,
                                                                      0.5), 0.5),
                                     _couple(0.45), None, None),
}


@pytest.mark.parametrize("case", list(_WRAP_CASES))
def test_product_path_raises_as_materialized_state(case):
    target, device, run, error, axis = _WRAP_CASES[case]
    s = ps.product_state(target(), device())
    got = _raised(run, s)
    assert got == _raised(run, _materialized(s))
    if error is None:
        assert got is None
    else:
        assert got[0] is error
        assert "wraps" in got[1] and got[1].endswith(f"around the {axis} range")


def test_pulsed_device_flight_fuses_across_coupling(monkeypatch):
    applied, outer = [], []
    apply, form = dyn._pass, ps._outer
    monkeypatch.setattr(dyn, "_pass", lambda src, dst, axis, phases, seen=None: (
        applied.append((src, dst, axis)), apply(src, dst, axis, phases, seen))[1])
    monkeypatch.setattr(ps, "_outer", lambda t, d: (outer.append((t, d)), form(t, d))[1])
    free = dyn.HamiltonianSpec.free(1.0)
    s = _pulsed_pair()
    t, d = s.factors
    dyn.pulsed_propagator(s, free, free, 0.5, 0.4, 1.0, dyn.PropagationPlan(0.05, 1))
    (a0, t1, axis0), (a1, d1, axis1), *coupled = applied
    # the target flight to t1 and the whole device flight run on the 2D factors
    assert (a0 is t.amp, axis0, a1 is d.amp, axis1) == (True, 0, True, 0)
    # the 4D amplitude is formed from the p spectrum of the flown target and
    # the X spectrum of the flown device, with the kick and the pointer shift
    # applied to it; only the target flight after t1 runs on the 4D array
    [(t_spec, d_spec)] = outer
    assert np.array_equal(t_spec, np.fft.fft(t1, axis=1))
    assert np.array_equal(d_spec, np.fft.fft(d1, axis=0))
    assert [(a.shape, axis) for a, _, axis in coupled] == [((32,) * 4, 0)]
    applied.clear()
    out = dyn.pulsed_propagator(s, free, free, 0.0, 0.4, 1.0, dyn.PropagationPlan(0.05, 1))
    assert [(a.shape, axis) for a, _, axis in applied] == [((32, 32), 0), ((32, 32), 0)]
    assert out.factors is not None


def test_pulsed_program_raises_each_factors_error():
    grid = ps.Grid2D(16, 16, -4.0, 4.0, -4.0, 4.0)
    s = ps.product_state(ps.make_point(grid, 1.0, 0.5), ps.make_point(grid, 0.0, 3.5))
    h0 = dyn.HamiltonianSpec.zero()
    plan = dyn.PropagationPlan(0.1, 1)
    with pytest.raises(ShiftOverflow) as ref:
        pulsed_three_calls(s, h0, h0, 2.0, 0.3, 1.0, plan)
    with pytest.raises(ShiftOverflow, match="momentum kick wraps .* around the p range") as got:
        dyn.pulsed_propagator(s, h0, h0, 2.0, 0.3, 1.0, plan)
    assert str(got.value) == str(ref.value)

    # the D1 flight, interrupted by a pulse
    grid = ps.Grid2D(32, 32, -16.0, 16.0, -16.0, 16.0)
    g = ps.make_gaussian(grid, 0.0, 6.0, 2.0, 2.0)
    s = ps.product_state(g, g)
    free = dyn.HamiltonianSpec.free(1.0)
    plan = dyn.PropagationPlan(0.05, 1)
    with pytest.raises(UnstablePlan) as ref:
        pulsed_three_calls(s, free, free, 0.1, 2.5, 3.0, plan)
    with pytest.raises(UnstablePlan, match="kinetic shear wraps .* around the x range") as got:
        dyn.pulsed_propagator(s, free, free, 0.1, 2.5, 3.0, plan)
    assert str(got.value) == str(ref.value)


_FORK_SCRIPT = """
import os, signal, sys, time
import numpy as np
from kvnlab import _slabs, dynamics as dyn, phasespace as ps

grid = ps.Grid2D(32, 32, -8.0, 8.0, -4.0, 4.0)
s = ps.product_state(ps.make_gaussian(grid, -1.0, 0.5, 1.0, 0.5),
                     ps.make_gaussian(grid, 0.0, 0.0, 1.0, 0.5))
free = dyn.HamiltonianSpec.free(1.0)
plan = dyn.PropagationPlan(0.05, 1)
# the pulse forms the 32^4 amplitude on the slabs, which starts the pool
ref = dyn.pulsed_propagator(s, free, free, 0.5, 0.4, 1.0, plan)
if _slabs._pool is None:
    sys.exit("the parent did not start the pool")
pid = os.fork()
if pid == 0:
    # the child inherits the executor but none of its threads: it starts anew
    if _slabs._pool is not None:
        os._exit(4)
    out = dyn.pulsed_propagator(s, free, free, 0.5, 0.4, 1.0, plan)
    os._exit(0 if np.array_equal(out.amp, ref.amp) else 3)
deadline = time.monotonic() + 30.0
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.05)
os.kill(pid, signal.SIGKILL)
os.waitpid(pid, 0)
sys.exit("the forked child did not finish within 30 s")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_propagates_after_parent_used_pool():
    src = str(Path(dyn.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _FORK_SCRIPT],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=90)
    assert proc.returncode == 0, proc.stderr
