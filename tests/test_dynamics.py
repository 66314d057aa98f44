import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from kvnlab import dynamics as dyn
from kvnlab import phasespace as ps
from kvnlab.errors import IllegalHamiltonian, ShiftOverflow, UnstablePlan, UnsupportedHamiltonian

from _oracles import dense_couple, dense_evolve, free_evolve_bipartite_steps, pulsed_three_calls


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
    for frac in (0.3, -0.3):
        cells = dyn._wrapped_cells(prob.shape, axis, 0, frac * axis.d)
        assert prob[cells].sum() == pytest.approx(1.0 / 8)
    assert prob[dyn._wrapped_cells(prob.shape, axis, 0, 0.0)].sum() == 0.0


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


class _CountingPool(ThreadPoolExecutor):
    def __init__(self, workers):
        super().__init__(workers)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.mark.parametrize("shape, axis, cores", [((32,) * 4, a, 2) for a in range(4)]
                         + [((512, 512), a, 2) for a in range(2)]
                         + [((32,) * 4, 1, 3), ((512, 512), 0, 3), ((256, 256), 0, 2)])
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
        monkeypatch.setattr(dyn, "_pool", pool)
        seen = []
        out = dyn._propagate(s, steps, lambda i, a: (a.setflags(write=False), seen.append(a)),
                             check_wrap=False)
        return out.amp.tobytes(), seen[0].tobytes()

    serial = run((None, 1))
    with _CountingPool(cores - 1) as pool:
        threaded = run((pool, cores))
    assert threaded == serial
    assert pool.submitted == (3 * (cores - 1) if amp.size >= dyn._PARALLEL_MIN else 0)


def _pulsed_pair():
    grid = ps.Grid2D(32, 32, -8.0, 8.0, -4.0, 4.0)
    return ps.product_state(ps.make_gaussian(grid, -1.0, 0.5, 1.0, 0.5),
                            ps.make_gaussian(grid, 0.0, 0.0, 1.0, 0.5))


@pytest.mark.parametrize("h_t, h_d, eps, plan", [
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
])
def test_pulsed_program_matches_three_calls(h_t, h_d, eps, plan):
    s = _pulsed_pair()
    out = dyn.pulsed_propagator(s, h_t, h_d, eps, 0.4, 1.0, plan)
    ref = pulsed_three_calls(s, h_t, h_d, eps, 0.4, 1.0, plan)
    assert np.abs(out.amp - ref.amp).max() < 1e-13


def test_pulsed_device_flight_fuses_across_coupling(monkeypatch):
    applied = []
    apply = dyn._apply
    monkeypatch.setattr(dyn, "_apply", lambda src, dst, axis, phase: (
        applied.append(axis), apply(src, dst, axis, phase)))
    free = dyn.HamiltonianSpec.free(1.0)
    dyn.pulsed_propagator(_pulsed_pair(), free, free, 0.5, 0.4, 1.0, dyn.PropagationPlan(0.05, 1))
    # target flight, whole device flight, kick, pointer shift, target flight
    assert applied == [0, 2, 1, 2, 0]
    applied.clear()
    dyn.pulsed_propagator(_pulsed_pair(), free, free, 0.0, 0.4, 1.0, dyn.PropagationPlan(0.05, 1))
    assert applied == [0, 2]


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
from kvnlab import dynamics as dyn, phasespace as ps

grid = ps.Grid2D(32, 32, -8.0, 8.0, -4.0, 4.0)
s = ps.product_state(ps.make_gaussian(grid, -1.0, 0.5, 1.0, 0.5),
                     ps.make_gaussian(grid, 0.0, 0.0, 1.0, 0.5))
free = dyn.HamiltonianSpec.free(1.0)
plan = dyn.PropagationPlan(0.05, 1)
ref = dyn.free_evolve_bipartite(s, free, free, 0.5, plan)
pid = os.fork()
if pid == 0:
    out = dyn.free_evolve_bipartite(s, free, free, 0.5, plan)
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
