import math

import numpy as np
import pytest

from kvnlab import dynamics as dyn
from kvnlab import measurement as ms
from kvnlab import phasespace as ps
from kvnlab.errors import ShiftOverflow, ZeroMassSlice


@pytest.fixture
def grid():
    return ps.Grid2D(32, 32, -10.0, 10.0, -10.0, 10.0)


def gaussian_pair(grid, rng):
    # narrow enough for the box that the pointer shears wrap < 1e-7 of the
    # mass, wide enough to satisfy the resolvability precondition
    def one():
        sigma_x = rng.uniform(1.25, 1.32)
        sigma_p = rng.uniform(1.25, 1.32)
        x0 = rng.uniform(-0.3, 0.3)
        p0 = rng.uniform(-0.3, 0.3)
        return ps.make_gaussian(grid, x0, p0, sigma_x, sigma_p)

    return one(), one()


def test_couple_point_map(grid):
    target = ps.make_point(grid, 1.25, 0.625)
    device = ps.make_point(grid, -1.25, 1.875)
    after = ms.von_neumann_couple(target, device)
    dens = ps.joint_density(after)
    idx = np.unravel_index(np.argmax(dens.array), dens.array.shape)
    assert [float(dens.values[k][idx[k]]) for k in range(4)] == [1.25, -1.25, 0.0, 1.875]
    assert abs(after.norm() - 1.0) < 1e-12


def test_couple_matches_split_propagator(grid):
    # von_neumann_couple runs the shear engine; the reference is the
    # closed-form product amplitude, built without it
    from _oracles import closed_form_couple

    rng = np.random.default_rng(31)
    for _ in range(4):
        target, device = gaussian_pair(grid, rng)
        a = ms.von_neumann_couple(target, device)
        assert ps.l2_distance(a, closed_form_couple(target, device)) < 1e-9


def test_couple_matches_dense_exponential_directly():
    # the amplitude map against per-block dense matrix exponentials on an
    # 8^4 lattice, with no split-operator code in the reference path
    from _oracles import dense_couple

    grid8 = ps.Grid2D(8, 8, -4.0, 4.0, -4.0, 4.0)
    target = ps.make_point(grid8, 1.0, -1.0)
    device = ps.make_point(grid8, 0.0, 1.0)
    after = ms.von_neumann_couple(target, device)
    ref = dense_couple(ps.product_state(target, device), 1.0, 1.0)
    err = np.sqrt(np.sum(np.abs(after.amp - ref) ** 2) * after.cell_measure())
    assert err < 1e-9


def test_couple_norm_preserved(grid):
    rng = np.random.default_rng(5)
    target, device = gaussian_pair(grid, rng)
    after = ms.von_neumann_couple(target, device)
    assert abs(after.norm() - 1.0) < 1e-10


def test_couple_shift_overflow(grid):
    target = ps.make_point(grid, 0.0, -5.0)
    device = ps.make_point(grid, 0.0, 9.375)  # kick of -9.375 wraps past -10
    with pytest.raises(ShiftOverflow):
        ms.von_neumann_couple(target, device)


def test_point_device_readout_matches_target_marginal(grid):
    target = ps.make_gaussian(grid, 0.5, -0.3, 1.3, 1.3)
    device = ps.make_point(grid, 0.0, 0.0)
    after = ms.von_neumann_couple(target, device)
    # target x-marginal untouched, pointer copies it
    mx0 = ps.marginal(target, ("x",)).array
    assert np.abs(ps.marginal(after, ("x",)).array - mx0).max() < 1e-9
    rec = ms.readout(after, "X")
    assert np.abs(rec.probabilities - mx0 * grid.dx).max() < 1e-9


def test_device_momentum_marginal_unchanged(grid):
    rng = np.random.default_rng(17)
    target, device = gaussian_pair(grid, rng)
    after = ms.von_neumann_couple(target, device)
    before = ps.marginal(device, ("p",)).array
    assert np.abs(ps.marginal(after, ("P",)).array - before).max() < 1e-9


def test_readout_probabilities_and_posts(grid):
    target = ps.make_point(grid, 1.25, 0.625)
    device = ps.make_point(grid, -1.25, 1.875)
    after = ms.von_neumann_couple(target, device)
    rec = ms.readout(after, "X", with_post_states=True)
    assert abs(rec.probabilities.sum() - 1.0) < 1e-9
    hot = int(np.argmax(rec.probabilities))
    assert rec.values[hot] == 0.0
    post = rec.post_states[hot]
    assert abs(ps.expectation(post, "x") - 1.25) < 1e-12
    assert abs(ps.expectation(post, "p") + 1.25) < 1e-12  # p0 - P0
    assert sum(p is None for p in rec.post_states) == grid.n_x - 1


@pytest.mark.parametrize("axis", ["X", "pi_P"])
def test_readout_posts_match_post_state(grid, axis):
    # the post states cut from one density against one conditional per cell
    target, device = gaussian_pair(grid, np.random.default_rng(19))
    after = ms.von_neumann_couple(target, device)
    rec = ms.readout(after, axis, with_post_states=True)
    for value, post in zip(rec.values, rec.post_states):
        if post is not None:
            assert np.abs(post.amp - ms.post_state(after, axis, value).amp).max() < 1e-13


def test_readout_pi_axis(grid):
    rng = np.random.default_rng(23)
    target, device = gaussian_pair(grid, rng)
    after = ms.von_neumann_couple(target, device)
    rec = ms.readout(after, "pi_P")
    assert abs(rec.probabilities.sum() - 1.0) < 1e-9


def test_post_state_zero_mass(grid):
    target = ps.make_point(grid, 1.25, 0.625)
    device = ps.make_point(grid, -1.25, 1.875)
    after = ms.von_neumann_couple(target, device)
    with pytest.raises(ZeroMassSlice):
        ms.post_state(after, "X", 5.0)


def test_simultaneity_point_inputs_exact(grid):
    target = ps.make_point(grid, 1.25, 0.625)
    device = ps.make_point(grid, -1.25, 1.875)
    after = ms.von_neumann_couple(target, device)
    r1, r2, inst = ms.check_simultaneity(after, target, device)
    assert r1 < 1e-12 and r2 < 1e-12 and inst < 1e-12


def test_simultaneity_gaussian_inputs(grid):
    rng = np.random.default_rng(101)
    for _ in range(5):
        target, device = gaussian_pair(grid, rng)
        after = ms.von_neumann_couple(target, device)
        r1, r2, inst = ms.check_simultaneity(after, target, device)
        assert r1 < 1e-6 and r2 < 1e-6 and inst < 1e-6


def test_classical_probe_survives_pointer_readout(grid):
    rng = np.random.default_rng(7)
    target, device = gaussian_pair(grid, rng)
    after = ms.von_neumann_couple(target, device)
    assert ms.check_simultaneity(after, target, device)[2] < 1e-6


@pytest.mark.parametrize("mismatch", ["reference", "half_coupling"])
def test_shifted_residuals_match_cell_loop(grid, mismatch):
    # a reference that does not fit the coupled state makes both residuals
    # O(1) and, with a half-strength coupling, different from cell to cell,
    # so the shift sign and the mass floor both show in the maximum
    from _oracles import instantiated_residual_loop, simultaneity_loop

    rng = np.random.default_rng(47)
    target, device = gaussian_pair(grid, rng)
    if mismatch == "reference":
        after = ms.von_neumann_couple(target, device)
        target = ps.make_gaussian(grid, 1.5, -1.0, 1.3, 1.6)
        device = ps.make_gaussian(grid, -1.0, 0.5, 1.6, 1.3)
    else:
        after = dyn.couple_evolve(ps.product_state(target, device), 1.0, 0.5)
    seen = set()
    for floor in (1e-10, 1e-4, 1e-2, 3e-2):
        r1, r2, inst = ms.check_simultaneity(after, target, device, mass_floor=floor)
        o1, o2 = simultaneity_loop(after, target, device, floor)
        o_inst = instantiated_residual_loop(after, target, floor)
        assert min(o1, o2, o_inst) > 0.1
        assert abs(r1 - o1) < 1e-14 and abs(r2 - o2) < 1e-14 and abs(inst - o_inst) < 1e-14
        seen.add((o1, o2, o_inst))
    if mismatch == "half_coupling":
        assert len(seen) > 1  # the floor moves the maximum


@pytest.mark.parametrize("case", ["gaussian", "offset", "point_target", "random"])
def test_quantum_probe_matches_cell_loop(case):
    from _oracles import quantum_probe_loop

    axis = ps.Axis(128, -8.0, 8.0)
    rng = np.random.default_rng(53)
    phi = ms.quantum_gaussian(axis, 0.3, 0.9)
    eta = ms.quantum_gaussian(axis, 0.0, 0.5)
    if case == "offset":
        phi, eta = ms.quantum_gaussian(axis, -1.7, 0.6), ms.quantum_gaussian(axis, 1.1, 1.4)
    elif case == "point_target":  # rows of zero mass: only the floor keeps them out
        phi = ms.quantum_point(axis, 0.5)
    elif case == "random":
        amps = rng.normal(size=(2, axis.n)) + 1j * rng.normal(size=(2, axis.n))
        phi, eta = amps / np.sqrt(np.sum(np.abs(amps) ** 2, axis=1, keepdims=True) * axis.d)
    psi, o1, o2 = quantum_probe_loop(phi, eta, axis, 1e-10)
    assert np.array_equal(ms.quantum_pointer_couple(phi, eta, axis), psi)
    r1, r2 = ms.quantum_simultaneity_probe(phi, eta, axis)
    assert abs(r1 - o1) < 1e-14 and abs(r2 - o2) < 1e-14


def test_quantum_counterpart_fails_after_readout():
    axis = ps.Axis(128, -8.0, 8.0)
    phi = ms.quantum_gaussian(axis, 0.3, 0.9)
    eta = ms.quantum_gaussian(axis, 0.0, 0.5)
    r1, r2 = ms.quantum_simultaneity_probe(phi, eta, axis)
    assert r1 < 1e-6          # the pointer correlation itself holds
    assert r2 > 0.1           # but not together with the momentum relation


def test_quantum_delta_device_reproduces_target_density():
    axis = ps.Axis(128, -8.0, 8.0)
    phi = ms.quantum_gaussian(axis, 0.3, 0.9)
    eta = ms.quantum_point(axis, 0.0)
    rec = ms.quantum_readout(ms.quantum_pointer_couple(phi, eta, axis), axis)
    expected = np.abs(phi) ** 2 * axis.d
    assert np.abs(rec.probabilities - expected).sum() < 1e-12


def test_quantum_delta_device_post_state_is_position_cell():
    # reading X0 off a delta-calibrated pointer collapses the target onto
    # the single cell x = X0
    axis = ps.Axis(128, -8.0, 8.0)
    phi = ms.quantum_gaussian(axis, 0.3, 0.9)
    eta = ms.quantum_point(axis, 0.0)
    psi = ms.quantum_pointer_couple(phi, eta, axis)
    a0 = 70
    post = psi[:, a0]
    support = np.nonzero(np.abs(post) > 1e-14)[0]
    assert list(support) == [a0]


def test_free_particle_as_measurement(grid):
    s = ps.make_point(grid, 1.25, 2.5)
    rec = ms.free_particle_as_measurement(s, mass=1.0, t=1.0)
    assert rec.values[int(np.argmax(rec.probabilities))] == 3.75

    g = ps.make_gaussian(grid, -1.0, 1.0, 1.3, 1.3)
    rec0 = ms.free_particle_as_measurement(g, mass=1.0, t=0.0)
    assert np.abs(rec0.probabilities - ps.marginal(g, ("x",)).array * grid.dx).max() < 1e-9
    rec1 = ms.free_particle_as_measurement(g, mass=2.0, t=2.0)
    mean = float((rec1.values * rec1.probabilities).sum())
    assert abs(mean - (-1.0 + 1.0 / 2.0 * 2.0)) < grid.dx / 2
    var0 = float((rec0.values**2 * rec0.probabilities).sum()) - (-1.0) ** 2
    var1 = float((rec1.values**2 * rec1.probabilities).sum()) - mean**2
    assert var1 > var0  # ballistic spreading


def test_measurement_record_validation_and_export(tmp_path):
    values = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        ms.MeasurementRecord("X", values, np.array([0.3, 0.3]))
    rec = ms.MeasurementRecord("X", values, np.array([0.25, 0.75]))
    rec.to_csv(tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text().splitlines()[0] == "value,probability"
    rec.to_json(tmp_path / "r.json", grid="32x32", coupling_duration=1.0)
    import json

    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["readout_axis"] == "X"
    assert payload["coupling_duration"] == 1.0


# ---------------------------------------------------------------------------
# device-integrated operator family
# ---------------------------------------------------------------------------


def test_kraus_completeness_all_reps(grid):
    rng = np.random.default_rng(3)
    _, device = gaussian_pair(grid, rng)
    for rep in ms.LABEL_REPS:
        fam = ms.kraus_build(device, rep, grid)
        assert fam.completeness_defect() < 1e-6


@pytest.mark.parametrize("rep", ms.LABEL_REPS)
def test_kraus_label_axes_are_device_axes(rep):
    # a rectangular lattice with unequal x and p ranges: each label axis is
    # the device's coordinate or reciprocal axis, chosen by that label alone
    grid = ps.Grid2D(16, 32, -6.0, 10.0, -2.0, 6.0)  # dx = 1, dp = 1/4
    pi_x, pi_p = {"X_P": (False, False), "X_piP": (False, True),
                  "piX_P": (True, False), "piX_piP": (True, True)}[rep]
    fam = ms.kraus_build(random_state(grid, np.random.default_rng(47)), rep, grid)
    rows, d_row = (grid.pi_x(), math.pi / 8) if pi_x else (grid.x(), 1.0)
    cols, d_col = (grid.pi_p(), math.pi / 4) if pi_p else (grid.p(), 0.25)
    assert np.array_equal(fam.label_values[0], rows)
    assert np.array_equal(fam.label_values[1], cols)
    assert fam.label_values[0][1] - fam.label_values[0][0] == pytest.approx(d_row, rel=1e-12)
    assert fam.label_values[1][1] - fam.label_values[1][0] == pytest.approx(d_col, rel=1e-12)
    assert fam.label_measure == pytest.approx(d_row * d_col, rel=1e-12)
    assert fam.work_flags == (False, pi_p)
    assert fam.shape == (16, 32)
    assert fam.label_axes == ("pi_X" if pi_x else "X", "pi_P" if pi_p else "P")


def random_state(grid, rng):
    """Box-filling random amplitude, normalized."""
    amp = rng.normal(size=(grid.n_x, grid.n_p)) + 1j * rng.normal(size=(grid.n_x, grid.n_p))
    return ps.PhaseState(grid, "xp", amp).normalized()


def test_kraus_completeness_dense_literal():
    # literal sum of M^dag M over every label on a tiny lattice, for every
    # label representation, of the family and of the printed reference
    # family: completeness_sum's closed form assumes each label map is a
    # bijection at every target cell, and this is what checks it
    from _oracles import kraus_dense, printed_member

    grid = ps.Grid2D(8, 8, -4.0, 4.0, -4.0, 4.0)
    device = random_state(grid, np.random.default_rng(41))
    n = grid.n_x * grid.n_p
    for rep in ms.LABEL_REPS:
        fam = ms.kraus_build(device, rep, grid)
        for member in (None, printed_member):
            acc = np.zeros((n, n), dtype=complex)
            for op in fam:
                m = kraus_dense(op, member)
                acc += m.conj().T @ m * fam.label_measure
            assert np.abs(acc - np.eye(n)).max() < 1e-12, (rep, member)
            assert np.abs(np.diag(acc).real - fam.completeness_sum().ravel()).max() < 1e-12


def reflected_x(state):
    """An xp state with its x cells reflected about the x = 0 cell i0:
    cell i takes the amplitude of cell 2 i0 - i."""
    n_x = state.grid.n_x
    rows = (2 * ms._origin_index(state.grid.x_axis) - np.arange(n_x)) % n_x
    return ps.PhaseState(state.grid, "xp", state.amp[rows])


@pytest.mark.parametrize("kind", ["gaussian", "random"])
@pytest.mark.parametrize("printed", [False, True], ids=["unitary", "printed"])
@pytest.mark.parametrize("rep", ms.LABEL_REPS)
def test_joint_probabilities_match_label_loop(rep, printed, kind):
    # the closed-form convolution against the literal per-member loop; the
    # x = 0 cell sits off the middle of the lattice, so rolls by +i0 and
    # -i0 differ.  The printed reference family has the unitary family's
    # probabilities, but for X_piP: there a printed member is R M R, with
    # R the reflection of x about x = 0, so its probabilities are those of
    # R phi
    from _oracles import kraus_probabilities_loop, printed_member

    grid = ps.Grid2D(32, 32, -7.5, 12.5, -7.5, 12.5)
    rng = np.random.default_rng(43)
    if kind == "gaussian":
        target, device = gaussian_pair(grid, rng)
    else:
        target, device = random_state(grid, rng), random_state(grid, rng)
    fam = ms.kraus_build(device, rep, grid)
    loop = kraus_probabilities_loop(fam, target, printed_member if printed else None)
    if printed and rep == "X_piP":
        target = reflected_x(target)
    probs = fam.joint_probabilities(target)
    assert probs.min() >= 0.0
    assert np.abs(probs - loop).max() < 1e-15


def test_kraus_probabilities_match_readout_joint(grid):
    rng = np.random.default_rng(13)
    target, device = gaussian_pair(grid, rng)
    after = ms.von_neumann_couple(target, device)
    for rep in ms.LABEL_REPS:
        fam = ms.kraus_build(device, rep, grid)
        probs = fam.joint_probabilities(target)
        joint = ps.marginal(after, fam.label_axes)
        assert np.abs(probs - joint.array * joint.cell_measure()).sum() < 1e-9


def test_kraus_point_target_single_label(grid):
    target = ps.make_point(grid, 1.25, 0.625)
    device = ps.make_point(grid, -1.25, 1.875)
    fam = ms.kraus_build(device, "X_P", grid)
    probs = fam.joint_probabilities(target)
    hot = np.argwhere(probs > 1e-12)
    assert len(hot) == 1
    a, b = hot[0]
    assert (float(fam.label_values[0][a]), float(fam.label_values[1][b])) == (0.0, 1.875)

    prob, post = ms.apply_kraus(target, fam.operator(a, b))
    assert abs(prob - 1.0) < 1e-12
    assert abs(ps.expectation(post, "x") - 1.25) < 1e-12
    assert abs(probs.sum() - 1.0) < 1e-9


def test_apply_kraus_zero_probability_raises(grid):
    target = ps.make_point(grid, 1.25, 0.625)
    device = ps.make_point(grid, -1.25, 1.875)
    fam = ms.kraus_build(device, "X_P", grid)
    dead = fam.operator(0, 0)
    prob, post = ms.apply_kraus(target, dead, want_post=False)
    assert prob == 0.0 and post is None
    with pytest.raises(ZeroMassSlice):
        ms.apply_kraus(target, dead)


def test_povm_elements_positive():
    from _oracles import kraus_dense

    grid = ps.Grid2D(8, 8, -4.0, 4.0, -4.0, 4.0)
    xx = grid.x()[:, None]
    pp = grid.p()[None, :]
    amp = np.exp(-(xx**2) / 2.0 - (pp**2) / 2.0)
    device = ps.PhaseState(grid, "xp", amp).normalized()
    fam = ms.kraus_build(device, "X_P", grid)
    rng = np.random.default_rng(2)
    for _ in range(6):
        a = rng.integers(0, fam.shape[0])
        b = rng.integers(0, fam.shape[1])
        m = kraus_dense(fam.operator(a, b))
        e = m.conj().T @ m
        eigs = np.linalg.eigvalsh(e)
        assert eigs.min() >= -1e-8


def test_printed_kernels_reported_not_patched(grid):
    rng = np.random.default_rng(29)
    target, device = gaussian_pair(grid, rng)
    gaps = ms.printed_kernel_discrepancy(device, target)
    # the direct-label forms agree with the unitary route exactly
    assert gaps["X_P"]["action_l2"] == 0.0
    assert gaps["piX_P"]["action_l2"] == 0.0
    assert gaps["X_P"]["probability_l1"] == 0.0
    assert gaps["piX_P"]["probability_l1"] == 0.0
    # the mixed forms carry the printed sign asymmetry / shift-for-phase slip
    assert gaps["X_piP"]["probability_l1"] > 0.01
    assert gaps["piX_piP"]["action_l2"] > 0.01
    # the slip in the second mixed form is invisible at the density level
    assert gaps["piX_piP"]["probability_l1"] == 0.0


# the gaps that printed_kernel_discrepancy reports as 0.0 without computing
_ZERO_GAPS = {("X_P", "probability_l1"), ("X_P", "action_l2"), ("piX_P", "probability_l1"),
              ("piX_P", "action_l2"), ("piX_piP", "probability_l1")}


def assert_gaps_match_loop(device, target, rel):
    from _oracles import printed_discrepancy_loop

    gaps = ms.printed_kernel_discrepancy(device, target)
    loop = printed_discrepancy_loop(device, target)
    # the loop's 0.0 gaps may hold the round-off of one 1e-15 per label
    floor = 1e-15 * target.grid.n_x * target.grid.n_p
    for rep in ms.LABEL_REPS:
        for key, want in loop[rep].items():
            if (rep, key) in _ZERO_GAPS:
                assert gaps[rep][key] == 0.0 and want <= floor, (rep, key, want)
            else:
                assert gaps[rep][key] == pytest.approx(want, rel=rel, abs=0.0), (rep, key)


def gaussian_on(grid, rng):
    """A Gaussian two to three cells wide on each axis, near the origin."""
    x0, p0 = rng.uniform(-1.0, 1.0, size=2)
    sx, sp = rng.uniform(2.0, 3.0, size=2) * (grid.dx, grid.dp)
    amp = np.exp(-((grid.x()[:, None] - x0) ** 2) / (4.0 * sx**2)
                 - (grid.p()[None, :] - p0) ** 2 / (4.0 * sp**2))
    return ps.PhaseState(grid, "xp", amp).normalized()


@pytest.mark.parametrize("kind", ["gaussian", "random"])
@pytest.mark.parametrize("lattice", [(32, 32, -7.5, 12.5, -7.5, 12.5),
                                     (16, 32, -6.0, 10.0, -2.0, 6.0)],
                         ids=["off-centre", "rectangular"])
def test_printed_gaps_match_label_loop(lattice, kind):
    # the closed forms against the label loop that applies every member of
    # both families, with the x = 0 cell off the middle of the lattice
    grid = ps.Grid2D(*lattice)
    rng = np.random.default_rng(53)
    make = gaussian_on if kind == "gaussian" else random_state
    target, device = make(grid, rng), make(grid, rng)
    assert_gaps_match_loop(device, target, 1e-13)


def test_printed_gaps_of_a_point_at_the_origin():
    # a target on the x = 0 cell is its own reflection: the X_piP gaps are
    # exactly 0, as they are in the label loop
    from _oracles import printed_discrepancy_loop

    grid = ps.Grid2D(16, 16, -6.0, 10.0, -8.0, 8.0)
    target = ps.make_point(grid, 0.0, 1.0)
    device = random_state(grid, np.random.default_rng(59))
    assert ms.printed_kernel_discrepancy(device, target)["X_piP"] == {
        "probability_l1": 0.0, "action_l2": 0.0}
    loop = printed_discrepancy_loop(device, target)["X_piP"]
    assert loop["action_l2"] == 0.0 and loop["probability_l1"] < 1e-15 * 16 * 16


def test_printed_gaps_of_a_device_flat_along_x():
    # a device constant along X puts its pi_X weight on the pi_X = 0 row,
    # where phase and shift agree, so the piX_piP action gap is round-off
    # about 0; the closed form's cancellation can take it below 0, which
    # must read as a gap of 0, not raise
    from _oracles import printed_discrepancy_loop

    grid = ps.Grid2D(16, 16, -8.0, 8.0, -8.0, 8.0)
    amp = np.ones((16, 16)) * np.exp(-(grid.p()[None, :] ** 2) / 4.0)
    device = ps.PhaseState(grid, "xp", amp).normalized()
    rng = np.random.default_rng(61)
    for _ in range(40):
        target = ps.PhaseState(grid, "xp", rng.normal(size=(16, 16))).normalized()
        assert ms.printed_kernel_discrepancy(device, target)["piX_piP"]["action_l2"] < 1e-7
    assert printed_discrepancy_loop(device, target)["piX_piP"]["action_l2"] < 1e-7


def test_device_spec_validation(grid):
    state = ps.make_gaussian(grid, 0.0, 0.0, 1.3, 1.3)
    spec = ms.DeviceSpec(state=state, readout_axis="X")
    assert spec.readout_axis == "X"
    with pytest.raises(ValueError):
        ms.DeviceSpec(state=state, readout_axis="q")
    with pytest.raises(ValueError):
        ms.DeviceSpec(state=ps.PhaseState(grid, "xp", state.amp * 2.0))

