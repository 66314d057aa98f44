import math

import numpy as np
import pytest

from kvnlab import phasespace as ps
from kvnlab.errors import (
    NonHermitianObservable,
    OutOfBounds,
    UnresolvableWidth,
    UnsupportedObservable,
    ZeroMassSlice,
)
from kvnlab.stateio import export_density_csv, load_state, save_state

from _oracles import save_state_interleaved


@pytest.fixture
def grid():
    return ps.Grid2D(64, 64, -8.0, 8.0, -8.0, 8.0)


def random_state(grid, rng):
    amp = rng.standard_normal((grid.n_x, grid.n_p)) + 1j * rng.standard_normal(
        (grid.n_x, grid.n_p)
    )
    return ps.PhaseState(grid, "xp", amp).normalized()


def test_grid_validation():
    with pytest.raises(ValueError):
        ps.Grid2D(48, 64, -1, 1, -1, 1)  # not a power of two
    with pytest.raises(ValueError):
        ps.Grid2D(4, 64, -1, 1, -1, 1)  # too small
    with pytest.raises(ValueError):
        ps.Grid2D(64, 64, 1, -1, -1, 1)  # inverted range


def test_gaussian_moments(grid):
    s = ps.make_gaussian(grid, 0.5, -1.25, 1.0, 0.8)
    assert abs(ps.expectation(s, "x") - 0.5) < grid.dx / 2
    assert abs(ps.expectation(s, "p") + 1.25) < grid.dp / 2
    assert abs(ps.variance(s, "x") - 1.0) < 0.01
    assert abs(ps.variance(s, "p") - 0.64) < 0.01


def test_gaussian_variance_scaling(grid):
    narrow = ps.make_gaussian(grid, 0.0, 0.0, 0.5, 0.5)
    wide = ps.make_gaussian(grid, 0.0, 0.0, 1.0, 1.0)
    ratio = ps.variance(wide, "x") / ps.variance(narrow, "x")
    assert abs(ratio - 4.0) < 0.04


def test_gaussian_preconditions(grid):
    with pytest.raises(UnresolvableWidth):
        ps.make_gaussian(grid, 0.0, 0.0, grid.dx, 1.0)
    with pytest.raises(OutOfBounds):
        ps.make_gaussian(grid, 7.0, 0.0, 1.0, 1.0)  # margin violated


def test_point_cell_snap_and_orthogonality(grid):
    a = ps.make_point(grid, 1.3, 2.2)
    assert abs(ps.expectation(a, "x") - 1.25) < 1e-12
    b = ps.make_point(grid, -3.0, 0.0)
    assert ps.inner(a, b) == 0
    assert abs(ps.inner(a, a) - 1.0) < 1e-12
    with pytest.raises(OutOfBounds):
        ps.make_point(grid, 9.0, 0.0)


def test_point_at_boundary_cell(grid):
    s = ps.make_point(grid, grid.x_min, grid.p_min)
    assert abs(s.norm() - 1.0) < 1e-12
    assert ps.marginal(s, ("x",)).array[0] > 0


def test_representation_round_trips(grid):
    rng = np.random.default_rng(7)
    for _ in range(5):
        s = random_state(grid, rng)
        for rep in ps.REPRESENTATIONS:
            v = ps.to_representation(s, rep)
            assert abs(v.norm() - 1.0) < 1e-10
            back = ps.to_representation(v, "xp")
            assert ps.l2_distance(s, back) < 1e-10


def test_parseval_measure_weighted(grid):
    rng = np.random.default_rng(11)
    s = random_state(grid, rng)
    norms = [ps.to_representation(s, rep).norm() for rep in ps.REPRESENTATIONS]
    assert max(norms) - min(norms) < 1e-10


def test_bipartite_representation_unitarity():
    tg = ps.Grid2D(16, 16, -4.0, 4.0, -4.0, 4.0)
    rng = np.random.default_rng(19)
    amp = rng.standard_normal((16,) * 4) + 1j * rng.standard_normal((16,) * 4)
    s = ps.BipartiteState(tg, tg, (False,) * 4, amp).normalized()
    for trial in range(8):
        flags = tuple(bool(rng.integers(0, 2)) for _ in range(4))
        v = s.with_conj(flags)
        assert abs(v.norm() - 1.0) < 1e-10
        assert ps.l2_distance(s, v.with_conj((False,) * 4)) < 1e-10


def test_fourier_width_reciprocal(grid):
    s = ps.make_gaussian(grid, 0.0, 0.0, 1.5, 0.8)
    product = 2.0 * ps.sigma(s, "x") * ps.sigma(s, "pi_x")
    assert abs(product - 1.0) < 0.02


def test_free_particle_phase_transforms_to_ridge():
    # plane-wave spectrum of a state concentrated on x = (p/m) t; the
    # analysis kernel is e^{-i pi_x x}, so the ridge phase is e^{-i pi_x v t}
    grid = ps.Grid2D(128, 64, -8.0, 8.0, -4.0, 4.0)
    t, m = 1.5, 1.0
    pix = grid.pi_x()[:, None]
    p = grid.p()[None, :]
    amp = np.exp(-1j * (p / m) * pix * t)
    s = ps.PhaseState(grid, "pix_p", amp).normalized()
    dens = ps.joint_density(ps.to_representation(s, "xp"))
    x_vals = dens.values[0]
    for j, pv in enumerate(grid.p()):
        target = (pv / m) * t
        if not (grid.x_min <= target < grid.x_max):
            continue
        ridge = x_vals[np.argmax(dens.array[:, j])]
        assert abs(ridge - target) <= grid.dx / 2 + 1e-12


def test_expectation_linearity(grid):
    s = ps.make_gaussian(grid, 0.4, -0.3, 1.0, 1.2)
    lhs = ps.expectation(s, "2*x + p")
    assert abs(lhs - 2 * ps.expectation(s, "x") - ps.expectation(s, "p")) < 1e-12


def test_expectation_parity_and_cross_terms(grid):
    s = ps.make_gaussian(grid, 0.0, 0.0, 1.0, 1.0)
    assert abs(ps.expectation(s, "pi_x")) < 1e-9
    cross = ps.expectation(s, "x*pi_p")
    assert abs(cross) < 1e-9  # even state, odd observable


def test_expectation_rejects_conjugate_mixing(grid):
    s = ps.make_gaussian(grid, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(NonHermitianObservable):
        ps.expectation(s, "x*pi_x")


def test_expectation_rejects_degree_above_two(grid):
    s = ps.make_gaussian(grid, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(UnsupportedObservable) as info:
        ps.expectation(s, "x^2*p")
    assert not isinstance(info.value, NonHermitianObservable)


def test_marginal_total_mass(grid):
    rng = np.random.default_rng(3)
    s = random_state(grid, rng)
    assert abs(ps.joint_density(s).mass() - 1.0) < 1e-9
    assert abs(ps.marginal(s, ("x",)).mass() - 1.0) < 1e-9
    assert abs(ps.marginal(s, ("pi_p",)).mass() - 1.0) < 1e-9


def test_marginal_invariant_under_other_axis_transform(grid):
    rng = np.random.default_rng(5)
    s = random_state(grid, rng)
    direct = ps.marginal(s, ("x",)).array
    via = ps.marginal(ps.to_representation(s, "x_pip"), ("x",)).array
    assert np.abs(direct - via).max() < 1e-10


def test_product_state_marginals_factorize(grid):
    a = ps.make_gaussian(grid, 0.5, 0.0, 1.0, 1.0)
    b = ps.make_gaussian(grid, -0.5, 1.0, 0.8, 0.9)
    joint = ps.product_state(a, b)
    assert abs(joint.norm() - 1.0) < 1e-10
    mx = ps.marginal(joint, ("x", "p")).array
    assert np.abs(mx - ps.joint_density(a).array).max() < 1e-9
    mX = ps.marginal(joint, ("X", "P")).array
    assert np.abs(mX - ps.joint_density(b).array).max() < 1e-9


def test_conditional_of_product_equals_marginal(grid):
    a = ps.make_gaussian(grid, 0.5, 0.0, 1.0, 1.0)
    b = ps.make_gaussian(grid, -0.5, 1.0, 0.8, 0.9)
    joint = ps.product_state(a, b)
    cond = ps.conditional(joint, "x", 0.5).marginalize(("X",))
    ref = ps.marginal(b, ("x",))
    assert np.abs(cond.array - ref.array).max() < 1e-9


def test_conditional_zero_mass(grid):
    s = ps.make_point(grid, 0.0, 0.0)
    with pytest.raises(ZeroMassSlice):
        ps.conditional(s, "x", 5.0)


def test_state_container_round_trip(tmp_path, grid):
    rng = np.random.default_rng(13)
    s = ps.to_representation(random_state(grid, rng), "x_pip")
    path = tmp_path / "state.state"
    save_state(s, path)
    loaded = load_state(path)
    assert loaded.rep == "x_pip"
    assert ps.l2_distance(s, loaded) == 0.0

    tg = ps.Grid2D(8, 8, -2, 2, -2, 2)
    pair = ps.product_state(
        ps.make_point(tg, 0.0, 0.0), ps.make_point(tg, 0.5, -0.5)
    )
    path4 = tmp_path / "pair.state"
    save_state(pair, path4)
    loaded4 = load_state(path4)
    assert ps.l2_distance(pair, loaded4) == 0.0


def test_state_container_bytes_match_interleaved_encoder(tmp_path, grid):
    rng = np.random.default_rng(14)
    s2 = ps.to_representation(random_state(grid, rng), "pix_p")
    tg = ps.Grid2D(8, 8, -2, 2, -2, 2)
    amp4 = rng.standard_normal((8,) * 4) + 1j * rng.standard_normal((8,) * 4)
    s4 = ps.BipartiteState(tg, tg, (False, True, False, True), amp4)
    transposed = random_state(grid, rng)
    transposed.amp = transposed.amp.T
    assert not transposed.amp.flags.c_contiguous
    for i, s in enumerate((s2, s4, transposed)):
        save_state(s, tmp_path / f"{i}.state")
        save_state_interleaved(s, tmp_path / f"{i}.ref")
        assert (tmp_path / f"{i}.state").read_bytes() == (tmp_path / f"{i}.ref").read_bytes()


def test_state_container_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.state"
    bad.write_bytes(b"NOTASTATE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not a state container"):
        load_state(bad)


def test_density_csv_export(tmp_path, grid):
    s = ps.make_gaussian(grid, 0.0, 0.0, 1.0, 1.0)
    dens = ps.marginal(s, ("x",))
    path = tmp_path / "dens.csv"
    export_density_csv(dens, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,density"
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert abs(values[:, 1].sum() * grid.dx - 1.0) < 1e-9
