import math

import numpy as np
import pytest

from kvnlab import algebra as al
from kvnlab import dynamics as dyn
from kvnlab import measurement as ms
from kvnlab import phasespace as ps
from kvnlab import uncertainty as un


@pytest.fixture
def grid():
    return ps.Grid2D(64, 64, -8.0, 8.0, -8.0, 8.0)


def random_gaussian(grid, rng, center_span=1.5):
    sigma_x = rng.uniform(0.55, 1.1)
    sigma_p = rng.uniform(0.55, 1.1)
    x0 = rng.uniform(-center_span, center_span)
    p0 = rng.uniform(-center_span, center_span)
    return ps.make_gaussian(grid, x0, p0, sigma_x, sigma_p)


def test_point_states_at_unit_time(grid):
    target = ps.make_point(grid, 0.5, 0.25)
    device = ps.make_point(grid, 2.0, -1.5)
    rep = un.error_disturbance(target, device, 1.0)
    assert abs(rep.epsilon - 2.0) < 1e-12
    assert abs(rep.eta - 1.5) < 1e-12
    assert abs(rep.comm_ND) == 0.0


def test_point_state_unbiased_locus(grid):
    # X = (1 - t) x and P = 0 switch off error and disturbance entirely
    t = 0.5
    x0 = 0.5
    target = ps.make_point(grid, x0, 0.25)
    device = ps.make_point(grid, (1 - t) * x0, 0.0)
    rep = un.error_disturbance(target, device, t)
    assert rep.unbiased
    assert rep.epsilon == 0.0 and rep.eta == 0.0
    assert rep.sigma_x == 0.0 and rep.sigma_p == 0.0


def test_gaussian_moments_match_closed_form(grid):
    target = ps.make_gaussian(grid, 0.5, 0.0, 0.8, 0.8)
    device = ps.make_gaussian(grid, 0.3, -0.2, 0.6, 0.7)
    for t in (0.5, 1.0, 2.0):
        rep = un.error_disturbance(target, device, t)
        X1 = ps.expectation(device, "x")
        X2 = ps.expectation(device, "x^2")
        x1 = ps.expectation(target, "x")
        x2 = ps.expectation(target, "x^2")
        eps_sq = X2 + 2 * (t - 1) * X1 * x1 + (t - 1) ** 2 * x2
        assert abs(rep.epsilon - math.sqrt(eps_sq)) < 1e-8
        assert abs(rep.eta - abs(t) * math.sqrt(ps.expectation(device, "p^2"))) < 1e-8
        assert abs(rep.eta_pi_x - abs(t) * math.sqrt(ps.expectation(device, "pi_x^2"))) < 1e-8
        assert abs(rep.mean_error - (X1 + (t - 1) * x1)) < 1e-8
        assert abs(rep.mean_disturbance + t * ps.expectation(device, "p")) < 1e-8


def test_error_commutator_vanishes_numerically(grid):
    rng = np.random.default_rng(77)
    for _ in range(4):
        target = random_gaussian(grid, rng)
        device = random_gaussian(grid, rng)
        for t in (0.5, 1.0, 2.0):
            rep = un.error_disturbance(target, device, t)
            assert abs(rep.comm_ND) < 1e-9


def test_moments_cross_checked_against_propagation(grid):
    # one configuration evolved as a full 4D state: first and second moments
    # of the evolved pointer match the closed-form report
    target = ps.make_gaussian(grid, 0.5, -0.25, 0.7, 0.7)
    device = ps.make_gaussian(grid, -0.4, 0.3, 0.7, 0.7)
    t = 1.0
    after = dyn.couple_evolve(ps.product_state(target, device), 1.0, t)
    X_mean = ps.expectation(after, "X")
    x_mean = ps.expectation(target, "x")
    rep = un.error_disturbance(target, device, t)
    assert abs(rep.mean_error - (X_mean - x_mean)) < 1e-8
    eps_grid = math.sqrt(
        ps.expectation(after, "X^2")
        - 2 * _cross_moment_X_x(after)
        + ps.expectation(after, "x^2")
    )
    assert abs(rep.epsilon - eps_grid) < 1e-8


def test_expectation_reads_the_pointer_axis_of_a_coupled_state():
    # X names the device's coordinate axis of a BipartiteState, not a target's
    grid = ps.Grid2D(32, 32, -8.0, 8.0, -8.0, 8.0)
    target = ps.make_gaussian(grid, 1.0, -0.5, 1.0, 1.0)
    device = ps.make_gaussian(grid, -0.5, 0.5, 1.0, 1.0)
    after = dyn.couple_evolve(ps.product_state(target, device), 0.5, 1.0)
    pointer = ps.marginal(after, ("X",))
    mean = float((pointer.values[0] * pointer.array).sum()) * pointer.cell_measure()
    X_mean = ps.expectation(after, "X")
    assert X_mean == ps.expectation(after, al.X)
    assert abs(X_mean - mean) < 1e-12
    assert abs(X_mean - (-0.5 + 0.5 * 1.0)) < 1e-9  # X + lambda*t*<x>


def _cross_moment_X_x(state4):
    dens = ps.marginal(state4, ("x", "X"))
    xx = dens.values[0][:, None] * dens.values[1][None, :]
    return float((dens.array * xx).sum()) * dens.cell_measure()


def test_trivial_inequalities(grid):
    rng = np.random.default_rng(11)
    target = random_gaussian(grid, rng)
    device = random_gaussian(grid, rng)
    rep = un.error_disturbance(target, device, 1.0)
    check = un.check_trivial(rep)
    assert check.product_holds and check.sum_holds

    # equality through a vanishing error arm: pointer parked at the origin
    t_pt = ps.make_point(grid, 0.5, 0.25)
    d_pt = ps.make_point(grid, 0.0, -1.5)
    tight = un.check_trivial(un.error_disturbance(t_pt, d_pt, 1.0))
    assert tight.product_is_tight and tight.sum_is_tight

    # unbiased point locus: both sides vanish identically
    d_ub = ps.make_point(grid, 0.0, 0.0)
    ub = un.check_trivial(un.error_disturbance(t_pt, d_ub, 1.0))
    assert ub.product_is_tight and ub.sum_is_tight


def test_ozawa_like_slack_ensemble(grid):
    rng = np.random.default_rng(40)
    for _ in range(20):
        target = random_gaussian(grid, rng)
        device = random_gaussian(grid, rng)
        rep = un.error_disturbance(target, device, 1.0)
        assert rep.slack_ozawa_like >= -1e-8


def test_ensemble_derives_pointer_algebra_once_per_time(grid, monkeypatch):
    # N, D and the pi_x disturbance do not depend on the state: 5 members
    # at one t cost one derivation (3 Heisenberg evolutions), not 5
    from kvnlab import algebra

    calls = []
    evolve = algebra.heisenberg_evolve
    monkeypatch.setattr(algebra, "heisenberg_evolve",
                        lambda *args, **kwargs: calls.append(args[0]) or evolve(*args, **kwargs))
    un._pointer_algebra.cache_clear()
    rng = np.random.default_rng(41)
    reports = [un.error_disturbance(random_gaussian(grid, rng), random_gaussian(grid, rng), 0.7)
               for _ in range(5)]
    assert len(calls) == 3
    # a fresh derivation gives the same report
    un._pointer_algebra.cache_clear()
    rng = np.random.default_rng(41)
    assert un.error_disturbance(random_gaussian(grid, rng), random_gaussian(grid, rng),
                                0.7) == reports[0]
    assert len(calls) == 6


def test_ozawa_slack_grows_with_device_conjugate_spread(grid):
    target = ps.make_gaussian(grid, 0.0, 0.0, 0.8, 0.8)
    narrow = ps.make_gaussian(grid, 0.0, 0.0, 1.0, 0.6)
    wide = ps.make_gaussian(grid, 0.0, 0.0, 0.5, 0.6)  # halving sigma_X doubles sigma_pi_X
    r_narrow = un.error_disturbance(target, narrow, 1.0)
    r_wide = un.error_disturbance(target, wide, 1.0)
    assert abs(r_wide.eta_pi_x / r_narrow.eta_pi_x - 2.0) < 0.02
    assert r_wide.slack_ozawa_like > r_narrow.slack_ozawa_like


def test_ozawa_boundary_approach(grid):
    # the bound is saturated by a minimum-product target with a sharp device
    # as the coupling time shrinks: epsilon -> sigma(x) and the single term
    # epsilon * sigma(pi_x) = sigma(x) * 1/(2 sigma(x)) hits 1/2 exactly
    target = ps.make_gaussian(grid, 0.0, 0.0, 0.7, 0.7)
    device = ps.make_point(grid, 0.0, 0.0)
    slacks = [
        un.error_disturbance(target, device, t).slack_ozawa_like
        for t in (1.0, 0.5, 0.1, 0.0)
    ]
    assert slacks[0] > slacks[1] > slacks[2] > slacks[3] >= -1e-8
    assert slacks[3] < 1e-6


def test_kennard_robertson_pairs(grid):
    s = ps.make_gaussian(grid, 0.4, -0.3, 0.9, 1.1)
    lhs, rhs, holds = un.kennard_robertson(s, "x", "pi_x")
    assert holds
    assert rhs == 0.5
    assert lhs >= 0.5 * (1 - 1e-6)
    assert abs(lhs / rhs - 1.0) < 0.01  # Gaussian saturation

    lhs, rhs, holds = un.kennard_robertson(s, "x", "p")
    assert rhs == 0.0 and holds

    lhs, rhs, holds = un.kennard_robertson(s, "p", "pi_p")
    assert holds and rhs == 0.5


def test_unbiased_scan_gaussian_device(grid):
    target = ps.make_gaussian(grid, 0.5, 0.0, 0.8, 0.8)
    centered = ps.make_gaussian(grid, 0.0, 0.0, 0.6, 0.7)
    rows = un.unbiased_scan(target, centered, [0.5, 1.0, 2.0])
    # each row is the time's report itself, with every derived field
    for row, t in zip(rows, [0.5, 1.0, 2.0]):
        rep = un.error_disturbance(target, centered, t)
        assert row == rep
        for name in ("trivial_bounds", "slack_trivial", "slack_ozawa_like",
                     "zero_error_claim_holds"):
            assert getattr(row, name) == getattr(rep, name)
    row = rows[1]
    assert row.unbiased
    assert abs(row.mean_error) < 1e-9 and abs(row.mean_disturbance) < 1e-9
    # distributional unbiasedness does not switch off the spreads
    assert not row.zero_error_claim_holds
    assert abs(row.epsilon - math.sqrt(ps.expectation(centered, "x^2"))) < 1e-8
    assert abs(row.eta - math.sqrt(ps.expectation(centered, "p^2"))) < 1e-8


def test_unbiased_scan_offset_device_reports_means(grid):
    target = ps.make_point(grid, 0.5, 0.0)
    device = ps.make_point(grid, 2.0, 0.0)
    rows = un.unbiased_scan(target, device, [1.0])
    assert not rows[0].unbiased
    assert abs(rows[0].epsilon - 2.0) < 1e-12  # epsilon = <X> for a parked pointer
    assert abs(rows[0].mean_error - 2.0) < 1e-12


def test_unbiased_scan_point_locus(grid):
    t = 0.75
    target = ps.make_point(grid, 1.0, 0.5)
    device = ps.make_point(grid, 0.25, 0.0)
    rows = un.unbiased_scan(target, device, [t])
    assert rows[0].unbiased and rows[0].zero_error_claim_holds
    assert rows[0].epsilon == 0.0 and rows[0].eta == 0.0


def test_report_csv_export(tmp_path, grid):
    rng = np.random.default_rng(3)
    reports = [
        un.error_disturbance(random_gaussian(grid, rng), random_gaussian(grid, rng), t)
        for t in (0.5, 1.0)
    ]
    path = tmp_path / "reports.csv"
    un.reports_to_csv(reports, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == list(un.EDReport.CSV_FIELDS)
    assert len(lines) == 3
