import hashlib
import json
import math
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kvnlab import _slabs, cli
from kvnlab import algebra as al
from kvnlab import phasespace as ps
from kvnlab import stateio
from kvnlab import uncertainty as un
from kvnlab.errors import (
    NonHermitianObservable,
    OutOfBounds,
    UnresolvableWidth,
    UnsupportedObservable,
    ZeroMassSlice,
)
from kvnlab.stateio import load_state, save_state, write_csv, write_json, write_state

from _oracles import (CountingPool, expectation_per_monomial, save_state_interleaved,
                      to_conjugate, to_coordinate)


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
    # any observable is squared term by term: a sum of uncorrelated axes
    # and a scaled axis
    sx, sp = ps.sigma(s, "x"), ps.sigma(s, "p")
    assert abs(ps.sigma(s, "x + p") - math.hypot(sx, sp)) < 1e-9
    assert abs(ps.sigma(s, "2*x") - 2.0 * sx) < 1e-9


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
    # distinct unit points are orthogonal: sqrt(2) apart
    assert abs(ps.l2_distance(a, b) - math.sqrt(2.0)) < 1e-12
    assert ps.l2_distance(a, a) == 0.0
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


def _random_field(shape, seed):
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if len(shape) == 2:
        return ps.PhaseState(ps.Grid2D(*shape, -16.0, 16.0, -8.0, 8.0), "xp", amp)
    g = ps.Grid2D(32, 32, -4.0, 4.0, -3.0, 5.0)
    return ps.BipartiteState(g, g, (False,) * 4, amp)


@pytest.mark.parametrize("shape", [(256, 256), (32,) * 4], ids=["256^2", "32^4"])
def test_with_conj_is_bit_identical_to_serial_and_out_of_place(monkeypatch, shape):
    # both reach the slab threshold: each change of representation runs in
    # place on one slab per core, and along every axis, there and back, it
    # gives the bytes of the serial run and of out-of-place transforms
    from kvnlab import _slabs

    s = _random_field(shape, len(shape))
    nd = len(shape)

    def run(pool):
        monkeypatch.setattr(_slabs, "_pool", pool)
        out = []
        for i in range(nd):
            there = s.with_conj(tuple(j == i for j in range(nd)))
            out += [there.amp.tobytes(), there.with_conj(s.conj_flags).amp.tobytes()]
        return out + [s.with_conj((True,) * nd).amp.tobytes()]

    serial = run((None, 1))
    with CountingPool(1) as pool:
        assert run((pool, 2)) == serial
    assert pool.submitted > 0
    every = s.amp
    for i, ax in enumerate(s.axes()):
        there = to_conjugate(s.amp, ax, i)
        assert serial[2 * i] == there.tobytes()
        assert serial[2 * i + 1] == to_coordinate(there, ax, i).tobytes()
        every = to_conjugate(every, ax, i)
    assert serial[-1] == every.tobytes()


def test_with_conj_makes_one_array():
    # a change of two axes of a 32^4 state writes into one copy of the
    # amplitude; out-of-place transforms held two at once
    s = _random_field((32,) * 4, 21)
    tracemalloc.start()
    try:
        s.with_conj((False, False, True, True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * s.amp.nbytes


def test_stateio_does_not_import_dynamics():
    # the I/O layer sits on phasespace and _slabs, not on the propagators;
    # the package's __init__, which imports every layer, is left out
    script = """
import sys, types
pkg = types.ModuleType("kvnlab")
pkg.__path__ = [sys.argv[1]]
sys.modules["kvnlab"] = pkg
import kvnlab.stateio
print(" ".join(sorted(m for m in sys.modules if m.startswith("kvnlab."))))
"""
    proc = subprocess.run([sys.executable, "-c", script, str(Path(ps.__file__).parent)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "kvnlab.stateio" in loaded and "kvnlab.dynamics" not in loaded


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


@pytest.mark.parametrize("text, coeff", [
    ("1e-3*x", 1e-3), ("x*1e-3", 1e-3), ("2.5e-1*x", 2.5e-1), ("1e+3*x", 1e3),
])
def test_numbers_with_signed_exponents_are_read(grid, text, coeff):
    # the sign of an exponent does not start a new term
    s = ps.make_gaussian(grid, 0.4, -0.3, 1.0, 1.2)
    assert ps.expectation(s, text) == pytest.approx(coeff * ps.expectation(s, "x"), rel=1e-15)
    assert al.parse(text) == al.x.scaled(Fraction(coeff))


def test_expectation_rejects_conjugate_mixing(grid):
    # pi_x*x is x*pi_x - i in normal order: the x*pi_x monomial is rejected
    s = ps.make_gaussian(grid, 0.0, 0.0, 1.0, 1.0)
    for obs in ("x*pi_x", "pi_x*x", al.multiply(al.x, al.pi_x), al.multiply(al.pi_x, al.x)):
        with pytest.raises(NonHermitianObservable):
            ps.expectation(s, obs)


def test_expectation_rejects_degree_above_two(grid):
    s = ps.make_gaussian(grid, 0.0, 0.0, 1.0, 1.0)
    for obs in ("x^2*p", al.x * al.x * al.p):
        with pytest.raises(UnsupportedObservable) as info:
            ps.expectation(s, obs)
        assert not isinstance(info.value, NonHermitianObservable)


def test_expectation_rejects_names_without_an_axis_and_complex_coefficients(grid):
    # a device generator, the Planck pair and a formal scalar name no axis of
    # a PhaseState; text cannot write a complex coefficient
    s = ps.make_gaussian(grid, 0.0, 0.0, 1.0, 1.0)
    for obs in ("X", al.X, "h_op", al.h_op, "t", al.t_sym, al.x.scaled((0, 1))):
        with pytest.raises(ValueError):
            ps.expectation(s, obs)


def test_expectation_takes_one_density_per_representation(grid, monkeypatch):
    # monomials diagonal in one representation share its density: x, p,
    # their squares and their product are all diagonal in xp
    s = ps.make_gaussian(grid, 0.4, -0.3, 1.0, 1.2)
    device = ps.make_gaussian(grid, 0.1, 0.2, 0.9, 1.1)
    calls = []
    density = ps._Field.density
    monkeypatch.setattr(ps._Field, "density", lambda self: calls.append(self.rep) or density(self))
    ps.variance(s, "x + p")
    assert calls == ["xp"]  # 5 with a density per monomial
    calls.clear()
    ps.expectation(s, "x + pi_x^2 + p + x*pi_p + 2*pi_x*p - 0.5")
    assert sorted(calls) == ["pix_p", "x_pip", "xp"]
    calls.clear()
    un.error_disturbance(s, device, 1.0)
    # one density per state and representation; 14 with a density per monomial
    assert sorted(calls) == ["pix_p", "pix_p", "xp", "xp"]


def test_expectation_equals_per_monomial_loop(grid):
    # sharing a density changes no bit: each monomial's sum is the same, and
    # the monomials are added in the same order
    rng = np.random.default_rng(23)
    target = ps.make_gaussian(grid, 0.4, -0.3, 1.0, 1.2)
    device = ps.to_representation(random_state(grid, rng), "x_pip")
    cases = [
        (target, ["x + p", "3*x - p + 0.25", "pi_x + 2*pi_p",
                  "x + pi_x^2 + p + x*pi_p + 2*pi_x*p - 0.5"]),
        (random_state(grid, rng), ["x + p", "x - pi_p", "pi_x*pi_p + x^2 - p"]),
        (ps.to_representation(random_state(grid, rng), "pix_pip"), ["x + p", "pi_x - 3*p"]),
    ]
    small = ps.Grid2D(32, 32, -8.0, 8.0, -8.0, 8.0)
    pair = ps.product_state(ps.make_gaussian(small, 0.4, -0.3, 1.0, 1.2),
                            ps.to_representation(random_state(small, rng), "x_pip"))
    cases.append((pair, ["x + X", "P - 2*pi_p", "X*P + pi_x^2 - 2*x*X"]))
    for s, observables in cases:
        for obs in observables:
            assert ps.expectation(s, obs) == expectation_per_monomial(s, obs), obs
            expr = al.parse(obs)
            if any(sum(e for _, e in al.monomial_factors(k)) > 1 for k in expr.terms):
                continue  # its square is above degree 2
            m1 = expectation_per_monomial(s, expr)
            m2 = expectation_per_monomial(s, al.multiply(expr, expr))
            assert ps.variance(s, obs) == max(m2 - m1 * m1, 0.0), obs


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


@pytest.mark.parametrize("dim", [2, 4])
def test_marginal_rejects_mixed_and_unknown_axes(grid, dim):
    # one rule picks the representation of every density: an axis named with
    # its own conjugate has none, and an unknown name is a ValueError
    s = ps.make_gaussian(grid, 0.0, 0.0, 1.0, 1.0)
    if dim == 4:
        s = ps.product_state(s, s)
    with pytest.raises(NonHermitianObservable, match="pi_x mixes an axis with its own conjugate"):
        ps.marginal(s, ("x", "pi_x"))
    with pytest.raises(NonHermitianObservable):
        ps.joint_density(s, s.axis_names + ("pi_p",))
    with pytest.raises(ValueError, match="unknown axis 'q'"):
        ps.marginal(s, ("q",))
    with pytest.raises(ValueError, match="every axis exactly once"):
        ps.joint_density(s, s.axis_names[:-1])


def test_product_state_marginals_factorize(grid):
    a = ps.make_gaussian(grid, 0.5, 0.0, 1.0, 1.0)
    b = ps.make_gaussian(grid, -0.5, 1.0, 0.8, 0.9)
    joint = ps.product_state(a, b)
    assert abs(joint.norm() - 1.0) < 1e-10
    mx = ps.marginal(joint, ("x", "p")).array
    assert np.abs(mx - ps.joint_density(a).array).max() < 1e-9
    mX = ps.marginal(joint, ("X", "P")).array
    assert np.abs(mX - ps.joint_density(b).array).max() < 1e-9


def test_product_state_forms_frozen_amplitude_on_first_read(grid):
    a = ps.make_gaussian(grid, 0.5, 0.0, 1.0, 1.0)
    b = ps.to_representation(ps.make_gaussian(grid, -0.5, 1.0, 0.8, 0.9), "pix_p")
    joint = ps.product_state(a, b)
    t, d = joint.factors
    assert (t.rep, d.rep) == ("xp", "xp")
    amp = joint.amp
    assert joint.amp is amp and not amp.flags.writeable
    assert np.array_equal(amp, np.multiply.outer(t.amp, d.amp))


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

    # every bit comes back, the sign of each zero part included
    zeros = np.array([complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)] * 16)
    signed = ps.PhaseState(tg, "xp", zeros.reshape(8, 8))
    save_state(signed, path)
    assert load_state(path).amp.tobytes() == signed.amp.tobytes()


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


def test_save_state_returns_digest_of_bytes_written(tmp_path, grid):
    rng = np.random.default_rng(15)
    tg = ps.Grid2D(8, 8, -2, 2, -2, 2)
    pair = ps.product_state(ps.make_point(tg, 0.0, 0.0),
                            ps.make_point(tg, 0.5, -0.5))
    for i, s in enumerate((ps.to_representation(random_state(grid, rng), "x_pip"), pair)):
        path = tmp_path / f"{i}.state"
        assert save_state(s, path) == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("cores", [2, 1])
def test_save_state_digest_of_large_state(tmp_path, monkeypatch, cores):
    # a 32^4 pair and a 256^2 state reach the shear engine's parallel
    # threshold: with a pool, a pool thread hashes the amplitude while the
    # calling thread writes it
    from kvnlab import _slabs

    rng = np.random.default_rng(16)
    g = ps.Grid2D(32, 32, -4.0, 4.0, -4.0, 4.0)
    amp = rng.standard_normal((32,) * 4) + 1j * rng.standard_normal((32,) * 4)
    flat = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    states = (ps.BipartiteState(g, g, (False, True, True, False), amp),
              ps.PhaseState(ps.Grid2D(256, 256, -16.0, 16.0, -8.0, 8.0), "x_pip", flat))
    path = tmp_path / "big.state"
    with CountingPool(1) as pool:
        monkeypatch.setattr(_slabs, "_pool", (pool, 2) if cores == 2 else (None, 1))
        for s in states:
            assert s.amp.size >= _slabs.PARALLEL_MIN
            assert save_state(s, path) == hashlib.sha256(path.read_bytes()).hexdigest()
    assert pool.submitted == (2 if cores == 2 else 0)


def test_save_state_does_not_wait_for_a_busy_pool(tmp_path, monkeypatch):
    # a hash the pool thread has not started when the write is done (here
    # the thread is busy with another task) runs on the calling thread
    import threading

    from kvnlab import _slabs

    release = threading.Event()
    rng = np.random.default_rng(17)
    flat = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    s = ps.PhaseState(ps.Grid2D(256, 256, -16.0, 16.0, -8.0, 8.0), "x_pip", flat)
    path = tmp_path / "big.state"
    with CountingPool(1) as pool:
        busy = pool.submit(release.wait, 10.0)
        monkeypatch.setattr(_slabs, "_pool", (pool, 2))
        try:
            assert save_state(s, path) == hashlib.sha256(path.read_bytes()).hexdigest()
            assert not busy.done()
        finally:
            release.set()
    assert pool.submitted == 2


def _states_around_the_pool_threshold(rng):
    """2D float64, 2D complex and 4D states, above and below PARALLEL_MIN."""
    big, small = (ps.Grid2D(n, n, -16.0, 16.0, -8.0, 8.0) for n in (256, 64))
    g32, g8 = (ps.Grid2D(n, n, -4.0, 4.0, -4.0, 4.0) for n in (32, 8))

    def cplx(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return [ps.PhaseState(big, "xp", rng.standard_normal((256, 256))),
            ps.PhaseState(small, "xp", rng.standard_normal((64, 64))),
            ps.PhaseState(big, "x_pip", cplx((256, 256))),
            ps.PhaseState(small, "pix_p", cplx((64, 64))),
            ps.BipartiteState(g32, g32, (False, True, True, False), cplx((32,) * 4)),
            ps.BipartiteState(g8, g8, (True, False, False, True), cplx((8,) * 4))]


@pytest.mark.parametrize("cores", [2, 1])
def test_pending_digest_is_the_sha256_of_the_file(tmp_path, monkeypatch, cores):
    # every state is written before any digest is asked for; with a pool the
    # states from 2**16 elements up are hashed on it meanwhile.  A float64
    # amplitude is written as its complex128 cast
    states = _states_around_the_pool_threshold(np.random.default_rng(18))
    with CountingPool(1) as pool:
        monkeypatch.setattr(_slabs, "_pool", (pool, 2) if cores == 2 else (None, 1))
        digests = [write_state(s, tmp_path / f"{i}.state") for i, s in enumerate(states)]
        submitted = pool.submitted
        for i, (s, digest) in enumerate(zip(states, digests)):
            data = (tmp_path / f"{i}.state").read_bytes()
            assert digest() == hashlib.sha256(data).hexdigest()
            save_state_interleaved(s, tmp_path / f"{i}.ref")
            assert data == (tmp_path / f"{i}.ref").read_bytes()
    big = sum(s.amp.size >= _slabs.PARALLEL_MIN for s in states)
    assert big == 3 and submitted == (big if cores == 2 else 0)


def test_float_state_is_written_without_a_cast_copy(tmp_path, monkeypatch):
    # a 256^2 float64 amplitude is cast to <c16 through a small buffer, not
    # into a 1 MiB array; on one core the write and the hash each take one
    s = _states_around_the_pool_threshold(np.random.default_rng(19))[0]
    monkeypatch.setattr(_slabs, "_pool", (None, 1))
    tracemalloc.start()
    try:
        save_state(s, tmp_path / "f.state")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < s.amp.nbytes


def test_pending_digest_lets_go_of_the_amplitude(tmp_path, monkeypatch):
    # once the pool has hashed it, a pending digest holds no reference to the
    # state's amplitude: a snapshot is freed when the flight lets go of it
    import weakref

    with CountingPool(1) as pool:
        monkeypatch.setattr(_slabs, "_pool", (pool, 2))
        s = _states_around_the_pool_threshold(np.random.default_rng(20))[0]
        alive = weakref.ref(s.amp)
        digest = write_state(s, tmp_path / "f.state")
        del s
        value = digest()
        assert alive() is None
        assert digest() == value == hashlib.sha256((tmp_path / "f.state").read_bytes()).hexdigest()


def test_pending_digest_does_not_wait_for_a_busy_pool(tmp_path, monkeypatch):
    # write_state returns while the pool thread is busy with another task;
    # asking for the digest then hashes on the calling thread
    import threading

    release = threading.Event()
    hashed_on = []
    sha256 = stateio._sha256
    monkeypatch.setattr(stateio, "_sha256", lambda *a: hashed_on.append(
        threading.get_ident()) or sha256(*a))
    s = _states_around_the_pool_threshold(np.random.default_rng(21))[2]
    path = tmp_path / "big.state"
    with CountingPool(1) as pool:
        busy = pool.submit(release.wait, 10.0)
        monkeypatch.setattr(_slabs, "_pool", (pool, 2))
        try:
            digest = write_state(s, path)
            assert hashed_on == [] and pool.submitted == 2
            assert digest() == hashlib.sha256(path.read_bytes()).hexdigest()
            assert hashed_on == [threading.get_ident()] and not busy.done()
        finally:
            release.set()


@pytest.mark.parametrize("shape", [(64, 64), (256, 256), (32,) * 4], ids=["64^2", "256^2", "32^4"])
def test_float_amplitude_transforms_as_its_complex_cast(shape):
    # a float64 xp amplitude gives the same bytes as its complex128 cast only
    # because numpy's pocketfft and squared modulus do; this is not documented,
    # so it is checked here.  fft and ifft of a float64 array equal those of
    # its complex128 cast, bit for bit.  rfft takes no complex input, so its
    # check is on the cast's real part, a strided float64 view: the real
    # path's half spectrum depends on the values alone, not on where they lie
    rng = np.random.default_rng(len(shape))
    a = rng.standard_normal(shape)
    z = a.astype(np.complex128)
    for axis in range(len(shape)):
        assert np.fft.fft(a, axis=axis).tobytes() == np.fft.fft(z, axis=axis).tobytes()
        assert np.fft.ifft(a, axis=axis).tobytes() == np.fft.ifft(z, axis=axis).tobytes()
        assert np.fft.rfft(a, axis=axis).tobytes() == np.fft.rfft(z.real, axis=axis).tobytes()
    assert (a * a).tobytes() == (np.abs(z) ** 2).tobytes()


def test_only_an_xp_phase_state_keeps_a_float_amplitude(tmp_path):
    # a float64 xp amplitude is kept, frozen and without a copy; any other
    # field casts it to complex128, and so do with_conj and product_state
    g = ps.Grid2D(16, 16, -8.0, 8.0, -8.0, 8.0)
    a = np.random.default_rng(5).standard_normal((16, 16))
    s = ps.PhaseState(g, "xp", a)
    assert s.amp is a and not a.flags.writeable
    assert s.density().dtype == np.float64
    assert ps.PhaseState(g, "pix_p", a).amp.dtype == np.complex128
    assert ps.PhaseState(g, "xp", a.astype(np.float32)).amp.dtype == np.complex128
    assert ps.BipartiteState(g, g, (False,) * 4, np.ones((16,) * 4)).amp.dtype == np.complex128
    c = ps.PhaseState(g, "xp", a.astype(np.complex128))
    for rep in ps.REPRESENTATIONS[1:]:
        assert ps.to_representation(s, rep).amp.tobytes() == ps.to_representation(c, rep).amp.tobytes()
    assert s.density().tobytes() == c.density().tobytes() and s.norm() == c.norm()
    assert save_state(s, tmp_path / "f.state") == save_state(c, tmp_path / "c.state")
    assert (tmp_path / "f.state").read_bytes() == (tmp_path / "c.state").read_bytes()
    assert load_state(tmp_path / "f.state").amp.dtype == np.complex128
    pair = ps.product_state(s, s)
    assert all(f.amp.dtype == np.complex128 for f in pair.factors)
    assert pair.amp.dtype == np.complex128
    assert pair.amp.tobytes() == ps.product_state(c, c).amp.tobytes()


def test_field_rejects_amplitude_of_wrong_shape():
    # such a state would save a file that load_state rejects for its size
    g = ps.Grid2D(8, 8, -4.0, 4.0, -4.0, 4.0)
    with pytest.raises(ValueError, match=r"shape \(4, 4\) on axes of sizes \(8, 8\)"):
        ps.PhaseState(g, "xp", np.ones((4, 4)))
    with pytest.raises(ValueError, match=r"shape \(8, 8, 8\) on axes of sizes \(8, 8, 8, 8\)"):
        ps.BipartiteState(g, g, (False,) * 4, np.ones((8, 8, 8)))


def test_state_container_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.state"
    bad.write_bytes(b"NOTASTATE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not a state container"):
        load_state(bad)
    # a 16^2 container cut in its header or its payload, or with bytes after
    # it: the error names the file and both sizes.  A header axis that Grid2D
    # rejects (x_max below x_min; 12 x cells, with a payload to match) names
    # the file too
    g = ps.Grid2D(16, 16, -4.0, 4.0, -4.0, 4.0)
    save_state(ps.make_gaussian(g, 0.0, 0.0, 1.0, 1.0), bad)
    raw = bad.read_bytes()
    assert len(raw) == 66 + 16 * 16 * 16
    x_axis = slice(18, 42)  # after the 16-byte head and the 2 conjugate flags
    assert struct.unpack("<Qdd", raw[x_axis]) == (16, -4.0, 4.0)
    reversed_x = raw[:x_axis.start] + struct.pack("<Qdd", 16, 4.0, -4.0) + raw[x_axis.stop:]
    twelve_x = (raw[:x_axis.start] + struct.pack("<Qdd", 12, -4.0, 4.0)
                + raw[x_axis.stop:66 + 16 * 12 * 16])
    for data, message in ((raw[:40], "a 2-axis header needs 66 bytes, the file has 40"),
                          (raw[:12], "the header needs 16 bytes, the file has 12"),
                          (raw[:-1], "a (16, 16) state needs 4162 bytes, the file has 4161"),
                          (raw + b"\x00", "a (16, 16) state needs 4162 bytes, the file has 4163"),
                          (reversed_x, "axis range must have vmax > vmin"),
                          (twelve_x, "axis size must be a power of two >= 8, got 12")):
        bad.write_bytes(data)
        with pytest.raises(ValueError) as err:
            load_state(bad)
        assert str(err.value) == f"{bad}: {message}"


def test_density_csv_export(tmp_path):
    # the density CSV a run writes: kvn-lab measure --plot distribution
    config = tmp_path / "measure.json"
    config.write_text(json.dumps({
        "grid": {"n_x": 32, "n_p": 32, "x_min": -10.0, "x_max": 10.0, "p_min": -10.0, "p_max": 10.0},
        "target_state": {"kind": "gaussian", "x0": 0.3, "p0": -0.2, "sigma_x": 1.3, "sigma_p": 1.25},
        "device_state": {"kind": "gaussian", "x0": -0.1, "p0": 0.15, "sigma_x": 1.28, "sigma_p": 1.31},
    }))
    out = tmp_path / "m"
    assert cli.main(["measure", "--config", str(config), "--out", str(out),
                     "--plot", "distribution"]) == 0
    lines = (out / "plot_distribution.csv").read_text().strip().splitlines()
    assert lines[0] == "value,density"
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert len(values) == 32
    assert abs(values[:, 1].sum() * (values[1, 0] - values[0, 0]) - 1.0) < 1e-9


def test_write_csv_exact_bytes(tmp_path):
    # every table goes through write_csv: floats as .17g (numpy float64
    # too), bools as 0/1, anything else as str
    path = tmp_path / "t.csv"
    digest = write_csv(path, ("n", "f", "g", "b"),
                       [(3, 0.1, np.float64(-1.0) / 3, True),
                        (np.int64(-7), 2.5e-300, np.float64(1.0), np.bool_(False))])
    assert path.read_bytes() == (b"n,f,g,b\n3,0.10000000000000001,-0.33333333333333331,1\n"
                                 b"-7,2.5e-300,1,0\n")
    # the writer returns the digest of the bytes it wrote
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_write_json_exact_bytes(tmp_path):
    # every JSON file of a run goes through write_json: one-space indents,
    # keys sorted at every level, floats as repr, no trailing newline
    path = tmp_path / "t.json"
    digest = write_json(path, {"z": [1, 0.1, True, None], "a": {"y": False, "b": -2.5e-300},
                               "m": [{"k": 1.0, "c": []}, "s"]})
    assert path.read_bytes() == (b'{\n "a": {\n  "b": -2.5e-300,\n  "y": false\n },\n'
                                 b' "m": [\n  {\n   "c": [],\n   "k": 1.0\n  },\n  "s"\n ],\n'
                                 b' "z": [\n  1,\n  0.1,\n  true,\n  null\n ]\n}')
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_write_csv_digest_across_chunks(tmp_path):
    # rows go out in chunks of 4096 lines, hashed as they are written; the
    # bytes are those of one line per row, however the rows are cut
    path = tmp_path / "long.csv"
    rows = [(i, i / 7.0) for i in range(10000)]
    digest = write_csv(path, ("i", "v"), iter(rows))
    expected = "i,v\n" + "".join(f"{i},{v:.17g}\n" for i, v in rows)
    assert path.read_bytes() == expected.encode()
    assert digest == hashlib.sha256(expected.encode()).hexdigest()
