import hashlib
import math
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
from kvnlab.stateio import export_density_csv, load_state, save_state, write_csv, write_json

from _oracles import CountingPool, save_state_interleaved, to_conjugate, to_coordinate


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


def test_density_csv_export(tmp_path, grid):
    s = ps.make_gaussian(grid, 0.0, 0.0, 1.0, 1.0)
    dens = ps.marginal(s, ("x",))
    path = tmp_path / "dens.csv"
    export_density_csv(dens, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,density"
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert abs(values[:, 1].sum() * grid.dx - 1.0) < 1e-9


def test_write_csv_exact_bytes(tmp_path):
    # every table goes through write_csv: floats as .17g (numpy float64
    # too), bools as 0/1, anything else as str
    path = tmp_path / "t.csv"
    write_csv(path, ("n", "f", "g", "b"), [(3, 0.1, np.float64(-1.0) / 3, True),
                                         (np.int64(-7), 2.5e-300, np.float64(1.0), np.bool_(False))])
    assert path.read_bytes() == (b"n,f,g,b\n3,0.10000000000000001,-0.33333333333333331,1\n"
                                 b"-7,2.5e-300,1,0\n")


def test_write_json_exact_bytes(tmp_path):
    # every JSON file of a run goes through write_json: one-space indents,
    # keys sorted at every level, floats as repr, no trailing newline
    path = tmp_path / "t.json"
    write_json(path, {"z": [1, 0.1, True, None], "a": {"y": False, "b": -2.5e-300},
                      "m": [{"k": 1.0, "c": []}, "s"]})
    assert path.read_bytes() == (b'{\n "a": {\n  "b": -2.5e-300,\n  "y": false\n },\n'
                                 b' "m": [\n  {\n   "c": [],\n   "k": 1.0\n  },\n  "s"\n ],\n'
                                 b' "z": [\n  1,\n  0.1,\n  true,\n  null\n ]\n}')
