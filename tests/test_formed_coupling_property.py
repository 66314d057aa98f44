"""Property test: the product path equals the materialized state.

On a product state, couple_evolve and pulsed_propagator form the coupled 4D
amplitude as the product of a kicked target factor on (x, p, P) and a
shifted device factor on (x, X, P) (dynamics._form).  The materialized
state, with no factors, runs the same program on the 4D array, and
_oracles.form_by_outer forms the coupled amplitude from the outer product
of the two spectra.  All three must agree to 1e-13 on rectangular lattices
of 8 to 32 cells per axis, for Gaussian, point and box-filling states and
either sign of the coupling.

A pulsed run whose factors after the coupling all act on the target (a
harmonic target's flight after t1) flies them on pieces of the product as
it is formed (dynamics._flown_product); one with a device potential runs
them on the 4D array.  Both paths are held to the same oracles, and the
pieces to the bits of phasespace._outer followed by one _pass per factor.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvnlab import _slabs
from kvnlab import dynamics as dyn
from kvnlab import phasespace as ps
from _oracles import CountingPool, form_by_outer
from test_dynamics import _materialized, _raised
from test_measurement import gaussian_on


@st.composite
def _lattices(draw):
    """A target and a device lattice of 8 to 32 cells per axis, centred on
    0, whose 4D product has at most 2**18 cells."""
    sizes = draw(st.tuples(*[st.sampled_from((8, 16, 32))] * 4)
                 .filter(lambda n: np.prod(n) <= 1 << 18))
    grids = []
    for n_x, n_p in (sizes[:2], sizes[2:]):
        dx, dp = (draw(st.sampled_from((0.25, 0.5, 1.0))) for _ in range(2))
        grids.append(ps.Grid2D(n_x, n_p, -n_x * dx / 2, n_x * dx / 2, -n_p * dp / 2, n_p * dp / 2))
    return grids


def _state(grid, kind, rng):
    """A Gaussian, a point or a box-filling random xp state, normalized."""
    if kind == "gaussian":
        return gaussian_on(grid, rng)
    if kind == "point":
        i, j = rng.integers(grid.n_x), rng.integers(grid.n_p)
        return ps.make_point(grid, grid.x()[i], grid.p()[j])
    amp = rng.normal(size=(grid.n_x, grid.n_p)) + 1j * rng.normal(size=(grid.n_x, grid.n_p))
    return ps.PhaseState(grid, "xp", amp).normalized()


def _distance(a, b):
    return ps.l2_distance(a, ps.BipartiteState(a.target_grid, a.device_grid, (False,) * 4, b))


_KINDS = st.sampled_from(("gaussian", "point", "box"))
_FREE = dyn.HamiltonianSpec.free(1.0)
_HARMONIC = dyn.HamiltonianSpec.harmonic(1.0, 0.5)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(grids=_lattices(), kinds=st.tuples(_KINDS, _KINDS), seed=st.integers(0, 2**32 - 1),
       lam=st.floats(0.05, 1.5), negative=st.booleans(), harmonic=st.booleans())
def test_formed_coupling_property(grids, kinds, seed, lam, negative, harmonic):
    rng = np.random.default_rng(seed)
    s = ps.product_state(*(_state(g, k, rng) for g, k in zip(grids, kinds)))
    lam = -lam if negative else lam
    # box-filling states wrap, so the amplitudes are compared without guards
    out = dyn.couple_evolve(s, lam, 0.7, check_wrap=False)
    assert _distance(out, form_by_outer(*s.factors, lam * 0.7)) <= 1e-13
    ref = dyn.couple_evolve(_materialized(s), lam, 0.7, check_wrap=False)
    assert _distance(out, ref.amp) <= 1e-13

    h_t, plan = _HARMONIC if harmonic else _FREE, dyn.PropagationPlan(0.1, 1)

    def pulsed(state):
        return dyn.pulsed_propagator(state, h_t, _FREE, lam, 0.3, 0.6, plan)

    # with its guards, the product path raises where the materialized state does
    assert _raised(pulsed, s) == _raised(pulsed, _materialized(s))
    propagate = dyn._propagate
    with mock.patch.object(dyn, "_propagate", lambda state, steps, after_step=None,
                           check_wrap=True: propagate(state, steps, after_step, False)):
        out = pulsed(s)
        ref = pulsed(_materialized(s))
        flown = dyn.free_evolve_bipartite(s, h_t, _FREE, 0.3, plan)
        coupled = ps.BipartiteState(s.target_grid, s.device_grid, (False,) * 4,
                                    form_by_outer(*flown.factors, lam))
        oracle = dyn.free_evolve_bipartite(coupled, h_t, _FREE, 0.3, plan)
    assert out.factors is None
    assert _distance(out, ref.amp) <= 1e-13
    assert _distance(out, oracle.amp) <= 1e-13


_DEVICE_POTENTIAL = dyn.HamiltonianSpec(mass=2.0, potential=(0.0, 0.1, 0.2))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(grids=_lattices().filter(lambda g: g[0].n_x * g[0].n_p * g[1].n_x * g[1].n_p <= 1 << 16),
       kinds=st.tuples(_KINDS, _KINDS), seed=st.integers(0, 2**32 - 1),
       lam=st.floats(0.05, 1.5), negative=st.booleans(), device_potential=st.booleans())
def test_pulsed_tail_property(grids, kinds, seed, lam, negative, device_potential):
    # a harmonic target's flight after t1 is several factors, all on the
    # target, which run on pieces of the product as it is formed; a device
    # potential's kicks act on both sides of the coupling, so the flights
    # after t1 run on the 4D array.  Either way the product path matches
    # the materialized state and the form_by_outer oracle, and raises where
    # the materialized state does
    rng = np.random.default_rng(seed)
    s = ps.product_state(*(_state(g, k, rng) for g, k in zip(grids, kinds)))
    lam = -lam if negative else lam
    h_t, h_d = (_FREE, _DEVICE_POTENTIAL) if device_potential else (_HARMONIC, _FREE)
    plan = dyn.PropagationPlan(0.1, 1)

    def pulsed(state):
        return dyn.pulsed_propagator(state, h_t, h_d, lam, 0.3, 0.6, plan)

    assert _raised(pulsed, s) == _raised(pulsed, _materialized(s))
    tails, passes = [], []
    propagate, flown, apply = dyn._propagate, dyn._flown_product, dyn._pass
    with mock.patch.object(dyn, "_propagate", lambda state, steps, after_step=None,
                           check_wrap=True: propagate(state, steps, after_step, False)), \
            mock.patch.object(dyn, "_flown_product", lambda st, sides, tail, check: (
                tails.append(tail), flown(st, sides, tail, check))[1]), \
            mock.patch.object(dyn, "_pass", lambda src, dst, axis, phases, seen=None: (
                passes.append(src.ndim), apply(src, dst, axis, phases, seen))[1]):
        out = pulsed(s)
        path = tails[:], passes.count(4)
        ref = pulsed(_materialized(s))
        flown2d = dyn.free_evolve_bipartite(s, h_t, h_d, 0.3, plan)
        coupled = ps.BipartiteState(s.target_grid, s.device_grid, (False,) * 4,
                                    form_by_outer(*flown2d.factors, lam))
        oracle = dyn.free_evolve_bipartite(coupled, h_t, h_d, 0.3, plan)
    if device_potential:
        assert path[0] == [] and path[1] > 0
    else:
        [tail] = path[0]
        assert path[1] == 0
        assert len(tail) > 2 and {f.axis for f in tail} == {0, 1}
    assert _distance(out, ref.amp) <= 1e-13
    assert _distance(out, oracle.amp) <= 1e-13


@pytest.mark.parametrize("cores, chunk", [(1, dyn.CHUNK), (2, dyn.CHUNK), (3, 3 * dyn.CHUNK)])
def test_flown_product_has_the_bits_of_outer_then_passes(monkeypatch, cores, chunk):
    # the pieces of a harmonic target's flight after t1 against the whole
    # product (phasespace._outer) flown by one _pass per factor, from the
    # same two factors; on 3 cores pieces of 3 rows end at every slab edge
    grid = ps.Grid2D(32, 32, -8.0, 8.0, -4.0, 4.0)
    s = ps.product_state(ps.make_gaussian(grid, -1.0, 0.5, 1.0, 0.5),
                         ps.make_gaussian(grid, 0.0, 0.0, 1.0, 0.5))
    captured = []
    flown = dyn._flown_product
    monkeypatch.setattr(dyn, "_flown_product", lambda st, sides, tail, check: (
        captured.append((st, sides, tail)), flown(st, sides, tail, check))[1])
    with CountingPool(max(cores - 1, 1)) as pool:
        monkeypatch.setattr(_slabs, "_pool", (pool if cores > 1 else None, cores))
        monkeypatch.setattr(dyn, "CHUNK", chunk)
        dyn.pulsed_propagator(s, _HARMONIC, _FREE, 0.5, 0.4, 1.0, dyn.PropagationPlan(0.05, 20))
        [(st, sides, tail)] = captured
        got = flown(st, sides, tail, True)
        ref = ps._outer(*sides)
        for f in tail:
            dyn._pass(ref, ref, f.axis, [dyn._compile(f, st.axes()[f.axis], 4, False)[0]])
    # 12 drifts and 12 kicks: the first half kick after t1 commutes with the
    # coupling and merges with the last one before it
    assert len(tail) == 24
    assert got.tobytes() == ref.tobytes()
