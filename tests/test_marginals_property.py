"""Property test: the x-slab sweep of phasespace.marginals has the bits of
the joint density's marginalize and mass.

marginals reduces each slab of x rows over the dropped axes but x, in
Density.marginalize's order, sums over x last on the assembled rows, and
adds the slab sums in pairs.  On 2D grids of 8^2, 64^2 and 256^2 and 4D
grids of 8^4, 16^4 and 32^4, for Gaussian and random states (float64 and
complex on 2D) in any representation, every marginal must equal
marginalize of the joint density bit for bit, and the mass must equal its
Density.mass.  The slab size is drawn as well: 64^2 with slabs of one
64-cell row would add the slab sums in a different order than numpy's
pairwise sum, so marginals takes at least 128 cells a slab, and whole
128-cell slabs are drawn too.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvnlab import phasespace as ps
from test_measurement import gaussian_on

def _state(ndim, n, kind, real, flags, rng):
    grid = ps.Grid2D(n, n, -6.0, 6.0, -5.0, 5.0)
    if kind == "gaussian":
        amp = gaussian_on(grid, rng).amp
        if ndim == 4:
            amp = np.multiply.outer(amp, gaussian_on(grid, rng).amp)
        if not (real and ndim == 2):
            amp = amp.astype(complex)
    else:
        shape = (n,) * ndim
        # magnitudes over many decades, so the order of a sum shows in its bits
        amp = rng.normal(size=shape) * np.exp(3.0 * rng.normal(size=shape))
        if not (real and ndim == 2):
            amp = amp + 1j * rng.normal(size=shape)
    # the amplitude is read in the representation of ``flags``: a field in
    # any representation has one, and the sweep starts from it
    if ndim == 2:
        return ps.PhaseState(grid, ps._FLAGS_REP[flags], amp)
    return ps.BipartiteState(grid, grid, flags, amp)


@st.composite
def _cases(draw, ndim, n):
    s = _state(ndim, n, draw(st.sampled_from(("gaussian", "random"))), draw(st.booleans()),
               tuple(draw(st.lists(st.booleans(), min_size=ndim, max_size=ndim))),
               np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    # each keep names each axis in its coordinate or conjugate form, as one
    # representation for all of them fixes it
    names = [draw(st.sampled_from((a, c))) for a, c in zip(s.axis_names, s.conj_names)]
    subsets = [k for r in range(ndim + 1) for k in combinations(names, r)]
    keeps = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=4))
    return s, keeps, draw(st.sampled_from((1, 64, 128, ps.CHUNK)))


@pytest.mark.parametrize("ndim, n", [(2, 8), (2, 64), (2, 256), (4, 8), (4, 16), (4, 32)])
@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data())
def test_marginals_have_the_bits_of_marginalize(ndim, n, data):
    s, keeps, chunk = data.draw(_cases(ndim, n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ps, "CHUNK", chunk)
        found, mass = ps.marginals(s, keeps)
    joint = ps.joint_density(s.diagonal([n for keep in keeps for n in keep]))
    assert mass == joint.mass()
    for keep, m in zip(keeps, found, strict=True):
        ref = joint.marginalize(keep)
        assert (m.axis_names, m.measures) == (ref.axis_names, ref.measures)
        assert all(np.array_equal(a, b) for a, b in zip(m.values, ref.values))
        assert m.array.dtype == ref.array.dtype and m.array.shape == ref.array.shape
        assert m.array.tobytes() == ref.array.tobytes(), keep


def test_marginals_of_64_rows_take_two_rows_a_slab(monkeypatch):
    # one 64-cell row a slab would add its sums in another order than
    # numpy's pairwise sum; at least 128 cells a slab keep its bits
    g = ps.Grid2D(64, 64, -6.0, 6.0, -5.0, 5.0)
    rng = np.random.default_rng(5)
    s = ps.PhaseState(g, "xp", rng.normal(size=(64, 64)) * np.exp(3.0 * rng.normal(size=(64, 64))))
    sums = []
    monkeypatch.setattr(ps, "CHUNK", 1)
    monkeypatch.setattr(ps, "_abs2", lambda a: sums.append(a.shape) or a * a)
    _, mass = ps.marginals(s, ["x"])
    assert set(sums) == {(2, 64)}
    assert mass == ps.joint_density(s).mass()
    rows = [s.amp[i:i + 1] * s.amp[i:i + 1] for i in range(64)]
    by_row = [float(r.sum()) for r in rows]
    while len(by_row) > 1:
        by_row = [a + b for a, b in zip(by_row[::2], by_row[1::2])]
    # the slab rule matters for this state: one row a slab gives other bits
    assert by_row[0] * g.dx * g.dp != mass
