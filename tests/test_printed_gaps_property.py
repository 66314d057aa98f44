"""Property test: the printed-kernel gaps in closed form equal the label loop.

measurement.printed_kernel_discrepancy computes the gaps between the printed
closed-form kernels and the unitary family without applying a member;
_oracles.printed_discrepancy_loop applies every member of both families.
They must agree on random power-of-two lattices whose x = 0 cell is off the
middle, for box-filling and Gaussian states in float64 and complex128.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kvnlab import phasespace as ps
from test_measurement import assert_gaps_match_loop, gaussian_on


@st.composite
def _lattices(draw):
    """A power-of-two lattice of 8 or 16 cells per axis whose ranges hold
    0 at a drawn cell, so the x = 0 cell is off the middle of the box."""
    axes = []
    for _ in range(2):
        n = draw(st.sampled_from((8, 16)))
        d = draw(st.sampled_from((0.25, 0.5, 0.625, 1.0)))
        origin = draw(st.integers(1, n - 1))
        axes.append((n, -origin * d, (n - origin) * d))
    (n_x, x_min, x_max), (n_p, p_min, p_max) = axes
    return ps.Grid2D(n_x, n_p, x_min, x_max, p_min, p_max)


def _state(grid, rng, complex_amp):
    """A box-filling random or a Gaussian xp state, float64 or complex128."""
    if rng.random() < 0.5:
        amp = gaussian_on(grid, rng).amp
    else:
        amp = rng.normal(size=(grid.n_x, grid.n_p))
    if complex_amp:
        amp = amp * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=amp.shape))
    state = ps.PhaseState(grid, "xp", amp).normalized()
    assert state.amp.dtype == (np.complex128 if complex_amp else np.float64)
    return state


@settings(max_examples=40, derandomize=True, deadline=None)
@given(grid=_lattices(), seed=st.integers(0, 2**32 - 1),
       complex_amps=st.tuples(st.booleans(), st.booleans()))
def test_printed_gaps_property(grid, seed, complex_amps):
    # the closed-form gaps equal the label loop on random lattices and states
    rng = np.random.default_rng(seed)
    target, device = (_state(grid, rng, c) for c in complex_amps)
    assert_gaps_match_loop(device, target, 1e-12)
