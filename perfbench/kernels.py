"""Per-layer kernels: public kvnlab calls timed alone at workload sizes.

Each kernel builds its inputs untimed, then reports the median of a fixed
number of timed repeats (divided by the step count for per-step kernels).
Only public names are used, so refactoring private helpers cannot break a
kernel.  The sizes are those of the scenario each kernel is listed under in
the README; they include the ROADMAP baselines (256^2 x 100 harmonic steps,
one 32^4 FFT pair, Kraus label probabilities at 32^2).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

from spans import NAME, Tracer

LABEL_REPS = ("X_P", "X_piP", "piX_P", "piX_piP")


def _median_time(fn, repeats, per=1):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / per


def _grid(ps, n, x_lim, p_lim):
    return ps.Grid2D(n, n, -x_lim, x_lim, -p_lim, p_lim)


def run_kernels(tmp_dir):
    """{metric name: value} for every kernel; writes scratch files in tmp_dir.

    Times are in seconds; the two algebra counts are calls per
    error/disturbance report.
    """
    from kvnlab import algebra, dynamics as dyn, measurement as ms, phasespace as ps
    from kvnlab import stateio, uncertainty as un

    out = {}

    # evolve_2d sizes
    g2 = _grid(ps, 256, 16.0, 8.0)
    s2 = ps.make_gaussian(g2, -4.0, 0.0, 0.5, 0.25)
    harmonic = dyn.HamiltonianSpec.harmonic()
    steps = 100
    plan = dyn.PropagationPlan(dt=0.05, n_steps=steps)
    out["dynamics.split_step_2d_s"] = _median_time(
        lambda: dyn.kvn_evolve(s2, harmonic, plan), 3, per=steps)
    out["phasespace.fft_pair_2d_x_s"] = _median_time(
        lambda: s2.with_conj((True, False)).with_conj((False, False)), 20)
    out["phasespace.fft_pair_2d_p_s"] = _median_time(
        lambda: s2.with_conj((False, True)).with_conj((False, False)), 20)
    out["stateio.save_state_s"] = _median_time(
        lambda: stateio.save_state(s2, tmp_dir / "k2.state"), 10)

    # pulsed_4d sizes
    g4 = _grid(ps, 32, 8.0, 4.0)
    s4 = ps.product_state(ps.make_gaussian(g4, -1.0, 0.5, 1.0, 0.5),
                          ps.make_gaussian(g4, 0.0, 0.0, 1.0, 0.5))
    free = dyn.HamiltonianSpec.free()
    steps = 5
    plan = dyn.PropagationPlan(dt=0.05, n_steps=1)
    out["dynamics.split_step_4d_s"] = _median_time(
        lambda: dyn.free_evolve_bipartite(s4, free, free, steps * 0.05, plan), 3, per=steps)
    out["phasespace.fft_pair_4d_x_s"] = _median_time(
        lambda: s4.with_conj((True, False, False, False)).with_conj((False,) * 4), 5)
    out["phasespace.fft_pair_4d_P_s"] = _median_time(
        lambda: s4.with_conj((False, False, False, True)).with_conj((False,) * 4), 5)
    out["dynamics.coupling_shear_s"] = _median_time(lambda: dyn.couple_evolve(s4, 1.0, 0.5), 3)
    out["stateio.save_state_4d_s"] = _median_time(
        lambda: stateio.save_state(s4, tmp_dir / "k4.state"), 3)

    # the pointer scenarios (measure, kraus) at 32^2
    gp = _grid(ps, 32, 10.0, 10.0)
    target = ps.make_gaussian(gp, 0.3, -0.2, 1.3, 1.3)
    device = ps.make_gaussian(gp, 0.0, 0.1, 1.28, 1.3)
    for rep in LABEL_REPS:
        family = ms.kraus_build(device, rep, gp)
        out[f"measurement.kraus_probs_{rep}_s"] = _median_time(
            lambda: family.joint_probabilities(target), 3)
    out["measurement.kraus_s"] = _median_time(
        lambda: ms.printed_kernel_discrepancy(device, target), 2)
    out["measurement.couple_s"] = _median_time(
        lambda: dyn.couple_evolve(ps.product_state(target, device), 1.0, 1.0), 3)
    out["measurement.von_neumann_couple_s"] = _median_time(
        lambda: ms.von_neumann_couple(target, device), 3)
    after = ms.von_neumann_couple(target, device)
    out["measurement.simultaneity_s"] = _median_time(
        lambda: ms.check_simultaneity(after, target, device), 3)
    out["phasespace.marginal_4d_s"] = _median_time(lambda: ps.marginal(after, ("x", "X")), 5)
    out["phasespace.conditional_4d_s"] = _median_time(
        lambda: ps.conditional(after, "X", 0.3), 5)

    # the uncertainty scenario at 64^2
    gu = _grid(ps, 64, 8.0, 8.0)
    target = ps.make_gaussian(gu, 0.2, -0.1, 0.9, 1.0)
    device = ps.make_gaussian(gu, 0.0, 0.0, 0.8, 0.8)
    generator = algebra.liouvillian_of(algebra.multiply(algebra.x, algebra.P),
                                       subsystems=("target", "device"))
    t = Fraction(1, 2)
    out["algebra.heisenberg_evolve_s"] = _median_time(
        lambda: algebra.heisenberg_evolve(algebra.X, generator, t=t, term_bound=4), 50)
    n_op = algebra.heisenberg_evolve(algebra.X, generator, t=t, term_bound=4) - algebra.x
    out["algebra.multiply_s"] = _median_time(lambda: algebra.multiply(n_op, n_op), 200)
    out["uncertainty.error_disturbance_s"] = _median_time(
        lambda: un.error_disturbance(target, device, 0.5), 20)
    with Tracer() as tracer:
        un.error_disturbance(target, device, 0.5)
    names = [s[NAME] for s in tracer.spans]
    out["algebra.multiply_calls"] = names.count("multiply")
    out["algebra.heisenberg_calls"] = names.count("heisenberg_evolve")
    return out
