"""Independent dense-matrix oracles for the propagators.

Everything here is built from explicit DFT matrices and scipy's expm, not
from the FFT split-operator code paths, so agreement is evidence and not
tautology.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.linalg import expm


def dft_matrix(n):
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def conjugate_operator(axis):
    """Dense matrix of the conjugate-variable operator on one axis."""
    f = dft_matrix(axis.n)
    freqs = 2.0 * np.pi * np.fft.fftfreq(axis.n, axis.d)
    return f.conj().T @ np.diag(freqs) @ f


def dense_liouvillian(grid, h):
    """T'(p) Pi_x - V'(x) Pi_p on the flattened (x, p) lattice (C order)."""
    pi_x = conjugate_operator(grid.x_axis)
    pi_p = conjugate_operator(grid.p_axis)
    t_diag = np.diag(h.t_prime(grid.p()))
    v_diag = np.diag(h.v_prime(grid.x()))
    eye_x = np.eye(grid.n_x)
    eye_p = np.eye(grid.n_p)
    return np.kron(pi_x, t_diag) - np.kron(v_diag, pi_p)


def dense_evolve(state, h, t):
    """expm(-i L t) applied to the state; returns the amplitude array."""
    from kvnlab.phasespace import to_representation

    s = to_representation(state, "xp")
    l_mat = dense_liouvillian(s.grid, h)
    vec = expm(-1j * l_mat * t) @ s.amp.reshape(-1)
    return vec.reshape(s.amp.shape)


def dense_deformed_generator(grid, h, hbar, a, b):
    """The gauge-factored deformed generator as a dense matrix.

    G = b T'(p) Pi_x + b^2 hbar t2 Pi_x^2 + a V'(x) Pi_p + a^2 hbar v2 Pi_p^2
    """
    pi_x = conjugate_operator(grid.x_axis)
    pi_p = conjugate_operator(grid.p_axis)
    eye_x = np.eye(grid.n_x)
    eye_p = np.eye(grid.n_p)
    t2 = h.kinetic_coeffs()[2]
    v2 = h.potential[2]
    g = np.kron(pi_x, np.diag(b * h.t_prime(grid.p())))
    g = g + (b * b * hbar * t2) * np.kron(pi_x @ pi_x, eye_p)
    g = g + np.kron(np.diag(a * h.v_prime(grid.x())), pi_p)
    g = g + (a * a * hbar * v2) * np.kron(eye_x, pi_p @ pi_p)
    return g


def dense_deformed_evolve(state, h, t, hbar, a, b):
    from kvnlab.phasespace import to_representation

    s = to_representation(state, "xp")
    g = dense_deformed_generator(s.grid, h, hbar, a, b)
    vec = expm(-1j * g * t) @ s.amp.reshape(-1)
    return vec.reshape(s.amp.shape)


def dense_couple(state4, lam, t):
    """Pointer coupling by per-block 1D matrix exponentials.

    x and P are diagonal labels of the generator lambda*(x pi_X - P pi_p),
    so each (x_i, P_l) block factorizes into commuting 1D generators on the
    p and X axes; those are exponentiated densely.
    """
    work = state4.with_conj((False, False, False, False))
    tg, dg = work.target_grid, work.device_grid
    pi_p = conjugate_operator(tg.p_axis)
    pi_X = conjugate_operator(dg.x_axis)
    xs = tg.x()
    ps_vals = dg.p()
    amp = np.array(work.amp)
    out = np.empty_like(amp)
    for i, xv in enumerate(xs):
        u_x = expm(-1j * lam * t * xv * pi_X)
        for l, pv in enumerate(ps_vals):
            u_p = expm(1j * lam * t * pv * pi_p)
            block = amp[i, :, :, l]
            out[i, :, :, l] = u_p @ block @ u_x.T
    return out


def closed_form_couple(target, device):
    """Unit-time pointer coupling phi(x, p+P) * eta(X-x, P) in closed form.

    The product amplitude is built in the (x, pi_p, pi_X, P) representation,
    where both shears are the single phase exp(i pi_p P - i pi_X x), and is
    transformed back with phasespace's unitary transforms; no shear engine
    is involved.
    """
    from kvnlab.phasespace import BipartiteState, to_representation

    phi = to_representation(target, "x_pip")
    eta = device.with_conj((True, False))  # (pi_X, P)
    x, pi_p = phi.axis_values(0), phi.axis_values(1)
    pi_X, P = eta.axis_values(0), eta.axis_values(1)
    amp = (
        phi.amp[:, :, None, None]
        * eta.amp[None, None, :, :]
        * np.exp(1j * pi_p[None, :, None, None] * P[None, None, None, :])
        * np.exp(-1j * pi_X[None, None, :, None] * x[:, None, None, None])
    )
    out = BipartiteState(target.grid, device.grid, (False, True, True, False), amp)
    return out.with_conj((False, False, False, False))


def form_by_outer(target, device, lam_t):
    """exp(-i lam_t L) of target (x) device, L the generator of x*P, formed
    by brute force: the outer product of the target's p spectrum and the
    device's X spectrum is multiplied by the phases of the momentum kick
    p -> p - lam_t*P and the pointer shift X -> X + lam_t*x, and one 4D
    inverse FFT along p and one along X return it to coordinates.

    ``target`` and ``device`` are xp PhaseStates; returns the 4D amplitude.
    """
    tg, dg = target.grid, device.grid
    amp = np.multiply.outer(np.fft.fft(target.amp, axis=1), np.fft.fft(device.amp, axis=0))
    amp *= np.exp(1j * lam_t * dg.p()[None, None, None, :]
                  * tg.p_axis.conj_coords()[None, :, None, None])
    amp *= np.exp(-1j * lam_t * tg.x()[:, None, None, None]
                  * dg.x_axis.conj_coords()[None, None, :, None])
    for axis in (1, 2):
        amp = np.fft.ifft(amp, axis=axis)
    return amp


def _axis_phase(axis_obj, shape, axis):
    freqs = axis_obj.conj_coords()
    ph = np.exp(-1j * freqs * axis_obj.vmin) * math.sqrt(axis_obj.d / axis_obj.d_conj)
    view = [1] * len(shape)
    view[axis] = axis_obj.n
    return ph.reshape(view)


def to_conjugate(amp, axis_obj, axis):
    """A fresh ``amp`` unitarily transformed to the conjugate of ``axis``:
    the out-of-place reference of the in-place phasespace transform, with
    the same operations in the same order."""
    out = np.fft.fft(amp, axis=axis) / math.sqrt(axis_obj.n)
    out *= _axis_phase(axis_obj, amp.shape, axis)
    return out


def to_coordinate(amp, axis_obj, axis):
    """The inverse of to_conjugate, out of place."""
    out = amp / _axis_phase(axis_obj, amp.shape, axis)
    return np.fft.ifft(out, axis=axis) * math.sqrt(axis_obj.n)


def free_evolve_bipartite_steps(state4, h_target, h_device, duration, dt, splitting="strang"):
    """Uncoupled 4D evolution one split step at a time.

    Every factor goes to its own representation and back with the
    out-of-place transforms above, and its phase is rebuilt every step;
    nothing is fused.  Returns the amplitude in the all-coordinate
    representation.
    """
    work = state4.with_conj((False,) * 4)
    tg, dg = work.target_grid, work.device_grid
    n = max(1, round(duration / dt))
    dt = duration / n
    half = splitting == "strang"
    subsys = ((tg, h_target, 0, 1), (dg, h_device, 2, 3))

    def along(values, axis):
        shape = [1] * 4
        shape[axis] = len(values)
        return values.reshape(shape)

    def apply_v(amp, frac):
        for grid, h, ax0, ax1 in subsys:
            if h is None or (h.potential[1] == 0.0 and h.potential[2] == 0.0):
                continue
            amp = to_conjugate(amp, grid.p_axis, ax1)
            amp *= np.exp(1j * dt * frac * h.v_prime(along(grid.x(), ax0))
                          * along(grid.pi_p(), ax1))
            amp = to_coordinate(amp, grid.p_axis, ax1)
        return amp

    def apply_t(amp):
        for grid, h, ax0, ax1 in subsys:
            if h is None:
                continue
            tc = h.kinetic_coeffs()
            if tc[1] == 0.0 and tc[2] == 0.0:
                continue
            amp = to_conjugate(amp, grid.x_axis, ax0)
            amp *= np.exp(-1j * dt * h.t_prime(along(grid.p(), ax1)) * along(grid.pi_x(), ax0))
            amp = to_coordinate(amp, grid.x_axis, ax0)
        return amp

    amp = np.array(work.amp)
    for _ in range(n):
        if half:
            amp = apply_t(apply_v(amp, 0.5))
            amp = apply_v(amp, 0.5)
        else:
            amp = apply_v(apply_t(amp), 1.0)
    return amp


def wrapped_mass(amp, axis, dim, shift):
    """Sum of |amp|^2 over every cell that u -> u + shift along ``dim``
    carries past an end of ``axis``, from a full-size mask of those cells."""
    view = [1] * amp.ndim
    view[dim] = axis.n
    landed = np.arange(axis.n).reshape(view) + shift / axis.d
    outside = np.broadcast_to((landed < 0) | (landed > axis.n - 1), amp.shape)
    return float(np.sum(np.abs(amp[outside]) ** 2))


def projected_step_loop(s, steps):
    """The real amplitude of the real xp state ``s`` after each of
    ``steps``: each factor is one complex pass of the shear engine
    (dynamics._pass on a complex128 array) followed by taking the real
    part, which is what the engine's real path computes.  No guards."""
    from kvnlab import dynamics as dyn

    axes = s.axes()
    amp = s.amp.real.copy()
    seen = []
    for step in steps:
        for f in step:
            work = amp.astype(np.complex128)
            dyn._pass(work, work, f.axis, [dyn._compile(f, axes[f.axis], 2, False)[0]])
            amp = work.real.copy()
        seen.append(amp)
    return seen


def pulsed_three_calls(s, h_target, h_device, eps, t1, t_total, plan):
    """The pulsed run as three engine programs: free flight, coupling, free flight."""
    from kvnlab import dynamics as dyn

    out = dyn.free_evolve_bipartite(s, h_target, h_device, t1, plan)
    if eps != 0.0:
        out = dyn.couple_evolve(out, 1.0, eps)
    return dyn.free_evolve_bipartite(out, h_target, h_device, t_total - t1, plan)


def save_state_interleaved(state, path):
    """The state container written with an explicit re/im float64 interleave."""
    import struct

    from kvnlab.stateio import _ENDIAN_MARK, _MAGIC, _VERSION

    axes = state.axes()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HIH", _VERSION, _ENDIAN_MARK, len(axes)))
        fh.write(struct.pack(f"<{len(axes)}B", *[int(f) for f in state.conj_flags]))
        for ax in axes:
            fh.write(struct.pack("<Qdd", ax.n, ax.vmin, ax.vmax))
        data = np.empty(state.amp.shape + (2,), dtype="<f8")
        data[..., 0] = state.amp.real
        data[..., 1] = state.amp.imag
        fh.write(data.tobytes(order="C"))


def expectation_per_monomial(s, obs):
    """phasespace.expectation as a loop that takes one density per monomial,
    on ``s.diagonal`` of its factors, and adds the monomials in order."""
    from kvnlab import algebra

    total = 0.0
    for key, (re, _) in algebra.parse(obs).terms.items():
        powers = algebra.monomial_factors(key)
        view = s.diagonal(name for name, _ in powers)
        dens = view.density()
        weight = np.ones((), dtype=float)
        for name, e in powers:
            idx, _ = view.axis_index(name)
            vals = view.axis_values(idx) ** e
            shape = [1] * dens.ndim
            shape[idx] = len(vals)
            weight = weight * vals.reshape(shape)
        total += float(re) * float(np.sum(dens * weight)) * view.cell_measure()
    return total


def kraus_dense(op, member=None):
    """One member of an operator family as a dense matrix on the flattened
    target lattice (working representation), column by column; ``member``
    is a rule such as printed_member, else the family's own."""
    apply = op.apply_raw if member is None else (lambda amp: member(op.family, amp, *op.indices))
    grid = op.family.grid
    n = grid.n_x * grid.n_p
    out = np.zeros((n, n), dtype=np.complex128)
    basis = np.zeros((grid.n_x, grid.n_p), dtype=np.complex128)
    flat = basis.reshape(-1)
    for col in range(n):
        flat[col] = 1.0
        out[:, col] = apply(basis).reshape(-1)
        flat[col] = 0.0
    return out


def kraus_probabilities_loop(family, phi, member=None):
    """Label-wise probabilities by literal application of each member, by
    the rule ``member`` (such as printed_member) or the family's own."""
    member = member or (lambda fam, amp, a, b: fam._apply(amp, a, b))
    work = phi.with_conj(family.work_flags)
    measure = family.work_measure() * family.label_measure
    out = np.empty(family.shape)
    for a in range(family.shape[0]):
        for b in range(family.shape[1]):
            out[a, b] = float(np.sum(np.abs(member(family, work.amp, a, b)) ** 2)) * measure
    return out


def printed_member(family, amp, a, b):
    """Member (a, b) of the printed closed-form family that goes with the
    unitary ``family``, applied to ``amp`` (working representation).

    Under a P column it is the unitary member.  Under pi_P an X row reads
    the kernel at a + i - i0 for target cell i (X + x in place of X - x),
    and a pi_X row rolls the target by the label's whole-cell shift
    pi_X / dx in place of the phase exp(-i pi_X x).
    """
    if not family._pi_p:
        return family._apply(amp, a, b)
    n_x, n_p = family.grid.n_x, family.grid.n_p
    cols = (b - np.arange(n_p)) % n_p
    if not family._pi_x:
        return family.kernel[:, cols][(a + np.arange(n_x) - family._i0) % n_x] * amp
    shift = int(round(family.label_values[0][a] / family.grid.dx))
    return family.kernel[a:a + 1, cols] * np.roll(amp, -shift, axis=0)


def printed_discrepancy_loop(device, phi):
    """measurement.printed_kernel_discrepancy label by label: every member
    of the unitary family and of the printed one is applied to phi.  The
    printed probabilities are a per-member loop too."""
    from kvnlab.measurement import LABEL_REPS, kraus_build

    out = {}
    for rep in LABEL_REPS:
        oracle = kraus_build(device, rep, phi.grid)
        if not oracle._pi_p:
            out[rep] = {"probability_l1": 0.0, "action_l2": 0.0}
            continue
        printed = kraus_probabilities_loop(oracle, phi, printed_member)
        prob_gap = float(np.abs(oracle.joint_probabilities(phi) - printed).sum())
        work = phi.with_conj(oracle.work_flags)
        action = 0.0
        for a in range(oracle.shape[0]):
            for b in range(oracle.shape[1]):
                diff = oracle._apply(work.amp, a, b) - printed_member(oracle, work.amp, a, b)
                action += float(np.sum(np.abs(diff) ** 2)) * oracle.work_measure()
        out[rep] = {
            "probability_l1": prob_gap,
            "action_l2": math.sqrt(action * oracle.label_measure),
        }
    return out


def shifted_residual_loop(joint, cond_axis, ref, sign, mass_floor):
    """Max over the cells of axis ``cond_axis`` of the 2D density ``joint``
    of the L1 gap between the conditional on that cell and the density
    ``ref`` rolled by sign * (cell value) in whole cells, one cell at a time,
    skipping cells whose mass is at most ``mass_floor``."""
    marg = joint.marginalize((joint.axis_names[cond_axis],))
    worst = 0.0
    for i, value in enumerate(joint.values[cond_axis]):
        if marg.array[i] * marg.measures[0] <= mass_floor:
            continue
        row = joint.array[i, :] if cond_axis == 0 else joint.array[:, i]
        shifted = np.roll(ref.array, sign * int(round(value / ref.measures[0])))
        worst = max(worst, float(np.abs(row / marg.array[i] - shifted).sum()) * ref.measures[0])
    return worst


def simultaneity_loop(s_after, target_init, device_init, mass_floor):
    """check_simultaneity's prop1 and prop2 residuals, cell by cell."""
    from kvnlab.phasespace import marginal

    return (
        shifted_residual_loop(marginal(s_after, ("x", "X")), 0,
                              marginal(device_init, ("x",)), 1, mass_floor),
        shifted_residual_loop(marginal(s_after, ("p", "P")), 1,
                              marginal(target_init, ("p",)), -1, mass_floor),
    )


def instantiated_residual_loop(s_after, target_init, mass_floor):
    """check_simultaneity's instantiated residual, cell by cell after the modal
    pointer cell."""
    from kvnlab.phasespace import conditional, marginal

    pointer = marginal(s_after, ("X",))
    rest = conditional(s_after, "X", pointer.values[0][int(np.argmax(pointer.array))])
    return shifted_residual_loop(rest.marginalize(("p", "P")), 1,
                                 marginal(target_init, ("p",)), -1, mass_floor)


def quantum_probe_loop(phi, eta, axis, mass_floor):
    """quantum_simultaneity_probe with a roll per pointer row and per P cell."""
    n = axis.n
    i0 = int(round(-axis.vmin / axis.d)) % n
    psi = phi[:, None] * np.array([np.roll(eta, i - i0) for i in range(n)])
    dens = np.abs(psi) ** 2
    res1 = 0.0
    for i in range(n):
        if dens[i].sum() * axis.d * axis.d <= mass_floor:
            continue
        ref = np.roll(np.abs(eta) ** 2, i - i0)
        cond = dens[i] / (dens[i].sum() * axis.d)
        res1 = max(res1, float(np.abs(cond - ref / (ref.sum() * axis.d)).sum()) * axis.d)
    post = psi[:, int(np.argmax(dens.sum(axis=0)))]
    post = post / np.sqrt(np.sum(np.abs(post) ** 2) * axis.d)
    scale = axis.d / axis.d_conj / n
    post_p = np.abs(np.fft.fft(post)) ** 2 * scale
    ref_p = np.abs(np.fft.fft(phi)) ** 2 * scale
    res2 = max(float(np.abs(post_p - np.roll(ref_p, -k)).sum()) * axis.d_conj for k in range(n))
    return psi, res1, res2


class CountingPool(ThreadPoolExecutor):
    """A thread pool that counts the work handed to it, to stand in for the
    slab pool (``_slabs._pool``) of every large-array transform."""

    def __init__(self, workers):
        super().__init__(workers)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)
