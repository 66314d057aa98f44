"""Independent dense-matrix oracles for the propagators.

Everything here is built from explicit DFT matrices and scipy's expm, not
from the FFT split-operator code paths, so agreement is evidence and not
tautology.
"""

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


def free_evolve_bipartite_steps(state4, h_target, h_device, duration, dt, splitting="strang"):
    """Uncoupled 4D evolution one split step at a time.

    Every factor goes to its own representation and back with the unitary
    transforms of phasespace, and its phase is rebuilt every step; nothing
    is fused.  Returns the amplitude in the all-coordinate representation.
    """
    from kvnlab.phasespace import _to_conjugate, _to_coordinate

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
            amp = _to_conjugate(amp, grid.p_axis, ax1)
            amp *= np.exp(1j * dt * frac * h.v_prime(along(grid.x(), ax0))
                          * along(grid.pi_p(), ax1))
            amp = _to_coordinate(amp, grid.p_axis, ax1)
        return amp

    def apply_t(amp):
        for grid, h, ax0, ax1 in subsys:
            if h is None:
                continue
            tc = h.kinetic_coeffs()
            if tc[1] == 0.0 and tc[2] == 0.0:
                continue
            amp = _to_conjugate(amp, grid.x_axis, ax0)
            amp *= np.exp(-1j * dt * h.t_prime(along(grid.p(), ax1)) * along(grid.pi_x(), ax0))
            amp = _to_coordinate(amp, grid.x_axis, ax0)
        return amp

    amp = np.array(work.amp)
    for _ in range(n):
        if half:
            amp = apply_t(apply_v(amp, 0.5))
            amp = apply_v(amp, 0.5)
        else:
            amp = apply_v(apply_t(amp), 1.0)
    return amp


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
