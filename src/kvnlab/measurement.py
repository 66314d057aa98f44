"""The pointer-coupling measurement model, classical and quantum.

The classical model couples a target (x, p) to a device (X, P) through the
bilinear pointer Hamiltonian x*P for unit time.  The evolved amplitude is
an exact shear,

    psi_after(x, p, X, P) = phi(x, p + P) * eta(X - x, P),

applied by the shear engine of dynamics (couple_evolve).  The quantum
counterpart lives on a 1D target and 1D pointer with
psi_after(x, X) = phi(x) * eta(X - x).

Readout distributions, relative-state (conditional) checks, and the
operator family obtained by integrating out the device are all computed on
the lattice.  Conditionals are compared at the density level throughout;
post-measurement states returned by axis readouts carry the conditional
density with zero phase (phases of conditionals are convention dependent),
whereas the device-integrated operator family yields true amplitudes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import HamiltonianSpec, PropagationPlan, couple_evolve, kvn_evolve
from .errors import ZeroMassSlice
from .phasespace import (
    Axis,
    BipartiteState,
    Grid2D,
    PhaseState,
    marginal,
    product_state,
    to_representation,
)

_MASS_FLOOR = 1e-10


@dataclass(frozen=True)
class DeviceSpec:
    """Initial device state plus the axis that will be read out."""

    state: PhaseState
    readout_axis: str = "X"

    def __post_init__(self):
        if self.readout_axis not in ("X", "P", "pi_X", "pi_P"):
            raise ValueError(f"invalid readout axis {self.readout_axis!r}")
        if abs(self.state.norm() - 1.0) > 1e-9:
            raise ValueError("device state must be normalized")


@dataclass
class MeasurementRecord:
    """Readout values, their probabilities, and optional conditional states."""

    readout_axis: str
    values: np.ndarray
    probabilities: np.ndarray
    post_states: list = None

    def __post_init__(self):
        total = float(self.probabilities.sum())
        if (self.probabilities < -1e-12).any() or abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must be a distribution (sum={total})")

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("value,probability\n")
            for v, pr in zip(self.values, self.probabilities):
                fh.write(f"{v:.17g},{pr:.17g}\n")

    def to_json(self, path, **metadata):
        payload = dict(metadata)
        payload["readout_axis"] = self.readout_axis
        payload["values"] = [float(v) for v in self.values]
        payload["probabilities"] = [float(p) for p in self.probabilities]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)


def _require_matched(a: Axis, b: Axis, what):
    if a.n != b.n or abs(a.d - b.d) > 1e-12 * abs(a.d):
        raise ValueError(f"{what}: lattices must share size and spacing")


def von_neumann_couple(target: PhaseState, device: PhaseState) -> BipartiteState:
    """Unit-time pointer coupling applied to a product state.

    Returns the 4D state with amplitude phi(x, p+P) * eta(X-x, P): the
    product state propagated by dynamics.couple_evolve for lambda*t = 1,
    spectral and so exact for sub-cell shifts.  Raises ShiftOverflow when
    either shear would wrap more than 1e-6 of the probability around the box.
    """
    return couple_evolve(product_state(target, device), 1.0, 1.0)


def readout(s: BipartiteState, axis: str, with_post_states=False) -> MeasurementRecord:
    """Projective readout of one device axis.

    Probabilities are the marginal density times the cell measure.  When
    ``with_post_states`` is set, each readout cell above the mass floor gets
    the conditional target state (density-level: amplitude sqrt(density),
    zero phase); cells below the floor get None.
    """
    if axis not in ("X", "P", "pi_X", "pi_P"):
        raise ValueError(f"not a device axis: {axis!r}")
    dens = marginal(s, (axis,))
    probs = dens.array * dens.measures[0]
    record = MeasurementRecord(axis, dens.values[0], probs)
    if with_post_states:
        posts = []
        for value, pr in zip(record.values, record.probabilities):
            posts.append(None if pr <= 1e-12 else post_state(s, axis, value))
        record.post_states = posts
    return record


def post_state(s: BipartiteState, axis: str, value) -> PhaseState:
    """Conditional target state given one device-axis cell (density-level)."""
    from .phasespace import conditional

    cond = conditional(s, axis, value).marginalize(("x", "p"))
    amp = np.sqrt(np.maximum(cond.array, 0.0))
    return PhaseState(s.target_grid, "xp", amp).normalized()


def _shift_cells(value, spacing):
    k = value / spacing
    return int(round(k))


def _l1(a, b, measure):
    return float(np.abs(a - b).sum()) * measure


def check_simultaneity(
    s_after: BipartiteState,
    target_init: PhaseState,
    device_init: PhaseState,
    mass_floor=_MASS_FLOOR,
):
    """Residuals of the two relative-state propositions on the coupled state.

    prop1: the device X-conditional given target x equals the initial device
    X-marginal shifted by +x.  prop2: the target p-conditional given device
    P equals the initial target p-marginal shifted by -P.  Both residuals
    are max-over-cell L1 distances, skipping cells below the mass floor.
    """
    _require_matched(target_init.grid.x_axis, device_init.grid.x_axis, "x/X")
    _require_matched(target_init.grid.p_axis, device_init.grid.p_axis, "p/P")

    # a standalone device state names its pointer axes locally (x, p)
    ref_X = marginal(device_init, ("x",))
    ref_p = marginal(target_init, ("p",))

    joint_xX = marginal(s_after, ("x", "X"))
    x_marg = joint_xX.marginalize(("x",))
    res1 = 0.0
    for i, xv in enumerate(joint_xX.values[0]):
        mass = x_marg.array[i] * x_marg.measures[0]
        if mass <= mass_floor:
            continue
        cond = joint_xX.array[i, :] / x_marg.array[i]
        shifted = np.roll(ref_X.array, _shift_cells(xv, ref_X.measures[0]))
        res1 = max(res1, _l1(cond, shifted, ref_X.measures[0]))

    joint_pP = marginal(s_after, ("p", "P"))
    P_marg = joint_pP.marginalize(("P",))
    res2 = 0.0
    for j, Pv in enumerate(joint_pP.values[1]):
        mass = P_marg.array[j] * P_marg.measures[0]
        if mass <= mass_floor:
            continue
        cond = joint_pP.array[:, j] / P_marg.array[j]
        shifted = np.roll(ref_p.array, -_shift_cells(Pv, ref_p.measures[0]))
        res2 = max(res2, _l1(cond, shifted, ref_p.measures[0]))

    return res1, res2


def pointer_instantiated_residual(
    s_after: BipartiteState,
    target_init: PhaseState,
    mass_floor=_MASS_FLOOR,
) -> float:
    """Proposition-2 residual after instantiating proposition 1.

    Conditions the coupled state on the modal pointer cell (the needle has
    been read), then asks whether the target p-conditional given device P
    still equals the shifted initial p-marginal.  Classically this survives
    the readout; it is the probe the quantum model fails.
    """
    from .phasespace import conditional

    ref_p = marginal(target_init, ("p",))
    pointer = marginal(s_after, ("X",))
    X0 = pointer.values[0][int(np.argmax(pointer.array))]
    rest = conditional(s_after, "X", X0)  # density over (x, p, P)
    joint_pP = rest.marginalize(("p", "P"))
    P_marg = joint_pP.marginalize(("P",))
    worst = 0.0
    for j, Pv in enumerate(joint_pP.values[1]):
        mass = P_marg.array[j] * P_marg.measures[0]
        if mass <= mass_floor:
            continue
        cond = joint_pP.array[:, j] / P_marg.array[j]
        shifted = np.roll(ref_p.array, -_shift_cells(Pv, ref_p.measures[0]))
        worst = max(worst, _l1(cond, shifted, ref_p.measures[0]))
    return worst


def free_particle_as_measurement(s: PhaseState, mass, t) -> MeasurementRecord:
    """Treat p as the measured system and x as its pointer.

    Free evolution for time t shifts the pointer by (p/m)t; the record is
    the x-marginal afterwards (at t=0, the initial one).
    """
    evolved = to_representation(s, "xp")
    if t != 0.0:
        plan = PropagationPlan(dt=float(t), n_steps=1)
        evolved = kvn_evolve(
            evolved, HamiltonianSpec.free(mass), plan, check_stability=False
        )
    dens = marginal(evolved, ("x",))
    return MeasurementRecord("x", dens.values[0], dens.array * dens.measures[0])


# ---------------------------------------------------------------------------
# device-integrated operator family
# ---------------------------------------------------------------------------

LABEL_REPS = ("X_P", "X_piP", "piX_P", "piX_piP")


class KrausOperator:
    """One member of the device-integrated family, bound to a label cell.

    ``apply`` maps a target amplitude (in the family's working
    representation) to the unnormalized conditional amplitude.
    """

    def __init__(self, family, a, b):
        self.family = family
        self.indices = (a, b)
        self.labels = (family.label_values[0][a], family.label_values[1][b])
        self.label_rep = family.label_rep
        self.label_measure = family.label_measure

    def apply_raw(self, amp):
        return self.family._apply(amp, *self.indices)

    def apply(self, phi: PhaseState) -> PhaseState:
        work = phi.with_conj(self.family.work_flags)
        return work._clone(self.family.work_flags, self.apply_raw(work.amp))

    def dense(self):
        """Kernel as a dense matrix on the flattened target lattice."""
        n = self.family.grid.n_x * self.family.grid.n_p
        shape = (self.family.grid.n_x, self.family.grid.n_p)
        out = np.zeros((n, n), dtype=np.complex128)
        basis = np.zeros(shape, dtype=np.complex128)
        flat = basis.reshape(-1)
        for col in range(n):
            flat[col] = 1.0
            out[:, col] = self.apply_raw(basis).reshape(-1)
            flat[col] = 0.0
        return out


class KrausFamily:
    """Complete indexed family over one label representation.

    Kernels are derived from the unitary pointer coupling (all four label
    representations therefore give identical readout statistics and an
    exact resolution of identity).  The printed closed forms for two of the
    mixed representations disagree with the unitary route; see
    printed_kernel_discrepancy for the reported residuals.
    """

    def __init__(self, device: PhaseState, label_rep: str, grid: Grid2D = None, as_printed=False):
        if label_rep not in LABEL_REPS:
            raise ValueError(f"unknown label representation {label_rep!r}")
        self.device = device
        self.label_rep = label_rep
        self.grid = grid or device.grid
        self.as_printed = as_printed
        _require_matched(self.grid.x_axis, device.grid.x_axis, "x/X")
        _require_matched(self.grid.p_axis, device.grid.p_axis, "p/P")
        g, dgrid = self.grid, device.grid
        if label_rep == "X_P":
            self.work_flags = (False, False)
            self.kernel = device.with_conj((False, False)).amp
            self.label_values = (dgrid.x(), dgrid.p())
            self.label_measure = dgrid.dx * dgrid.dp
        elif label_rep == "X_piP":
            self.work_flags = (False, True)
            self.kernel = device.with_conj((False, True)).amp
            self.label_values = (dgrid.x(), dgrid.pi_p())
            self.label_measure = dgrid.dx * dgrid.p_axis.d_conj
        elif label_rep == "piX_P":
            self.work_flags = (False, False)
            self.kernel = device.with_conj((True, False)).amp
            self.label_values = (dgrid.pi_x(), dgrid.p())
            self.label_measure = dgrid.x_axis.d_conj * dgrid.dp
        else:  # piX_piP
            self.work_flags = (False, True)
            self.kernel = device.with_conj((True, True)).amp
            self.label_values = (dgrid.pi_x(), dgrid.pi_p())
            self.label_measure = dgrid.x_axis.d_conj * dgrid.p_axis.d_conj
        self.shape = (len(self.label_values[0]), len(self.label_values[1]))
        # index of the x = 0 cell: coordinate differences X - x are sampled
        # on the device lattice, whose origin sits i0 cells above vmin
        i0 = -g.x_min / g.dx
        if abs(i0 - round(i0)) > 1e-9:
            raise ValueError("x lattice must contain 0 for label-difference kernels")
        self._i0 = int(round(i0)) % g.n_x
        # integer cell offsets of device labels on the matched target lattice
        if label_rep in ("X_P", "piX_P"):
            self._p_offsets = [
                _shift_cells(Pv - 0.0, g.dp) for Pv in self.label_values[1]
            ]

    def __iter__(self):
        for a in range(self.shape[0]):
            for b in range(self.shape[1]):
                yield KrausOperator(self, a, b)

    def operator(self, a, b):
        return KrausOperator(self, a, b)

    def _apply(self, amp, a, b):
        n_x = self.grid.n_x
        rep = self.label_rep
        i0 = self._i0
        if rep == "X_P":
            rolled = np.roll(amp, -self._p_offsets[b], axis=1)
            mask = self.kernel[(a - np.arange(n_x) + i0) % n_x, b][:, None]
            return mask * rolled
        if rep == "X_piP":
            n_p = self.grid.n_p
            if self.as_printed:
                rows = (a + np.arange(n_x) - i0) % n_x
            else:
                rows = (a - np.arange(n_x) + i0) % n_x
            mask = self.kernel[rows][:, (b - np.arange(n_p)) % n_p]
            return mask * amp
        if rep == "piX_P":
            rolled = np.roll(amp, -self._p_offsets[b], axis=1)
            phase = np.exp(-1j * self.label_values[0][a] * self.grid.x())[:, None]
            return self.kernel[a, b] * phase * rolled
        # piX_piP
        n_p = self.grid.n_p
        mask = self.kernel[a, (b - np.arange(n_p)) % n_p][None, :]
        if self.as_printed:
            shift = _shift_cells(self.label_values[0][a], self.grid.dx)
            return mask * np.roll(amp, -shift, axis=0)
        phase = np.exp(-1j * self.label_values[0][a] * self.grid.x())[:, None]
        return mask * phase * amp

    def work_measure(self):
        ax0 = self.grid.x_axis
        ax1 = self.grid.p_axis
        m0 = ax0.d_conj if self.work_flags[0] else ax0.d
        m1 = ax1.d_conj if self.work_flags[1] else ax1.d
        return m0 * m1

    def completeness_sum(self) -> np.ndarray:
        """Diagonal of sum_labels M^dag M, accumulated label by label.

        Every member is a masked multiplication composed with a unitary
        shift or phase, so M^dag M is diagonal in the working
        representation; its eigenvalue array is accumulated over all labels
        (the inner label index is vectorized).
        """
        n_x, n_p = self.grid.n_x, self.grid.n_p
        dens = np.abs(self.kernel) ** 2
        total = np.zeros((n_x, n_p))
        rep = self.label_rep
        rows = np.arange(n_x)
        for a in range(self.shape[0]):
            if rep == "X_P":
                total += dens[(a - rows + self._i0) % n_x, :].sum(axis=1)[:, None]
            elif rep == "X_piP":
                idx = ((a + rows - self._i0) if self.as_printed else (a - rows + self._i0)) % n_x
                total += dens[idx, :].sum(axis=1)[:, None]
            else:  # piX_P and piX_piP: eigenvalue independent of the cell
                total += dens[a, :].sum()
        return total * self.label_measure

    def completeness_defect(self) -> float:
        return float(np.abs(self.completeness_sum() - 1.0).max())

    def joint_probabilities(self, phi: PhaseState) -> np.ndarray:
        """Label-wise probabilities by literal application of each member."""
        work = phi.with_conj(self.work_flags)
        measure = self.work_measure() * self.label_measure
        out = np.empty(self.shape)
        for a in range(self.shape[0]):
            for b in range(self.shape[1]):
                raw = self._apply(work.amp, a, b)
                out[a, b] = float(np.sum(np.abs(raw) ** 2)) * measure
        return out


def kraus_build(device: PhaseState, label_rep: str, grid: Grid2D = None, as_printed=False) -> KrausFamily:
    """Indexed operator family for one of the four label representations."""
    return KrausFamily(device, label_rep, grid, as_printed)


def apply_kraus(phi: PhaseState, m: KrausOperator, want_post=True):
    """Probability and normalized conditional state for one label.

    Raises ZeroMassSlice when a post state is requested on a label whose
    probability is below 1e-12.
    """
    work = phi.with_conj(m.family.work_flags)
    raw = m.apply_raw(work.amp)
    norm_sq = float(np.sum(np.abs(raw) ** 2)) * m.family.work_measure()
    prob = norm_sq * m.label_measure
    if not want_post:
        return prob, None
    if prob <= 1e-12:
        raise ZeroMassSlice(f"label {m.labels} carries no probability")
    post = work._clone(m.family.work_flags, raw / math.sqrt(norm_sq))
    return prob, post


def printed_kernel_discrepancy(device: PhaseState, phi: PhaseState) -> dict:
    """Gap between printed closed-form kernels and the unitary-route ones.

    The mixed-representation closed forms carry a sign asymmetry (X + x in
    place of X - x) and a lattice shift in place of a phase.  For each label
    representation two residuals are reported, not patched: the L1 gap of
    the label distributions and the L2 gap of the operators' action on the
    given state (summed over labels, label-measure weighted).
    """
    out = {}
    for rep in LABEL_REPS:
        oracle = kraus_build(device, rep, phi.grid)
        printed = kraus_build(device, rep, phi.grid, as_printed=True)
        prob_gap = float(
            np.abs(oracle.joint_probabilities(phi) - printed.joint_probabilities(phi)).sum()
        )
        work = phi.with_conj(oracle.work_flags)
        action = 0.0
        for a in range(oracle.shape[0]):
            for b in range(oracle.shape[1]):
                diff = oracle._apply(work.amp, a, b) - printed._apply(work.amp, a, b)
                action += float(np.sum(np.abs(diff) ** 2)) * oracle.work_measure()
        out[rep] = {
            "probability_l1": prob_gap,
            "action_l2": math.sqrt(action * oracle.label_measure),
        }
    return out


# ---------------------------------------------------------------------------
# quantum pointer model (1D target, 1D pointer)
# ---------------------------------------------------------------------------


def quantum_gaussian(axis: Axis, x0, sigma):
    vals = axis.coords()
    amp = np.exp(-((vals - x0) ** 2) / (4.0 * sigma**2)).astype(np.complex128)
    return amp / math.sqrt(float(np.sum(np.abs(amp) ** 2)) * axis.d)


def quantum_point(axis: Axis, x0):
    amp = np.zeros(axis.n, dtype=np.complex128)
    amp[int(round((x0 - axis.vmin) / axis.d)) % axis.n] = 1.0 / math.sqrt(axis.d)
    return amp


def _origin_index(axis: Axis):
    i0 = -axis.vmin / axis.d
    if abs(i0 - round(i0)) > 1e-9:
        raise ValueError("axis must contain 0 for pointer-difference kernels")
    return int(round(i0)) % axis.n


def quantum_pointer_couple(phi, eta, axis: Axis):
    """Quantum pointer coupling: psi(x, X) = phi(x) * eta(X - x)."""
    n = axis.n
    i0 = _origin_index(axis)
    shifted = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        shifted[i] = np.roll(eta, i - i0)
    return phi[:, None] * shifted


def quantum_readout(psi2, axis: Axis) -> MeasurementRecord:
    probs = (np.abs(psi2) ** 2).sum(axis=0) * axis.d * axis.d
    return MeasurementRecord("X", axis.coords(), probs)


def _momentum_density(amp, axis: Axis):
    tilde = np.fft.fft(amp) / math.sqrt(axis.n)
    dens = np.abs(tilde) ** 2 * (axis.d / axis.d_conj)
    return dens


def quantum_simultaneity_probe(phi, eta, axis: Axis, mass_floor=_MASS_FLOOR):
    """(prop1 residual, prop2-after-instantiation residual) for the quantum model.

    prop1 compares the pointer conditional given target position with the
    shifted initial pointer density (it holds).  The second number repeats
    the classical instantiated probe: after the pointer is read at its
    modal cell, the target p-conditional given device P is compared with
    the shifted initial p-marginal.  Reading the pointer destroys the
    momentum correlations, so this residual stays bounded away from zero
    for any spread phi, eta.
    """
    psi = quantum_pointer_couple(phi, eta, axis)
    dens = np.abs(psi) ** 2
    eta_dens = np.abs(eta) ** 2

    res1 = 0.0
    i0 = _origin_index(axis)
    x_marg = dens.sum(axis=1) * axis.d
    for i in range(axis.n):
        if x_marg[i] * axis.d <= mass_floor:
            continue
        cond = dens[i] / (dens[i].sum() * axis.d)
        ref = np.roll(eta_dens, i - i0)
        ref = ref / (ref.sum() * axis.d)
        res1 = max(res1, float(np.abs(cond - ref).sum()) * axis.d)

    # instantiate proposition 1: project the pointer onto its modal cell
    probs = dens.sum(axis=0)
    a0 = int(np.argmax(probs))
    post = psi[:, a0].copy()
    post /= math.sqrt(float(np.sum(np.abs(post) ** 2)) * axis.d)
    post_p = _momentum_density(post, axis)
    ref_p = _momentum_density(phi, axis)
    # device collapsed to a point: every P cell is equally likely, and the
    # target p-conditional no longer depends on P
    res2 = 0.0
    for k in range(axis.n):
        shifted = np.roll(ref_p, -k)
        res2 = max(res2, float(np.abs(post_p - shifted).sum()) * axis.d_conj)
    return res1, res2
