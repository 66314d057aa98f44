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
the post-measurement state of a readout cell (post_state) carries the
conditional density with zero phase (phases of conditionals are convention
dependent), whereas the device-integrated operator family yields true
amplitudes.
"""

from __future__ import annotations

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
    conditional,
    joint_density,
    marginal,
    product_state,
    to_representation,
)
from .stateio import write_csv, write_json

_MASS_FLOOR = 1e-10
READOUT_AXES = ("X", "P", "pi_X", "pi_P")


@dataclass
class MeasurementRecord:
    """Readout values and their probabilities."""

    readout_axis: str
    values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        total = float(self.probabilities.sum())
        if (self.probabilities < -1e-12).any() or abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must be a distribution (sum={total})")

    def to_csv(self, path):
        return write_csv(path, ("value", "probability"), zip(self.values, self.probabilities))

    def to_json(self, path, **metadata):
        payload = dict(metadata)
        payload["readout_axis"] = self.readout_axis
        payload["values"] = [float(v) for v in self.values]
        payload["probabilities"] = [float(p) for p in self.probabilities]
        return write_json(path, payload)


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


def _require_readout(axis):
    if axis not in READOUT_AXES:
        raise ValueError(f"not a device axis: {axis!r}")


def readout(s: BipartiteState, axis: str) -> MeasurementRecord:
    """Projective readout of one device axis: probabilities are the
    marginal density times the cell measure."""
    _require_readout(axis)
    dens = marginal(s, (axis,))
    return MeasurementRecord(axis, dens.values[0], dens.array * dens.measures[0])


def post_state(s: BipartiteState, axis: str, value) -> PhaseState:
    """Conditional target state given one device-axis cell (density-level:
    amplitude sqrt(density), zero phase); ZeroMassSlice if the cell carries
    no probability (1e-12 or less)."""
    _require_readout(axis)
    cond = conditional(s, axis, value).marginalize(("x", "p"))
    amp = np.sqrt(np.maximum(cond.array, 0.0))
    return PhaseState(s.target_grid, "xp", amp).normalized()


def _shifted_residual(joint, values, measures, ref, sign, mass_floor):
    """Largest L1 gap between a row conditional and a shifted reference.

    ``joint[i, u]`` is a density over a conditioning cell i, at
    ``values[i]``, and a conditioned cell u; ``measures`` are their cell
    measures.  Every row whose mass exceeds ``mass_floor`` is normalized
    and compared with ``ref`` moved by sign * values[i], in whole cells of
    the conditioned axis.
    """
    marg = joint.sum(axis=1) * measures[1]
    keep = marg * measures[0] > mass_floor
    shifts = sign * np.rint(values[keep] / measures[1]).astype(int)
    u = np.arange(joint.shape[1])
    gap = np.abs(joint[keep] / marg[keep, None] - ref[(u - shifts[:, None]) % len(u)])
    return float(gap.sum(axis=1).max(initial=0.0)) * measures[1]


def check_simultaneity(
    s_after: BipartiteState,
    target_init: PhaseState,
    device_init: PhaseState,
    mass_floor=_MASS_FLOOR,
):
    """Residuals of the relative-state propositions on the coupled state.

    prop1: the device X-conditional given target x equals the initial device
    X-marginal shifted by +x.  prop2: the target p-conditional given device
    P equals the initial target p-marginal shifted by -P.  instantiated:
    prop2 after instantiating prop1, on the coupled state conditioned on the
    modal pointer cell (the needle has been read); classically it survives
    the readout, and it is the probe the quantum model fails.  All three
    are max-over-cell L1 distances, skipping cells below the mass floor,
    and come from one joint density.  Returns (prop1, prop2, instantiated).
    """
    _require_matched(target_init.grid.x_axis, device_init.grid.x_axis, "x/X")
    _require_matched(target_init.grid.p_axis, device_init.grid.p_axis, "p/P")

    # a standalone device state names its pointer axes locally (x, p)
    ref_X = marginal(device_init, ("x",))
    joint = joint_density(s_after, s_after.axis_names)
    xX = joint.marginalize(("x", "X"))
    res1 = _shifted_residual(xX.array, xX.values[0], xX.measures, ref_X.array, 1, mass_floor)
    pointer = joint.marginalize(("X",))
    X0 = pointer.values[0][int(np.argmax(pointer.array))]
    return (res1, _prop2_residual(joint, target_init, mass_floor),
            _prop2_residual(joint.condition("X", X0), target_init, mass_floor))


def _prop2_residual(dens, target_init, mass_floor):
    """Proposition 2 on a density with p and P among its axes: the largest
    L1 gap between the p-conditional given P and the initial target
    p-marginal shifted by -P."""
    ref_p = marginal(target_init, ("p",))
    pP = dens.marginalize(("p", "P"))
    return _shifted_residual(pP.array.T, pP.values[1], pP.measures[::-1], ref_p.array, -1,
                             mass_floor)


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

    ``apply_raw`` maps a target amplitude (in the family's working
    representation) to the unnormalized conditional amplitude.
    """

    def __init__(self, family, a, b):
        self.family = family
        self.indices = (a, b)
        self.labels = (family.label_values[0][a], family.label_values[1][b])

    def apply_raw(self, amp):
        return self.family._apply(amp, *self.indices)


class KrausFamily:
    """Complete indexed family over one label representation.

    Kernels are derived from the unitary pointer coupling (all four label
    representations therefore give identical readout statistics and an
    exact resolution of identity).  The printed closed forms for two of the
    mixed representations disagree with this route; printed_kernel_discrepancy
    reports by how much.

    A label representation is two independent choices: the row label is X
    or pi_X (``_pi_x``) and the column label is P or pi_P (``_pi_p``);
    ``label_axes`` names the two, e.g. ("pi_X", "P") for piX_P.  The
    kernel K is the device amplitude with those axes, and the family works
    on the target in (x, p), or (x, pi_p) under pi_P.  Member (a, b) is
    built by one row rule and one column rule:

    - an X row reads K at a - i + i0 for target cell i (i0: the x = 0 cell);
    - a pi_X row is K's row a times exp(-i pi_X x);
    - a P column is K's column b, with the target rolled by b's cell offset;
    - a pi_P column reads K at b - j for target cell j.

    Every member is thus a mask taken from K times a unitary shift or
    phase, so M_ab^dag M_ab is diagonal in the working representation,
    holding |K|^2 at that member's kernel cells.  The family's statistics
    follow in closed form from that (completeness_sum,
    joint_probabilities); _apply applies one member.
    """

    def __init__(self, device: PhaseState, label_rep: str, grid: Grid2D = None):
        if label_rep not in LABEL_REPS:
            raise ValueError(f"unknown label representation {label_rep!r}")
        self.device = device
        self.label_rep = label_rep
        self.grid = grid or device.grid
        _require_matched(self.grid.x_axis, device.grid.x_axis, "x/X")
        _require_matched(self.grid.p_axis, device.grid.p_axis, "p/P")
        self._pi_x, self._pi_p = label_rep.startswith("piX"), label_rep.endswith("piP")
        # the device axes that carry the labels, as a coupled state names them
        self.label_axes = ("pi_X" if self._pi_x else "X", "pi_P" if self._pi_p else "P")
        labels = device.with_conj((self._pi_x, self._pi_p))
        self.kernel = labels.amp
        self.label_values = (labels.axis_values(0), labels.axis_values(1))
        self.label_measure = labels.cell_measure()
        self.shape = self.kernel.shape
        self.work_flags = (False, self._pi_p)
        # index of the x = 0 cell: coordinate differences X - x are sampled
        # on the device lattice, whose origin sits i0 cells above vmin
        self._i0 = _origin_index(self.grid.x_axis)
        if not self._pi_p:
            # integer cell offsets of device P labels on the matched target lattice
            self._p_offsets = np.rint(self.label_values[1] / self.grid.dp).astype(int)

    def __iter__(self):
        return (KrausOperator(self, a, b) for a, b in np.ndindex(*self.shape))

    def operator(self, a, b):
        return KrausOperator(self, a, b)

    def _apply(self, amp, a, b):
        n_x, n_p = self.grid.n_x, self.grid.n_p
        if self._pi_p:
            cols = (b - np.arange(n_p)) % n_p
        else:
            cols = slice(b, b + 1)
            amp = np.roll(amp, -self._p_offsets[b], axis=1)
        if not self._pi_x:
            return self.kernel[:, cols][(a - np.arange(n_x) + self._i0) % n_x] * amp
        phase = np.exp(-1j * self.label_values[0][a] * self.grid.x())[:, None]
        return self.kernel[a:a + 1, cols] * phase * amp

    def work_measure(self):
        return self.grid.dx * (self.grid.p_axis.d_conj if self._pi_p else self.grid.dp)

    def completeness_sum(self) -> np.ndarray:
        """Diagonal of sum_labels M^dag M in the working representation.

        M_ab^dag M_ab holds |K|^2 at member (a, b)'s kernel cells.  At a
        fixed target cell, each label map is a bijection of the label
        index, so the labels visit every kernel cell once and every cell
        holds sum |K|^2 * label_measure: 1 for a normalized device.
        """
        total = float(np.sum(np.abs(self.kernel) ** 2)) * self.label_measure
        return np.full((self.grid.n_x, self.grid.n_p), total)

    def completeness_defect(self) -> float:
        return float(np.abs(self.completeness_sum() - 1.0).max())

    def joint_probabilities(self, phi: PhaseState) -> np.ndarray:
        """Label-wise probabilities as one 2D circular convolution.

        p(a, b) sums |K|^2 at member (a, b)'s kernel cells against
        rho = |phi|^2 in the working representation, which is
        ifft2(fft2(|K|^2') * fft2(rho')).  A label index that only picks a
        kernel row (pi_X) or column (P) sees rho summed along its target
        axis and placed at index 0.  The X rows (a - i + i0) roll |K|^2 by
        -i0.  FFT round-off is clipped at 0.
        """
        rho = np.abs(phi.with_conj(self.work_flags).amp) ** 2
        k2 = np.abs(self.kernel) ** 2
        rows, cols = np.indices(rho.shape, sparse=True)
        if self._pi_x:
            rho = np.where(rows == 0, rho.sum(axis=0, keepdims=True), 0.0)
        else:
            k2 = np.roll(k2, -self._i0, axis=0)
        if not self._pi_p:
            rho = np.where(cols == 0, rho.sum(axis=1, keepdims=True), 0.0)
        probs = np.fft.ifft2(np.fft.fft2(k2) * np.fft.fft2(rho)).real
        return np.maximum(probs, 0.0) * (self.work_measure() * self.label_measure)


def kraus_build(device: PhaseState, label_rep: str, grid: Grid2D = None) -> KrausFamily:
    """Indexed operator family for one of the four label representations."""
    return KrausFamily(device, label_rep, grid)


def apply_kraus(phi: PhaseState, m: KrausOperator, want_post=True):
    """Probability and normalized conditional state for one label.

    Raises ZeroMassSlice when a post state is requested on a label whose
    probability is below 1e-12.
    """
    work = phi.with_conj(m.family.work_flags)
    raw = m.apply_raw(work.amp)
    norm_sq = float(np.sum(np.abs(raw) ** 2)) * m.family.work_measure()
    prob = norm_sq * m.family.label_measure
    if not want_post:
        return prob, None
    if prob <= 1e-12:
        raise ZeroMassSlice(f"label {m.labels} carries no probability")
    post = work._clone(m.family.work_flags, raw / math.sqrt(norm_sq))
    return prob, post


def printed_kernel_discrepancy(device: PhaseState, phi: PhaseState) -> dict:
    """Gap between printed closed-form kernels and the unitary-route ones.

    The mixed-representation closed forms carry a sign asymmetry (X + x in
    place of X - x) and a lattice shift in place of a phase.  Two residuals
    are reported per label representation, not patched: the L1 gap of the
    label distributions and the L2 gap of the operators' action on phi
    (summed over labels, label-measure weighted).  Both are closed forms in
    the unitary family's kernel K:

    - X_P, piX_P: under a P column the printed family is the unitary one.
    - X_piP: a printed member is R M R, M the unitary member and R the
      reflection i -> 2 i0 - i of the target's x cells about x = 0, so the
      probability gap is |P(phi) - P(R phi)|_1.  The action gap sums
      rho_x(i) (the density summed over pi_p) times 2 sum|K|^2 - 2 Re C(s),
      with C(s) = sum_ab K[a + s, b] conj K[a, b] and s = 2 (i - i0); by
      Parseval that is (4 / n_x) sum_kb |F[k, b]|^2 sin^2(pi k s / n_x), F
      the FFT of K along X, whose terms are non-negative and 0 at s = 0.
    - piX_piP: a whole-cell roll of the target keeps each member's
      probability, so that gap is 0.0.  The action gap is
      sum_a r_a |exp(-i pi_a x) phi - roll(phi, -s_a)|^2 with r_a the row
      sums of |K|^2 and s_a = rint(pi_a / dx), each norm taken as
      2 |phi|^2 - 2 Re sum_i exp(i pi_a x_i) G[i, i + s_a] from the Gram
      matrix G of phi's x rows.
    """
    out = {rep: {"probability_l1": 0.0, "action_l2": 0.0} for rep in LABEL_REPS}
    grid, cells = phi.grid, np.arange(phi.grid.n_x)
    fam = kraus_build(device, "X_piP", grid)
    work = phi.with_conj(fam.work_flags)
    mirror = work._clone(work.conj_flags, work.amp[(2 * fam._i0 - cells) % grid.n_x])
    probs = fam.joint_probabilities(work) - fam.joint_probabilities(mirror)
    power = (np.abs(np.fft.fft(fam.kernel, axis=0)) ** 2).sum(axis=1)
    rho_x = work.density().sum(axis=1)
    steps = np.outer(cells - fam._i0, cells) % grid.n_x
    action = rho_x @ np.sin(2.0 * math.pi / grid.n_x * steps) ** 2 @ power
    out["X_piP"] = {"probability_l1": float(np.abs(probs).sum()), "action_l2": math.sqrt(
        float(action) * 4.0 / grid.n_x * fam.work_measure() * fam.label_measure)}

    fam = kraus_build(device, "piX_piP", grid)
    pi_x = fam.label_values[0]
    gram = work.amp.conj() @ work.amp.T
    shifted = gram[cells, (cells + np.rint(pi_x / grid.dx).astype(int)[:, None]) % grid.n_x]
    overlaps = (np.exp(1j * np.outer(pi_x, grid.x())) * shifted).sum(axis=1).real
    action = (np.abs(fam.kernel) ** 2).sum(axis=1) @ (2.0 * rho_x.sum() - 2.0 * overlaps)
    # the Gram form cancels, so a gap of 0 can come out just below 0
    out["piX_piP"]["action_l2"] = math.sqrt(
        max(float(action), 0.0) * fam.work_measure() * fam.label_measure)
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
    u = np.arange(axis.n)
    return phi[:, None] * eta[(u - u[:, None] + _origin_index(axis)) % axis.n]


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
    ref = eta_dens / (eta_dens.sum() * axis.d)
    res1 = _shifted_residual(dens, axis.coords(), (axis.d, axis.d), ref, 1, mass_floor)

    # instantiate proposition 1: project the pointer onto its modal cell
    probs = dens.sum(axis=0)
    a0 = int(np.argmax(probs))
    post = psi[:, a0].copy()
    post /= math.sqrt(float(np.sum(np.abs(post) ** 2)) * axis.d)
    post_p = _momentum_density(post, axis)
    ref_p = _momentum_density(phi, axis)
    # device collapsed to a point: every P cell is equally likely, and the
    # target p-conditional no longer depends on P
    k = np.arange(axis.n)
    shifted = ref_p[(k[None, :] + k[:, None]) % axis.n]  # row k: ref_p moved by -k
    res2 = float(np.abs(post_p - shifted).sum(axis=1).max()) * axis.d_conj
    return res1, res2
