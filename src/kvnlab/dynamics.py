"""Split-operator propagation on the phase-space lattice.

Every propagator is a product of shears.  For H = T(p) + V(x) the classical
generator splits into exp(-i dt T'(p) pi_x), which moves x by dt*T'(p), and
exp(+i dt V'(x) pi_p), which moves p by -dt*V'(x); the pointer coupling
lambda*x*P moves p by -lambda*t*P and X by lambda*t*x.  Each factor is a
pure phase where its own axis is conjugate and every other axis is a
coordinate, so one engine applies them all as ifft(fft(a) * phase) along
that axis; the axis phases of the representation changes cancel and are
never formed.  The propagators are unitary to machine precision, and for
quadratic T and V Strang splitting is second order.

Where no observer needs the state in between, factors on the same axis
with the same generator fuse: a V = 0 flight of n steps is one shear per
subsystem, and the Strang half kicks of neighbouring steps merge.  With
hbar = 0 every factor, fused or not, is checked before it is applied: it
may wrap at most 1e-6 of the probability around the periodic box, and since
a shear is linear in its duration, a fused check covers every step it
replaced.  Each factor carries the error its guard raises: UnstablePlan
for the propagators' shears, ShiftOverflow for the pointer coupling.  The
pulsed run is one such program, so its device flight, which commutes with
the coupling, is one shear.

A factor on an array of at least 2**17 elements runs on every usable core:
the array is cut along another axis into one block per core, and the
blocks run in a thread pool started by the first such factor.  Each block
computes the same 1-D transforms and products as the whole array, so the
result is bit-identical to the serial one.  The usable cores are the
process's CPU affinity, so ``taskset -c 0`` keeps every factor serial.

The hbar-deformed propagator evolves H(x + a*hbar*pi_p, p + b*hbar*pi_x)
with (a, b) fixed by a deformation convention.  Its factors carry a pi^2
term, so they are not pure shears: they do not fuse across steps, and each
step may grow the boundary-shell mass by at most 1e-6.  The
state-independent diagonal phase exp(-i H(x,p) dt / hbar), which diverges
as hbar -> 0 and carries no observable content in this frame, is factored
out so the classical limit is numerically meaningful.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import algebra
from .errors import (
    IllegalHamiltonian,
    ShiftOverflow,
    UnstablePlan,
    UnsupportedHamiltonian,
)
from .phasespace import PhaseState, boundary_mass, l2_distance

DEFORM_CONVENTIONS = {name: (float(a), float(b)) for name, (a, b) in algebra.DEFORM_CONVENTIONS.items()}

_BOUNDARY_GROWTH_LIMIT = 1e-6
_WRAP_LIMIT = 1e-6

# A factor on at least this many elements runs in one block per usable core.
# Serial time over two-thread time of one factor, ifft(fft(a) * phase) along
# each axis, best of 5, on a 2-vCPU Intel Xeon KVM guest with numpy 2.4:
#   64^2 0.20 | 128^2 0.46-0.58 | 256^2 0.82-1.32 | 512^2 1.32-1.40
#   16^4 0.91-1.54 | 32^4 1.63-1.82
# 2**17 keeps 256^2 and 16^4 (2**16), where threads lose or barely win, serial.
_PARALLEL_MIN = 1 << 17

_pool = None  # (executor or None, cores), made by the first large factor
_pool_lock = threading.Lock()


def _drop_pool():
    # a forked child inherits the executor but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _executor():
    """The thread pool for the extra blocks of a factor, and the core count."""
    global _pool
    with _pool_lock:
        if _pool is None:
            cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
            executor = None
            if cores > 1:
                from concurrent.futures import ThreadPoolExecutor

                executor = ThreadPoolExecutor(cores - 1, thread_name_prefix="kvnlab-shear")
            _pool = (executor, cores)
        return _pool


@dataclass(frozen=True)
class HamiltonianSpec:
    """Separable quadratic Hamiltonian T(p) + V(x), optional bilinear coupling.

    ``kinetic`` and ``potential`` are coefficient triples (c0, c1, c2) of
    c0 + c1*u + c2*u^2; kinetic defaults to p^2/(2*mass).  ``coupling`` is
    the strength of a single lambda*x*P target-device term.
    """

    mass: float = 1.0
    kinetic: tuple = None
    potential: tuple = (0.0, 0.0, 0.0)
    coupling: float = None

    def __post_init__(self):
        if not self.mass > 0:
            raise IllegalHamiltonian(f"mass must be positive, got {self.mass}")
        for name in ("kinetic", "potential"):
            coeffs = getattr(self, name)
            if coeffs is None:
                continue
            coeffs = tuple(float(c) for c in coeffs)
            if len(coeffs) > 3:
                raise UnsupportedHamiltonian(f"{name} degree above 2 is not supported")
            coeffs = coeffs + (0.0,) * (3 - len(coeffs))
            object.__setattr__(self, name, coeffs)
        if self.coupling is not None:
            object.__setattr__(self, "coupling", float(self.coupling))

    @classmethod
    def free(cls, mass=1.0):
        return cls(mass=mass)

    @classmethod
    def harmonic(cls, mass=1.0, omega=1.0):
        return cls(mass=mass, potential=(0.0, 0.0, 0.5 * mass * omega**2))

    @classmethod
    def zero(cls):
        return cls(kinetic=(0.0, 0.0, 0.0))

    def kinetic_coeffs(self):
        if self.kinetic is not None:
            return self.kinetic
        return (0.0, 0.0, 1.0 / (2.0 * self.mass))

    def t_prime(self, p):
        c = self.kinetic_coeffs()
        return c[1] + 2.0 * c[2] * p

    def v_prime(self, x):
        c = self.potential
        return c[1] + 2.0 * c[2] * x

    def to_operator_expr(self, subsystem="target"):
        """Exact symbolic form of T + V on the chosen subsystem's generators."""
        q, mom = (algebra.x, algebra.p) if subsystem == "target" else (algebra.X, algebra.P)
        out = algebra.OperatorExpr.zero()
        for coeffs, g in ((self.kinetic_coeffs(), mom), (self.potential, q)):
            acc = algebra.OperatorExpr.one()
            for k, c in enumerate(coeffs):
                if c:
                    out = out + acc.scaled(Fraction(c))
                acc = algebra.multiply(acc, g)
        return out


@dataclass(frozen=True)
class PropagationPlan:
    """Time step, step count, splitting order, and the deformation hbar."""

    dt: float
    n_steps: int
    splitting: str = "strang"
    hbar: float = 0.0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.splitting not in ("strang", "lie"):
            raise ValueError(f"unknown splitting {self.splitting!r}")
        if self.hbar < 0:
            raise ValueError("hbar must be >= 0")


@dataclass(frozen=True)
class _Shear:
    """The factor exp(-i*tau*(shift*k + curv*k^2)), k conjugate to ``axis``.

    ``shift`` (singleton at ``axis``) is how far the ``axis`` coordinate
    moves per unit time; ``curv`` is the pi^2 coefficient of a deformed
    factor, 0 for a pure shear; ``label`` names the factor in guard errors
    and ``error`` is the type they raise.
    """

    axis: int
    shift: np.ndarray
    tau: float
    curv: float = 0.0
    label: str = "shear"
    error: type = UnstablePlan

    def deps(self):
        return {i for i, n in enumerate(self.shift.shape) if n > 1} | {self.axis}

    def merges_with(self, other):
        return (self.axis, self.curv) == (other.axis, other.curv) and self.shift is other.shift

    def commutes_with(self, other):
        # both are diagonal where their own axis is conjugate and every axis
        # they depend on is a coordinate; a common such representation exists
        return self.axis == other.axis or (
            self.axis not in other.deps() and other.axis not in self.deps()
        )


def _along(values, i, ndim):
    view = [1] * ndim
    view[i] = len(values)
    return np.reshape(values, view)


def _fuse(factors):
    """Merge each factor into the latest earlier one with the same generator,
    provided it commutes with every factor in between; durations add."""
    out = []
    for f in factors:
        for j in range(len(out) - 1, -1, -1):
            if out[j].merges_with(f):
                out[j] = replace(out[j], tau=out[j].tau + f.tau)
                break
            if not out[j].commutes_with(f):
                out.append(f)
                break
        else:
            out.append(f)
    return out


def _wrapped_cells(shape, axis, dim, shift):
    """Flat indices of the cells that u -> u + shift along ``dim`` carries
    past an end of ``axis``; an edge cell counts for any shift towards its
    edge, since a sub-cell spectral shift already wraps part of it."""
    landed = _along(np.arange(axis.n), dim, len(shape)) + shift / axis.d
    outside = (landed < 0) | (landed > axis.n - 1)
    return np.flatnonzero(np.broadcast_to(outside, shape))


def _compile(f, axis, shape, check_wrap):
    """The phase array of ``f`` and, when guarded, the cells it wraps."""
    k = _along(axis.conj_coords(), f.axis, len(shape))
    arg = f.shift * k if not f.curv else f.shift * k + f.curv * k**2
    cells = _wrapped_cells(shape, axis, f.axis, f.tau * f.shift) if check_wrap else None
    return np.exp(-1j * f.tau * arg), cells


def _apply(src, dst, axis, phase):
    """dst = ifft(fft(src) * phase) along ``axis``; ``dst`` may be ``src``.

    An array of at least _PARALLEL_MIN elements is cut along axis 0 (axis 1
    when ``axis`` is 0) into one block per usable core; the calling thread
    runs the first block and the pool the others.
    """
    executor, cores = _executor() if src.size >= _PARALLEL_MIN else (None, 1)
    cut = 1 if axis == 0 else 0
    n = src.shape[cut]
    parts = min(cores, n)
    edges = [n * i // parts for i in range(parts + 1)]

    def block(lo, hi):
        idx = (slice(None),) * cut + (slice(lo, hi),)
        out = np.fft.fft(src[idx], axis=axis, out=dst[idx])
        out *= phase[idx] if phase.shape[cut] > 1 else phase
        np.fft.ifft(out, axis=axis, out=out)

    futures = [executor.submit(block, lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
    try:
        block(edges[0], edges[1])
    finally:
        for fut in futures:
            fut.result()


def _propagate(s, steps, after_step=None, check_wrap=True):
    """Apply ``steps``, each a list of shears, to the field ``s``.

    Between factors the amplitude stays in the all-coordinate
    representation, so a factor is ifft(fft(a) * phase) along its axis.
    ``after_step(i, amp)`` runs after step i.  Without it, pure shears of
    all steps fuse.  With ``check_wrap`` each factor first checks the wrap
    mass of the density it is applied to and raises its ``error`` above 1e-6.
    """
    coord = s.with_conj((False,) * len(s.conj_flags))
    axes, amp = coord.axes(), coord.amp
    if after_step is None and not any(f.curv for step in steps for f in step):
        steps = [_fuse([f for step in steps for f in step])]
    compiled = {}
    for i, step in enumerate(steps):
        for f in step:
            key = (f.axis, id(f.shift), f.tau, f.curv)
            if key not in compiled:
                compiled[key] = _compile(f, axes[f.axis], amp.shape, check_wrap)
            phase, cells = compiled[key]
            if cells is not None:
                wrapped = amp.ravel()[cells]
                mass = float(np.sum(wrapped.real**2 + wrapped.imag**2)) * coord.cell_measure()
                if mass > _WRAP_LIMIT:
                    raise f.error(f"{f.label} wraps {mass:.3e} of the mass around the "
                                  f"{coord.axis_names[f.axis]} range")
            # an array handed to an observer is frozen; write a fresh one then
            out = amp if amp.flags.writeable else np.empty_like(amp)
            _apply(amp, out, f.axis, phase)
            amp = out
        if after_step is not None:
            after_step(i, amp)
    return coord if amp is coord.amp else coord._clone(coord.conj_flags, amp)


def _generators(axes, subsystems, hbar=0.0, a=-1.0, b=1.0):
    """The unit-time factors of H: (kinetic shears, potential kicks).

    ``subsystems`` pairs the x-axis index of each subsystem (its p axis is
    the next one) with its HamiltonianSpec or None.  The defaults (a, b) give
    the classical factors: x moves by T'(p), p by -V'(x).  Steps built from
    one call share their shift arrays, so their factors can fuse.
    """
    nd = len(axes)
    kinetic, potential = [], []
    for ix, h in subsystems:
        if h is None:
            continue
        ip = ix + 1
        tc, vc = h.kinetic_coeffs(), h.potential
        if tc[1] or tc[2]:
            kinetic.append(_Shear(ix, _along(b * h.t_prime(axes[ip].coords()), ip, nd),
                                  1.0, b * b * hbar * tc[2], "kinetic shear"))
        if vc[1] or vc[2]:
            potential.append(_Shear(ip, _along(a * h.v_prime(axes[ix].coords()), ix, nd),
                                    1.0, a * a * hbar * vc[2], "potential kick"))
    return kinetic, potential


def _split_step(generators, dt, splitting):
    """The shears of one split step of ``dt``."""
    kinetic, potential = generators
    kinetic = [replace(f, tau=dt) for f in kinetic]
    if splitting == "lie":
        return kinetic + [replace(f, tau=dt) for f in potential]
    half = [replace(f, tau=0.5 * dt) for f in potential]
    return half + kinetic + half


def _flight(generators, duration, plan):
    """Split steps of about ``plan.dt`` that make up ``duration``."""
    n = max(1, round(duration / plan.dt))
    return [_split_step(generators, duration / n, plan.splitting)] * n


def _coupling(axes, lam_t):
    """The commuting shears of exp(-i lam_t L), L the generator of x*P."""
    return [
        _Shear(1, _along(-axes[3].coords(), 3, 4), lam_t, label="momentum kick",
               error=ShiftOverflow),
        _Shear(2, _along(axes[0].coords(), 0, 4), lam_t, label="pointer shift",
               error=ShiftOverflow),
    ]


def _evolve_2d(s, h, plan, hbar, a, b, observer, check_stability):
    grid = s.grid
    step = _split_step(_generators(s.axes(), ((0, h),), hbar, a, b), plan.dt, plan.splitting)
    band_check = check_stability and hbar != 0.0
    band = boundary_mass(s) if band_check else 0.0

    def after_step(i, amp):
        nonlocal band
        state = PhaseState(grid, "xp", amp)
        if band_check:
            new_band = boundary_mass(state)
            if new_band - band > _BOUNDARY_GROWTH_LIMIT:
                raise UnstablePlan(f"boundary mass grew by {new_band - band:.3e} in step {i}")
            band = new_band
        if observer is not None:
            observer(i, state)

    watched = observer is not None or band_check
    return _propagate(s, [step] * plan.n_steps, after_step if watched else None,
                      check_wrap=check_stability and hbar == 0.0)


def kvn_evolve(s, h, plan, observer=None, check_stability=True):
    """Propagate a phase-space state with the classical generator.

    Returns the state in the xp representation.  ``observer(step, state)``
    is called after every step with the xp state; without one, adjacent
    factors fuse across steps.  Raises UnstablePlan when a shear would wrap
    more than 1e-6 of the probability around the periodic box.
    """
    if plan.hbar != 0.0:
        raise ValueError("kvn_evolve requires a plan with hbar=0")
    if h.coupling is not None:
        raise IllegalHamiltonian("coupled Hamiltonians need a bipartite state")
    return _evolve_2d(s, h, plan, 0.0, -1.0, 1.0, observer, check_stability)


def qm_evolve(s, h, plan, convention="full_appendixE", observer=None, check_stability=True):
    """Propagate with the hbar-deformed generator H(x_h, p_h).

    ``plan.hbar == 0`` degenerates to kvn_evolve exactly.  The sign
    convention fixes (a, b) in x_h = x + a*hbar*pi_p, p_h = p + b*hbar*pi_x.
    For hbar > 0, raises UnstablePlan when one step grows the boundary-shell
    mass by more than 1e-6.
    """
    if convention not in DEFORM_CONVENTIONS:
        raise ValueError(f"unknown deformation convention {convention!r}")
    if h.coupling is not None:
        raise IllegalHamiltonian("coupled Hamiltonians need a bipartite state")
    if plan.hbar == 0.0:
        return kvn_evolve(s, h, PropagationPlan(plan.dt, plan.n_steps, plan.splitting, 0.0),
                          observer, check_stability)
    a, b = DEFORM_CONVENTIONS[convention]
    return _evolve_2d(s, h, plan, plan.hbar, a, b, observer, check_stability)


def couple_evolve(s, coupling, t, check_wrap=True):
    """Exact bipartite propagator for the pointer Hamiltonian lambda*x*P.

    Applies exp(-i L t) with L the four-term generator of lambda*x*P: the
    commuting shears p -> p - lambda*t*P and X -> X + lambda*t*x, so one
    application is exact for any t.  Raises ShiftOverflow when a shear
    would wrap more than 1e-6 of the probability around the periodic box
    (``check_wrap=False`` skips the guard and accepts the periodic
    identification).
    """
    lam_t = float(coupling) * float(t)
    if lam_t == 0.0:
        return s
    return _propagate(s, [_coupling(s.axes(), lam_t)], check_wrap=check_wrap)


def free_evolve_bipartite(s, h_target, h_device, duration, plan):
    """Uncoupled evolution of target and device for ``duration``.

    Runs split steps of about ``plan.dt``.  Nothing observes the state in
    between, so the steps fuse: with V = 0 the flight is one shear per
    subsystem.  Raises UnstablePlan when a shear would wrap more than 1e-6
    of the probability around the periodic box.
    """
    if duration == 0.0:
        return s
    generators = _generators(s.axes(), ((0, h_target), (2, h_device)))
    return _propagate(s, _flight(generators, duration, plan))


def pulsed_propagator(s, h_target, h_device, eps, t1, t_total, plan):
    """Free motion to t1, impulsive pointer coupling of strength eps, free motion after.

    Composition order: U0(t_total - t1) * exp(-i eps (coupling generator)) * U0(t1),
    with the split steps of free_evolve_bipartite and the shears of
    couple_evolve, run as one engine program: the device flight commutes
    with the coupling, so its two halves fuse.  Raises UnstablePlan when a
    free-flight shear, ShiftOverflow when a coupling shear would wrap more
    than 1e-6 of the probability around the periodic box.
    """
    if not 0.0 < t1 < t_total:
        raise ValueError("need 0 < t1 < t_total")
    generators = _generators(s.axes(), ((0, h_target), (2, h_device)))
    pulse = [_coupling(s.axes(), eps)] if eps != 0.0 else []
    return _propagate(s, _flight(generators, t1, plan) + pulse
                      + _flight(generators, t_total - t1, plan))


def classical_limit_scan(s, h, t, hbars, n_steps=200, convention="full_appendixE"):
    """L2 deviation of the deformed propagator from the classical one.

    Returns [(hbar, deviation)] with the same step schedule for every run.
    """
    dt = float(t) / n_steps
    base_plan = PropagationPlan(dt=dt, n_steps=n_steps, hbar=0.0)
    ref = kvn_evolve(s, h, base_plan)
    out = []
    for hb in hbars:
        if hb == 0.0:
            out.append((0.0, 0.0))
            continue
        plan = PropagationPlan(dt=dt, n_steps=n_steps, hbar=float(hb))
        evolved = qm_evolve(s, h, plan, convention=convention)
        out.append((float(hb), l2_distance(evolved, ref)))
    return out
