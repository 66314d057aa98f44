"""Split-operator propagation on the phase-space lattice.

Every propagator is a product of shears.  For H = T(p) + V(x) the classical
generator splits into exp(-i dt T'(p) pi_x), which moves x by dt*T'(p), and
exp(+i dt V'(x) pi_p), which moves p by -dt*V'(x); the pointer coupling
lambda*x*P moves p by -lambda*t*P and X by lambda*t*x.  Each factor is a
pure phase where its own axis is conjugate and every other axis is a
coordinate, so one engine applies them all as ifft(fft(a) * phase) along
that axis; the axis phases of the representation changes cancel and are
never formed.  For quadratic T and V Strang splitting is second order.

At hbar = 0 the flow keeps a real amplitude real, and every state the CLI
builds is real, so a real 2D amplitude under pure shears runs on float64
arrays as irfft(rfft(a) * phase).  On the lattice the Nyquist bin, which
has no partner, breaks realness: irfft keeps its real part, so the bin is
multiplied by cos(k_N*shift), a contraction, and each pass gives the real
part of the complex one.  A flight counts the squared norm this drops; a
pass that would take it past 1e-12 is discarded, and from its input that
factor and every later one run on the complex path, unitary to machine
precision.  4D amplitudes stay complex: the product path forms them from
complex spectra, and a real materialized state would part from it by up to
1.9e-6, where the tests hold the two to 1e-13.

Where no observer needs the state in between, factors on the same axis
with the same generator fuse: a V = 0 flight of n steps is one shear per
subsystem, and the Strang half kicks of neighbouring steps merge.  With
hbar = 0 every factor, fused or not, is checked before it is applied: it
may wrap at most 1e-6 of the probability around the periodic box, and since
a shear is linear in its duration, a fused check covers every step it
replaced.  Each factor carries the error its guard raises: UnstablePlan
for the propagators' shears, ShiftOverflow for the pointer coupling.  A
guard fails closed: a factor that moves cells by a non-finite amount, or a
NaN wrap mass or boundary growth, raises it too.  The
pulsed run is one such program, so its device flight, which commutes with
the coupling, is one shear.  With an observer the steps stay apart, but
where the last factor of a step merges with the first of the next, as
Strang half kicks do, the two run in one pass over the array (see _pass):
an observed Strang step is 2 passes and 5 transforms, not 3 and 6.  The
leading factor's guard reads the observed amplitude after the observer.

Until the coupling, a product state stays a product.  Without an
observer, the leading factors of a program that act within one subsystem
run on that subsystem's 2D factor (see _local_head), and the 4D amplitude
is formed once, at the first factor that couples the two, with the factors
from there on that are phases in one shared representation, the momentum
kick and the pointer shift, applied as it is formed (see _form).  The rest
run in place on that buffer; a program with no coupling factor returns a
product state again.

The hbar-deformed propagator evolves H(x + a*hbar*pi_p, p + b*hbar*pi_x)
with (a, b) fixed by a deformation convention.  Its factors carry a pi^2
term, so they are not pure shears: they do not fuse across steps, and each
step may grow the boundary-shell mass by at most 1e-6.  The
state-independent diagonal phase exp(-i H(x,p) dt / hbar), which diverges
as hbar -> 0 and carries no observable content in this frame, is factored
out so the classical limit is numerically meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import algebra
from ._slabs import cut, split
from .errors import IllegalHamiltonian, ShiftOverflow, UnstablePlan, UnsupportedHamiltonian
from . import phasespace
from .phasespace import PhaseState, boundary_mass, l2_distance, product_state

DEFORM_CONVENTIONS = {name: (float(a), float(b)) for name, (a, b) in algebra.DEFORM_CONVENTIONS.items()}

_BOUNDARY_GROWTH_LIMIT = 1e-6
_WRAP_LIMIT = 1e-6
# the most squared norm a real-path flight may drop at its Nyquist bins
_NYQUIST_LIMIT = 1e-12


@dataclass(frozen=True)
class HamiltonianSpec:
    """Separable quadratic Hamiltonian T(p) + V(x) of one subsystem.

    ``kinetic`` and ``potential`` are coefficient triples (c0, c1, c2) of
    c0 + c1*u + c2*u^2; kinetic defaults to p^2/(2*mass).  The pointer
    coupling lambda*x*P between two subsystems is applied by couple_evolve.
    """

    mass: float = 1.0
    kinetic: tuple = None
    potential: tuple = (0.0, 0.0, 0.0)

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


def _edges(axis, dim, shift, ndim):
    """Where u -> u + shift along ``dim`` carries cells past an end of ``axis``.

    An edge cell counts for any shift towards its edge, since a sub-cell
    spectral shift already wraps part of it.  Returns a list of
    (index, spec, weight) for _edge_mass.

    Where the shift varies along every other axis, as a 2D factor's does,
    there is nothing to sum over: the list is one entry whose ``index``
    holds the flat indices of the wrapped cells at both ends, and whose
    spec and weight are None.  Otherwise the wrapped cells at each end lie
    in a slab along ``dim`` as deep as the largest shift towards that end,
    with one entry per non-empty slab: ``index`` cuts the slab out of an
    ``ndim``-axis array, ``spec`` sums the squares of its float view over
    the axes the shift does not depend on, and ``weight`` is 1 on the
    wrapped cells of what is left (doubled along the last axis, whose float
    view interleaves re and im).
    """
    n = axis.n
    u = np.arange(n)
    step = shift / axis.d
    landed = _along(u, dim, ndim) + step
    wrapped = (landed < 0) | (landed > n - 1)
    if min(wrapped.shape) > 1:
        # one gather of the few wrapped cells reads less than two strided
        # slabs of short rows: 5-10 us against 20-25 us for a 256^2 kick.
        # A 4D factor keeps the slabs: a 32^4 drift guard gathers 93184
        # cells in 280-290 us, its slabs of 158720 in 175-195 us.  A copy
        # that gathered every guard's cells, 51 lines shorter, ran
        # pulsed_propagator in 31-43 ms against 22-30 ms (best of 40 calls,
        # 9 interleaved runs) and its 4D gathers in 0.35-0.39 ms against
        # 0.21-0.23 ms, which explains only part of that loss.
        return [(np.flatnonzero(wrapped), None, None)]
    low = int(np.count_nonzero(u + np.min(step) < 0))
    high = max(low, n - int(np.count_nonzero(u + np.max(step) > n - 1)))
    letters = "abcdefgh"[:ndim]
    edges = []
    for lo, hi in ((0, low), (high, n)):
        if lo == hi:
            continue
        index = [slice(None)] * ndim
        index[dim] = slice(lo, hi)
        mask = wrapped[tuple(index)]
        # on each axis the shift depends on, only the span that reaches the edge
        for i in range(ndim):
            if i != dim and mask.shape[i] > 1:
                hit = np.flatnonzero(mask.any(axis=tuple(j for j in range(ndim) if j != i)))
                index[i] = slice(int(hit[0]), int(hit[-1]) + 1)
                mask = mask[(slice(None),) * i + (index[i],)]
        index = tuple(index)
        keep = [i for i in range(ndim) if mask.shape[i] > 1]
        weight = mask.reshape([mask.shape[i] for i in keep]).astype(float)
        if ndim - 1 in keep:
            weight = np.repeat(weight, 2, axis=-1)
        spec = f"{letters},{letters}->" + "".join(letters[i] for i in keep)
        edges.append((index, spec, weight))
    return edges


def _edge_mass(amp, edges):
    """Sum of |amp|^2 over the cells of ``edges`` (from _edges); ``amp`` is
    complex128, or float64 where they are gathered, as on every 2D field."""
    total = 0.0
    for index, spec, weight in edges:
        if spec is None:
            v = np.take(amp, index)
            total += float(np.vdot(v, v).real)
        else:
            v = amp[index].view(np.float64)
            total += float(np.vdot(np.einsum(spec, v, v), weight))
    return total


def _compile(f, axis, ndim, check_wrap, real=False):
    """The phase array of ``f`` on an ``ndim``-axis field, on the half
    spectrum 2*pi*rfftfreq(n, d) when ``real``, and, when guarded, its
    wrapped cells (see _edges).  Raises ``f.error`` when tau * shift is not
    finite anywhere: a NaN shift marks no cell as wrapped."""
    k = 2.0 * np.pi * np.fft.rfftfreq(axis.n, axis.d) if real else axis.conj_coords()
    k = _along(k, f.axis, ndim)
    arg = f.shift * k if not f.curv else f.shift * k + f.curv * k**2
    moved = f.tau * f.shift
    if not np.isfinite(moved).all():
        raise f.error(f"{f.label} moves cells by a non-finite amount")
    edges = _edges(axis, f.axis, moved, ndim) if check_wrap else None
    return np.exp(-1j * f.tau * arg), edges


def _pass(src, dst, axis, phases, seen=None):
    """dst = ifft(fft(src) * phases[0] * ...) along ``axis``, in one pass over
    the slabs of split; ``dst`` may be ``src``.  With ``seen``, the inverse
    transform after the first of two phases is also written there.  A float64
    ``src`` runs on the half spectrum, each phase followed by zeroing the
    imaginary part irfft drops at the Nyquist bin, so a pair equals two single
    passes; returns Im(S_N * phase)**2 / n summed over lines in line order."""
    real, n = src.dtype == np.float64, src.shape[axis]
    top = (slice(None),) * axis + (slice(-1, None),)  # the Nyquist bin
    lost = np.zeros(src[top].shape) if real else None
    inverse = np.fft.irfft if real else np.fft.ifft

    def block(idx):
        out = dst[idx]
        spec = np.fft.rfft(src[idx], axis=axis) if real else np.fft.fft(src[idx], axis=axis, out=out)
        for k, phase in enumerate(phases):
            if k:
                inverse(spec, n, axis, out=seen[idx])
            spec *= cut(phase, idx)
            if real:
                lost[idx] += spec[top].imag ** 2
                spec[top].imag = 0.0
        inverse(spec, n, axis, out=out)

    split(src, (axis,), block)
    return float(lost.sum()) / n if real else 0.0


def _propagate(s, steps, after_step=None, check_wrap=True):
    """Apply ``steps``, each a list of shears, to the field ``s``.

    Between factors the amplitude stays in the all-coordinate
    representation.  ``after_step(i, amp)`` runs after step i.  Without it,
    pure shears of all steps fuse, and a product state takes the product
    path (see _local_head and _form).  With it, where the last factor of a
    step merges with the first of the next, both run in one pass (see
    _pass): the observer gets a fresh array of the step's amplitude, and the
    working array goes on from the next step's first factor.  A step of one
    factor that ran in such a pass has none left, and hands over the working
    array.  With ``check_wrap`` each factor first checks the wrap mass of the
    density it is applied to and raises its ``error`` above 1e-6; a merged
    leading factor checks the observed amplitude once ``after_step`` has
    returned.  Real passes write out of place, into two buffers that take
    turns, so a pass over _NYQUIST_LIMIT is discarded unseen.
    """
    coord = s.with_conj((False,) * len(s.conj_flags))
    axes, names = coord.axes(), coord.axis_names
    factors = [f for step in steps for f in step]
    if after_step is None:
        steps = [factors if any(f.curv for f in factors) else _fuse(factors)]
    real = (isinstance(coord, PhaseState) and bool(factors)
            and not any(f.curv for f in factors) and not coord.amp.imag.any())
    compiled = {}
    lost, spare = 0.0, None  # Nyquist mass dropped so far; the idle real buffer

    def phase_of(f, axis, ndim):
        key = (ndim, f.axis, id(f.shift), f.tau, f.curv, real)
        if key not in compiled:
            compiled[key] = _compile(f, axis, ndim, check_wrap, real)
        return compiled[key]

    def checked_phase(amp, f, axis, weight, name):
        # the phase of f on a field of amp.ndim axes, once the wrap mass of
        # |amp|^2 * weight has passed f's guard
        phase, edges = phase_of(f, axis, amp.ndim)
        if edges is not None:
            mass = _edge_mass(amp, edges) * weight
            if not mass <= _WRAP_LIMIT:  # a NaN mass fails too
                raise f.error(f"{f.label} wraps {mass:.3e} of the mass around the "
                              f"{name} range")
        return phase

    def shear(amp, fs, axis, weight, name):
        # fs, one factor or two that merge, in one pass: the amplitude between
        # them (or None) and after them.  Only fs[0]'s guard runs here
        nonlocal real, lost, spare
        checked_phase(amp, fs[0], axis, weight, name)
        while True:
            # an array handed to an observer is frozen; write a fresh one then
            out = spare if real else amp
            out = out if out is not None and out.flags.writeable else np.empty_like(amp)
            seen = np.empty_like(amp) if fs[1:] else None
            # the real path is 2D, where the guard weight is the cell measure
            dropped = weight * _pass(amp, out, fs[0].axis,
                                     [phase_of(f, axis, amp.ndim)[0] for f in fs], seen)
            if lost + dropped <= _NYQUIST_LIMIT:
                lost, spare = lost + dropped, amp if real else None
                return seen, out
            real, amp = False, amp.astype(np.complex128)  # over budget: again, complex

    entry = None
    if after_step is None and getattr(coord, "factors", None) is not None:
        parts, rest = _local_head(coord, steps[0], shear)
        if not rest:
            t, d = coord.factors
            return product_state(PhaseState(t.grid, "xp", parts[0]),
                                 PhaseState(d.grid, "xp", parts[1]))
        block = _diagonal_head(rest)
        amp, steps = _form(coord, parts, block, checked_phase), [rest[len(block):]]
    else:
        entry = coord.amp
        amp = entry.real.copy() if real else entry
    weight = coord.cell_measure()
    merged = False  # the first factor of this step ran in the last step's pass
    for i, step in enumerate(steps):
        todo = step[1:] if merged else step
        following = steps[i + 1] if after_step is not None and i + 1 < len(steps) else []
        merged = bool(todo and following) and todo[-1].merges_with(following[0])
        for f in todo[:-1] if merged else todo:
            amp = shear(amp, [f], axes[f.axis], weight, names[f.axis])[1]
        if not merged:
            if after_step is not None:
                after_step(i, amp)
            continue
        lead = following[0]
        seen, amp = shear(amp, [todo[-1], lead], axes[lead.axis], weight, names[lead.axis])
        after_step(i, seen)
        checked_phase(seen, lead, axes[lead.axis], weight, names[lead.axis])
        # drop the observed array before the next pass makes another
        del seen
    return coord if amp is entry else coord._clone(coord.conj_flags, amp)


def _local_head(s, program, shear):
    """Run the leading factors of ``program`` that act within one subsystem
    on the 2D factors of the product state ``s``.

    A factor qualifies when its axis and every axis its shift depends on lie
    in (x, p) or in (X, P).  Its guard sees the 4D wrap mass: for a product,
    the 2D wrap mass times the other factor's mass.  Returns the two factor
    amplitudes and the rest of ``program``, which starts at the first
    factor that couples the subsystems; _form applies the first factors of
    the rest as it forms the 4D amplitude.
    """
    parts = [f.amp for f in s.factors]
    # one 2D view per shift array, kept alive so the ids that key the
    # compiled phases stay unique
    views = {}
    for n, f in enumerate(program):
        side = next((k for k in (0, 1) if f.deps() <= {2 * k, 2 * k + 1}), None)
        if side is None:
            return parts, program[n:]
        lo = 2 * side
        if id(f.shift) not in views:
            views[id(f.shift)] = f.shift.reshape(f.shift.shape[lo:lo + 2])
        other = parts[1 - side]
        weight = s.cell_measure() * float(np.vdot(other, other).real)
        parts[side] = shear(parts[side], [replace(f, axis=f.axis - lo, shift=views[id(f.shift)])],
                            s.axes()[f.axis], weight, s.axis_names[f.axis])[1]
    return parts, []


def _diagonal_head(program):
    """The leading factors of ``program`` that share one representation
    where each is a phase: their axes are distinct, and none of them lies
    in another's deps(), so the others' axes stay coordinates there."""
    block = []
    for f in program:
        if any(f.axis in g.deps() or g.axis in f.deps() for g in block):
            break
        block.append(f)
    return block


def _form(s, parts, block, checked_phase):
    """The 4D amplitude of the product of the 2D ``parts`` of ``s`` after
    the factors of ``block`` (from _diagonal_head).

    Each part is transformed along the block axes in its subsystem (the
    target along p, the device along X for the pointer coupling), the outer
    product of the two spectra is formed once and multiplied by every
    factor's phase, and one inverse transform per block axis, run on the
    slabs of split, returns it to coordinates.

    No block factor moves an axis another one's guard reads, so each guard
    sees the product density, whose marginal on a factor's deps() is the
    outer product of the parts' marginals there; the guard reads its wrap
    mass from the square root of that marginal, an array with one cell on
    every other axis.
    """
    rho = [(p * p.conj()).real for p in parts]
    phases = []
    for f in block:
        marginals = [np.sqrt(r.sum(axis=tuple(i for i in (0, 1) if 2 * k + i not in f.deps()),
                                   keepdims=True))
                     for k, r in enumerate(rho)]
        root = (marginals[0][:, :, None, None] * marginals[1]).astype(complex)
        phases.append(checked_phase(root, f, s.axes()[f.axis], s.cell_measure(),
                                    s.axis_names[f.axis]))
    spectra = list(parts)
    for f in block:
        side = f.axis // 2
        spectra[side] = np.fft.fft(spectra[side], axis=f.axis - 2 * side)
    amp = phasespace._outer(*spectra)
    block_axes = [f.axis for f in block]

    def inverse(idx):
        out = amp[idx]
        for phase in phases:
            out *= cut(phase, idx)
        for axis in block_axes:
            np.fft.ifft(out, axis=axis, out=out)

    split(amp, block_axes, inverse)
    return amp


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


def _evolve_2d(s, h, plan, a, b, observer, check_stability):
    grid, hbar = s.grid, plan.hbar
    step = _split_step(_generators(s.axes(), ((0, h),), hbar, a, b), plan.dt, plan.splitting)
    band_check = check_stability and hbar != 0.0
    band = boundary_mass(s) if band_check else 0.0

    def after_step(i, amp):
        nonlocal band
        state = PhaseState(grid, "xp", amp)
        if band_check:
            new_band = boundary_mass(state)
            if not new_band - band <= _BOUNDARY_GROWTH_LIMIT:  # a NaN growth fails too
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
    factors fuse across steps, and with one, a step's trailing half kick
    and the next step's leading one share a pass.  A real state runs in
    real arithmetic and stays real; it drops at most 1e-12 of its squared
    norm at the Nyquist bins, and the flight goes on complex from the pass
    that would drop more.  Raises UnstablePlan when a shear would wrap more
    than 1e-6 of the probability around the periodic box.
    """
    if plan.hbar != 0.0:
        raise ValueError("kvn_evolve requires a plan with hbar=0")
    return _evolve_2d(s, h, plan, -1.0, 1.0, observer, check_stability)


def qm_evolve(s, h, plan, convention="full_appendixE", observer=None, check_stability=True):
    """Propagate with the hbar-deformed generator H(x_h, p_h).

    ``plan.hbar == 0`` degenerates to kvn_evolve exactly, real path
    included; for hbar > 0 a quadratic T or V adds pi^2 terms that keep the
    flight on the complex path.  The sign convention fixes (a, b) in
    x_h = x + a*hbar*pi_p, p_h = p + b*hbar*pi_x.  For hbar > 0, raises
    UnstablePlan when one step grows the boundary-shell mass by more than
    1e-6.
    """
    if convention not in DEFORM_CONVENTIONS:
        raise ValueError(f"unknown deformation convention {convention!r}")
    a, b = DEFORM_CONVENTIONS[convention] if plan.hbar else (-1.0, 1.0)
    return _evolve_2d(s, h, plan, a, b, observer, check_stability)


def couple_evolve(s, coupling, t, check_wrap=True):
    """Exact bipartite propagator for the pointer Hamiltonian lambda*x*P.

    Applies exp(-i L t) with L the four-term generator of lambda*x*P: the
    commuting shears p -> p - lambda*t*P and X -> X + lambda*t*x, so one
    application is exact for any t.  Both are phases where p and X are
    conjugate, so on a product state they are applied as the 4D amplitude
    is formed, in 2 passes over it.  Raises ShiftOverflow when a shear
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
    subsystem.  A product state stays one: each subsystem's flight runs on
    its 2D factor.  Raises UnstablePlan when a shear would wrap more than 1e-6
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
    with the coupling, so its two halves fuse.  On a product state the
    target flight to t1 and the device flight run on the 2D factors, the
    4D amplitude is formed at the coupling with the kick and the pointer
    shift applied to it, and only the target flight after t1 runs on the
    4D array.  Raises UnstablePlan when a free-flight shear, ShiftOverflow
    when a coupling shear would wrap more than 1e-6 of the probability
    around the periodic box.
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
