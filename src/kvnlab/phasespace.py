"""Discretized phase-space states and the four Fourier representations.

A state is an amplitude field over a periodic (x, p) lattice; each axis can
be traded for its conjugate axis by a unitary DFT, giving the four
representations xp, (x, pi_p), (pi_x, p) and (pi_x, pi_p).  Amplitudes are
complex128, except that a PhaseState in the xp representation keeps a
float64 amplitude as it is given: the classical flow keeps a real state
real, and the propagators hand it on without a complex copy.  Transforms use
the symmetric 1/sqrt(N) convention with the continuum measure folded in, so
the measure-weighted 2-norm is preserved exactly in every representation.
Conjugate axes live on the reciprocal lattice 2*pi*fftfreq(n, d) of the
coordinate axis; there is no independent conjugate-grid configuration.
Every observable is an algebra.OperatorExpr, or text that algebra.parse
reads into one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from ._slabs import CHUNK, cut, split
from .errors import (
    NonHermitianObservable,
    OutOfBounds,
    UnresolvableWidth,
    UnsupportedObservable,
    ZeroMassSlice,
)

REPRESENTATIONS = ("xp", "x_pip", "pix_p", "pix_pip")

_REP_FLAGS = {
    "xp": (False, False),
    "x_pip": (False, True),
    "pix_p": (True, False),
    "pix_pip": (True, True),
}
_FLAGS_REP = {v: k for k, v in _REP_FLAGS.items()}


def _is_pow2(n):
    return n >= 8 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Axis:
    """One periodic coordinate axis and its reciprocal lattice."""

    n: int
    vmin: float
    vmax: float

    def __post_init__(self):
        if not _is_pow2(self.n):
            raise ValueError(f"axis size must be a power of two >= 8, got {self.n}")
        if not self.vmax > self.vmin:
            raise ValueError("axis range must have vmax > vmin")

    @property
    def d(self):
        return (self.vmax - self.vmin) / self.n

    @property
    def d_conj(self):
        return 2.0 * math.pi / (self.n * self.d)

    def coords(self):
        return self.vmin + self.d * np.arange(self.n)

    def conj_coords(self):
        return 2.0 * math.pi * np.fft.fftfreq(self.n, self.d)


class Grid2D:
    """Rectangular (x, p) lattice; sizes must be powers of two >= 8."""

    def __init__(self, n_x, n_p, x_min, x_max, p_min, p_max):
        self.x_axis = Axis(n_x, x_min, x_max)
        self.p_axis = Axis(n_p, p_min, p_max)

    n_x = property(lambda self: self.x_axis.n)
    n_p = property(lambda self: self.p_axis.n)
    x_min = property(lambda self: self.x_axis.vmin)
    x_max = property(lambda self: self.x_axis.vmax)
    p_min = property(lambda self: self.p_axis.vmin)
    p_max = property(lambda self: self.p_axis.vmax)
    dx = property(lambda self: self.x_axis.d)
    dp = property(lambda self: self.p_axis.d)

    def x(self):
        return self.x_axis.coords()

    def p(self):
        return self.p_axis.coords()

    def pi_x(self):
        return self.x_axis.conj_coords()

    def pi_p(self):
        return self.p_axis.conj_coords()

    def __eq__(self, other):
        return isinstance(other, Grid2D) and (
            (self.x_axis, self.p_axis) == (other.x_axis, other.p_axis)
        )

    def __repr__(self):
        return (
            f"Grid2D({self.n_x}x{self.n_p}, x=[{self.x_min},{self.x_max}), "
            f"p=[{self.p_min},{self.p_max}))"
        )


# ---------------------------------------------------------------------------
# axis-wise unitary transforms
# ---------------------------------------------------------------------------


def _transform(amp, ax, axis, forward):
    """Transform ``amp`` in place along ``axis``: to ``ax``'s conjugate if ``forward``, else back."""
    phase = np.exp(-1j * ax.conj_coords() * ax.vmin) * math.sqrt(ax.d / ax.d_conj)
    phase = phase.reshape([ax.n if i == axis else 1 for i in range(amp.ndim)])

    def block(idx):
        out = amp[idx]
        if forward:
            np.fft.fft(out, axis=axis, out=out)
            out /= math.sqrt(ax.n)
            out *= phase
        else:
            np.divide(out, phase, out=out)
            np.fft.ifft(out, axis=axis, out=out)
            out *= math.sqrt(ax.n)

    split(amp, (axis,), block)


class _Field:
    """Shared machinery for 2-axis and 4-axis amplitude fields.

    The amplitude is frozen and C-contiguous.  It is complex128, or float64
    where the class keeps real amplitudes (``real_coords``) and every axis
    is a coordinate; any other input is cast to complex128.  An input array
    that needs no cast or copy is kept, and frozen.
    """

    axis_names = ()
    conj_names = ()
    real_coords = False

    def __init__(self, axes, conj, amp):
        self._axes = tuple(axes)
        self._conj = tuple(bool(c) for c in conj)
        amp = np.asarray(amp)
        real = self.real_coords and amp.dtype == np.float64 and not any(self._conj)
        amp = np.ascontiguousarray(amp, dtype=np.float64 if real else np.complex128)
        sizes = tuple(ax.n for ax in self._axes)
        if amp.shape != sizes:
            raise ValueError(f"amplitude of shape {amp.shape} on axes of sizes {sizes}")
        amp.setflags(write=False)
        self.amp = amp

    @property
    def conj_flags(self):
        return self._conj

    def axes(self):
        return self._axes

    def axis_values(self, i):
        ax = self._axes[i]
        return ax.conj_coords() if self._conj[i] else ax.coords()

    def axis_measure(self, i):
        ax = self._axes[i]
        return ax.d_conj if self._conj[i] else ax.d

    def cell_measure(self):
        out = 1.0
        for i in range(len(self._axes)):
            out *= self.axis_measure(i)
        return out

    def axis_index(self, name):
        if name in self.axis_names:
            return self.axis_names.index(name), False
        if name in self.conj_names:
            return self.conj_names.index(name), True
        raise ValueError(f"unknown axis {name!r} for {type(self).__name__}")

    def current_names(self):
        """The name of each axis in its current representation, e.g. ("x", "pi_p")."""
        return tuple(c if f else n for n, c, f in zip(self.axis_names, self.conj_names, self._conj))

    def diagonal(self, names):
        """This field with each axis in ``names`` diagonal and the others unchanged.
        An unknown name raises ValueError; an axis named with its own conjugate
        raises NonHermitianObservable, as no representation makes both diagonal."""
        return self.with_conj(self._diagonal_flags(names))

    def _diagonal_flags(self, names):
        """The conjugate flags of diagonal(names), with its errors."""
        named = {}
        for name in names:
            idx, conj = self.axis_index(name)
            if named.setdefault(idx, conj) != conj:
                raise NonHermitianObservable(f"{name} mixes an axis with its own conjugate")
        return tuple(named.get(i, f) for i, f in enumerate(self._conj))

    def with_conj(self, flags):
        """Transform to the representation given by per-axis conjugate flags;
        a float64 amplitude is promoted to complex128 in the one copy made."""
        flags = tuple(bool(f) for f in flags)
        if flags == self._conj:
            return self
        amp = self.amp.astype(np.complex128)
        for i, (cur, want) in enumerate(zip(self._conj, flags)):
            if cur != want:
                _transform(amp, self._axes[i], i, want)
        return self._clone(flags, amp)

    def norm(self):
        return math.sqrt(float(np.sum(self.density())) * self.cell_measure())

    def normalized(self):
        n = self.norm()
        if n == 0:
            raise ZeroMassSlice("cannot normalize a zero field")
        return self._clone(self._conj, self.amp / n)

    def density(self):
        """|amp|^2 (see _abs2)."""
        return _abs2(self.amp)

    def _clone(self, conj, amp):
        raise NotImplementedError


class PhaseState(_Field):
    """Amplitude over a 2D phase-space grid with a representation tag.

    In the xp representation a float64 amplitude stays float64; in every
    other one the amplitude is complex128.
    """

    axis_names = ("x", "p")
    conj_names = ("pi_x", "pi_p")
    real_coords = True

    def __init__(self, grid: Grid2D, rep: str, amp):
        if rep not in _REP_FLAGS:
            raise ValueError(f"unknown representation {rep!r}")
        self.grid = grid
        super().__init__((grid.x_axis, grid.p_axis), _REP_FLAGS[rep], amp)

    @property
    def rep(self):
        return _FLAGS_REP[self._conj]

    def _clone(self, conj, amp):
        return PhaseState(self.grid, _FLAGS_REP[tuple(conj)], amp)

    def __repr__(self):
        return f"PhaseState(rep={self.rep}, grid={self.grid!r})"


class BipartiteState(_Field):
    """Complex amplitude over the 4D (x, p, X, P) lattice of a target-device pair.

    A state made by product_state keeps its target and device factors,
    all-coordinate complex128 PhaseStates, in ``factors`` and forms ``amp``
    from them on first read; any other state has ``factors = None``.
    """

    axis_names = ("x", "p", "X", "P")
    conj_names = ("pi_x", "pi_p", "pi_X", "pi_P")
    factors = None

    def __init__(self, target_grid: Grid2D, device_grid: Grid2D, conj, amp):
        self.target_grid = target_grid
        self.device_grid = device_grid
        axes = (
            target_grid.x_axis,
            target_grid.p_axis,
            device_grid.x_axis,
            device_grid.p_axis,
        )
        super().__init__(axes, conj, amp)

    @classmethod
    def _product(cls, target, device):
        s = cls.__new__(cls)
        s.target_grid, s.device_grid = target.grid, device.grid
        s._axes, s._conj = target.axes() + device.axes(), (False,) * 4
        s._amp, s.factors = None, (target, device)
        return s

    @property
    def amp(self):
        if self._amp is None:
            target, device = self.factors
            amp = _outer(target.amp[:, :, None, None], device.amp[None, None])
            amp.setflags(write=False)
            self._amp = amp
        return self._amp

    @amp.setter
    def amp(self, value):
        self._amp, self.factors = value, None

    def _clone(self, conj, amp):
        return BipartiteState(self.target_grid, self.device_grid, conj, amp)

    def rep_name(self):
        return ",".join(self.current_names())

    def __repr__(self):
        return f"BipartiteState(rep=({self.rep_name()}))"


def _abs2(a):
    """|a|^2; of a float64 array, a * a, which has the same bits."""
    return a * a if a.dtype == np.float64 else np.abs(a) ** 2


def _outer(target, device):
    """A fresh, writeable amplitude over (x, p, X, P): the product of a target
    and a device factor, each on all 4 axes with one cell on every axis it
    does not depend on (target[:, :, None, None] and device[None, None] for
    2D factors), written on the slabs of split.

    Each slab takes the target, then is multiplied by the device in place,
    which gives the bits of np.multiply(target, device).  One product of
    the two broadcast factors makes numpy's iterator allocate buffers, and
    on a pool thread those stay in its malloc arena: with it, the peak RSS
    of a 32^4 pulsed run read about 0.1 MiB higher.
    """
    amp = np.empty(np.broadcast_shapes(target.shape, device.shape),
                   np.result_type(target, device))

    def block(idx):
        out = amp[idx]
        np.copyto(out, cut(target, idx))
        out *= cut(device, idx)

    split(amp, (), block)
    return amp


def product_state(target: PhaseState, device: PhaseState) -> BipartiteState:
    """Tensor product target (x) device, in the all-coordinate representation.

    The state keeps both factors, as complex128 amplitudes: a float64 one
    is promoted.  Its 4D amplitude is formed, and frozen like every
    amplitude, the first time something reads it; until the coupling, the
    propagators move the factors instead.
    """
    return BipartiteState._product(*(
        PhaseState(f.grid, "xp", f.amp.astype(np.complex128, copy=False))
        for f in (to_representation(target, "xp"), to_representation(device, "xp"))))


# ---------------------------------------------------------------------------
# state factories
# ---------------------------------------------------------------------------


def make_gaussian(grid: Grid2D, x0, p0, sigma_x, sigma_p) -> PhaseState:
    """Normalized Gaussian amplitude; density widths are sigma_x, sigma_p.

    Preconditions: widths at least two cells, center at least four widths
    from every edge.
    """
    if sigma_x < 2 * grid.dx or sigma_p < 2 * grid.dp:
        raise UnresolvableWidth(
            f"sigma ({sigma_x:g}, {sigma_p:g}) below twice the cell size "
            f"({grid.dx:g}, {grid.dp:g})"
        )
    if not (
        grid.x_min <= x0 - 4 * sigma_x and x0 + 4 * sigma_x <= grid.x_max
        and grid.p_min <= p0 - 4 * sigma_p and p0 + 4 * sigma_p <= grid.p_max
    ):
        raise OutOfBounds(
            f"state at ({x0:g}, {p0:g}) needs a 4-sigma margin inside the grid"
        )
    xx = grid.x()[:, None]
    pp = grid.p()[None, :]
    amp = np.exp(
        -((xx - x0) ** 2) / (4.0 * sigma_x**2) - ((pp - p0) ** 2) / (4.0 * sigma_p**2)
    ).astype(np.complex128)
    return PhaseState(grid, "xp", amp).normalized()


def make_point(grid: Grid2D, x0, p0) -> PhaseState:
    """Single-cell indicator at the nearest cell: the grid's delta state."""
    if not (grid.x_min <= x0 < grid.x_max and grid.p_min <= p0 < grid.p_max):
        raise OutOfBounds(f"point ({x0:g}, {p0:g}) outside the grid")
    i = int(round((x0 - grid.x_min) / grid.dx)) % grid.n_x
    j = int(round((p0 - grid.p_min) / grid.dp)) % grid.n_p
    amp = np.zeros((grid.n_x, grid.n_p), dtype=np.complex128)
    amp[i, j] = 1.0 / math.sqrt(grid.dx * grid.dp)
    return PhaseState(grid, "xp", amp)


def to_representation(s: PhaseState, rep: str) -> PhaseState:
    """Unitary change of representation; round trips are exact to 1e-10."""
    if rep not in _REP_FLAGS:
        raise ValueError(f"unknown representation {rep!r}")
    return s.with_conj(_REP_FLAGS[rep])


def l2_distance(a: _Field, b: _Field) -> float:
    b = b.with_conj(a.conj_flags)
    return math.sqrt(float(np.sum(np.abs(a.amp - b.amp) ** 2)) * a.cell_measure())


def boundary_mass(s: _Field) -> float:
    """Probability mass in the outermost cell shell (coordinate representation)."""
    coord = s.diagonal(s.axis_names)
    dens = coord.density()
    inner_slc = tuple(slice(1, -1) for _ in range(dens.ndim))
    total = float(dens.sum())
    interior = float(dens[inner_slc].sum())
    return (total - interior) * coord.cell_measure()


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def expectation(s: _Field, obs) -> float:
    """Expectation of a real polynomial observable, degree <= 2 per monomial.

    ``obs`` is an algebra.OperatorExpr or text that algebra.parse reads.
    Each monomial is evaluated on ``s.diagonal`` of its factors, which raises
    NonHermitianObservable for an axis times its own conjugate and
    ValueError for a generator or scalar that names no axis of ``s``.  A
    monomial above degree 2 raises UnsupportedObservable, and a complex
    coefficient ValueError.  Monomials diagonal in the same representation
    share one density; the monomials are summed in the order of ``obs``.
    """
    return _expectations(s, [algebra.parse(obs)])[0]


def _expectations(s: _Field, exprs):
    """The expectation of each OperatorExpr of ``exprs`` on ``s``.

    Every monomial is checked first, in order.  Then each representation
    that some monomial is diagonal in gets one density, which serves all of
    them and is let go before the next; each expectation adds up its own
    monomials' values in its own order, so it has the bits of a loop that
    takes a density per monomial.
    """
    terms = []  # (index into exprs, conjugate flags, coefficient, factors)
    for k, expr in enumerate(exprs):
        for key, (re, im) in expr.terms.items():
            powers = algebra.monomial_factors(key)
            if sum(e for _, e in powers) > 2:
                raise UnsupportedObservable(
                    "only polynomials up to total degree 2 are supported"
                )
            if im:
                raise ValueError(f"complex coefficient {complex(re, im)} in an observable")
            terms.append((k, s._diagonal_flags(name for name, _ in powers), float(re), powers))
    values = [0.0] * len(terms)
    for flags in dict.fromkeys(t[1] for t in terms):
        view = s.with_conj(flags)
        dens = view.density()
        for j, (_, f, re, powers) in enumerate(terms):
            if f != flags:
                continue
            weight = np.ones((), dtype=float)
            for name, e in powers:
                idx, _ = view.axis_index(name)
                vals = view.axis_values(idx) ** e
                shape = [1] * dens.ndim
                shape[idx] = len(vals)
                weight = weight * vals.reshape(shape)
            values[j] = re * float(np.sum(dens * weight)) * view.cell_measure()
    totals = [0.0] * len(exprs)
    for (k, *_), value in zip(terms, values):
        totals[k] += value
    return totals


def variance(s: _Field, obs) -> float:
    """<A^2> - <A>^2 for any observable A, clipped at 0.

    A^2 is algebra.multiply(A, A), so sums and scaled axes are exact,
    e.g. variance(s, "x + p") = var(x) + var(p) + 2 cov(x, p).  A^2 must
    itself be an observable expectation accepts (degree <= 2 per monomial,
    no axis times its own conjugate).  Both moments share their densities:
    one per representation.
    """
    obs = algebra.parse(obs)
    m1, m2 = _expectations(s, [obs, algebra.multiply(obs, obs)])
    return max(m2 - m1 * m1, 0.0)


def sigma(s: _Field, obs) -> float:
    """Standard deviation sqrt(variance(s, obs)) of any observable."""
    return math.sqrt(variance(s, obs))


# ---------------------------------------------------------------------------
# densities, marginals, conditionals
# ---------------------------------------------------------------------------


@dataclass
class Density:
    """Probability density sampled on a lattice of named axes."""

    axis_names: tuple
    values: tuple
    measures: tuple
    array: np.ndarray

    def cell_measure(self):
        return math.prod(self.measures) if self.measures else 1.0

    def mass(self):
        return float(self.array.sum()) * self.cell_measure()

    def normalized(self):
        m = self.mass()
        if m <= 0:
            raise ZeroMassSlice("density has no mass to normalize")
        return Density(self.axis_names, self.values, self.measures, self.array / m)

    def marginalize(self, keep):
        """Integrate out all axes not named in ``keep`` (order preserved)."""
        keep = tuple(keep)
        unknown = set(keep) - set(self.axis_names)
        if unknown:
            raise ValueError(f"unknown axes {sorted(unknown)}; have {self.axis_names}")
        drop = [i for i, n in enumerate(self.axis_names) if n not in keep]
        arr = self.array
        scale = 1.0
        for i in sorted(drop, reverse=True):
            arr = arr.sum(axis=i)
            scale *= self.measures[i]
        return self._without(drop, arr * scale)

    def condition(self, axis: str, value) -> "Density":
        """Normalized density over the other axes given the cell of
        ``axis`` nearest ``value``; ZeroMassSlice if that slice is empty."""
        i = self.axis_names.index(axis)
        j = int(np.argmin(np.abs(self.values[i] - value)))
        sub = self._without((i,), self.array[(slice(None),) * i + (j,)])
        if sub.mass() * self.measures[i] <= 1e-12:
            raise ZeroMassSlice(f"slice {axis}={value:g} carries no probability")
        return sub.normalized()

    def _without(self, drop, array):
        """``array`` as a density over this one's axes minus ``drop``."""
        sel = [i for i in range(len(self.axis_names)) if i not in drop]
        return Density(
            tuple(self.axis_names[i] for i in sel),
            tuple(self.values[i] for i in sel),
            tuple(self.measures[i] for i in sel),
            array,
        )


def _density(view: _Field) -> Density:
    """The density of ``view`` over its axes as they are now."""
    names = view.current_names()
    return Density(
        names,
        tuple(view.axis_values(i) for i in range(len(names))),
        tuple(view.axis_measure(i) for i in range(len(names))),
        view.density(),
    )


def joint_density(s: _Field, axis_names=None) -> Density:
    """Full density in the representation where the named axes are diagonal
    (by default the current one); ``axis_names`` names every axis exactly once."""
    view = s.diagonal(axis_names or ())
    if axis_names is not None and sorted(axis_names) != sorted(view.current_names()):
        raise ValueError("axis_names must name every axis exactly once")
    return _density(view)


def marginal(s: _Field, axes) -> Density:
    """Marginal probability density over the named axes (the rest integrated out).

    Conjugate-axis names pick the representation, e.g. axes=("pi_x",).
    This is marginals with one keep: no whole density is formed.
    """
    return marginals(s, [axes])[0][0]


def marginals(s: _Field, keeps):
    """The marginal of ``s`` over each entry of ``keeps`` (axis names, as
    marginal takes them) and the mass, from one sweep over slabs of x rows.
    The axes of each marginal keep the state's order.

    One representation must make every named axis diagonal; the others
    stay as they are, and the mass is that representation's.  Each slab is
    transformed along the axes other than x that change, and a change of x
    transforms the whole state first.  Each slab's density is summed over
    the dropped axes other than x in Density.marginalize's order; the sum
    over x runs last, on the rows of every slab, so each marginal has the
    bits of Density.marginalize(keep) of the joint density in that
    representation.  The mass adds the slab sums in pairs, as
    numpy's pairwise sum adds halves down to blocks of 128: with 2**k >= 128
    elements per slab it has the bits of the joint Density.mass.
    """
    keeps = [(k,) if isinstance(k, str) else tuple(k) for k in keeps]
    flags = s._diagonal_flags(name for keep in keeps for name in keep)
    if flags[0] != s.conj_flags[0]:
        s = s.with_conj(flags)
    axes = s.axes()
    joint = Density(
        tuple(c if f else n for n, c, f in zip(s.axis_names, s.conj_names, flags)),
        tuple(ax.conj_coords() if f else ax.coords() for ax, f in zip(axes, flags)),
        tuple(ax.d_conj if f else ax.d for ax, f in zip(axes, flags)),
        None,
    )
    drops = [[i for i, n in enumerate(joint.axis_names) if n not in keep] for keep in keeps]
    orders = [tuple(i for i in sorted(drop, reverse=True) if i) for drop in drops]
    n = s.amp.shape[0]
    rows = min(n, max(CHUNK, 128) // s.amp[0].size or 1)
    parts = [None] * len(keeps)
    sums = []
    for lo in range(0, n, rows):
        amp = s.amp[lo:lo + rows]
        if flags != s.conj_flags:
            amp = amp.astype(np.complex128)
            for i, (cur, want) in enumerate(zip(s.conj_flags, flags)):
                if cur != want:
                    _transform(amp, axes[i], i, want)
        dens = _abs2(amp)
        sums.append(dens.sum())
        done = {(): dens}  # the slab summed over each leading run of an order, shared
        for k, order in enumerate(orders):
            for j in range(len(order)):
                if order[:j + 1] not in done:
                    done[order[:j + 1]] = done[order[:j]].sum(axis=order[j])
            if rows == n:
                parts[k] = done[order]
                continue
            if parts[k] is None:
                parts[k] = np.empty((n,) + done[order].shape[1:])
            parts[k][lo:lo + rows] = done[order]
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    out = []
    for part, drop in zip(parts, drops):
        scale = 1.0
        for i in sorted(drop, reverse=True):
            scale *= joint.measures[i]
        out.append(joint._without(drop, (part.sum(axis=0) if 0 in drop else part) * scale))
    return out, float(sums[0]) * joint.cell_measure()


def conditional(s: _Field, axis: str, value) -> Density:
    """Density over the remaining axes given the nearest cell of ``axis``."""
    return _density(s.diagonal((axis,))).condition(axis, value)
