"""Discretized phase-space states and the four Fourier representations.

A state is a complex amplitude field over a periodic (x, p) lattice; each
axis can be traded for its conjugate axis by a unitary DFT, giving the four
representations xp, (x, pi_p), (pi_x, p) and (pi_x, pi_p).  Transforms use
the symmetric 1/sqrt(N) convention with the continuum measure folded in, so
the measure-weighted 2-norm is preserved exactly in every representation.
Conjugate axes live on the reciprocal lattice 2*pi*fftfreq(n, d) of the
coordinate axis; there is no independent conjugate-grid configuration.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass

import numpy as np

from ._slabs import split
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
    """Shared machinery for 2-axis and 4-axis amplitude fields."""

    axis_names = ()
    conj_names = ()

    def __init__(self, axes, conj, amp):
        self._axes = tuple(axes)
        self._conj = tuple(bool(c) for c in conj)
        amp = np.ascontiguousarray(amp, dtype=np.complex128)
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

    def with_conj(self, flags):
        """Transform to the representation given by per-axis conjugate flags."""
        flags = tuple(bool(f) for f in flags)
        if flags == self._conj:
            return self
        amp = self.amp.copy()
        for i, (cur, want) in enumerate(zip(self._conj, flags)):
            if cur != want:
                _transform(amp, self._axes[i], i, want)
        return self._clone(flags, amp)

    def norm(self):
        return math.sqrt(float(np.sum(np.abs(self.amp) ** 2)) * self.cell_measure())

    def normalized(self):
        n = self.norm()
        if n == 0:
            raise ZeroMassSlice("cannot normalize a zero field")
        return self._clone(self._conj, self.amp / n)

    def density(self):
        return np.abs(self.amp) ** 2

    def _clone(self, conj, amp):
        raise NotImplementedError


class PhaseState(_Field):
    """Complex amplitude over a 2D phase-space grid with a representation tag."""

    axis_names = ("x", "p")
    conj_names = ("pi_x", "pi_p")

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
    """Amplitude over the 4D (x, p, X, P) lattice of a target-device pair.

    A state made by product_state keeps its target and device factors,
    all-coordinate PhaseStates, in ``factors`` and forms ``amp`` from them
    on first read; any other state has ``factors = None``.
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
            amp = _outer(*(f.amp for f in self.factors))
            amp.setflags(write=False)
            self._amp = amp
        return self._amp

    @amp.setter
    def amp(self, value):
        self._amp, self.factors = value, None

    def _clone(self, conj, amp):
        return BipartiteState(self.target_grid, self.device_grid, conj, amp)

    def rep_name(self):
        return ",".join(_names(self))

    def __repr__(self):
        return f"BipartiteState(rep=({self.rep_name()}))"


def _outer(target_amp, device_amp):
    """A fresh, writeable target (x) device amplitude."""
    return np.multiply.outer(target_amp, device_amp)


def product_state(target: PhaseState, device: PhaseState) -> BipartiteState:
    """Tensor product target (x) device, in the all-coordinate representation.

    The state keeps both factors.  Its 4D amplitude is formed, and frozen
    like every amplitude, the first time something reads it; until the
    coupling, the propagators move the factors instead.
    """
    return BipartiteState._product(to_representation(target, "xp"),
                                   to_representation(device, "xp"))


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


def inner(a: _Field, b: _Field) -> complex:
    """Measure-weighted inner product <a|b> in a's representation."""
    b = b.with_conj(a.conj_flags)
    return complex(np.vdot(a.amp, b.amp) * a.cell_measure())


def l2_distance(a: _Field, b: _Field) -> float:
    b = b.with_conj(a.conj_flags)
    return math.sqrt(float(np.sum(np.abs(a.amp - b.amp) ** 2)) * a.cell_measure())


def boundary_mass(s: _Field) -> float:
    """Probability mass in the outermost cell shell (coordinate representation)."""
    coord = s.with_conj((False,) * len(s.conj_flags))
    dens = coord.density()
    inner_slc = tuple(slice(1, -1) for _ in range(dens.ndim))
    total = float(dens.sum())
    interior = float(dens[inner_slc].sum())
    return (total - interior) * coord.cell_measure()


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

_TOKEN = _re.compile(r"^([a-zA-Z_]+)(?:\s*(?:\^|\*\*)\s*(\d+))?$")


@dataclass(frozen=True)
class Observable:
    """Real polynomial in the axis variables, total degree <= 2 per term."""

    terms: tuple  # ((coeff, ((name, power), ...)), ...)

    @staticmethod
    def parse(spec):
        if isinstance(spec, Observable):
            return spec
        if isinstance(spec, str):
            return Observable(tuple(_parse_poly(spec)))
        if isinstance(spec, (list, tuple)):
            terms = []
            for coeff, powers in spec:
                terms.append((float(coeff), tuple(sorted(powers.items()))))
            return Observable(tuple(terms))
        raise TypeError(f"cannot interpret observable spec {spec!r}")


def _parse_poly(text):
    """Parse 'x', '2*x^2', 'x*p - pi_x' style monomial sums."""
    text = text.replace("-", "+-")
    terms = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1.0
        if chunk.startswith("-"):
            sign = -1.0
            chunk = chunk[1:].strip()
        coeff = sign
        powers = {}
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                continue
            try:
                coeff *= float(factor)
                continue
            except ValueError:
                pass
            m = _TOKEN.match(factor)
            if not m:
                raise ValueError(f"cannot parse observable factor {factor!r}")
            name, power = m.group(1), int(m.group(2) or 1)
            powers[name] = powers.get(name, 0) + power
        terms.append((coeff, tuple(sorted(powers.items()))))
    return terms


def expectation(s: _Field, obs) -> float:
    """Expectation of a polynomial observable, degree <= 2 per monomial.

    Each monomial is evaluated in the representation where all of its
    factors are diagonal; mixing an axis with its own conjugate has no such
    representation and raises NonHermitianObservable.  A monomial above
    degree 2 raises UnsupportedObservable.
    """
    obs = Observable.parse(obs)
    total = 0.0
    cache = {s.conj_flags: s}
    for coeff, powers in obs.terms:
        if sum(e for _, e in powers) > 2:
            raise UnsupportedObservable(
                "only polynomials up to total degree 2 are supported"
            )
        flags = list(s.conj_flags)
        used = {}
        for name, _ in powers:
            idx, conj = s.axis_index(name)
            if idx in used and used[idx] != conj:
                raise NonHermitianObservable(
                    f"{name} mixes an axis with its own conjugate"
                )
            used[idx] = conj
            flags[idx] = conj
        flags = tuple(flags)
        if flags not in cache:
            cache[flags] = s.with_conj(flags)
        view = cache[flags]
        dens = view.density()
        weight = np.ones((), dtype=float)
        for name, e in powers:
            idx, _ = view.axis_index(name)
            vals = view.axis_values(idx) ** e
            shape = [1] * dens.ndim
            shape[idx] = len(vals)
            weight = weight * vals.reshape(shape)
        total += coeff * float(np.sum(dens * weight)) * view.cell_measure()
    return total


def _merge_powers(pa, pb):
    acc = {}
    for name, e in tuple(pa) + tuple(pb):
        acc[name] = acc.get(name, 0) + e
    return tuple(sorted(acc.items()))


def variance(s: _Field, obs) -> float:
    """<A^2> - <A>^2 for any observable A, clipped at 0.

    A^2 is multiplied out term by term, so sums and scaled axes are exact,
    e.g. variance(s, "x + p") = var(x) + var(p) + 2 cov(x, p).  A^2 must
    itself be an observable expectation accepts (degree <= 2 per monomial,
    no axis times its own conjugate).
    """
    obs = Observable.parse(obs)
    m1 = expectation(s, obs)
    sq = Observable(tuple((ca * cb, _merge_powers(pa, pb))
                          for ca, pa in obs.terms for cb, pb in obs.terms))
    return max(expectation(s, sq) - m1 * m1, 0.0)


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


def _names(s: _Field, chosen=()):
    """One name per axis of ``s``: the one listed in ``chosen`` (its
    coordinate or its conjugate name), otherwise the name of the axis's
    current representation."""
    return tuple(
        n if n in chosen else c if c in chosen or f else n
        for n, c, f in zip(s.axis_names, s.conj_names, s.conj_flags)
    )


def joint_density(s: _Field, axis_names=None) -> Density:
    """Full density in the representation where the named axes are diagonal."""
    if axis_names is None:
        axis_names = _names(s)
    flags = list(s.conj_flags)
    order = {}
    for name in axis_names:
        idx, conj = s.axis_index(name)
        flags[idx] = conj
        order[idx] = name
    if sorted(order) != list(range(len(s.axis_names))):
        raise ValueError("axis_names must name every axis exactly once")
    view = s.with_conj(tuple(flags))
    return Density(
        tuple(order[i] for i in range(len(order))),
        tuple(view.axis_values(i) for i in range(len(order))),
        tuple(view.axis_measure(i) for i in range(len(order))),
        view.density(),
    )


def marginal(s: _Field, axes) -> Density:
    """Marginal probability density over the named axes (the rest integrated out).

    Conjugate-axis names transform the state first, e.g. axes=("pi_x",).
    """
    axes = (axes,) if isinstance(axes, str) else tuple(axes)
    return joint_density(s, _names(s, axes)).marginalize(axes)


def conditional(s: _Field, axis: str, value) -> Density:
    """Density over the remaining axes given the nearest cell of ``axis``."""
    return joint_density(s, _names(s, (axis,))).condition(axis, value)
