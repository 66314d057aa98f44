"""Flat binary container for states plus CSV export of densities.

Layout: magic ``KVNSTATE``, version, endianness marker, axis count, one
conjugate flag per axis, then per axis (n, vmin, vmax), then the amplitude
as interleaved re/im float64 in C order.  Files written on one machine load
on any other; the marker detects a byte-order mismatch.
"""

from __future__ import annotations

import struct

import numpy as np

from .phasespace import BipartiteState, Density, Grid2D, PhaseState, _FLAGS_REP

_MAGIC = b"KVNSTATE"
_VERSION = 1
_ENDIAN_MARK = 0x01020304


def save_state(state, path):
    """Serialize a PhaseState or BipartiteState to the binary container."""
    axes = state.axes()
    flags = state.conj_flags
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HIH", _VERSION, _ENDIAN_MARK, len(axes)))
        fh.write(struct.pack(f"<{len(axes)}B", *[int(f) for f in flags]))
        for ax in axes:
            fh.write(struct.pack("<Qdd", ax.n, ax.vmin, ax.vmax))
        # little-endian complex128 in C order is the interleaved re/im layout
        fh.write(np.ascontiguousarray(state.amp, dtype="<c16"))


def load_state(path):
    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise ValueError(f"{path}: not a state container")
        version, mark, n_axes = struct.unpack("<HIH", fh.read(8))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")
        if mark != _ENDIAN_MARK:
            raise ValueError(f"{path}: endianness marker mismatch")
        flags = struct.unpack(f"<{n_axes}B", fh.read(n_axes))
        specs = [struct.unpack("<Qdd", fh.read(24)) for _ in range(n_axes)]
        shape = tuple(int(s[0]) for s in specs)
        raw = np.frombuffer(fh.read(), dtype="<f8").reshape(shape + (2,))
        amp = raw[..., 0] + 1j * raw[..., 1]
    if n_axes == 2:
        grid = Grid2D(shape[0], shape[1], specs[0][1], specs[0][2], specs[1][1], specs[1][2])
        return PhaseState(grid, _FLAGS_REP[tuple(bool(f) for f in flags)], amp)
    if n_axes == 4:
        tg = Grid2D(shape[0], shape[1], specs[0][1], specs[0][2], specs[1][1], specs[1][2])
        dg = Grid2D(shape[2], shape[3], specs[2][1], specs[2][2], specs[3][1], specs[3][2])
        return BipartiteState(tg, dg, tuple(bool(f) for f in flags), amp)
    raise ValueError(f"{path}: unsupported axis count {n_axes}")


def export_density_csv(density: Density, path):
    """Write a density as spreadsheet-ready CSV: value columns then density."""
    names = list(density.axis_names) + ["density"]
    grids = np.meshgrid(*density.values, indexing="ij") if density.values else []
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        flat = [g.ravel() for g in grids] + [density.array.ravel()]
        for row in zip(*flat):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
