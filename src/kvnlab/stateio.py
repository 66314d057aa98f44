"""Flat binary container for states, plus the CSV writer of every table.

Layout: magic ``KVNSTATE``, version, endianness marker, axis count, one
conjugate flag per axis, then per axis (n, vmin, vmax), then the amplitude
as interleaved re/im float64 in C order.  Files written on one machine load
on any other; the marker detects a byte-order mismatch.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from . import dynamics
from .phasespace import BipartiteState, Density, Grid2D, PhaseState, _FLAGS_REP

_MAGIC = b"KVNSTATE"
_VERSION = 1
_ENDIAN_MARK = 0x01020304


def save_state(state, path):
    """Serialize a PhaseState or BipartiteState to the binary container.

    Returns the sha256 hex digest of the bytes written.  An amplitude large
    enough for the shear engine's thread pool (dynamics._PARALLEL_MIN
    elements: a 256^2 state, a 16^4 pair and up) is hashed on a pool thread
    while this one writes it; both release the GIL.  If the pool thread has
    not started the hash when the write is done, this thread hashes it.
    Smaller ones, and any when only one core is usable, are hashed on this
    thread.
    """
    axes = state.axes()
    header = b"".join([
        _MAGIC,
        struct.pack("<HIH", _VERSION, _ENDIAN_MARK, len(axes)),
        struct.pack(f"<{len(axes)}B", *[int(f) for f in state.conj_flags]),
        *(struct.pack("<Qdd", ax.n, ax.vmin, ax.vmax) for ax in axes),
    ])
    # little-endian complex128 in C order is the interleaved re/im layout
    data = np.ascontiguousarray(state.amp, dtype="<c16")
    digest = hashlib.sha256(header)
    executor = dynamics._executor()[0] if data.size >= dynamics._PARALLEL_MIN else None
    with open(path, "wb") as fh:
        fh.write(header)
        if executor is None:
            fh.write(data)
            digest.update(data)
        else:
            hashed = executor.submit(digest.update, data)
            try:
                fh.write(data)
            finally:
                # as in dynamics._split: a hash the pool has not started
                # runs here instead of being waited for
                if hashed.cancel():
                    digest.update(data)
                else:
                    hashed.result()
    return digest.hexdigest()


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


def _csv_field(v):
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def write_csv(path, header, rows):
    """Write a header line and one line per row: floats (numpy float64
    included) as .17g, bools as 0/1, anything else as str."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_csv_field, row)) + "\n")


def export_density_csv(density: Density, path):
    """Write a density as spreadsheet-ready CSV: value columns then density."""
    grids = np.meshgrid(*density.values, indexing="ij") if density.values else []
    flat = [g.ravel() for g in grids] + [density.array.ravel()]
    write_csv(path, list(density.axis_names) + ["density"], zip(*flat))
