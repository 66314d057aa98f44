"""Flat binary container for states, plus the CSV and JSON writers of every run.

Layout: magic ``KVNSTATE``, version, endianness marker, axis count, one
conjugate flag per axis, then per axis (n, vmin, vmax), then the amplitude
as interleaved re/im float64 in C order.  Files written on one machine load
on any other; the marker detects a byte-order mismatch.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from functools import partial

import numpy as np

from ._slabs import together
from .phasespace import BipartiteState, Density, Grid2D, PhaseState, _FLAGS_REP

_MAGIC = b"KVNSTATE"
_VERSION = 1
_ENDIAN_MARK = 0x01020304


def save_state(state, path):
    """Serialize a PhaseState or BipartiteState to the binary container.

    Returns the sha256 hex digest of the bytes written.  The amplitude is
    written and hashed as two tasks of _slabs.together: on a state large
    enough for its pool (a 256^2 state, a 16^4 pair and up) a pool thread
    hashes it while this one writes it, as both release the GIL, and this
    one hashes it if the pool has not started by then.
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
    with open(path, "wb") as fh:
        fh.write(header)
        together(data.size, [partial(fh.write, data), partial(digest.update, data)])
    return digest.hexdigest()


def load_state(path):
    """Read a state container.  Raises ValueError naming ``path`` when the
    file is not one, holds more or fewer bytes than its header needs, or
    its header holds an axis that Grid2D rejects."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        if head[:8] != _MAGIC:
            raise ValueError(f"{path}: not a state container")
        if len(head) < 16:
            raise ValueError(f"{path}: the header needs 16 bytes, the file has {size}")
        version, mark, n_axes = struct.unpack("<HIH", head[8:])
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")
        if mark != _ENDIAN_MARK:
            raise ValueError(f"{path}: endianness marker mismatch")
        header = 16 + 25 * n_axes
        if size < header:
            raise ValueError(f"{path}: a {n_axes}-axis header needs {header} bytes, "
                             f"the file has {size}")
        flags = tuple(bool(f) for f in fh.read(n_axes))
        specs = [struct.unpack("<Qdd", fh.read(24)) for _ in range(n_axes)]
        shape = tuple(int(s[0]) for s in specs)
        need = header + 16 * math.prod(shape)
        if size != need:
            raise ValueError(f"{path}: a {shape} state needs {need} bytes, the file has {size}")
        amp = np.frombuffer(fh.read(), "<c16").reshape(shape)
    if n_axes == 2:
        return PhaseState(_grid(path, specs, 0), _FLAGS_REP[flags], amp)
    if n_axes == 4:
        return BipartiteState(_grid(path, specs, 0), _grid(path, specs, 2), flags, amp)
    raise ValueError(f"{path}: unsupported axis count {n_axes}")


def _grid(path, specs, i):
    """The Grid2D of header axes i and i + 1; a bad axis names ``path``."""
    (n_x, x_min, x_max), (n_p, p_min, p_max) = specs[i:i + 2]
    try:
        return Grid2D(n_x, n_p, x_min, x_max, p_min, p_max)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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


def write_json(path, obj):
    """Write ``obj`` as JSON with one-space indents and sorted keys, and no
    trailing newline: the format of every JSON file a run writes."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def export_density_csv(density: Density, path):
    """Write a density as spreadsheet-ready CSV: value columns then density."""
    grids = np.meshgrid(*density.values, indexing="ij") if density.values else []
    flat = [g.ravel() for g in grids] + [density.array.ravel()]
    write_csv(path, list(density.axis_names) + ["density"], zip(*flat))
