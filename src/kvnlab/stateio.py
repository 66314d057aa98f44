"""Flat binary container for states, plus the CSV and JSON writers of every run.
Each writer returns the sha256 hex digest of the bytes it wrote; write_state
returns it pending, as a callable, while the hash runs on the slab pool.

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
from itertools import chain, islice

import numpy as np

from ._slabs import later
from .phasespace import BipartiteState, Grid2D, PhaseState, _FLAGS_REP

_MAGIC = b"KVNSTATE"
_VERSION = 1
_ENDIAN_MARK = 0x01020304


# about this many elements of a float64 amplitude are cast to <c16 at a time
_SLAB = 1 << 14


def write_state(state, path):
    """Serialize a PhaseState or BipartiteState to the binary container, and
    return its pending digest: a zero-argument callable that gives the
    sha256 hex digest of the bytes written.

    The amplitude is always written as little-endian complex128 (``<c16``):
    a float64 xp amplitude is cast, with +0.0 imaginary parts, so its file
    and digest are those of its complex128 cast.  The hash goes to
    _slabs.later before this thread writes the file: on a state large enough
    for its pool (a 256^2 state, a 16^4 pair and up) a pool thread hashes
    while this one writes and then goes on, and on a smaller state, or on
    one core, the hash runs here first.  It reads the state's amplitude,
    which is frozen, and holds no copy of it: a float64 amplitude is
    written and hashed through small buffers.
    """
    axes = state.axes()
    header = b"".join([
        _MAGIC,
        struct.pack("<HIH", _VERSION, _ENDIAN_MARK, len(axes)),
        struct.pack(f"<{len(axes)}B", *[int(f) for f in state.conj_flags]),
        *(struct.pack("<Qdd", ax.n, ax.vmin, ax.vmax) for ax in axes),
    ])
    amp = state.amp
    digest = later(amp.size, partial(_sha256, header, amp))
    with open(path, "wb") as fh:
        fh.write(header)
        for chunk in _c16(amp):
            fh.write(chunk)
    return digest


def save_state(state, path):
    """write_state, then its digest: the sha256 hex digest of the bytes written."""
    return write_state(state, path)()


def _c16(amp):
    """The bytes of ``amp`` as little-endian complex128 in C order, which is
    the interleaved re/im layout: the array itself if it is stored so, else
    slabs of whole rows along axis 0, about _SLAB elements each, cast into
    one reused buffer."""
    if amp.dtype == np.dtype("<c16") and amp.flags.c_contiguous:
        yield amp
        return
    rows = max(1, _SLAB * amp.shape[0] // amp.size)
    buf = np.empty((min(rows, amp.shape[0]),) + amp.shape[1:], "<c16")
    for lo in range(0, amp.shape[0], rows):
        part = buf[:min(rows, amp.shape[0] - lo)]
        part[...] = amp[lo:lo + rows]
        yield part


def _sha256(header, amp):
    digest = hashlib.sha256(header)
    for chunk in _c16(amp):
        digest.update(chunk)
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


def _write(path, chunks):
    """Write each str of ``chunks`` to ``path`` and hash it as it goes;
    returns the sha256 hex digest of the bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            data = chunk.encode()
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def write_csv(path, header, rows):
    """Write a header line and one line per row: floats (numpy float64
    included) as .17g, bools as 0/1, anything else as str.  Rows are joined
    and hashed 4096 at a time; returns the sha256 hex digest of the bytes."""
    lines = (",".join(map(_csv_field, row)) + "\n" for row in rows)
    chunks = iter(lambda: "".join(islice(lines, 4096)), "")
    return _write(path, chain([",".join(header) + "\n"], chunks))


def write_json(path, obj):
    """Write ``obj`` as JSON with one-space indents and sorted keys, and no
    trailing newline: the format of every JSON file a run writes.  Returns
    the sha256 hex digest of the bytes written."""
    return _write(path, json.JSONEncoder(indent=1, sort_keys=True).iterencode(obj))
