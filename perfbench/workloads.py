"""Workload definitions and the output checks the benchmark applies.

A workload turns a seed into the list of scenario configs that make up one
pass; each config is run with ``kvnlab.cli.run(config, out_dir, seed=seed)``.
The seed is never written into a config, so the precedence between
``config["seed"]`` and the ``seed`` argument cannot change what is measured.

Every check compares an output file with a value derived from the config
alone (closed-form Gaussian flows), or with a bound the physics fixes.  State files are decoded here, not with
``kvnlab.stateio``, so a defect in the library cannot vouch for itself.
"""

from __future__ import annotations

import csv
import json
import math
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: str
    moves: tuple        # per-layer metrics expected to move on this workload
    unchanged: tuple    # layers predicted to do no work here
    configs: Callable   # seed -> list of scenario configs, one cli.run each


def _gaussian(x0, p0, sigma_x, sigma_p):
    return {"kind": "gaussian", "x0": x0, "p0": p0,
            "sigma_x": sigma_x, "sigma_p": sigma_p}


def _grid(n, x_min, x_max, p_min, p_max):
    return {"n_x": n, "n_p": n, "x_min": x_min, "x_max": x_max,
            "p_min": p_min, "p_max": p_max}


def _jitter(rng, centre, half_width):
    return centre + rng.uniform(-half_width, half_width)


def evolve_2d_configs(seed):
    rng = random.Random(seed)
    return [{
        "scenario": "evolve",
        "grid": _grid(256, -16.0, 16.0, -8.0, 8.0),
        "hamiltonian": {"mass": 1.0, "potential": [0.0, 0.0, 0.5]},
        "initial_state": _gaussian(_jitter(rng, -4.0, 0.25), _jitter(rng, 0.0, 0.25), 0.5, 0.25),
        "plan": {"dt": 0.05, "n_steps": 200},
        "snapshot_every": 50,
    }]


def pulsed_4d_configs(seed):
    rng = random.Random(seed)
    return [{
        "scenario": "pulsed",
        "grid": _grid(32, -8.0, 8.0, -4.0, 4.0),
        "target_state": _gaussian(_jitter(rng, -1.0, 0.1), _jitter(rng, 0.5, 0.05), 1.0, 0.5),
        "device_state": _gaussian(_jitter(rng, 0.0, 0.1), _jitter(rng, 0.0, 0.05), 1.0, 0.5),
        "target_hamiltonian": {"mass": 1.0},
        "device_hamiltonian": {"mass": 1.0},
        "eps": 0.5,
        "t1": 0.4,
        "t_total": 1.0,
        "plan": {"dt": 0.05, "n_steps": 20},
    }]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="evolve_2d",
        why="2D split-step propagation dominates: FFT pairs, axis phases and the per-step "
            "expectation observer; snapshots add state writes.",
        sizes="256x256 harmonic (m=omega=1), 200 Strang steps of dt=0.05, 4 snapshots of 1 MiB",
        moves=("dynamics.split_step_2d_s", "phasespace.fft_pair_2d_x_s",
               "phasespace.fft_pair_2d_p_s", "phasespace.transform_s",
               "phasespace.expectation_s", "stateio.save_state_s", "cli.record_s"),
        unchanged=("algebra", "measurement", "uncertainty"),
        configs=evolve_2d_configs,
    ),
    Workload(
        name="pulsed_4d",
        why="A few 4D free steps on a 16 MiB array that does not fit L2, one coupling shear "
            "with its wrap guard, and a 16 MiB state write.",
        sizes="32^4 (x,X in [-8,8), p,P in [-4,4)), 20 free steps of dt=0.05, eps=0.5 at t1=0.4",
        moves=("dynamics.split_step_4d_s", "phasespace.fft_pair_4d_x_s",
               "phasespace.fft_pair_4d_P_s", "dynamics.coupling_shear_s",
               "stateio.save_state_4d_s", "cli.record_s"),
        unchanged=("algebra", "uncertainty"),
        configs=pulsed_4d_configs,
    ),
)}


# ---------------------------------------------------------------------------
# output readers, independent of kvnlab
# ---------------------------------------------------------------------------


def read_state(path):
    """Decode a state container into (|amplitude|^2, cell measure)."""
    raw = Path(path).read_bytes()
    if raw[:8] != b"KVNSTATE":
        raise ValueError(f"{path}: not a state container")
    _, _, n_axes = struct.unpack_from("<HIH", raw, 8)
    offset = 16 + n_axes  # header, then one conjugate flag per axis
    axes = [struct.unpack_from("<Qdd", raw, offset + 24 * k) for k in range(n_axes)]
    offset += 24 * n_axes
    shape = tuple(int(n) for n, _, _ in axes)
    data = np.frombuffer(raw, dtype="<f8", offset=offset).reshape(shape + (2,))
    density = data[..., 0] ** 2 + data[..., 1] ** 2
    cell = math.prod((hi - lo) / n for n, lo, hi in axes)
    return density, cell


def read_csv(path):
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _within(problems, what, value, reference, tol):
    if not abs(value - reference) <= tol:
        problems.append(f"{what} = {value!r}, expected {reference!r} within {tol:g}")


def _below(problems, what, value, limit):
    if not abs(value) < limit:
        problems.append(f"{what} = {value!r}, expected below {limit:g}")


# ---------------------------------------------------------------------------
# per-scenario checks: (config, out_dir) -> list of problems
# ---------------------------------------------------------------------------


def check_evolve(cfg, out):
    problems = []
    rows = read_csv(out / "trajectory.csv")
    mass = cfg["hamiltonian"]["mass"]
    omega = math.sqrt(2.0 * cfg["hamiltonian"]["potential"][2] / mass)
    st = cfg["initial_state"]
    t = cfg["plan"]["dt"] * cfg["plan"]["n_steps"]
    x_ref = st["x0"] * math.cos(omega * t) + st["p0"] / (mass * omega) * math.sin(omega * t)
    p_ref = st["p0"] * math.cos(omega * t) - mass * omega * st["x0"] * math.sin(omega * t)
    if len(rows) != cfg["plan"]["n_steps"]:
        problems.append(f"trajectory has {len(rows)} rows, expected {cfg['plan']['n_steps']}")
    last = rows[-1]
    _within(problems, "x_mean(t_end)", last["x_mean"], x_ref, 0.01)
    _within(problems, "p_mean(t_end)", last["p_mean"], p_ref, 0.01)
    _below(problems, "norm drift", max(abs(r["norm"] - 1.0) for r in rows), 1e-9)
    dens, cell = read_state(out / "final.state")
    interior = dens[tuple(slice(1, -1) for _ in range(dens.ndim))]
    _below(problems, "final boundary mass", (dens.sum() - interior.sum()) * cell, 1e-6)
    return problems


def check_pulsed(cfg, out):
    problems = []
    tgt, dev = cfg["target_state"], cfg["device_state"]
    m_t, m_d = cfg["target_hamiltonian"]["mass"], cfg["device_hamiltonian"]["mass"]
    eps, t1, t_total = cfg["eps"], cfg["t1"], cfg["t_total"]
    # free flight to t1, X += eps*x and p -= eps*P at t1, free flight after
    pointer_ref = dev["x0"] + dev["p0"] / m_d * t_total + eps * (tgt["x0"] + tgt["p0"] / m_t * t1)
    target_ref = tgt["x0"] + tgt["p0"] / m_t * t_total - eps * dev["p0"] / m_t * (t_total - t1)
    result = read_json(out / "pulsed.json")
    _within(problems, "pointer mean", result["pointer_mean"], pointer_ref, 1e-3)
    _within(problems, "target x mean", result["target_x_mean"], target_ref, 1e-3)
    dens, cell = read_state(out / "final.state")
    _below(problems, "norm drift", math.sqrt(dens.sum() * cell) - 1.0, 1e-9)
    return problems


CHECKS = {
    "evolve": check_evolve,
    "pulsed": check_pulsed,
}


def check_run(cfg, out):
    """All problems with one scenario run's outputs; empty when correct."""
    out = Path(out)
    try:
        manifest = read_json(out / "manifest.json")
        problems = []
        if manifest["status"] != "ok":
            problems.append(f"manifest status {manifest['status']!r}")
        return problems + CHECKS[cfg["scenario"]](cfg, out)
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def manifest_checksums(out):
    """(name, sha256) pairs the run's manifest recorded, in name order."""
    files = read_json(Path(out) / "manifest.json")["files"]
    return tuple((f["name"], f["sha256"]) for f in files)
