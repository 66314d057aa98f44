"""Experiment runner: config ingestion, scenario orchestration, persistence.

One JSON config describes one experiment; nothing about the physics is
defaulted (grid, masses and widths must be explicit).  Every run writes a
manifest with the config hash and the sha256 of the bytes of each file it
wrote, even a failed run; a rerun with the same config and seed reproduces
the outputs bit for bit.

    kvn-lab <scenario> --config experiment.json [--out DIR] [--seed N]

Every config value is read by one rule, ``_value``: numbers must be finite,
and list entries are named by index (``hbars[1]``).  Tables give the keys of
each scenario and section; an unknown key is an error.  A configuration
error comes before any file is written, and an unknown root key before the
output directory is made.

Exit codes: 0 success, 2 configuration error naming the field, 3 scenario error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, algebra
from . import dynamics as dyn
from . import measurement as ms
from . import phasespace as ps
from . import uncertainty as un
from .errors import ConfigError, KvnLabError, MissingArtifact, ScenarioError
from .stateio import write_csv, write_json, write_state

# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a value that must be given

# each value kind: its name in errors and its test; a float is a number that
# is not a bool and is finite, which also rejects an int too large for a float
_KINDS = {
    float: ("finite float", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max),
    int: ("int", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    str: ("str", lambda v: isinstance(v, str)),
}

_GRID = {"n_x": int, "n_p": int, "x_min": float, "x_max": float, "p_min": float, "p_max": float}

# the parameters of each state kind; kind k is made by phasespace.make_k, looked
# up at each call, as perfbench's tracer swaps the module's functions
_STATE_KINDS = {"gaussian": ("x0", "p0", "sigma_x", "sigma_p"), "point": ("x0", "p0")}


def _fail(name, msg):
    raise ConfigError(f"{name}: {msg}")


def _name(path, key):
    return f"{path}.{key}" if path else key


def _reject_unknown(cfg, path, allowed):
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        _fail(_name(path, unknown[0]), "unknown key")


def _value(cfg, path, key, kind, default=_REQUIRED):
    """``cfg[key]`` checked as ``kind``: float (returned as a float), int, str,
    or [float], a list of floats whose entries errors name by index, as in
    ``hbars[1]``.  A key without a ``default`` is required."""
    name = _name(path, key)
    if key not in cfg:
        if default is _REQUIRED:
            _fail(name, "missing required value")
        return default
    val = cfg[key]
    if kind == [float]:
        if not isinstance(val, list):
            _fail(name, "expected list")
        return [_checked(v, float, f"{name}[{i}]") for i, v in enumerate(val)]
    return _checked(val, kind, name)


def _checked(val, kind, name):
    what, ok = _KINDS[kind]
    if not ok(val):
        _fail(name, f"expected {what}")
    return float(val) if kind is float else val


def _section(cfg, key, keys, required=True):
    """The object at the root ``key``, or None if it is absent and not
    ``required``.  A key of it outside ``keys`` is an error, unless ``keys``
    is None."""
    if key not in cfg:
        if required:
            _fail(key, "missing required section")
        return None
    sec = cfg[key]
    if not isinstance(sec, dict):
        _fail(key, "must be an object")
    if keys is not None:
        _reject_unknown(sec, key, keys)
    return sec


def _built(path, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a library error it raises is a config error
    at ``path``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, KvnLabError) as exc:
        _fail(path, str(exc))


def _grid(cfg):
    sec = _section(cfg, "grid", _GRID)
    return _built("grid", ps.Grid2D,
                  **{k: _value(sec, "grid", k, kind) for k, kind in _GRID.items()})


def _state(cfg, key, grid):
    sec = _section(cfg, key, None)
    kind = _value(sec, key, "kind", str)
    if kind not in _STATE_KINDS:
        _fail(f"{key}.kind", f"unknown state kind {kind!r}")
    params = _STATE_KINDS[kind]
    _reject_unknown(sec, key, ("kind", *params))
    return _built(key, getattr(ps, f"make_{kind}"), grid,
                  *(_value(sec, key, k, float) for k in params))


def _states(cfg):
    """The grid, target state and device state of a target-device scenario."""
    grid = _grid(cfg)
    return grid, _state(cfg, "target_state", grid), _state(cfg, "device_state", grid)


def _hamiltonian(cfg, key, required=True):
    """The HamiltonianSpec at the root ``key``; an optional one that is absent
    or empty is None."""
    sec = _section(cfg, key, ("mass", "kinetic", "potential"), required)
    if not (sec or required):
        return None
    mass = _value(sec, key, "mass", float)
    if mass <= 0:
        _fail(f"{key}.mass", f"must be positive, got {mass:g}")
    terms = {k: tuple(_value(sec, key, k, [float])) for k in ("kinetic", "potential") if k in sec}
    return _built(key, dyn.HamiltonianSpec, mass=mass, **terms)


def _plan(cfg, extra=()):
    """The PropagationPlan of ``plan``, whose other keys are ``extra``."""
    sec = _section(cfg, "plan", ("dt", "n_steps", "splitting", *extra))
    return _built("plan", dyn.PropagationPlan,
                  dt=_value(sec, "plan", "dt", float),
                  n_steps=_value(sec, "plan", "n_steps", int),
                  splitting=_value(sec, "plan", "splitting", str, "strang"))


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    """What a run produced: config hash, version, timestamps, file checksums."""

    scenario: str
    config_hash: str
    tool_version: str
    started: str
    finished: str = ""
    status: str = "running"
    out_dir: str = ""
    files: list = field(default_factory=list)

    def record(self, path: Path, digest):
        """Add ``path`` with ``digest``, the sha256 its writer returned for the
        bytes it wrote: a str, or the pending digest of stateio.write_state,
        which write resolves.  Every run file is recorded as it is written."""
        self.files.append({"name": path.name, "sha256": digest})

    def write(self, out_dir: Path, error=None):
        """Write manifest.json once every pending digest is resolved in
        record order, and return the run's error: ``error``, or else the
        first error a hash raised.  A digest whose hash raised is written as
        null, and the status is ok or failed with the run's error."""
        for f in self.files:
            if callable(f["sha256"]):
                try:
                    f["sha256"] = f["sha256"]()
                except Exception as exc:
                    f["sha256"], error = None, error or exc
        self.status = "ok" if error is None else f"failed: {error}"
        self.finished = _utcnow()
        payload = {
            "scenario": self.scenario,
            "config_hash": self.config_hash,
            "tool_version": self.tool_version,
            "started": self.started,
            "finished": self.finished,
            "status": self.status,
            "files": sorted(self.files, key=lambda f: f["name"]),
        }
        write_json(out_dir / "manifest.json", payload)
        return error


def _utcnow():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _hash_config(cfg, seed):
    canon = json.dumps({"config": cfg, "seed": seed}, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def _moments(state, names):
    """Mean and sigma of each named coordinate axis, and the norm, of ``state``.

    All of them come from one density: each axis's 1-D marginal gives its
    mean and sigma = sqrt(max(E[u^2] - E[u]^2, 0)), and the total mass the
    norm.  Returns ([(mean, sigma), ...] in the order of ``names``, norm).
    """
    rho = ps.joint_density(state, state.axis_names)
    stats = []
    for name in names:
        m = rho.marginalize((name,))
        u, w = m.values[0], m.array * m.measures[0]
        mean = float(w @ u)
        stats.append((mean, math.sqrt(max(float(w @ (u * u)) - mean * mean, 0.0))))
    return stats, math.sqrt(rho.mass())


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def _scenario_evolve(cfg, out, seed, manifest):
    grid = _grid(cfg)
    h = _hamiltonian(cfg, "hamiltonian")
    state = _state(cfg, "initial_state", grid)
    plan = _plan(cfg)
    snapshot_every = _value(cfg, "", "snapshot_every", int, 0)
    if snapshot_every < 0:
        _fail("snapshot_every", "must be >= 0")

    rows = []

    def observer(step, snap):
        ((x_mean, sigma_x), (p_mean, sigma_p)), norm = _moments(snap, ("x", "p"))
        rows.append((step + 1, (step + 1) * plan.dt, x_mean, p_mean, sigma_x, sigma_p, norm))
        if snapshot_every and (step + 1) % snapshot_every == 0:
            manifest.record(path := out / f"state_{step + 1:06d}.state", write_state(snap, path))

    final = dyn.kvn_evolve(state, h, plan, observer=observer)
    boundary = ps.boundary_mass(final)
    if boundary > 1e-6:
        print(f"warning: boundary mass {boundary:.3e} exceeds 1e-6", file=sys.stderr)
    manifest.record(path := out / "trajectory.csv", write_csv(
        path, ("step", "t", "x_mean", "p_mean", "sigma_x", "sigma_p", "norm"), rows))
    manifest.record(path := out / "final.state", write_state(final, path))


def _scenario_qm_compare(cfg, out, seed, manifest):
    grid = _grid(cfg)
    h = _hamiltonian(cfg, "hamiltonian")
    state = _state(cfg, "initial_state", grid)
    hbars = _value(cfg, "", "hbars", [float])
    if not hbars:
        _fail("hbars", "must not be empty")
    for i, hbar in enumerate(hbars):
        if hbar < 0:
            _fail(f"hbars[{i}]", "must be >= 0")
    plan = _plan(cfg, ("convention",))
    convention = _value(cfg["plan"], "plan", "convention", str, "full_appendixE")
    if convention not in dyn.DEFORM_CONVENTIONS:
        _fail("plan.convention", f"unknown convention {convention!r}")

    scan = dyn.classical_limit_scan(state, h, plan, hbars, convention=convention)
    manifest.record(path := out / "scan.csv", write_csv(path, ("hbar", "l2_deviation"), scan))


def _scenario_measure(cfg, out, seed, manifest):
    grid, target, device = _states(cfg)
    axis = _value(cfg, "", "readout_axis", str, "X")
    if axis not in ms.READOUT_AXES:
        _fail("readout_axis", f"invalid readout axis {axis!r}")
    _built("grid", ms._origin_index, grid.x_axis)  # the pointer kernels need a cell at x = 0

    after = ms.von_neumann_couple(target, device)
    record = ms.readout(after, axis)
    manifest.record(path := out / "readout.csv", record.to_csv(path))
    manifest.record(path := out / "readout.json", record.to_json(
        path, target_grid=repr(grid), device_grid=repr(grid), coupling_duration=1.0))
    manifest.record(path := out / "coupled.state", write_state(after, path))

    r1, r2, classical_inst = ms.check_simultaneity(after, target, device)
    qx = grid.x_axis
    phi_q = _quantum_profile(cfg["target_state"], qx)
    eta_q = _quantum_profile(cfg["device_state"], qx)
    q1, q2 = ms.quantum_simultaneity_probe(phi_q, eta_q, qx)
    payload = {
        "prop1_residual": r1,
        "prop2_residual": r2,
        "classical_instantiated_residual": classical_inst,
        "quantum_prop1_residual": q1,
        "quantum_instantiated_residual": q2,
    }
    manifest.record(path := out / "simultaneity.json", write_json(path, payload))


def _quantum_profile(state_cfg, axis):
    """1D cut of the configured state for the quantum pointer comparison."""
    if state_cfg["kind"] == "gaussian":
        return ms.quantum_gaussian(axis, state_cfg["x0"], state_cfg["sigma_x"])
    return ms.quantum_point(axis, state_cfg["x0"])


def _scenario_kraus(cfg, out, seed, manifest):
    grid, target, device = _states(cfg)
    label_rep = _value(cfg, "", "label_rep", str, "X_P")
    if label_rep not in ms.LABEL_REPS:
        _fail("label_rep", f"unknown label representation {label_rep!r}")
    _built("grid", ms._origin_index, grid.x_axis)

    family = ms.kraus_build(device, label_rep, grid)
    probs = family.joint_probabilities(target)
    after = ms.von_neumann_couple(target, device)
    joint = ps.marginal(after, family.label_axes)
    l1 = float(np.abs(probs - joint.array * joint.cell_measure()).sum())

    va, vb = np.meshgrid(*family.label_values, indexing="ij")
    manifest.record(path := out / "labels.csv", write_csv(
        path, (*family.label_axes, "probability"), zip(va.ravel(), vb.ravel(), probs.ravel())))

    payload = {
        "label_rep": label_rep,
        "completeness_defect": family.completeness_defect(),
        "readout_l1": l1,
        "printed_kernel_discrepancy": ms.printed_kernel_discrepancy(device, target),
    }
    manifest.record(path := out / "kraus.json", write_json(path, payload))


def _scenario_uncertainty(cfg, out, seed, manifest):
    grid, target, device = _states(cfg)
    t_values = _value(cfg, "", "t_values", [float])
    ens = _section(cfg, "ensemble", ("members", "t"), required=False)
    members, t_ens = (0, 1.0) if ens is None else (
        _value(ens, "ensemble", "members", int), _value(ens, "ensemble", "t", float, 1.0))
    if members < 0:
        _fail("ensemble.members", "must be >= 0")
    if members and seed < 0:
        _fail("seed", f"must be >= 0 to draw an ensemble, got {seed}")
    if not (t_values or members):
        _fail("t_values", "must not be empty without an ensemble")

    reports = [un.error_disturbance(target, device, t) for t in t_values]
    if members:
        rng = np.random.default_rng(seed)
        for tgt, dev in _gaussian_ensemble(grid, members, rng):
            reports.append(un.error_disturbance(tgt, dev, t_ens))

    manifest.record(path := out / "uncertainty.csv", un.reports_to_csv(reports, path))
    worst = min(r.slack_ozawa_like for r in reports)
    payload = {
        "min_ozawa_slack": worst,
        "max_abs_comm_ND": max(abs(r.comm_ND) for r in reports),
        "rows": len(reports),
    }
    manifest.record(path := out / "uncertainty.json", write_json(path, payload))


def _gaussian_ensemble(grid, members, rng):
    """Random well-resolved Gaussian product pairs, reproducible by seed."""
    span_x = grid.x_max - grid.x_min
    span_p = grid.p_max - grid.p_min
    for _ in range(members):
        pair = []
        for _ in range(2):
            sigma_x = rng.uniform(max(2.5 * grid.dx, 0.02 * span_x), 0.08 * span_x)
            sigma_p = rng.uniform(max(2.5 * grid.dp, 0.02 * span_p), 0.08 * span_p)
            x0 = rng.uniform(grid.x_min + 5 * sigma_x, grid.x_max - 5 * sigma_x)
            p0 = rng.uniform(grid.p_min + 5 * sigma_p, grid.p_max - 5 * sigma_p)
            pair.append(ps.make_gaussian(grid, x0, p0, sigma_x, sigma_p))
        yield pair


def _scenario_algebra_verify(cfg, out, seed, manifest):
    results = algebra.verify_identity_suite()
    records = [
        {"name": r.name, "pass": r.passed, "residual_term_count": r.residual_term_count}
        for r in results
    ]
    manifest.record(path := out / "algebra.json", write_json(path, records))
    for rec in records:
        print(json.dumps(rec, sort_keys=True))
    if not all(r.passed for r in results):
        raise ScenarioError("identity suite reported failures")


def _scenario_pulsed(cfg, out, seed, manifest):
    grid, target, device = _states(cfg)
    h_t = _hamiltonian(cfg, "target_hamiltonian")
    h_d = _hamiltonian(cfg, "device_hamiltonian", required=False)
    eps = _value(cfg, "", "eps", float)
    t1 = _value(cfg, "", "t1", float)
    t_total = _value(cfg, "", "t_total", float)
    plan = _plan(cfg)
    if not 0.0 < t1 < t_total:
        _fail("t1", "need 0 < t1 < t_total")
    # the steps pulsed_propagator runs before and after the pulse
    steps = (dyn._step_count(t1, plan.dt), dyn._step_count(t_total - t1, plan.dt))
    if plan.n_steps != sum(steps):
        _fail("plan.n_steps", "the flights to t1 and t_total take {} + {} steps of dt = {:g}, "
              "not {}".format(*steps, plan.dt, plan.n_steps))

    initial = ps.product_state(target, device)
    final = dyn.pulsed_propagator(initial, h_t, h_d, eps, t1, t_total, plan)
    manifest.record(path := out / "final.state", write_state(final, path))
    ((pointer_mean, _), (target_x_mean, _)), norm = _moments(final, ("X", "x"))
    payload = {
        "pointer_mean": pointer_mean,
        "target_x_mean": target_x_mean,
        "norm": norm,
        "eps": eps,
        "t1": t1,
        "t_total": t_total,
    }
    manifest.record(path := out / "pulsed.json", write_json(path, payload))


_FLIGHT = ("grid", "hamiltonian", "initial_state", "plan")
_POINTER = ("grid", "target_state", "device_state")

# each scenario's runner and the root keys it reads, besides scenario and seed
_SCENARIOS = {
    "evolve": (_scenario_evolve, (*_FLIGHT, "snapshot_every")),
    "qm_compare": (_scenario_qm_compare, (*_FLIGHT, "hbars")),
    "measure": (_scenario_measure, (*_POINTER, "readout_axis")),
    "kraus": (_scenario_kraus, (*_POINTER, "label_rep")),
    "uncertainty": (_scenario_uncertainty, (*_POINTER, "t_values", "ensemble")),
    "algebra_verify": (_scenario_algebra_verify, ()),
    "pulsed": (_scenario_pulsed, (*_POINTER, "target_hamiltonian", "device_hamiltonian",
                                  "eps", "t1", "t_total", "plan")),
}
SCENARIOS = tuple(_SCENARIOS)


def run(config, out_dir, seed=None):
    """Validate and execute one experiment; returns the RunManifest.

    A ``seed`` argument wins over ``config["seed"]``, which wins over 0.
    The manifest is written even when the scenario or a state hash fails
    (status records the failure) before the error propagates, a kvnlab
    error as ScenarioError; configuration errors abort before any output.
    """
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    scenario = _value(config, "", "scenario", str)
    if scenario not in _SCENARIOS:
        _fail("scenario", f"unknown scenario {scenario!r}")
    runner, keys = _SCENARIOS[scenario]
    _reject_unknown(config, "", ("scenario", "seed", *keys))
    config_seed = _value(config, "", "seed", int, 0)
    if seed is None:
        seed = config_seed

    out = Path(out_dir)
    made = next(i for i, p in enumerate((out, *out.parents)) if p.exists())  # levels mkdir makes
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        scenario=scenario,
        config_hash=_hash_config(config, seed),
        tool_version=__version__,
        started=_utcnow(),
        out_dir=str(out),
    )
    error = None
    try:
        runner(config, out, seed, manifest)
    except ConfigError:
        for p in (out, *out.parents)[:made]:  # no file is written before a config error
            p.rmdir()
        raise
    except Exception as exc:
        error = exc
    error = manifest.write(out, error)
    if isinstance(error, KvnLabError):
        raise ScenarioError(f"{scenario}: {error}") from error
    if error is not None:
        raise error
    return manifest


def _density(rows):
    """readout.csv's probabilities divided by the spacing of the read values."""
    dv = rows[1]["value"] - rows[0]["value"] if len(rows) > 1 else 1.0
    return [(r["value"], r["probability"] / dv) for r in rows]


# each plot kind's source file, its columns, and its rows from the source's rows
_PLOTS = {
    "trajectory": ("trajectory.csv", ("t", "x_mean", "p_mean"),
                   lambda rows: [(r["t"], r["x_mean"], r["p_mean"]) for r in rows]),
    "distribution": ("readout.csv", ("value", "density"), _density),
    "inequality_sweep": ("uncertainty.csv", ("t", "slack_ozawa_like"),
                         lambda rows: [(r["t"], r["slack_ozawa_like"]) for r in rows]),
}
PLOT_KINDS = tuple(_PLOTS)


def emit_plot_data(manifest: RunManifest, kind: str) -> Path:
    """Write a two-or-three-column CSV ready for gnuplot or a spreadsheet,
    and record it in ``manifest``."""
    if kind not in _PLOTS:
        raise ValueError(f"unknown plot kind {kind!r}")
    source, columns, rows_of = _PLOTS[kind]
    out = Path(manifest.out_dir)
    src = out / source
    if not src.exists():
        raise MissingArtifact(f"{src} not produced by this run")
    manifest.record(path := out / f"plot_{kind}.csv",
                    write_csv(path, columns, rows_of(_read_csv(src))))
    return path


def _read_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [
        {k: float(v) for k, v in zip(header, line.split(","))}
        for line in lines[1:]
    ]


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv[:2] == ["algebra", "verify"]:
        argv = ["algebra_verify"] + list(argv[2:])

    parser = argparse.ArgumentParser(
        prog="kvn-lab",
        description="Phase-space classical mechanics experiment runner",
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", default=None, help="path to the experiment JSON "
                        "(optional for algebra_verify)")
    parser.add_argument("--out", default=None, help="output directory (default: config stem)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--plot", choices=PLOT_KINDS, default=None,
                        help="also emit plot data of this kind")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            try:
                with open(args.config) as fh:
                    config = json.load(fh)
            except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
                raise ConfigError(str(exc)) from exc
        elif args.scenario == "algebra_verify":
            config = {}
        else:
            raise ConfigError("--config is required")
        if not isinstance(config, dict):
            raise ConfigError("root must be an object")
        if config.get("scenario", args.scenario) != args.scenario:
            _fail("scenario", "does not match the command line")
        config["scenario"] = args.scenario
        out_dir = args.out or (Path(args.config).stem + ".out" if args.config else "algebra.out")
        manifest = run(config, out_dir, seed=args.seed)
        if args.plot:
            emit_plot_data(manifest, args.plot)
            manifest.write(Path(manifest.out_dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, KvnLabError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 3
    print(f"ok: results in {manifest.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
