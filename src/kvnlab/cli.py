"""Experiment runner: config ingestion, scenario orchestration, persistence.

One JSON config describes one experiment; nothing about the physics is
defaulted (grid, masses and widths must be explicit).  Every run writes a
manifest with the config hash and a checksum for each emitted file, so a
rerun with the same config and seed reproduces the outputs bit for bit.

    kvn-lab <scenario> --config experiment.json [--out DIR] [--seed N]

Exit codes: 0 success, 2 configuration error, 3 scenario error.
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
from .stateio import save_state, write_csv, write_json

SCENARIOS = (
    "evolve", "qm_compare", "measure", "kraus", "uncertainty",
    "algebra_verify", "pulsed",
)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _section(cfg, path, key, required=True):
    if key not in cfg:
        if required:
            _fail(f"{path}.{key}" if path else key, "missing required section")
        return None
    val = cfg[key]
    if not isinstance(val, dict):
        _fail(f"{path}.{key}" if path else key, "must be an object")
    return val


def _value(cfg, path, key, kinds, required=True, default=None):
    if key not in cfg:
        if required:
            _fail(f"{path}.{key}", "missing required value")
        return default
    val = cfg[key]
    if kinds is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    if kinds is int and isinstance(val, int) and not isinstance(val, bool):
        return val
    if kinds is str and isinstance(val, str):
        return val
    if kinds is list and isinstance(val, list):
        return val
    _fail(f"{path}.{key}", f"expected {kinds.__name__}")


def _reject_unknown(cfg, path, allowed):
    unknown = set(cfg) - set(allowed)
    if unknown:
        _fail(f"{path}.{sorted(unknown)[0]}" if path else sorted(unknown)[0],
              "unknown key")


def _parse_grid(cfg, path):
    _reject_unknown(cfg, path, ("n_x", "n_p", "x_min", "x_max", "p_min", "p_max"))
    try:
        return ps.Grid2D(
            _value(cfg, path, "n_x", int),
            _value(cfg, path, "n_p", int),
            _value(cfg, path, "x_min", float),
            _value(cfg, path, "x_max", float),
            _value(cfg, path, "p_min", float),
            _value(cfg, path, "p_max", float),
        )
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_state(cfg, path, grid):
    kind = _value(cfg, path, "kind", str)
    if kind == "gaussian":
        _reject_unknown(cfg, path, ("kind", "x0", "p0", "sigma_x", "sigma_p"))
        args = {k: _value(cfg, path, k, float) for k in ("x0", "p0", "sigma_x", "sigma_p")}
        try:
            return ps.make_gaussian(grid, **args)
        except KvnLabError as exc:
            _fail(path, str(exc))
    if kind == "point":
        _reject_unknown(cfg, path, ("kind", "x0", "p0"))
        try:
            return ps.make_point(grid, _value(cfg, path, "x0", float), _value(cfg, path, "p0", float))
        except KvnLabError as exc:
            _fail(path, str(exc))
    _fail(f"{path}.kind", f"unknown state kind {kind!r}")


def _parse_hamiltonian(cfg, path):
    _reject_unknown(cfg, path, ("mass", "kinetic", "potential"))
    mass = _value(cfg, path, "mass", float)
    if mass <= 0:
        _fail(f"{path}.mass", f"must be positive, got {mass:g}")
    kwargs = {"mass": mass}
    for key in ("kinetic", "potential"):
        if key in cfg:
            seq = _value(cfg, path, key, list)
            kwargs[key] = tuple(float(v) for v in seq)
    try:
        return dyn.HamiltonianSpec(**kwargs)
    except KvnLabError as exc:
        _fail(path, str(exc))


def _parse_plan(cfg, path):
    _reject_unknown(cfg, path, ("dt", "n_steps", "splitting", "hbar", "convention"))
    try:
        plan = dyn.PropagationPlan(
            dt=_value(cfg, path, "dt", float),
            n_steps=_value(cfg, path, "n_steps", int),
            splitting=_value(cfg, path, "splitting", str, required=False, default="strang"),
            hbar=_value(cfg, path, "hbar", float, required=False, default=0.0),
        )
    except ValueError as exc:
        _fail(path, str(exc))
    convention = _value(cfg, path, "convention", str, required=False, default="full_appendixE")
    if convention not in dyn.DEFORM_CONVENTIONS:
        _fail(f"{path}.convention", f"unknown convention {convention!r}")
    return plan, convention


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

    def record(self, path: Path, digest=None):
        """Add ``path`` with its sha256; ``digest`` is that of the bytes just
        written to it (save_state returns one), else the file is read back."""
        if digest is None:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.files.append({"name": path.name, "sha256": digest})

    def write(self, out_dir: Path):
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
    _reject_unknown(cfg, "", ("scenario", "grid", "hamiltonian", "initial_state",
                              "plan", "snapshot_every", "seed"))
    grid = _parse_grid(_section(cfg, "", "grid"), "grid")
    h = _parse_hamiltonian(_section(cfg, "", "hamiltonian"), "hamiltonian")
    state = _parse_state(_section(cfg, "", "initial_state"), "initial_state", grid)
    plan, _ = _parse_plan(_section(cfg, "", "plan"), "plan")
    if plan.hbar != 0.0:
        _fail("plan.hbar", "evolve is the classical scenario; use qm_compare for hbar > 0")
    snapshot_every = _value(cfg, "", "snapshot_every", int, required=False, default=0)
    if snapshot_every < 0:
        _fail("snapshot_every", "must be >= 0")

    rows = []
    snapshots = []

    def observer(step, snap):
        ((x_mean, sigma_x), (p_mean, sigma_p)), norm = _moments(snap, ("x", "p"))
        rows.append((step + 1, (step + 1) * plan.dt, x_mean, p_mean, sigma_x, sigma_p, norm))
        if snapshot_every and (step + 1) % snapshot_every == 0:
            path = out / f"state_{step + 1:06d}.state"
            snapshots.append((path, save_state(snap, path)))

    final = dyn.kvn_evolve(state, h, plan, observer=observer)
    boundary = ps.boundary_mass(final)
    if boundary > 1e-6:
        print(f"warning: boundary mass {boundary:.3e} exceeds 1e-6", file=sys.stderr)
    write_csv(out / "trajectory.csv",
              ("step", "t", "x_mean", "p_mean", "sigma_x", "sigma_p", "norm"), rows)
    manifest.record(out / "trajectory.csv")
    manifest.record(out / "final.state", save_state(final, out / "final.state"))
    for path, digest in snapshots:
        manifest.record(path, digest)


def _scenario_qm_compare(cfg, out, seed, manifest):
    _reject_unknown(cfg, "", ("scenario", "grid", "hamiltonian", "initial_state", "plan",
                              "hbars", "seed"))
    grid = _parse_grid(_section(cfg, "", "grid"), "grid")
    h = _parse_hamiltonian(_section(cfg, "", "hamiltonian"), "hamiltonian")
    state = _parse_state(_section(cfg, "", "initial_state"), "initial_state", grid)
    hbars = [float(v) for v in _value(cfg, "", "hbars", list)]
    plan, convention = _parse_plan(_section(cfg, "", "plan"), "plan")

    scan = dyn.classical_limit_scan(
        state, h, plan.dt * plan.n_steps, hbars,
        n_steps=plan.n_steps, convention=convention,
    )
    write_csv(out / "scan.csv", ("hbar", "l2_deviation"), scan)
    manifest.record(out / "scan.csv")


def _scenario_measure(cfg, out, seed, manifest):
    _reject_unknown(cfg, "", ("scenario", "grid", "target_state", "device_state",
                              "readout_axis", "seed"))
    grid = _parse_grid(_section(cfg, "", "grid"), "grid")
    target = _parse_state(_section(cfg, "", "target_state"), "target_state", grid)
    device = _parse_state(_section(cfg, "", "device_state"), "device_state", grid)
    axis = _value(cfg, "", "readout_axis", str, required=False, default="X")
    if axis not in ms.READOUT_AXES:
        _fail("readout_axis", f"invalid readout axis {axis!r}")

    after = ms.von_neumann_couple(target, device)
    record = ms.readout(after, axis)
    record.to_csv(out / "readout.csv")
    manifest.record(out / "readout.csv")
    record.to_json(
        out / "readout.json",
        target_grid=repr(grid), device_grid=repr(grid), coupling_duration=1.0,
    )
    manifest.record(out / "readout.json")
    manifest.record(out / "coupled.state", save_state(after, out / "coupled.state"))

    r1, r2 = ms.check_simultaneity(after, target, device)
    classical_inst = ms.pointer_instantiated_residual(after, target)
    qx = grid.x_axis
    phi_q = _quantum_profile(_section(cfg, "", "target_state"), qx)
    eta_q = _quantum_profile(_section(cfg, "", "device_state"), qx)
    q1, q2 = ms.quantum_simultaneity_probe(phi_q, eta_q, qx)
    payload = {
        "prop1_residual": r1,
        "prop2_residual": r2,
        "classical_instantiated_residual": classical_inst,
        "quantum_prop1_residual": q1,
        "quantum_instantiated_residual": q2,
    }
    write_json(out / "simultaneity.json", payload)
    manifest.record(out / "simultaneity.json")


def _quantum_profile(state_cfg, axis):
    """1D cut of the configured state for the quantum pointer comparison."""
    if state_cfg["kind"] == "gaussian":
        return ms.quantum_gaussian(axis, state_cfg["x0"], state_cfg["sigma_x"])
    return ms.quantum_point(axis, state_cfg["x0"])


def _scenario_kraus(cfg, out, seed, manifest):
    _reject_unknown(cfg, "", ("scenario", "grid", "target_state", "device_state",
                              "label_rep", "seed"))
    grid = _parse_grid(_section(cfg, "", "grid"), "grid")
    target = _parse_state(_section(cfg, "", "target_state"), "target_state", grid)
    device = _parse_state(_section(cfg, "", "device_state"), "device_state", grid)
    label_rep = _value(cfg, "", "label_rep", str, required=False, default="X_P")
    if label_rep not in ms.LABEL_REPS:
        _fail("label_rep", f"unknown label representation {label_rep!r}")

    family = ms.kraus_build(device, label_rep, grid)
    probs = family.joint_probabilities(target)
    after = ms.von_neumann_couple(target, device)
    joint = ps.marginal(after, family.label_axes)
    l1 = float(np.abs(probs - joint.array * joint.cell_measure()).sum())

    va, vb = np.meshgrid(*family.label_values, indexing="ij")
    write_csv(out / "labels.csv", (*family.label_axes, "probability"),
              zip(va.ravel(), vb.ravel(), probs.ravel()))
    manifest.record(out / "labels.csv")

    payload = {
        "label_rep": label_rep,
        "completeness_defect": family.completeness_defect(),
        "readout_l1": l1,
        "printed_kernel_discrepancy": ms.printed_kernel_discrepancy(device, target),
    }
    write_json(out / "kraus.json", payload)
    manifest.record(out / "kraus.json")


def _scenario_uncertainty(cfg, out, seed, manifest):
    _reject_unknown(cfg, "", ("scenario", "grid", "target_state", "device_state",
                              "t_values", "ensemble", "seed"))
    grid = _parse_grid(_section(cfg, "", "grid"), "grid")
    target = _parse_state(_section(cfg, "", "target_state"), "target_state", grid)
    device = _parse_state(_section(cfg, "", "device_state"), "device_state", grid)
    t_values = [float(v) for v in _value(cfg, "", "t_values", list)]

    reports = [un.error_disturbance(target, device, t) for t in t_values]

    ens_cfg = _section(cfg, "", "ensemble", required=False)
    if ens_cfg is not None:
        _reject_unknown(ens_cfg, "ensemble", ("members", "t"))
        members = _value(ens_cfg, "ensemble", "members", int)
        t_ens = _value(ens_cfg, "ensemble", "t", float, required=False, default=1.0)
        rng = np.random.default_rng(seed)
        for tgt, dev in _gaussian_ensemble(grid, members, rng):
            reports.append(un.error_disturbance(tgt, dev, t_ens))

    un.reports_to_csv(reports, out / "uncertainty.csv")
    manifest.record(out / "uncertainty.csv")
    worst = min(un.check_ozawa_like(r) for r in reports)
    payload = {
        "min_ozawa_slack": worst,
        "max_abs_comm_ND": max(abs(r.comm_ND) for r in reports),
        "rows": len(reports),
    }
    write_json(out / "uncertainty.json", payload)
    manifest.record(out / "uncertainty.json")


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
    _reject_unknown(cfg, "", ("scenario", "seed"))
    results = algebra.verify_identity_suite()
    records = [
        {"name": r.name, "pass": r.passed, "residual_term_count": r.residual_term_count}
        for r in results
    ]
    write_json(out / "algebra.json", records)
    manifest.record(out / "algebra.json")
    for rec in records:
        print(json.dumps(rec, sort_keys=True))
    if not all(r.passed for r in results):
        raise ScenarioError("identity suite reported failures")


def _scenario_pulsed(cfg, out, seed, manifest):
    _reject_unknown(cfg, "", ("scenario", "grid", "target_state", "device_state",
                              "target_hamiltonian", "device_hamiltonian",
                              "eps", "t1", "t_total", "plan", "seed"))
    grid = _parse_grid(_section(cfg, "", "grid"), "grid")
    target = _parse_state(_section(cfg, "", "target_state"), "target_state", grid)
    device = _parse_state(_section(cfg, "", "device_state"), "device_state", grid)
    h_t = _parse_hamiltonian(_section(cfg, "", "target_hamiltonian"), "target_hamiltonian")
    h_d_cfg = _section(cfg, "", "device_hamiltonian", required=False)
    h_d = _parse_hamiltonian(h_d_cfg, "device_hamiltonian") if h_d_cfg else None
    eps = _value(cfg, "", "eps", float)
    t1 = _value(cfg, "", "t1", float)
    t_total = _value(cfg, "", "t_total", float)
    plan, _ = _parse_plan(_section(cfg, "", "plan"), "plan")
    if not 0.0 < t1 < t_total:
        _fail("t1", "need 0 < t1 < t_total")

    initial = ps.product_state(target, device)
    final = dyn.pulsed_propagator(initial, h_t, h_d, eps, t1, t_total, plan)
    manifest.record(out / "final.state", save_state(final, out / "final.state"))
    ((pointer_mean, _), (target_x_mean, _)), norm = _moments(final, ("X", "x"))
    payload = {
        "pointer_mean": pointer_mean,
        "target_x_mean": target_x_mean,
        "norm": norm,
        "eps": eps,
        "t1": t1,
        "t_total": t_total,
    }
    write_json(out / "pulsed.json", payload)
    manifest.record(out / "pulsed.json")


_SCENARIO_RUNNERS = {
    "evolve": _scenario_evolve,
    "qm_compare": _scenario_qm_compare,
    "measure": _scenario_measure,
    "kraus": _scenario_kraus,
    "uncertainty": _scenario_uncertainty,
    "algebra_verify": _scenario_algebra_verify,
    "pulsed": _scenario_pulsed,
}


def run(config, out_dir, seed=None):
    """Validate and execute one experiment; returns the RunManifest.

    A ``seed`` argument wins over ``config["seed"]``, which wins over 0.
    The manifest is written even when the scenario fails (status records
    the failure); configuration errors abort before any output.
    """
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    scenario = _value(config, "", "scenario", str)
    if scenario not in SCENARIOS:
        _fail("scenario", f"unknown scenario {scenario!r}")
    config_seed = _value(config, "", "seed", int) if "seed" in config else 0
    if seed is None:
        seed = config_seed

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        scenario=scenario,
        config_hash=_hash_config(config, seed),
        tool_version=__version__,
        started=_utcnow(),
        out_dir=str(out),
    )
    try:
        _SCENARIO_RUNNERS[scenario](config, out, seed, manifest)
    except ConfigError:
        raise
    except KvnLabError as exc:
        manifest.status = f"failed: {exc}"
        manifest.write(out)
        raise ScenarioError(f"{scenario}: {exc}") from exc
    manifest.status = "ok"
    manifest.write(out)
    return manifest


PLOT_KINDS = ("trajectory", "distribution", "inequality_sweep")


def emit_plot_data(manifest: RunManifest, kind: str) -> Path:
    """Write a two-or-three-column CSV ready for gnuplot or a spreadsheet."""
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}")
    out = Path(manifest.out_dir)
    if kind == "trajectory":
        src = out / "trajectory.csv"
        if not src.exists():
            raise MissingArtifact(f"{src} not produced by this run")
        rows = _read_csv(src)
        path = out / "plot_trajectory.csv"
        write_csv(path, ("t", "x_mean", "p_mean"),
                  [(r["t"], r["x_mean"], r["p_mean"]) for r in rows])
        return path
    if kind == "distribution":
        src = out / "readout.csv"
        if not src.exists():
            raise MissingArtifact(f"{src} not produced by this run")
        rows = _read_csv(src)
        values = [r["value"] for r in rows]
        dv = values[1] - values[0] if len(values) > 1 else 1.0
        path = out / "plot_distribution.csv"
        write_csv(path, ("value", "density"),
                  [(r["value"], r["probability"] / dv) for r in rows])
        return path
    src = out / "uncertainty.csv"
    if not src.exists():
        raise MissingArtifact(f"{src} not produced by this run")
    rows = _read_csv(src)
    path = out / "plot_inequality_sweep.csv"
    write_csv(path, ("t", "slack_ozawa_like"),
              [(r["t"], r["slack_ozawa_like"]) for r in rows])
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

    if args.config is None:
        if args.scenario != "algebra_verify":
            print("config error: --config is required", file=sys.stderr)
            return 2
        config = {}
    else:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2

    if not isinstance(config, dict):
        print("config error: root must be an object", file=sys.stderr)
        return 2
    if config.get("scenario", args.scenario) != args.scenario:
        print("config error: scenario: does not match the command line", file=sys.stderr)
        return 2
    config["scenario"] = args.scenario

    out_dir = args.out or (Path(args.config).stem + ".out" if args.config else "algebra.out")

    try:
        manifest = run(config, out_dir, seed=args.seed)
        if args.plot:
            emit_plot_data(manifest, args.plot)
            manifest.record(Path(manifest.out_dir) / f"plot_{args.plot}.csv")
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
