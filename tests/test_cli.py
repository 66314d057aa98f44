import hashlib
import json

import numpy as np
import pytest

from kvnlab import cli
from kvnlab import phasespace as ps
from kvnlab.errors import ConfigError, MissingArtifact, ScenarioError
from kvnlab.stateio import load_state


def write_config(tmp_path, payload, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


EVOLVE_CFG = {
    "grid": {"n_x": 64, "n_p": 64, "x_min": -12.0, "x_max": 12.0,
             "p_min": -6.0, "p_max": 6.0},
    "hamiltonian": {"mass": 1.0},
    "initial_state": {"kind": "gaussian", "x0": -2.0, "p0": 1.5,
                      "sigma_x": 1.0, "sigma_p": 0.5},
    "plan": {"dt": 0.1, "n_steps": 10},
}


def test_run_evolve_trajectory(tmp_path):
    cfg = dict(EVOLVE_CFG, scenario="evolve")
    manifest = cli.run(cfg, tmp_path / "out")
    assert manifest.status == "ok"
    names = {f["name"] for f in manifest.files}
    assert names == {"trajectory.csv", "final.state"}
    lines = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, (float(v) for v in line.split(","))))
        expected = -2.0 + 1.5 * row["t"]
        assert abs(row["x_mean"] - expected) < 24.0 / 64
        assert abs(row["p_mean"] - 1.5) < 1e-9


def test_run_evolve_snapshot_stream(tmp_path):
    cfg = dict(EVOLVE_CFG, scenario="evolve", snapshot_every=5)
    manifest = cli.run(cfg, tmp_path / "snap")
    names = sorted(f["name"] for f in manifest.files)
    assert "state_000005.state" in names and "state_000010.state" in names

    snap = load_state(tmp_path / "snap" / "state_000005.state")
    assert abs(snap.norm() - 1.0) < 1e-9


def _rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, (float(v) for v in line.split(",")))) for line in lines[1:]]


def test_evolve_moments_match_phasespace_on_every_snapshot(tmp_path):
    cfg = dict(EVOLVE_CFG, scenario="evolve", snapshot_every=1)
    cli.run(cfg, tmp_path / "m")
    rows = _rows(tmp_path / "m" / "trajectory.csv")
    assert len(rows) == EVOLVE_CFG["plan"]["n_steps"]
    for row in rows:
        snap = load_state(tmp_path / "m" / f"state_{int(row['step']):06d}.state")
        expected = {
            "x_mean": ps.expectation(snap, "x"), "p_mean": ps.expectation(snap, "p"),
            "sigma_x": ps.sigma(snap, "x"), "sigma_p": ps.sigma(snap, "p"),
            "norm": snap.norm(),
        }
        for key, value in expected.items():
            assert row[key] == pytest.approx(value, rel=0, abs=1e-12), key


PULSED_CFG = {
    "scenario": "pulsed",
    "grid": {"n_x": 32, "n_p": 32, "x_min": -8.0, "x_max": 8.0,
             "p_min": -4.0, "p_max": 4.0},
    "target_state": {"kind": "gaussian", "x0": -1.0, "p0": 0.5,
                     "sigma_x": 1.0, "sigma_p": 0.5},
    "device_state": {"kind": "gaussian", "x0": 0.5, "p0": 0.0,
                     "sigma_x": 1.0, "sigma_p": 0.5},
    "target_hamiltonian": {"mass": 1.0},
    "device_hamiltonian": {"mass": 1.0},
    "eps": 0.5, "t1": 0.4, "t_total": 1.0,
    "plan": {"dt": 0.05, "n_steps": 20},
}


def test_pulsed_moments_match_phasespace(tmp_path):
    cli.run(PULSED_CFG, tmp_path / "pl")
    payload = json.loads((tmp_path / "pl" / "pulsed.json").read_text())
    final = load_state(tmp_path / "pl" / "final.state")
    assert payload["pointer_mean"] == pytest.approx(ps.expectation(final, "X"), rel=0, abs=1e-12)
    assert payload["target_x_mean"] == pytest.approx(ps.expectation(final, "x"), rel=0, abs=1e-12)
    assert payload["norm"] == pytest.approx(final.norm(), rel=0, abs=1e-12)


def test_pulsed_run_forms_one_outer_product(monkeypatch, tmp_path):
    made, formed = [], []
    product_state, outer = ps.product_state, ps._outer
    monkeypatch.setattr(ps, "product_state", lambda t, d: made.append(product_state(t, d))
                        or made[-1])
    monkeypatch.setattr(ps, "_outer", lambda t, d: formed.append((t, d)) or outer(t, d))
    cli.run(PULSED_CFG, tmp_path / "pl")
    # the one 4D amplitude is formed from the flown factors, at the coupling
    (initial,) = made
    ((t, d),) = formed
    assert t is not initial.factors[0].amp and d is not initial.factors[1].amp


POINTER_CFG = {
    "grid": {"n_x": 32, "n_p": 32, "x_min": -10.0, "x_max": 10.0,
             "p_min": -10.0, "p_max": 10.0},
    "target_state": {"kind": "gaussian", "x0": 0.3, "p0": -0.2,
                     "sigma_x": 1.3, "sigma_p": 1.25},
    "device_state": {"kind": "gaussian", "x0": -0.1, "p0": 0.15,
                     "sigma_x": 1.28, "sigma_p": 1.31},
}


@pytest.mark.parametrize("cfg", [dict(EVOLVE_CFG, scenario="evolve", snapshot_every=5),
                                 PULSED_CFG, dict(POINTER_CFG, scenario="measure")],
                         ids=["evolve", "pulsed", "measure"])
def test_manifest_digests_match_files(tmp_path, cfg):
    manifest = cli.run(cfg, tmp_path / "out")
    assert any(f["name"].endswith(".state") for f in manifest.files)
    for f in manifest.files:
        data = (tmp_path / "out" / f["name"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == f["sha256"], f["name"]


def test_run_evolve_point_state_trajectory(tmp_path):
    # on-lattice p0 and one-cell steps: the x-mean column sits on the
    # classical line to within a cell at every row
    cfg = {
        "scenario": "evolve",
        "grid": {"n_x": 64, "n_p": 64, "x_min": -12.0, "x_max": 12.0,
                 "p_min": -6.0, "p_max": 6.0},
        "hamiltonian": {"mass": 1.0},
        "initial_state": {"kind": "point", "x0": 0.0, "p0": 1.5},
        "plan": {"dt": 0.25, "n_steps": 12},
    }
    cli.run(cfg, tmp_path / "pt")
    lines = (tmp_path / "pt" / "trajectory.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    dx = 24.0 / 64
    for line in lines[1:]:
        row = dict(zip(header, (float(v) for v in line.split(","))))
        assert abs(row["x_mean"] - 1.5 * row["t"]) < dx


def test_cli_main_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path, dict(EVOLVE_CFG))
    assert cli.main(["evolve", "--config", str(path), "--out", str(tmp_path / "o1")]) == 0

    bad = dict(EVOLVE_CFG)
    bad["hamiltonian"] = {"mass": -1.0}
    path_bad = write_config(tmp_path, bad, "bad.json")
    assert cli.main(["evolve", "--config", str(path_bad), "--out", str(tmp_path / "o2")]) == 2
    err = capsys.readouterr().err
    assert "hamiltonian.mass" in err


def test_seed_flag_wins_over_config_seed(tmp_path):
    path = write_config(tmp_path, dict(EVOLVE_CFG, seed=3))
    hashes = {}
    for seed in (5, 1):
        out = tmp_path / f"seed{seed}"
        argv = ["evolve", "--config", str(path), "--out", str(out), "--seed", str(seed)]
        assert cli.main(argv) == 0
        hashes[seed] = json.loads((out / "manifest.json").read_text())["config_hash"]
    assert hashes[5] != hashes[1]
    direct = cli.run(dict(EVOLVE_CFG, scenario="evolve", seed=3), tmp_path / "direct", seed=5)
    assert direct.config_hash == hashes[5]


def test_unknown_keys_rejected(tmp_path):
    cfg = dict(EVOLVE_CFG, scenario="evolve", typo_key=1)
    with pytest.raises(ConfigError, match="typo_key"):
        cli.run(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    cfg2 = dict(EVOLVE_CFG, scenario="evolve")
    cfg2["grid"] = dict(cfg2["grid"], padding=3)
    with pytest.raises(ConfigError, match="grid.padding"):
        cli.run(cfg2, tmp_path / "out")
    # the pointer coupling is the pulsed scenario's eps, not a Hamiltonian term
    cfg3 = dict(EVOLVE_CFG, scenario="evolve", hamiltonian={"mass": 1.0, "coupling": 0.5})
    with pytest.raises(ConfigError, match="hamiltonian.coupling: unknown key"):
        cli.run(cfg3, tmp_path / "out")


QM_CFG = dict(EVOLVE_CFG, hbars=[0.0, 0.1])
UNCERTAINTY_CFG = dict(POINTER_CFG, t_values=[0.5, 1.0], ensemble={"members": 2})
NAN, INF = float("nan"), float("inf")  # json writes them as NaN and Infinity


# a list entry that is no finite number, a non-finite number or a negative
# count exits 2, and stderr names the field
@pytest.mark.parametrize("scenario, cfg, message", [
    ("qm_compare", dict(QM_CFG, hbars=["a"]), "hbars[0]: expected finite float"),
    ("qm_compare", dict(QM_CFG, hbars=[0.0, None]), "hbars[1]: expected finite float"),
    ("qm_compare", dict(QM_CFG, hbars=[-0.1]), "hbars[0]: must be >= 0"),
    ("qm_compare", dict(QM_CFG, hbars=[INF]), "hbars[0]: expected finite float"),
    ("qm_compare", dict(QM_CFG, hbars=[0.0, True]), "hbars[1]: expected finite float"),
    ("uncertainty", dict(UNCERTAINTY_CFG, t_values=["x"]), "t_values[0]: expected finite float"),
    ("uncertainty", dict(UNCERTAINTY_CFG, t_values=[0.5, NAN]),
     "t_values[1]: expected finite float"),
    ("uncertainty", dict(UNCERTAINTY_CFG, ensemble={"members": -2}),
     "ensemble.members: must be >= 0"),
    ("evolve", dict(EVOLVE_CFG, hamiltonian={"mass": 1.0, "kinetic": ["x"]}),
     "hamiltonian.kinetic[0]: expected finite float"),
    ("evolve", dict(EVOLVE_CFG, hamiltonian={"mass": 1.0, "potential": [0, 0, "q"]}),
     "hamiltonian.potential[2]: expected finite float"),
    ("evolve", dict(EVOLVE_CFG, hamiltonian={"mass": 1.0, "potential": [0, 0, NAN]}),
     "hamiltonian.potential[2]: expected finite float"),
    ("evolve", dict(EVOLVE_CFG, hamiltonian={"mass": INF}),
     "hamiltonian.mass: expected finite float"),
    ("pulsed", dict(PULSED_CFG, eps=NAN), "eps: expected finite float"),
    ("pulsed", dict(PULSED_CFG, eps=INF), "eps: expected finite float"),
], ids=["hbars-str", "hbars-null", "hbars-negative", "hbars-inf", "hbars-true", "t_values-str",
        "t_values-nan", "members-negative", "kinetic-str", "potential-str", "potential-nan",
        "mass-inf", "eps-nan", "eps-inf"])
def test_malformed_value_named(tmp_path, capsys, scenario, cfg, message):
    path = write_config(tmp_path, cfg)
    out = tmp_path / "runs" / "out"
    assert cli.main([scenario, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    # the directories the run made for its output are removed again
    assert not (tmp_path / "runs").exists()


# a negative seed cannot seed the ensemble's generator, from the config or
# from --seed; without an ensemble the seed is only hashed, and it runs
@pytest.mark.parametrize("cfg, argv, code", [
    (dict(UNCERTAINTY_CFG, seed=-1), [], 2),
    (UNCERTAINTY_CFG, ["--seed", "-1"], 2),
    ({k: v for k, v in UNCERTAINTY_CFG.items() if k != "ensemble"}, ["--seed", "-1"], 0),
], ids=["config-seed", "seed-flag", "no-ensemble"])
def test_negative_seed_is_a_config_error_only_with_an_ensemble(tmp_path, capsys, cfg, argv, code):
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["uncertainty", "--config", str(path), "--out", str(out), *argv]) == code
    err = capsys.readouterr().err
    if code:
        assert err == "config error: seed: must be >= 0 to draw an ensemble, got -1\n"
        assert not out.exists()
    else:
        assert json.loads((out / "uncertainty.json").read_text())["rows"] == 2


def test_missing_section_named(tmp_path):
    cfg = {k: v for k, v in EVOLVE_CFG.items() if k != "plan"}
    cfg["scenario"] = "evolve"
    with pytest.raises(ConfigError, match="plan"):
        cli.run(cfg, tmp_path / "out")


def test_determinism_same_seed_same_checksums(tmp_path):
    cfg = {
        "scenario": "uncertainty",
        "grid": {"n_x": 32, "n_p": 32, "x_min": -10.0, "x_max": 10.0,
                 "p_min": -10.0, "p_max": 10.0},
        "target_state": {"kind": "gaussian", "x0": 0.2, "p0": 0.0,
                         "sigma_x": 1.3, "sigma_p": 1.3},
        "device_state": {"kind": "gaussian", "x0": 0.0, "p0": 0.0,
                         "sigma_x": 1.3, "sigma_p": 1.3},
        "t_values": [0.5, 1.0],
        "ensemble": {"members": 4, "t": 1.0},
        "seed": 7,
    }
    m1 = cli.run(dict(cfg), tmp_path / "a")
    m2 = cli.run(dict(cfg), tmp_path / "b")
    assert m1.config_hash == m2.config_hash
    assert sorted((f["name"], f["sha256"]) for f in m1.files) == sorted(
        (f["name"], f["sha256"]) for f in m2.files
    )
    m3 = cli.run(dict(cfg, seed=8), tmp_path / "c")
    assert {f["sha256"] for f in m3.files} != {f["sha256"] for f in m1.files}


def test_manifest_written_on_scenario_failure(tmp_path):
    cfg = {
        "scenario": "measure",
        "grid": {"n_x": 32, "n_p": 32, "x_min": -10.0, "x_max": 10.0,
                 "p_min": -10.0, "p_max": 10.0},
        "target_state": {"kind": "point", "x0": 0.0, "p0": -5.0},
        "device_state": {"kind": "point", "x0": 0.0, "p0": 9.375},
    }
    with pytest.raises(ScenarioError):
        cli.run(cfg, tmp_path / "fail")
    manifest = json.loads((tmp_path / "fail" / "manifest.json").read_text())
    assert manifest["status"].startswith("failed")


def test_algebra_verify_scenario(tmp_path, capsys):
    manifest = cli.run({"scenario": "algebra_verify"}, tmp_path / "alg")
    records = json.loads((tmp_path / "alg" / "algebra.json").read_text())
    assert all(r["pass"] for r in records)
    assert all(r["residual_term_count"] == 0 for r in records)
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert len(out_lines) == len(records)
    assert all("name" in json.loads(line) for line in out_lines)


def test_measure_scenario_contrast(tmp_path):
    cfg = {
        "scenario": "measure",
        "grid": {"n_x": 32, "n_p": 32, "x_min": -10.0, "x_max": 10.0,
                 "p_min": -10.0, "p_max": 10.0},
        "target_state": {"kind": "gaussian", "x0": 0.3, "p0": 0.0,
                         "sigma_x": 1.3, "sigma_p": 1.3},
        "device_state": {"kind": "gaussian", "x0": 0.0, "p0": 0.0,
                         "sigma_x": 1.3, "sigma_p": 1.3},
        "readout_axis": "X",
    }
    cli.run(cfg, tmp_path / "m")
    sim = json.loads((tmp_path / "m" / "simultaneity.json").read_text())
    assert sim["prop1_residual"] < 1e-6
    assert sim["prop2_residual"] < 1e-6
    assert sim["quantum_instantiated_residual"] > 0.1


@pytest.mark.parametrize("label_rep", ["X_P", "X_piP", "piX_P", "piX_piP"])
def test_kraus_scenario(tmp_path, label_rep):
    manifest = cli.run(dict(POINTER_CFG, scenario="kraus", label_rep=label_rep), tmp_path / "k")
    assert {f["name"] for f in manifest.files} == {"labels.csv", "kraus.json"}
    lines = (tmp_path / "k" / "labels.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 32 * 32
    probs = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert probs.min() >= 0.0 and abs(probs.sum() - 1.0) < 1e-12
    payload = json.loads((tmp_path / "k" / "kraus.json").read_text())
    assert payload["label_rep"] == label_rep
    assert payload["readout_l1"] < 1e-9
    assert payload["completeness_defect"] < 1e-12
    assert set(payload["printed_kernel_discrepancy"]) == {"X_P", "X_piP", "piX_P", "piX_piP"}


def test_emit_plot_data(tmp_path):
    cfg = dict(EVOLVE_CFG, scenario="evolve")
    manifest = cli.run(cfg, tmp_path / "out")
    path = cli.emit_plot_data(manifest, "trajectory")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x_mean,p_mean"
    assert len(lines) == 11
    with pytest.raises(MissingArtifact):
        cli.emit_plot_data(manifest, "distribution")

    ucfg = {
        "scenario": "uncertainty",
        "grid": {"n_x": 32, "n_p": 32, "x_min": -10.0, "x_max": 10.0,
                 "p_min": -10.0, "p_max": 10.0},
        "target_state": {"kind": "gaussian", "x0": 0.2, "p0": 0.0,
                         "sigma_x": 1.3, "sigma_p": 1.3},
        "device_state": {"kind": "gaussian", "x0": 0.0, "p0": 0.0,
                         "sigma_x": 1.3, "sigma_p": 1.3},
        "t_values": [0.5, 1.0, 2.0],
    }
    m2 = cli.run(ucfg, tmp_path / "u")
    sweep = cli.emit_plot_data(m2, "inequality_sweep")
    rows = [line.split(",") for line in sweep.read_text().strip().splitlines()[1:]]
    assert all(float(s) >= -1e-8 for _, s in rows)

    mcfg = {
        "scenario": "measure",
        "grid": {"n_x": 32, "n_p": 32, "x_min": -10.0, "x_max": 10.0,
                 "p_min": -10.0, "p_max": 10.0},
        "target_state": {"kind": "point", "x0": 0.625, "p0": 0.0},
        "device_state": {"kind": "point", "x0": 0.0, "p0": 0.0},
    }
    m3 = cli.run(mcfg, tmp_path / "md")
    dist = cli.emit_plot_data(m3, "distribution")
    rows = [line.split(",") for line in dist.read_text().strip().splitlines()[1:]]
    total = sum(float(d) for _, d in rows) * (20.0 / 32)
    assert abs(total - 1.0) < 1e-9


def test_qm_compare_scenario(tmp_path):
    cfg = {
        "scenario": "qm_compare",
        "grid": {"n_x": 128, "n_p": 128, "x_min": -12.0, "x_max": 12.0,
                 "p_min": -6.0, "p_max": 6.0},
        "hamiltonian": {"mass": 1.0},
        "initial_state": {"kind": "gaussian", "x0": 0.0, "p0": 1.0,
                          "sigma_x": 1.0, "sigma_p": 0.5},
        "plan": {"dt": 0.02, "n_steps": 50, "convention": "full_appendixE"},
        "hbars": [0.0, 0.2, 0.1, 0.05],
    }
    cli.run(cfg, tmp_path / "qc")
    lines = (tmp_path / "qc" / "scan.csv").read_text().strip().splitlines()
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert rows[0] == (0.0, 0.0)
    devs = [d for _, d in rows[1:]]
    assert devs[0] > devs[1] > devs[2]
    assert devs[1] / devs[0] <= 0.7 and devs[2] / devs[1] <= 0.7


def test_scenario_mismatch_and_bad_json(tmp_path, capsys):
    path = write_config(tmp_path, dict(EVOLVE_CFG, scenario="measure"))
    assert cli.main(["evolve", "--config", str(path)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["evolve", "--config", str(broken)]) == 2
