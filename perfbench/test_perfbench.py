"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench

The output checks are exercised on real scenario outputs: each must pass on
them and fail once a single value is perturbed.
"""

import csv
import json
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _span(name, start, end, parent, layer="phasespace", pass_id=1):
    return [name, layer, start, end, parent, pass_id]


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def test_self_time_subtracts_each_descendant_once():
    tree = [
        _span("run", 0.0, 10.0, -1, layer="cli"),
        _span("marginal", 1.0, 6.0, 0),
        _span("to_representation", 2.0, 4.0, 1),
        _span("_Field.with_conj", 2.5, 3.5, 2),
        _span("save_state", 7.0, 9.0, 0, layer="stateio"),
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 1.0, 1.0, 2.0]
    m = spans.pass_metrics(tree, wall_s=10.0)
    assert m["cli.self_s"] == 3.0
    assert m["phasespace.self_s"] == 5.0
    assert m["stateio.self_s"] == 2.0
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == 10.0
    assert m["phasespace.share"] == 0.5
    # nested members of one group count once in its time, every call in its count
    assert m["phasespace.transform_s"] == 2.0
    assert m["phasespace.transform_calls"] == 2
    assert m["trace.spans"] == 5


def test_split_passes_reindexes_parents():
    mixed = [
        _span("run", 0.0, 4.0, -1, pass_id=1),
        _span("expectation", 1.0, 2.0, 0, pass_id=1),
        _span("run", 5.0, 9.0, -1, pass_id=2),
        _span("expectation", 6.0, 8.0, 2, pass_id=2),
    ]
    per_pass = spans.split_passes(mixed)
    assert [s[spans.PARENT] for s in per_pass[2]] == [-1, 0]
    assert spans.self_times(per_pass[2]) == [2.0, 2.0]


def test_tracer_records_nested_calls_and_restores_the_library():
    import kvnlab
    from kvnlab import algebra

    original = algebra.multiply
    tracer = spans.Tracer()
    with tracer:
        assert kvnlab.multiply is not original and algebra.multiply is not original
        algebra.commutator(algebra.x, algebra.pi_x)
    assert algebra.multiply is original and kvnlab.multiply is original
    names = [s[spans.NAME] for s in tracer.spans]
    assert names[0] == "commutator" and names.count("multiply") == 2
    assert all(s[spans.PARENT] == 0 for s in tracer.spans[1:])


# ---------------------------------------------------------------------------
# metric names and BENCHMARK.json
# ---------------------------------------------------------------------------


def test_metric_names_are_well_formed_and_unique():
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert set(run.PASS_LAYERS) <= set(spans.LAYERS)
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


def test_every_layer_metric_a_workload_names_is_reported():
    for w in workloads.WORKLOADS.values():
        assert set(w.moves) <= set(run.PER_LAYER), w.name
        assert set(w.unchanged) <= set(spans.LAYERS), w.name


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

SCENARIO_CONFIGS = {
    "evolve": workloads.evolve_2d_configs(0)[0],
    "pulsed": workloads.pulsed_4d_configs(0)[0],
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    from kvnlab import cli

    base = tmp_path_factory.mktemp("outputs")
    for scenario, cfg in SCENARIO_CONFIGS.items():
        cli.run(cfg, base / scenario, seed=0)
    return base


def _edit_json(path, key, fn):
    data = json.loads(path.read_text())
    data[key] = fn(data[key])
    path.write_text(json.dumps(data))


def _edit_csv(path, row, column, fn):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = repr(fn(float(rows[row][column])))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _edit_state(path, fn):
    raw = bytearray(path.read_bytes())
    n_axes = raw[14]
    offset = 16 + 25 * n_axes
    data = np.frombuffer(bytes(raw[offset:]), dtype="<f8").copy()
    raw[offset:] = fn(data).astype("<f8").tobytes()
    path.write_bytes(bytes(raw))


def _set_corner(data):
    data[0] = 0.05  # real part of the corner cell, on the boundary shell
    return data


def _csv(row, column, fn):
    return lambda path: _edit_csv(path, row, column, fn)


def _json(key, fn):
    return lambda path: _edit_json(path, key, fn)


def _const(value):
    return lambda _: value


# case -> (scenario, output file, perturbation of that file)
PERTURBATIONS = {
    "evolve x mean": ("evolve", "trajectory.csv", _csv(-1, "x_mean", lambda v: v + 0.02)),
    "evolve p mean": ("evolve", "trajectory.csv", _csv(-1, "p_mean", lambda v: v - 0.02)),
    "evolve norm": ("evolve", "trajectory.csv", _csv(10, "norm", lambda v: v + 1e-8)),
    "evolve boundary": ("evolve", "final.state", lambda f: _edit_state(f, _set_corner)),
    "evolve status": ("evolve", "manifest.json", _json("status", _const("failed"))),
    "pulsed pointer": ("pulsed", "pulsed.json", _json("pointer_mean", lambda v: v + 2e-3)),
    "pulsed target": ("pulsed", "pulsed.json", _json("target_x_mean", lambda v: v - 2e-3)),
    "pulsed norm": ("pulsed", "final.state", lambda f: _edit_state(f, lambda a: a * (1 + 1e-8))),
    "pulsed missing file": ("pulsed", "pulsed.json", lambda f: f.unlink()),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIO_CONFIGS))
def test_checks_accept_real_outputs(outputs, scenario):
    assert workloads.check_run(SCENARIO_CONFIGS[scenario], outputs / scenario) == []


@pytest.mark.parametrize("case", sorted(PERTURBATIONS))
def test_checks_reject_a_perturbed_output(outputs, tmp_path, case):
    scenario, name, perturb = PERTURBATIONS[case]
    copy = tmp_path / scenario
    shutil.copytree(outputs / scenario, copy)
    perturb(copy / name)
    assert workloads.check_run(SCENARIO_CONFIGS[scenario], copy) != []


def test_determinism_mismatch_counts_as_failure():
    same = [[("a.csv", "00")]]
    other = [[("a.csv", "11")]]
    results = [
        {"runs": 2, "failed": 0, "problems": [], "checksums": [same, same]},
        {"runs": 2, "failed": 0, "problems": [], "checksums": [same, other]},
    ]
    attempted, failed, _ = run.count_failures(results)
    assert (attempted, failed) == (4, 1)
