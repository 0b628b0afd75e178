"""Checks of the benchmark itself, outside the program's test suite.

    python3 -m pytest -q perfbench/selftest.py

Scenarios here are the workloads' own files with t_end cut to a few
steps, so the whole module runs in seconds.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from diraclab import nonlinearity, scenarios  # noqa: E402
from diraclab.scenarios import ScenarioConfig  # noqa: E402
from workloads import WORKLOADS, scenario_text  # noqa: E402

# short horizons that keep each workload's sample stride dividing the steps
_SHORT_T_END = {"lab_transport": "1", "spinor_virials": "1",
                "radial_soler": "2"}


def _short_config(workload, seed=0):
    text = re.sub(r"(?m)^t_end = .*$", f"t_end = {_SHORT_T_END[workload]}",
                  scenario_text(workload, seed))
    return text, ScenarioConfig.from_text(text, name=workload)


def _benchmark_names(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    texts = [scenario_text(workload, seed) for seed in range(20)]
    assert texts == [scenario_text(workload, seed) for seed in range(20)]
    assert len(set(texts)) == len(texts)
    hashes = {ScenarioConfig.from_text(t, name=workload).hash for t in texts}
    assert len(hashes) == len(texts)


def _diraclab_attributes():
    owners = [m for k, m in sys.modules.items()
              if k.split(".")[0] == "diraclab"]
    owners += [nonlinearity.NonlinearityModel, scenarios.ExperimentSummary]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_tracer_leaves_diraclab_unpatched(tmp_path):
    before = _diraclab_attributes()
    _, config = _short_config("spinor_virials")
    with tracer.Tracer() as tr:
        assert scenarios.integrate is not before[(id(scenarios),
                                                  "integrate")]
        scenarios.run_scenario(config, out_root=tmp_path)
    after = _diraclab_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    layers = tr.aggregate()["layers"]
    assert layers["virials.verify"]["calls"] == 7

    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    after = _diraclab_attributes()
    assert all(after[k] is v for k, v in before.items())


def test_gate_rejects_bad_operations():
    _, config = _short_config("radial_soler")
    good = {"passed": True, "scenario_hash": config.hash, "virials": {},
            "checks": {}, "conservation": {"charge_drift_rel": 1e-7},
            "wall_time": 1.0}
    record = {"run_s": 1.0}
    ref = run.strip_wall_time(good)
    assert run.gate(0, "", record, good, config.hash, ref) is None
    assert run.gate(0, "", record, dict(good, wall_time=2.0), config.hash,
                    ref) is None
    cases = [
        (1, record, good),
        (0, None, good),
        (0, record, None),
        (0, record, dict(good, passed=False)),
        (0, record, dict(good, checks={"x": False})),
        (0, record, dict(good, conservation={"charge_drift_rel":
                                             float("nan")})),
        (0, record, dict(good, scenario_hash="0" * 16)),
    ]
    for status, rec, summary in cases:
        assert run.gate(status, "", rec, summary, config.hash, None)
    drifted = dict(good, conservation={"charge_drift_rel": 2e-7})
    assert run.gate(0, "", record, drifted, config.hash, ref)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_benchmark_metric_is_emitted(workload, tmp_path):
    text, config = _short_config(workload)
    config_path = tmp_path / f"{workload}.cfg"
    config_path.write_text(text)
    env = run.worker_env()
    deadline = time.monotonic() + 120.0
    ops, reference = [], None
    for i, traced in enumerate((False, True)):
        op, summary = run.measure_op(config, config_path, tmp_path / f"op{i}",
                                     tmp_path / f"op{i}.json", env, deadline,
                                     traced, reference)
        assert op["failure"] is None
        reference = reference or run.strip_wall_time(summary)
        ops.append(op)

    e2e = run.end_to_end_metrics([op["setup_s"] for op in ops], ops[:1],
                                 reference)
    layers = run.layer_metrics(ops, ops[1:], ops[:1], config)
    assert sorted(e2e) == sorted(_benchmark_names("end_to_end"))
    assert sorted(layers) == sorted(_benchmark_names("per_layer"))
    assert all(m["value"] > 0 for m in e2e.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "radial_soler",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
