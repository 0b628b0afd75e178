"""diraclab benchmark: seeded scenario workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a diraclab source checkout. The seed picks the
bump parameters of the workload's scenario (see ``workloads.py``); the
text is validated with ``ScenarioConfig.from_text`` before any timing,
so a seed the validator rejects stops the benchmark with a traceback.

One operation is one fresh single-threaded worker process that loads
the scenario file and runs it through ``run_scenario``, the same path
as ``diraclab run --scenario``. Operations run one at a time until the
next one would end after S seconds, and at least twice. Every
operation of a run uses the same seed, so each one after the first is
also a determinism check. An operation fails if the worker raises,
writes no parseable summary.json, reports a false verdict or a
non-finite value, or gives a summary (wall time excluded) different
from the first operation's.

With ``--trace 0`` the last line of stdout reports the end-to-end
metrics: medians of set-up time, run time and peak memory, and the
run's conservation drifts and identity defect ratio. With ``--trace 1``
untraced and traced operations alternate and the line reports the
per-layer metrics of the traced ones (see ``tracer.py``). The line
before it records the scenario text, its hash and every operation.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, scenario_text  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WARMUP_PROBES = 1   # setup-only workers run first and not counted
SETUP_PROBES = 4    # setup-only workers counted towards setup_s
MIN_OPS = 2
HARD_LIMIT_S = 170.0
# reported for an end-to-end metric the workload's scenario does not
# produce (no Hamiltonian observable, no identities), so that every
# workload reports every metric with a value that is never 0
NOT_MEASURED = 1.0

UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
         "charge_drift_rel": "ratio", "hamiltonian_drift_rel": "ratio",
         "identity_defect_ratio": "ratio"}

# spans reported as share.<span>: total time over the traced run_s
SHARED_SPANS = ("dynamics.integrate", "grids.deriv1", "nonlinearity.grad",
                "virials.verify", "observables", "scenarios.output")


# ---------------------------------------------------------------------------
# workers

def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def run_worker(config_path, record_path, env, deadline, out=None,
               trace=False):
    """Start one worker and wait for it; returns (status, stderr, wall_s)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(config_path),
           str(record_path)]
    if out is not None:
        cmd += ["--out", str(out)]
    if trace:
        cmd.append("--trace")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "timed out", time.monotonic() - t0
    return proc.returncode, proc.stderr, time.monotonic() - t0


def measure_op(config, config_path, out, record_path, env, deadline,
               traced, reference):
    """Run one operation into ``out`` and gate it; returns (op, summary),
    where op holds the worker's record and ``failure`` (None if passed)."""
    status, stderr, wall = run_worker(config_path, record_path, env,
                                      deadline, out=out, trace=traced)
    record = read_json(record_path) if status == 0 else None
    summary = read_json(out / config.out_dir / "summary.json")
    failure = gate(status, stderr, record, summary, config.hash, reference)
    op = dict(record or {}, wall_s=wall, traced=traced, failure=failure)
    op["output_files"], op["output_bytes"] = output_stats(out)
    return op, summary


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# correctness gate

def _non_finite(value, where=""):
    """Path of the first non-finite number inside a JSON value, or None."""
    if isinstance(value, float) and not math.isfinite(value):
        return where or "value"
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        found = _non_finite(item, f"{where}/{key}")
        if found:
            return found
    return None


def gate(status, stderr, record, summary, expected_hash, reference):
    """Reason an operation failed, or None if it passed."""
    if status != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return f"worker exit status {status}: {tail[0]}"
    if record is None:
        return "worker wrote no record"
    if summary is None:
        return "no parseable summary.json"
    verdicts = [v.get("passed") for v in summary.get("virials", {}).values()]
    verdicts += list(summary.get("checks", {}).values())
    if summary.get("passed") is not True or not all(
            v is True for v in verdicts):
        return "false verdict"
    bad = _non_finite(summary) or _non_finite(record)
    if bad:
        return f"non-finite value at {bad}"
    if summary.get("scenario_hash") != expected_hash:
        return "summary hash differs from the generated scenario's"
    if reference is not None and strip_wall_time(summary) != reference:
        return "summary differs from the first run of this seed"
    return None


def strip_wall_time(summary):
    return {k: v for k, v in summary.items() if k != "wall_time"}


def output_stats(directory):
    files = [p for p in Path(directory).rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


# ---------------------------------------------------------------------------
# metrics

def end_to_end_metrics(setup_samples, ops, reference):
    cons = reference["conservation"]
    ratios = [v["max_defect"] / v["threshold"]
              for v in reference["virials"].values()]
    values = {
        "setup_s": statistics.median(setup_samples),
        "run_s": statistics.median(op["run_s"] for op in ops),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops),
        "charge_drift_rel": cons["charge_drift_rel"],
        "hamiltonian_drift_rel": cons.get("hamiltonian_drift_rel",
                                          NOT_MEASURED),
        "identity_defect_ratio": max(ratios) if ratios else NOT_MEASURED,
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in UNITS.items()}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(setup_records, traced, untraced, config):
    """Per-layer metrics: medians of the traced operations' times, the
    first traced operation's counts (they repeat exactly)."""
    def layer(op, name):
        return op["trace"]["layers"].get(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                   "calls_under": {}})

    def span_s(name, key="total_s"):
        return statistics.median(layer(op, name)[key] for op in traced)

    def share(name, key="total_s"):
        return statistics.median(layer(op, name)[key] / op["run_s"]
                                 for op in traced)

    first = traced[0]
    counts = first["trace"]["counts"]
    calls = {name: entry["calls"]
             for name, entry in first["trace"]["layers"].items()}
    steps = int(round(config.t_end / config.dt))
    nodes = (config.n_cells if config.system == "radial_3d"
             else config.n_points)
    samples = counts.get("dynamics.samples", 0)
    rhs_evals = counts.get("dynamics.rhs_evals", 0)
    quartet = counts.get("virials.quartet_evals", 0)
    under = layer(first, "grids.deriv1")["calls_under"]
    traced_run_s = statistics.median(op["run_s"] for op in traced)

    m = {
        "setup.import_s": ("s", statistics.median(
            r["import_s"] for r in setup_records)),
        "scenarios.parse_s": ("s", statistics.median(
            r["parse_s"] for r in setup_records)),
        "dynamics.integrate_s": ("s", span_s("dynamics.integrate")),
        "dynamics.integrate_self_s": ("s", span_s("dynamics.integrate",
                                                  "self_s")),
        "dynamics.steps": ("count", steps),
        "dynamics.rhs_evals": ("count", rhs_evals),
        "dynamics.node_steps_per_s": ("1/s", _ratio(
            nodes * steps, span_s("dynamics.integrate"))),
        "dynamics.samples": ("count", samples),
        "dynamics.snapshot_bytes": ("bytes",
                                    counts.get("dynamics.snapshot_bytes", 0)),
        "grids.deriv1_calls": ("count", calls.get("grids.deriv1", 0)),
        "grids.deriv1_s": ("s", span_s("grids.deriv1")),
        "grids.deriv1_nodes": ("count", counts.get("grids.deriv1_nodes", 0)),
        "grids.deriv1_bytes_computed": (
            "bytes", counts.get("grids.deriv1_bytes_computed", 0)),
        "grids.deriv1_calls_per_rhs": ("calls/eval", _ratio(
            under.get("dynamics.integrate", 0), rhs_evals)),
        "nonlinearity.grad_calls": ("count",
                                    calls.get("nonlinearity.grad", 0)),
        "nonlinearity.grad_s": ("s", span_s("nonlinearity.grad")),
        "nonlinearity.w_fields_calls": (
            "count", calls.get("nonlinearity.w_fields", 0)),
        "nonlinearity.w_fields_s": ("s", span_s("nonlinearity.w_fields")),
        "virials.verify_s": ("s", span_s("virials.verify")),
        "virials.verify_self_s": ("s", span_s("virials.verify", "self_s")),
        "virials.deriv1_per_sample": ("calls/sample", _ratio(
            under.get("virials.verify", 0), samples)),
        "virials.quartet_evals_per_sample": ("evals/sample",
                                             _ratio(quartet, samples)),
        "virials.quartet_useful_ratio": ("ratio", _ratio(
            counts.get("virials.quartet_useful", 0), quartet)),
        "observables.calls": ("count", calls.get("observables", 0)),
        "observables.s": ("s", span_s("observables")),
        "grids.quad_calls": ("count", calls.get("grids.quad", 0)),
        "grids.quad_s": ("s", span_s("grids.quad")),
        "scenarios.output_s": ("s", span_s("scenarios.output")),
        "scenarios.output_bytes": ("bytes", first["output_bytes"]),
        "scenarios.output_files": ("count", first["output_files"]),
        "trace.run_s": ("s", traced_run_s),
        "trace.overhead_s": ("s", traced_run_s - statistics.median(
            op["run_s"] for op in untraced)),
        "share.dynamics.integrate_self": ("ratio", share(
            "dynamics.integrate", "self_s")),
    }
    for name in SHARED_SPANS:
        m["share." + name] = ("ratio", share(name))
    return {k: {"value": v, "unit": u} for k, (u, v) in m.items()}


# ---------------------------------------------------------------------------
# command line

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_config(workload, seed):
    """Generate and validate the scenario; the text the workers get."""
    if not (ROOT / "src" / "diraclab" / "__init__.py").is_file():
        sys.exit(f"{ROOT / 'src' / 'diraclab'} not found: run from the "
                 "root of a diraclab source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    from diraclab.scenarios import ScenarioConfig
    text = scenario_text(workload, seed)
    return text, ScenarioConfig.from_text(text, name=workload)


def measure(args, config, text, work):
    """Set-up probes, then operations until the time is up; returns
    (setup records, operations, reference summary)."""
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    config_path = work / f"{args.workload}.cfg"
    config_path.write_text(text, encoding="utf-8")
    env = worker_env()
    deadline = time.monotonic() + args.seconds

    setup_records = []
    for i in range(WARMUP_PROBES + SETUP_PROBES):
        record_path = work / f"probe{i}.json"
        status, stderr, _ = run_worker(config_path, record_path, env,
                                       hard_deadline)
        record = read_json(record_path)
        if status != 0 or record is None:
            raise RuntimeError(f"set-up probe failed ({status}):\n{stderr}")
        if i >= WARMUP_PROBES:
            setup_records.append(record)

    ops, reference = [], None
    while len(ops) < MIN_OPS or (
            time.monotonic() + statistics.median(o["wall_s"] for o in ops)
            <= deadline):
        i = len(ops)
        out = work / f"op{i}"
        op, summary = measure_op(config, config_path, out,
                                 work / f"op{i}.json", env, hard_deadline,
                                 bool(args.trace) and i % 2 == 1, reference)
        if reference is None and summary is not None:
            reference = strip_wall_time(summary)
        ops.append(op)
        shutil.rmtree(out, ignore_errors=True)
        if time.monotonic() > hard_deadline:
            break
    return setup_records, ops, reference


def run(args):
    text, config = load_config(args.workload, args.seed)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_records, ops, reference = measure(args, config, text, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [op for op in ops if op["failure"] is None]
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scenario_hash": config.hash, "scenario_text": text,
        "operations": [{k: v for k, v in op.items() if k != "trace"}
                       for op in ops],
    }
    print(json.dumps(details))

    traced_ok = [op for op in good if op["traced"]]
    untraced_ok = [op for op in good if not op["traced"]]
    if not untraced_ok or (args.trace and not traced_ok):
        failures = "; ".join(str(op["failure"]) for op in ops)
        raise RuntimeError(f"no operation left to measure: {failures}")
    if args.trace:
        metrics = layer_metrics(setup_records + good, traced_ok,
                                untraced_ok, config)
    else:
        metrics = end_to_end_metrics(
            [r["setup_s"] for r in setup_records + good], untraced_ok,
            reference)
    failed = len(ops) - len(good)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    result = run(parse_args(argv))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
