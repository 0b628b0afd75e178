"""Command line front end.

Subcommands map one-to-one onto the library's entry points: scenario
runs, the bundled studies of :mod:`diraclab.studies`, the check of the
Dirac matrices that each system's kernel steps with, the nonlinearity
checker, identity verification along a trajectory, the second-order
residual monitor, and exact-solution tables.

``run`` and ``experiment`` parse every scenario before they run any,
and hand them to the one runner in :mod:`diraclab.scenarios`: one run
steps in this process; N runs, scenarios or a study's runs, step in one
pool of min(N, os.cpu_count()) worker processes, with the same outputs
and verdicts.

Exit codes: 0 when everything requested passed, 1 when a run completed
but a check failed or a run aborted mid-way (non-finite fields, mass at
the boundary, an invalid sample), 2 when the request itself was
malformed (unknown keys, incompatible frames, a model the second-order
monitor cannot use, too few samples for centered differences, unreadable
or missing files, an ``--file`` that is not a bare file name, an output
root that is not a directory, an ``out_dir`` outside it, an output file
name that is an existing directory, two runs that share an output
directory, such as a study given twice). Every scenario command makes
its output directories once, after the refusals it can make from the
request alone and before it steps.
"""

import argparse
import json
import os
import sys

from . import algebra, nonlinearity
from .bridge import gronwall_monitor
from .dynamics import RunAborted
from .exact import SolitonParams, thirring_soliton
from .grids import Grid1D
from .scenarios import (ConfigError, ScenarioConfig, bundled_config_path,
                        integrate_scenario, output_dirs, run_scenarios,
                        virial_file, virial_table, write_tables)
from .studies import EXPERIMENT_IDS, experiment
from .virials import identity_ids, verify_identity

__all__ = ["main"]


def _resolve_scenario(token):
    """A path on disk, or the name of a bundled config."""
    if os.path.exists(token):
        return token
    base = os.path.splitext(os.path.basename(token))[0]
    return bundled_config_path(base)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_run(args):
    configs = [ScenarioConfig.from_file(_resolve_scenario(tok))
               for tok in args.scenario]
    summaries = run_scenarios(zip(args.scenario, configs), args.out)
    for s in summaries:
        tag = "pass" if s.passed else "FAIL"
        print(f"{tag}  {s.name}  hash={s.scenario_hash}  "
              f"samples={s.n_samples}  wall={s.wall_time:.2f}s")
    return 0 if all(s.passed for s in summaries) else 1


def _cmd_experiment(args):
    summaries = experiment(*args.id, out_root=args.out)
    for ident, summary in zip(args.id, summaries):
        for name, verdict in sorted(summary.checks.items()):
            print(f"{'pass' if verdict else 'FAIL'}  {ident}:{name}")
    return 0 if all(s.passed for s in summaries) else 1


def _cmd_check_algebra(args):
    ok = True
    for system in algebra.SYSTEMS:
        report = algebra.check_clifford(system)
        print(f"{system}: {len(report.relations)} relations, "
              f"max defect {report.max_defect:g}")
        if args.verbose:
            for line in report.lines():
                print("  " + line)
        ok = ok and report.passed
    return 0 if ok else 1


def _cmd_check_nonlinearity(args):
    params = {} if args.coupling is None else {"coupling": args.coupling}
    try:
        model = nonlinearity.builtin(args.model, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None
    report = nonlinearity.check_all(model)
    print(json.dumps(report, indent=2, sort_keys=True))
    # gauge, symmetry, harmonic and (b,d)-dependence classify a model
    # (the catalog ships models that fail gauge, harmonic and (b,d)); only
    # a non-polynomial gradient or too slow a growth is a defect
    return 0 if report["polynomial_ok"] and report["growth_ok"] else 1


def _cmd_verify_virial(args):
    config = ScenarioConfig.from_file(_resolve_scenario(args.scenario))
    config.require_identities([args.identity])
    [out_dir] = output_dirs(args.out,
                            [(config.out_dir, [virial_file(args.identity)])])
    model, traj = integrate_scenario(config)
    rep = verify_identity(traj, args.identity, m=config.mass, model=model)
    [path] = write_tables(out_dir, [virial_table(rep)])
    payload = rep.to_dict()
    payload["csv"] = path
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if rep.passed else 1


def _cmd_nlkg_check(args):
    config = ScenarioConfig.from_file(_resolve_scenario(args.scenario))
    if config.system != "spinor_1d":
        raise ConfigError("the second-order residual monitor needs a "
                          "spinor_1d scenario")
    try:
        nonlinearity.require_harmonic(config.build_model(),
                                      "gronwall_monitor")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    config.require_samples("gronwall_monitor needs")
    name = "residuals.csv"
    [out_dir] = output_dirs(args.out, [(config.out_dir, [name])])
    model, traj = integrate_scenario(config)
    series = gronwall_monitor(traj, model, m=config.mass)
    [path] = write_tables(out_dir, [(
        name, ["t", "M", "nlkg_1", "nlkg_2"],
        [series.times, series.values, series.nlkg_1, series.nlkg_2])])
    quotient = series.m_max / max(series.m_first, 1e-300)
    # the second-order lines are reported, not gated: the quotient of
    # the first-order quantity is the one verdict
    passed = bool(quotient <= 10.0)
    payload = {
        "m_first": series.m_first,
        "m_max": series.m_max,
        "nlkg_defect_max": float(max(series.nlkg_1.max(),
                                     series.nlkg_2.max())),
        "quotient": float(quotient),
        "n_samples": int(len(series.times)),
        "passed": passed,
        "csv": path,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if passed else 1


def _cmd_emit_exact(args):
    name = args.file
    if name in ("", ".", "..") or os.path.basename(name) != name:
        raise ConfigError(f"--file must be a bare file name, got {name!r}")
    try:
        grid = Grid1D(args.x_min, args.x_max, args.n_points)
        params = SolitonParams(args.omega, t=args.time)
        state = thirring_soliton(params, grid)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None
    u, v = state.fields
    [path] = write_tables(output_dirs(args.out, [(".", [name])])[0], [(
        name, ["x", "u_re", "u_im", "v_re", "v_im"],
        [grid.x, u.real, u.imag, v.real, v.imag])])
    print(path)
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="diraclab",
        description="run and interrogate semi-discrete spinor systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "run", help="run one or more scenario files",
        description="Parse every scenario, then run one in this process "
                    "or N in min(N, CPU count) worker processes.")
    p.add_argument("--scenario", action="append", required=True,
                   help="path to a scenario file, or a bundled name; "
                        "repeatable")
    p.add_argument("--out", default=None,
                   help="output root (default: $DIRACLAB_OUT or .)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("experiment", help="run bundled studies in one pool")
    p.add_argument("--id", action="append", required=True,
                   choices=EXPERIMENT_IDS, help="repeatable")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("check-algebra",
                       help="validate the Dirac matrices each kernel "
                            "steps with")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_check_algebra)

    p = sub.add_parser("check-nonlinearity",
                       help="admissibility report for a catalog model")
    p.add_argument("--model", required=True)
    p.add_argument("--coupling", type=float, default=None,
                   help="passed to the model's factory when given")
    p.set_defaults(func=_cmd_check_nonlinearity)

    p = sub.add_parser("verify-virial",
                       help="rate-identity defect table along a run")
    p.add_argument("--identity", required=True,
                   choices=identity_ids())
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify_virial)

    p = sub.add_parser("nlkg-check",
                       help="second-order residual monitor on a run")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_nlkg_check)

    p = sub.add_parser("emit-exact",
                       help="tabulate the exact Thirring soliton on a grid")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--time", type=float, default=0.0)
    p.add_argument("--x-min", type=float, default=-40.0)
    p.add_argument("--x-max", type=float, default=40.0)
    p.add_argument("--n-points", type=int, default=1601)
    p.add_argument("--file", default="exact_thirring.csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_emit_exact)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except RunAborted as exc:
        sys.stderr.write(f"run aborted: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
