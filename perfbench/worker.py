"""One benchmark operation, in a fresh single-threaded process.

    python3 perfbench/worker.py CONFIG RECORD --t0 T [--out DIR] [--trace]

``--t0`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` spans interpreter start, imports and
config validation, as ``diraclab run --scenario`` pays them. Without
``--out`` the worker stops after setup; with it, it runs the scenario
through ``run_scenario`` into DIR, optionally under the tracer. The
measurements go to RECORD as JSON. Any exception propagates, so the
parent sees a non-zero exit status and no record.
"""

import argparse
import json
import os
import resource
import sys
import time


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("record")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    t_import = time.monotonic()
    from diraclab.scenarios import ScenarioConfig, run_scenario
    t_parse = time.monotonic()
    config = ScenarioConfig.from_file(args.config)
    t_ready = time.monotonic()
    record = {
        "setup_s": t_ready - args.t0,
        "import_s": t_parse - t_import,
        "parse_s": t_ready - t_parse,
    }

    if args.out is not None:
        if args.trace:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer
            with Tracer() as tracer:
                t_run = time.perf_counter()
                run_scenario(config, out_root=args.out)
                record["run_s"] = time.perf_counter() - t_run
            record["trace"] = tracer.aggregate()
        else:
            t_run = time.perf_counter()
            run_scenario(config, out_root=args.out)
            record["run_s"] = time.perf_counter() - t_run
        record["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
