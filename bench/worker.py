"""One round of one workload, in a fresh interpreter.

Run by bench/run.py, never by hand. Set-up (importing `tiernet.cli` and its
dependencies, loading the workload's configs) ends at the `ready` stamp,
read on the system-wide monotonic clock so that run.py can time set-up from
the moment it started this process. Then, unless `--setup-only`, it runs the
workload's `tiernet` invocations in this process and prints one JSON line:
the ready stamp, the wall time of the invocations, each one's exit code, peak
resident memory and, with `--trace 1`, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _exit_code(main, argv: list[str]) -> int:
    import click

    try:
        main.main(args=argv, prog_name="tiernet", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except Exception:
        traceback.print_exc()
        return 1
    return 0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, HERE)
    from workloads import invocations

    import tiernet.cli as cli
    from tiernet.linkmodel import SystemParams
    from tiernet.simulator import ScenarioConfig

    runs = invocations(args.workload, args.seed)
    config_dir = os.path.join(HERE, "configs")
    for inv in runs:
        if inv.config is not None:
            with open(os.path.join(config_dir, inv.config), encoding="utf-8") as fh:
                raw = json.load(fh)
            SystemParams.from_dict(raw.get("system", {}))
            ScenarioConfig.from_dict(raw.get("scenario", {}))
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"ready_ns": ready_ns}))
        return

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    codes = []
    run_s = 0.0
    for inv in runs:
        argv = inv.argv(args.out_dir, config_dir)
        t0 = time.perf_counter()
        if tracer is None:
            codes.append(_exit_code(cli.main, argv))
        else:
            with tracer.span("cli"):
                codes.append(_exit_code(cli.main, argv))
        run_s += time.perf_counter() - t0
    report = {
        "ready_ns": ready_ns,
        "run_s": run_s,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.metrics()
        report["skipped"] = sorted(tracer.skipped)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
