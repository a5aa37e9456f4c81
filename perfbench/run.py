#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_suite --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` also runs
the workload with every layer wrapped in spans and prints the per-layer
metrics instead.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the full run
record is written under ``.perfbench/records/``.  The exit code is 0
only when every output check passed.

``--write-expected`` regenerates ``perfbench/expected_paper_suite.json``
from one ``paper_suite`` pass; commit the result only for a change that
deliberately moves the paper's numbers.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import harness, record  # noqa: E402

WORKLOADS = {
    "paper_suite": "perfbench.paper_suite",
    "fleet_reopt": "perfbench.fleet_reopt",
    "fleet_ingest": "perfbench.fleet_ingest",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="paper_suite only: rewrite the expected file")
    return parser.parse_args(argv)


def render(ctx: harness.RunContext, rec: dict) -> str:
    lines = [f"perfbench {ctx.workload} seed={ctx.seed} "
             f"trace={int(ctx.trace)} units={ctx.units}"]
    env = rec["env"]
    lines.append("  env " + " ".join(f"{k}={env[k]}" for k in sorted(env)))
    for check in ctx.checks:
        mark = "ok  " if check["ok"] else "FAIL"
        detail = f" ({check['detail']})" if check["detail"] else ""
        lines.append(f"  {mark} {check['name']}{detail}")
    ledger = rec["ledger"]
    lines.append(f"  error_rate {ledger['error_rate']:.6g} ratio "
                 f"({ledger['failed']}/{ledger['attempted']} failed)")
    for title, metrics in (("named", ctx.named), ("metric", ctx.metrics)):
        for name, entry in metrics.items():
            samples = (f" (samples {entry['samples']})"
                       if "samples" in entry else "")
            lines.append(f"  {title} {name} {entry['value']:.6g} "
                         f"{entry['unit']}{samples}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds, so the daemons it started and its
    # private directory go with it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print(f"perfbench: no program source at {harness.SRC}; run from "
              "the root of a repository checkout", file=sys.stderr)
        return 2
    if args.write_expected and args.workload != "paper_suite":
        print("perfbench: --write-expected needs --workload paper_suite",
              file=sys.stderr)
        return 2

    workdir = os.path.join(harness.STATE,
                           f"run-{os.getpid()}-{time.time_ns()}")
    os.makedirs(workdir)
    ctx = harness.RunContext(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), workdir=workdir,
    )
    try:
        harness.isolate(workdir)
        native_build_s, kernel = harness.warm_native_kernel()
        workload = importlib.import_module(WORKLOADS[args.workload])
        if args.write_expected:
            result = workload.one_pass(workload.suite_order(0),
                                       ctx.fresh_dir("cache"))
            with open(workload.EXPECTED_PATH, "w") as handle:
                json.dump(workload.expected_document(result), handle,
                          indent=1, sort_keys=True)
                handle.write("\n")
            print(f"wrote {workload.EXPECTED_PATH}")
            return 0
        workload.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not ctx.trace:
        reported = [(name, entry["unit"])
                    for name, entry in ctx.metrics.items()]
        if reported != list(harness.END_TO_END):
            raise RuntimeError(f"{ctx.workload} reported {reported}, "
                               f"not {list(harness.END_TO_END)}")

    env = record.environment(ROOT, ctx.batched_kernel or kernel,
                             native_build_s)
    rec = record.make_record(
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace, env, ctx.checks,
        ctx.ledger.to_dict(), ctx.metrics, ctx.named, ctx.units,
    )
    path = os.path.join(
        harness.RECORDS,
        f"{ctx.workload}-seed{ctx.seed}-trace{int(ctx.trace)}-"
        f"{time.time_ns()}.json",
    )
    record.write_record(path, rec)
    print(render(ctx, rec))
    print(f"  record {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": rec["correct"],
        "attempted": ctx.ledger.attempted,
        "failed": ctx.ledger.failed,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in ctx.metrics.items()
        },
    }))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
