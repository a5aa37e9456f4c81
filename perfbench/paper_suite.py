"""``paper_suite``: profile and pack all 19 Table 1 inputs, serially.

Each input is profiled once (compiled engine plus Hot Spot Detector,
into a cold private trace cache) and packed twice from that profile:
in the paper's full configuration and with linking off.  The seed
fixes the order the inputs run in; the inputs themselves are the
suite's.  Outputs are checked against ``expected_paper_suite.json``
and against EXPERIMENTS.md's Figure 8 shapes.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from typing import Dict, List, Optional

from perfbench import harness, spans
from perfbench.harness import RunContext

SCALE = 1.0
EXPECTED_PATH = os.path.join(harness.HERE, "expected_paper_suite.json")
#: Tolerance on expected percentages (they are ratios of exact counts).
TOLERANCE = 1e-6
#: EXPERIMENTS.md: the full-configuration Figure 8 average exceeds this.
MIN_FULL_COVERAGE = 80.0

SETUP_CODE = f"""
from repro.experiments.configs import FOUR_CONFIGS
from repro.workloads.suite import SUITE, load_benchmark
workloads = [load_benchmark(e.benchmark, e.input_name, {SCALE!r})
             for e in SUITE]
print("ready", flush=True)
"""


def suite_order(seed: int):
    from repro.workloads.suite import SUITE

    entries = list(SUITE)
    random.Random(seed).shuffle(entries)
    return entries


def warm_up(cache_dir: str) -> None:
    """Profile and pack one small input untimed, so lazy imports and
    first-call set-up inside the program are not charged to pass 1."""
    from repro.experiments.configs import FOUR_CONFIGS, FULL_CONFIG
    from repro.workloads.suite import load_benchmark

    harness.use_trace_cache(cache_dir)
    workload = load_benchmark("134.perl", "C", 0.2)
    profile = FULL_CONFIG.packer().profile(workload)
    for config in (FULL_CONFIG, FOUR_CONFIGS[2]):
        config.packer().pack(workload, profile=profile)


def one_pass(entries, cache_dir: str,
             calibration: Optional[harness.Calibration] = None
             ) -> Dict[str, object]:
    """Profile and pack every input once; timings plus the outputs.

    ``calibration`` samples two reference windows before each input,
    outside the input's timing but inside the pass's wall time.
    """
    from repro.experiments.configs import FOUR_CONFIGS, FULL_CONFIG
    from repro.workloads.suite import load_benchmark

    harness.use_trace_cache(cache_dir)
    workloads = [
        (entry, load_benchmark(entry.benchmark, entry.input_name, SCALE))
        for entry in entries
    ]
    full = FULL_CONFIG.packer()
    no_link = FOUR_CONFIGS[2].packer()  # inference on, linking off
    rows: Dict[str, Dict[str, object]] = {}
    started = time.monotonic()
    for entry, workload in workloads:
        if calibration is not None:
            calibration.sample(2)
        t0 = time.monotonic()
        profile = full.profile(workload)
        t1 = time.monotonic()
        packs = (full.pack(workload, profile=profile),
                 no_link.pack(workload, profile=profile))
        t2 = time.monotonic()
        rows[entry.full_name] = {
            "phases": profile.phase_count,
            "coverage_pct": 100.0 * packs[0].coverage.package_fraction,
            "no_link_coverage_pct":
                100.0 * packs[1].coverage.package_fraction,
            "code_growth_pct": packs[0].expansion_row()["pct_increase"],
            "valid": [p.validation is not None and p.validation.ok
                      for p in packs],
            "quarantined": [len(p.diagnostics) for p in packs],
            "profile_s": t1 - t0,
            "input_s": t2 - t0,
        }
    return {"window": (started, time.monotonic()), "rows": rows,
            "seconds": sum(row["input_s"] for row in rows.values())}


def check_pass(ctx: RunContext, result: Dict[str, object],
               expected: Dict[str, Dict[str, float]], label: str) -> None:
    rows = result["rows"]
    ctx.ledger.attempt(3 * len(rows))  # one profile and two packs each
    invalid = sum(not ok for row in rows.values() for ok in row["valid"])
    quarantined = sum(
        1 for row in rows.values() for n in row["quarantined"] if n
    )
    ctx.ledger.fail("failed validation", invalid)
    ctx.ledger.fail("quarantined phases", quarantined)
    ctx.check(f"{label}: every pack passes validation", invalid == 0,
              f"{invalid} invalid pack(s)")
    ctx.check(f"{label}: no pack quarantines a phase", quarantined == 0,
              f"{quarantined} pack(s) with diagnostics")

    drift = []
    for name, row in sorted(rows.items()):
        want = expected.get(name)
        if want is None:
            drift.append(f"{name}: not in the expected file")
            continue
        if row["phases"] != want["phases"]:
            drift.append(f"{name}: phases {row['phases']} != "
                         f"{want['phases']}")
        for key in ("coverage_pct", "code_growth_pct"):
            if abs(row[key] - want[key]) > TOLERANCE:
                drift.append(f"{name}: {key} {row[key]!r} != {want[key]!r}")
    missing = sorted(set(expected) - set(rows))
    drift.extend(f"{name}: not run" for name in missing)
    ctx.check(f"{label}: phases, coverage and growth match the expected "
              "file", not drift, "; ".join(drift[:5]))

    average = statistics.mean(row["coverage_pct"] for row in rows.values())
    ctx.check(f"{label}: full-configuration coverage average above "
              f"{MIN_FULL_COVERAGE:g}%", average > MIN_FULL_COVERAGE,
              f"{average:.2f}%")
    below = [name for name, row in sorted(rows.items())
             if row["coverage_pct"] < row["no_link_coverage_pct"]]
    ctx.check(f"{label}: linking never below no-link", not below,
              ", ".join(below))


def load_expected() -> Dict[str, Dict[str, float]]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)["inputs"]


def expected_document(result: Dict[str, object]) -> Dict[str, object]:
    """The expected-file form of one pass (``run.py --write-expected``)."""
    return {
        "scale": SCALE,
        "inputs": {
            name: {key: row[key] for key in
                   ("phases", "coverage_pct", "code_growth_pct")}
            for name, row in sorted(result["rows"].items())
        },
    }


def run(ctx: RunContext) -> None:
    entries = suite_order(ctx.seed)
    expected = load_expected()
    setup = harness.probe_setup(ctx, SETUP_CODE)
    warm_up(ctx.fresh_dir("cache-warm-up"))

    passes: List[Dict[str, object]] = []
    started = time.monotonic()
    while True:
        result = one_pass(entries, ctx.fresh_dir(f"cache-{len(passes)}"),
                          ctx.calibration)
        passes.append(result)
        if len(passes) == 1:
            peak = harness.peak_rss_mb()
        check_pass(ctx, result, expected, f"pass {len(passes)}")
        elapsed = time.monotonic() - started
        if elapsed + elapsed / len(passes) > ctx.seconds:
            break
    ctx.units = len(passes)

    walls = [r["seconds"] for r in passes]
    profile_rates = [
        len(r["rows"]) / sum(row["profile_s"] for row in r["rows"].values())
        for r in passes
    ]
    per_input_ms = [1000.0 * row["input_s"]
                    for r in passes for row in r["rows"].values()]
    first = passes[0]["rows"]
    suite_s = statistics.median(walls)
    setup_s = statistics.median(setup)
    slowdown = ctx.calibration.slowdown

    ctx.name_metric("setup_s", setup_s, "s", len(setup))
    ctx.name_metric("peak_rss_mb", peak, "MB")
    ctx.name_metric("suite_s", suite_s, "s", len(walls))
    ctx.name_metric("coverage_avg", statistics.mean(
        row["coverage_pct"] for row in first.values()), "%")
    ctx.name_metric("code_growth_pct", statistics.mean(
        row["code_growth_pct"] for row in first.values()), "%")
    ctx.name_metric("cpu_slowdown", slowdown, "ratio",
                    len(ctx.calibration.windows))

    ctx.metric("setup_s", setup_s / slowdown, "s")
    ctx.metric("peak_rss_mb", peak, "MB")
    ctx.metric("profiles_per_s",
               statistics.median(profile_rates) * slowdown, "profiles/s")
    ctx.metric("op_p50_ms", statistics.median(per_input_ms) / slowdown,
               "ms")
    ctx.metric("bulk_s", suite_s / slowdown, "s")

    if ctx.trace:
        traced, recorder = spans.traced(
            one_pass, entries, ctx.fresh_dir("cache-traced")
        )
        check_pass(ctx, traced, expected, "traced pass")
        overhead = 100.0 * (traced["seconds"] - suite_s) / suite_s
        ctx.metrics = spans.layer_metrics(recorder.spans, traced["window"],
                                          overhead)
