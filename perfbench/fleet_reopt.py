"""``fleet_reopt``: one re-optimization cycle of the service, in-process.

A cycle simulates 64 clients of ``124.m88ksim/A`` through the batched
engine, folds their documents into an ``IncrementalAggregator`` in an
order drawn from the run seed, takes the merged profile with
``snapshot()``, packs it with ``pack_fleet`` into a fresh artifact
store, and packs it again against the now-warm store.  The clients'
behaviour seeds are fixed: different client sets merge into different
numbers of phases (4 to 11 on the suite's binaries), which would make
the farm's work, not the code's speed, decide ``repack_s``.  Every cycle uses a fresh trace cache and
store.  Checks: the streaming snapshot is ``profiles_equivalent`` to
the batch ``merge_runs`` reference over the same documents, and the
warm repack hits on every shard with payloads identical to the cold
one.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import Dict, List, Optional

from perfbench import harness, spans
from perfbench.harness import RunContext

BENCHMARK, INPUT = "124.m88ksim", "A"
CLIENTS = 64
SCALE = 1.0
EPOCHS = 4
#: The fixed fleet merges into this many phases.
PHASES = 5

SETUP_CODE = f"""
from repro.engine.native import native_kernel
from repro.service import IncrementalAggregator, pack_fleet, simulate_fleet
from repro.workloads.suite import load_benchmark
load_benchmark({BENCHMARK!r}, {INPUT!r}, {SCALE!r})
native_kernel()
print("ready", flush=True)
"""


def cycle(seed: int, directory: str,
          calibration: Optional[harness.Calibration] = None
          ) -> Dict[str, object]:
    """One simulate → snapshot → cold pack → warm pack cycle.

    ``calibration`` samples reference windows between the stages.
    """
    from repro.service import (
        ArtifactStore,
        FarmConfig,
        IncrementalAggregator,
        pack_fleet,
        simulate_fleet,
    )

    harness.use_trace_cache(os.path.join(directory, "trace-cache"))
    docs = os.path.join(directory, "docs")
    store = ArtifactStore(os.path.join(directory, "store"))
    config = FarmConfig(BENCHMARK, INPUT, scale=SCALE)
    aggregator = IncrementalAggregator()

    def calibrate() -> None:
        if calibration is not None:
            calibration.sample(5)

    calibrate()
    t0 = time.monotonic()
    clients = simulate_fleet(BENCHMARK, INPUT, CLIENTS, docs, epochs=EPOCHS,
                             scale=SCALE)
    arrivals = [client.path for client in clients]
    random.Random(seed).shuffle(arrivals)
    for path in arrivals:
        aggregator.ingest_path(path)
    t1 = time.monotonic()
    fleet = aggregator.snapshot()
    t2 = time.monotonic()
    calibrate()
    t2b = time.monotonic()
    cold = pack_fleet(fleet, config, jobs=1, store=store)
    t3 = time.monotonic()
    warm = pack_fleet(fleet, config, jobs=1, store=store)
    t4 = time.monotonic()
    calibrate()
    return {
        "window": (t0, t4),
        "seconds": (t2 - t0) + (t4 - t2b),
        "docs": docs,
        "aggregator": aggregator,
        "fleet": fleet,
        "cold": cold,
        "warm": warm,
        "simulate_s": t1 - t0,
        "snapshot_s": t2 - t1,
        "repack_s": t3 - t2b,
        "warm_repack_s": t4 - t3,
    }


def check_cycle(ctx: RunContext, result: Dict[str, object],
                label: str) -> None:
    from repro.service import (
        canonical_json,
        ingest_paths,
        merge_runs,
        profiles_equivalent,
    )

    aggregator, fleet = result["aggregator"], result["fleet"]
    cold, warm = result["cold"], result["warm"]
    shards = len(cold.outcomes)
    ctx.ledger.attempt(CLIENTS + 2 * shards)
    ctx.ledger.fail("quarantined profile", len(aggregator.rejected))
    ctx.ledger.fail("degraded shard",
                    cold.degraded_shards + warm.degraded_shards)
    invalid = sum(
        1 for outcome in cold.outcomes + warm.outcomes
        if outcome.payload.get("diagnostics")
    )
    ctx.ledger.fail("failed validation", invalid)

    ctx.check(f"{label}: {CLIENTS} profiles folded, none quarantined",
              aggregator.documents == CLIENTS and not aggregator.rejected,
              f"{aggregator.documents} folded, "
              f"{len(aggregator.rejected)} rejected")
    ctx.check(f"{label}: {PHASES} merged phases",
              len(fleet.phases) == PHASES, f"{len(fleet.phases)}")
    paths = sorted(os.path.join(result["docs"], name)
                   for name in os.listdir(result["docs"]))
    reference = merge_runs(ingest_paths(paths))
    ctx.check(f"{label}: streaming snapshot equivalent to merge_runs",
              profiles_equivalent(fleet, reference))
    ctx.check(f"{label}: cold repack packs every shard cleanly",
              cold.packed_shards == shards and cold.ok and not invalid,
              f"{cold.packed_shards}/{shards} packed, "
              f"{cold.degraded_shards} degraded, {invalid} with diagnostics")
    same = all(
        canonical_json(a.payload) == canonical_json(b.payload)
        for a, b in zip(cold.outcomes, warm.outcomes)
    )
    ctx.check(f"{label}: warm repack hits every shard with identical "
              "payloads",
              warm.cached_shards == shards and same
              and len(warm.outcomes) == shards,
              f"{warm.cached_shards}/{shards} cached")


def observed_kernel() -> str:
    """The batched kernel(s) the engine reports having run."""
    from repro.obs import default_registry

    prefix = "engine.batched.rows{kernel="
    counters = default_registry().snapshot().get("counters", {})
    kernels = sorted(key[len(prefix):-1] for key in counters
                     if key.startswith(prefix))
    return "+".join(kernels) or "none"


def warm_up(directory: str) -> None:
    """A two-client, small-scale cycle: imports and first-call set-up
    happen here, untimed."""
    from repro.service import (
        ArtifactStore,
        FarmConfig,
        IncrementalAggregator,
        pack_fleet,
        simulate_fleet,
    )

    harness.use_trace_cache(os.path.join(directory, "trace-cache"))
    aggregator = IncrementalAggregator()
    simulate_fleet("134.perl", "C", 2, os.path.join(directory, "docs"),
                   scale=0.2, aggregator=aggregator)
    pack_fleet(aggregator.snapshot(), FarmConfig("134.perl", "C", scale=0.2),
               jobs=1, store=ArtifactStore(os.path.join(directory, "store")))


def run(ctx: RunContext) -> None:
    setup = harness.probe_setup(ctx, SETUP_CODE)
    warm_up(ctx.fresh_dir("warm-up"))

    cycles: List[Dict[str, object]] = []
    started = time.monotonic()
    while True:
        result = cycle(ctx.seed, ctx.fresh_dir(f"cycle-{len(cycles)}"),
                       ctx.calibration)
        check_cycle(ctx, result, f"cycle {len(cycles) + 1}")
        cycles.append(summary(result))
        if len(cycles) == 1:
            peak = harness.peak_rss_mb()
        elapsed = time.monotonic() - started
        if elapsed + elapsed / len(cycles) > ctx.seconds:
            break
    ctx.units = len(cycles)
    ctx.batched_kernel = observed_kernel()

    setup_s = statistics.median(setup)
    slowdown = ctx.calibration.slowdown
    rates = [CLIENTS / c["simulate_s"] for c in cycles]
    repack = [c["repack_s"] for c in cycles]
    shard_ms = [ms for c in cycles for ms in c["shard_ms"]]
    ctx.name_metric("setup_s", setup_s, "s", len(setup))
    ctx.name_metric("peak_rss_mb", peak, "MB")
    ctx.name_metric("profiles_per_s", statistics.median(rates), "clients/s",
                    len(rates))
    ctx.name_metric("repack_s", statistics.median(repack), "s", len(repack))
    ctx.name_metric("warm_repack_s",
                    statistics.median(c["warm_repack_s"] for c in cycles),
                    "s", len(cycles))
    ctx.name_metric("snapshot_ms", statistics.median(
        1000.0 * c["snapshot_s"] for c in cycles), "ms", len(cycles))

    ctx.name_metric("cpu_slowdown", slowdown, "ratio",
                    len(ctx.calibration.windows))

    ctx.metric("setup_s", setup_s / slowdown, "s")
    ctx.metric("peak_rss_mb", peak, "MB")
    ctx.metric("profiles_per_s", statistics.median(rates) * slowdown,
               "profiles/s")
    ctx.metric("op_p50_ms", statistics.median(shard_ms) / slowdown, "ms")
    ctx.metric("bulk_s", statistics.median(repack) / slowdown, "s")

    if ctx.trace:
        traced, recorder = spans.traced(cycle, ctx.seed,
                                        ctx.fresh_dir("cycle-traced"))
        check_cycle(ctx, traced, "traced cycle")
        untraced = statistics.median(c["seconds"] for c in cycles)
        overhead = 100.0 * (traced["seconds"] - untraced) / untraced
        ctx.metrics = spans.layer_metrics(recorder.spans, traced["window"],
                                          overhead)


def summary(result: Dict[str, object]) -> Dict[str, object]:
    """The timings of a checked cycle (its large objects are dropped)."""
    return {
        "seconds": result["seconds"],
        "simulate_s": result["simulate_s"],
        "snapshot_s": result["snapshot_s"],
        "repack_s": result["repack_s"],
        "warm_repack_s": result["warm_repack_s"],
        "shard_ms": [1000.0 * o.seconds for o in result["cold"].outcomes],
    }
