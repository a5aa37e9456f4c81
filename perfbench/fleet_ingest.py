"""``fleet_ingest``: a ``repro server`` subprocess under two closed loops.

Set-up simulates a few real clients per tenant (three tenants, small
scale) and derives every document from them by scaling their counters
with seed-chosen factors, so documents are distinct but cluster like
real ones.  It uploads a history of :data:`HISTORY_PER_TENANT`
documents per tenant through a cold daemon, stops it, and boots the
daemon :data:`harness.SETUP_PROBES` times from the checkpoints it left
(``setup_s`` is boot plus restore, up to the banner).  The last boot
serves the load.

The load comes from this process over two keep-alive connections, each
a closed loop (the next request is sent when the previous one was
answered), one after the other.  Each sends a fixed number of requests,
sized so that at nominal speed each takes half of ``--seconds``: every
run then does the same work and ends with the same daemon state, and
only the time it took varies.

* connection 1 posts one document per request, round-robin over the
  tenants; every :data:`SNAPSHOT_EVERY`-th request reads a tenant's
  snapshot instead;
* connection 2 replays :data:`REPLAY_BATCH`-document NDJSON backlogs,
  of which :data:`REPLAY_DUPLICATES` were acknowledged during set-up.

Run together for a fixed time, each connection's latency depended on
how its requests interleaved with the other's on the daemon's event
loop and on how far the state had grown, and ten runs spread by 11–14%.
Run in turn on fixed work, each class measures its own cost: the
per-request checkpoint for single uploads, parse and fold per document
for replays.

Checks: each tenant's final wire snapshot has no ``equivalence_diffs``
against ``merge_runs`` over history plus every acknowledged document;
the daemon counts exactly the replayed documents as duplicates; every
daemon exits 0 on SIGTERM after its final checkpoint.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from http.client import HTTPConnection
from typing import Dict, List, Optional, Tuple
from urllib.parse import quote

from perfbench import harness, spans
from perfbench.harness import Launched, RunContext
from perfbench.stats import percentile, summarize

TENANTS = ("130.li/B", "255.vortex/A", "175.vpr/A")
SCALE = 0.3
#: Real client runs simulated per tenant; documents derive from them.
BASE_CLIENTS = 8
HISTORY_PER_TENANT = 1000
HISTORY_BATCH = 250
REPLAY_BATCH = 64
#: Documents per replay batch that were already acknowledged.
REPLAY_DUPLICATES = REPLAY_BATCH // 4
SNAPSHOT_EVERY = 16
#: Nominal closed-loop rates that size each connection's requests.
SINGLE_REQUESTS_PER_S = 80
REPLAY_REQUESTS_PER_S = 20
#: The tolerance the server tests hold the wire snapshot to: the wire
#: rounds the provenance agreement score to six decimals.
WIRE_AGREEMENT_TOL = 5e-7
BANNER = (r"listening on http://127\.0\.0\.1:(\d+) .*checkpoint "
          r"(\w+) \[(\d+)/(\d+) tenant")
REQUEST_TIMEOUT = 60.0


class DocumentFactory:
    """Deterministic profile documents for one tenant.

    Document ``number`` scales the counters of base run ``number % 8``
    by one of 21 seed-shifted factors and stamps its own provenance.
    The records part of each (base run, factor) pair is serialized once
    and the provenance spliced in, so generating load costs the
    generator almost no CPU next to the daemon it measures.
    """

    FACTORS = 21

    def __init__(self, tenant: str, base_runs, seed: int):
        self.tenant = tenant
        self.base_runs = base_runs
        self.seed = seed
        self._templates: Dict[Tuple[int, int], Tuple[str, str]] = {}

    def _template(self, base: int, step: int) -> Tuple[str, str]:
        from repro.hsd.records import BranchProfile, HotSpotRecord
        from repro.hsd.serialize import records_to_dict

        key = (base, step)
        if key not in self._templates:
            factor = 1.0 + 0.05 * step
            records = []
            for record in self.base_runs[base].records:
                branches = {}
                for address, profile in record.branches.items():
                    executed = int(profile.executed * factor)
                    branches[address] = BranchProfile(
                        address, executed,
                        min(int(profile.taken * factor), executed),
                    )
                records.append(HotSpotRecord(
                    index=record.index,
                    detected_at_branch=record.detected_at_branch,
                    branches=branches,
                ))
            text = json.dumps(records_to_dict(records, {"": None}))
            head, _, tail = text.partition('{"": null}')
            self._templates[key] = (head, tail)
        return self._templates[key]

    def text(self, kind: str, number: int) -> str:
        from repro.hsd.serialize import make_provenance

        head, tail = self._template(
            number % len(self.base_runs),
            (number * 7 + self.seed) % self.FACTORS,
        )
        meta = {
            "benchmark": self.tenant,
            "provenance": make_provenance(
                f"{self.tenant}#{kind}{number:06d}", seed=number,
                epoch=number % 4,
            ),
        }
        return head + json.dumps(meta) + tail


def make_factories(seed: int, directory: str) -> Dict[str, DocumentFactory]:
    from repro.service import ingest_paths, simulate_fleet

    factories = {}
    for number, tenant in enumerate(TENANTS):
        benchmark, _, input_name = tenant.partition("/")
        out = os.path.join(directory, f"base-{number}")
        clients = simulate_fleet(
            benchmark, input_name, BASE_CLIENTS, out,
            base_seed=100 * number,
            epochs=4, scale=SCALE,
        )
        runs = ingest_paths(sorted(c.path for c in clients)).runs
        factories[tenant] = DocumentFactory(tenant, runs, seed)
    return factories


def tenant_path(tenant: str, verb: str) -> str:
    return f"/tenants/{quote(tenant, safe='/')}/{verb}"


class Daemon:
    """One ``repro server`` process over the run's store."""

    def __init__(self, ctx: RunContext, store: str = "store",
                 spans_path: Optional[str] = None):
        argv = [sys.executable]
        if spans_path is None:
            argv += ["-m", "repro"]
        else:
            argv += [os.path.join(harness.HERE, "daemon.py"), spans_path,
                     "--"]
        argv += [
            "server", "--bench", TENANTS[0], "--scale", str(SCALE),
            "--listen", "127.0.0.1:0", "--store", ctx.path(store),
            "--checkpoint-tag", "perfbench",
        ]
        self.boot_s, match, self.process = harness.launch_until(
            argv, harness.child_env(ctx.workdir), BANNER,
            ctx.path("daemon.log"),
        )
        self.port = int(match.group(1))
        self.restored = int(match.group(3))

    def connect(self) -> HTTPConnection:
        return HTTPConnection("127.0.0.1", self.port,
                              timeout=REQUEST_TIMEOUT)

    def stop(self) -> Launched:
        """SIGTERM, then reap; the caller checks the exit."""
        self.process.proc.send_signal(signal.SIGTERM)
        self.process.wait()
        return self.process


def request(conn: HTTPConnection, method: str, path: str,
            body: Optional[bytes] = None) -> Tuple[int, Dict, float, float]:
    """One request: status, parsed body, start and end times."""
    headers = {"Content-Type": "application/x-ndjson"} if body else {}
    started = time.monotonic()
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    payload = response.read()
    ended = time.monotonic()
    try:
        parsed = json.loads(payload)
    except ValueError:
        parsed = {}
    return response.status, parsed, started, ended


class Load:
    """Samples and acknowledgements from one load phase."""

    def __init__(self) -> None:
        self.uploads: List[float] = []
        self.snapshots: List[float] = []
        self.replays: List[float] = []
        self.replay_docs = 0
        self.duplicates_sent = 0
        self.folded = 0
        #: Seconds of every request, for the traced wait time.
        self.latencies: List[float] = []
        self.acked: Dict[str, List[str]] = {t: [] for t in TENANTS}
        self.window = (0.0, 0.0)


def single_loop(ctx: RunContext, daemon: Daemon, load: Load,
                factories: Dict[str, DocumentFactory],
                requests: int) -> None:
    """Connection 1: single uploads and every 16th a snapshot read."""
    conn = daemon.connect()
    try:
        for number in range(requests):
            if number % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1:
                tenant = TENANTS[(number // SNAPSHOT_EVERY) % len(TENANTS)]
                status, body, t0, t1 = request(
                    conn, "GET", tenant_path(tenant, "snapshot"))
                ctx.ledger.attempt()
                if status != 200 or "fleet" not in body:
                    ctx.ledger.fail(f"snapshot -> {status}")
                else:
                    load.snapshots.append(1000.0 * (t1 - t0))
            else:
                tenant = TENANTS[number % len(TENANTS)]
                text = factories[tenant].text("u", number)
                status, body, t0, t1 = request(
                    conn, "POST", tenant_path(tenant, "profiles"),
                    text.encode())
                ctx.ledger.attempt()
                if status != 200 or body.get("folded") != 1:
                    ctx.ledger.fail(f"upload -> {status}")
                else:
                    load.uploads.append(1000.0 * (t1 - t0))
                    load.acked[tenant].append(text)
                    load.folded += 1
            load.latencies.append(t1 - t0)
    finally:
        conn.close()


def replay_loop(ctx: RunContext, daemon: Daemon, load: Load,
                factories: Dict[str, DocumentFactory],
                history: Dict[str, List[str]], requests: int) -> None:
    """Connection 2: backlog replays, a quarter already acknowledged."""
    conn = daemon.connect()
    fresh = REPLAY_BATCH - REPLAY_DUPLICATES
    try:
        for batch in range(requests):
            tenant = TENANTS[batch % len(TENANTS)]
            rng = random.Random(ctx.seed * 1_000_003 + batch)
            new = [factories[tenant].text("r", batch * fresh + k)
                   for k in range(fresh)]
            texts = new + rng.sample(history[tenant], REPLAY_DUPLICATES)
            rng.shuffle(texts)
            status, body, t0, t1 = request(
                conn, "POST", tenant_path(tenant, "profiles"),
                "\n".join(texts).encode())
            ctx.ledger.attempt(REPLAY_BATCH)
            if (status != 200 or body.get("folded") != fresh
                    or body.get("duplicates") != REPLAY_DUPLICATES):
                ctx.ledger.fail(f"replay -> {status}", REPLAY_BATCH)
            else:
                load.replays.append(t1 - t0)
                load.replay_docs += REPLAY_BATCH
                load.acked[tenant].extend(new)
                load.folded += fresh
                load.duplicates_sent += REPLAY_DUPLICATES
            load.latencies.append(t1 - t0)
    finally:
        conn.close()


def counters(daemon: Daemon) -> Dict[str, Dict[str, int]]:
    conn = daemon.connect()
    try:
        status, body, _, _ = request(conn, "GET", "/tenants")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET /tenants -> {status}")
    return body["tenants"]


def load_phase(ctx: RunContext, daemon: Daemon,
               factories: Dict[str, DocumentFactory],
               history: Dict[str, List[str]]) -> Load:
    """Connection 1's requests, then connection 2's; checks the
    daemon's duplicate and document counters moved by exactly what was
    sent."""
    load = Load()
    before = counters(daemon)
    half = ctx.seconds / 2.0
    started = time.monotonic()
    single_loop(ctx, daemon, load, factories,
                round(half * SINGLE_REQUESTS_PER_S))
    replay_loop(ctx, daemon, load, factories, history,
                max(1, round(half * REPLAY_REQUESTS_PER_S)))
    load.window = (started, time.monotonic())

    after = counters(daemon)
    duplicates = sum(after[t]["duplicates"] - before[t]["duplicates"]
                     for t in TENANTS)
    documents = sum(after[t]["documents"] - before[t]["documents"]
                    for t in TENANTS)
    ctx.check("daemon counts exactly the replayed documents as duplicates",
              duplicates == load.duplicates_sent,
              f"{duplicates} counted, {load.duplicates_sent} replayed")
    ctx.check("daemon folded exactly the acknowledged new documents",
              documents == load.folded,
              f"{documents} folded, {load.folded} acknowledged")
    quarantined = sum(after[t]["quarantined"] - before[t]["quarantined"]
                      for t in TENANTS)
    ctx.ledger.fail("quarantined line", quarantined)
    return load


def stop_checked(ctx: RunContext, daemon: Daemon, label: str) -> Launched:
    process = daemon.stop()
    stopped = any("checkpointed and stopped" in line
                  for line in process.output)
    ctx.check(f"{label}: SIGTERM exits 0 after the final checkpoint",
              process.exit_code == 0 and stopped,
              f"exit {process.exit_code}")
    return process


def upload_history(ctx: RunContext, factories: Dict[str, DocumentFactory]
                   ) -> Dict[str, List[str]]:
    history = {
        tenant: [factory.text("h", j) for j in range(HISTORY_PER_TENANT)]
        for tenant, factory in factories.items()
    }
    daemon = Daemon(ctx)
    try:
        conn = daemon.connect()
        try:
            for tenant, texts in history.items():
                for start in range(0, len(texts), HISTORY_BATCH):
                    chunk = texts[start:start + HISTORY_BATCH]
                    status, body, _, _ = request(
                        conn, "POST", tenant_path(tenant, "profiles"),
                        "\n".join(chunk).encode())
                    if status != 200 or body.get("folded") != len(chunk):
                        raise RuntimeError(
                            f"history upload -> {status} {body!r:.200}")
        finally:
            conn.close()
    finally:
        stop_checked(ctx, daemon, "history daemon")
    return history


def check_snapshots(ctx: RunContext, daemon: Daemon,
                    history: Dict[str, List[str]],
                    acked: Dict[str, List[str]]) -> None:
    from repro.hsd.serialize import document_from_json
    from repro.service import (
        ClientRun,
        ContractTolerance,
        FleetProfile,
        equivalence_diffs,
        merge_runs,
    )

    tolerance = ContractTolerance(agreement_abs_tol=WIRE_AGREEMENT_TOL)
    conn = daemon.connect()
    try:
        for tenant in TENANTS:
            status, body, _, _ = request(
                conn, "GET", tenant_path(tenant, "snapshot"))
            if status != 200:
                ctx.check(f"{tenant}: final snapshot", False, f"{status}")
                continue
            wire = FleetProfile.from_dict(body["fleet"])
            runs = []
            for text in history[tenant] + acked[tenant]:
                doc = document_from_json(text)
                runs.append(ClientRun.from_document(doc.run_id, doc))
            diffs = equivalence_diffs(merge_runs(runs), wire, tolerance)
            ctx.check(f"{tenant}: wire snapshot equivalent to merge_runs "
                      f"over {len(runs)} documents", not diffs,
                      "; ".join(diffs[:3]))
    finally:
        conn.close()


def serve_load(ctx: RunContext, daemon: Daemon,
               factories: Dict[str, DocumentFactory],
               history: Dict[str, List[str]], label: str
               ) -> Tuple[Load, float]:
    """One load phase, the snapshot checks, and a checked SIGTERM.

    Returns the phase's samples and the daemon's peak RSS in MB.
    """
    try:
        load = load_phase(ctx, daemon, factories, history)
        check_snapshots(ctx, daemon, history, load.acked)
        process = stop_checked(ctx, daemon, label)
    finally:
        daemon.process.kill()
    return load, process.peak_rss_mb


def run(ctx: RunContext) -> None:
    factories = make_factories(ctx.seed, ctx.fresh_dir("base"))
    history = upload_history(ctx, factories)
    # The traced phase starts from the same checkpoints and replays the
    # same documents as the untraced one, so the two compare.
    shutil.copytree(ctx.path("store"), ctx.path("store-traced"))

    boots: List[float] = []
    for number in range(harness.SETUP_PROBES):
        daemon = Daemon(ctx)
        boots.append(daemon.boot_s)
        ctx.check(f"boot {number + 1}: every tenant restored",
                  daemon.restored == len(TENANTS),
                  f"{daemon.restored}/{len(TENANTS)}")
        if number < harness.SETUP_PROBES - 1:
            try:
                stop_checked(ctx, daemon, f"boot {number + 1}")
            finally:
                daemon.process.kill()
    load, peak = serve_load(ctx, daemon, factories, history, "load daemon")
    ctx.units = 1
    report(ctx, load, boots, peak)

    if ctx.trace:
        spans_path = ctx.path("daemon-spans.json")
        daemon = Daemon(ctx, "store-traced", spans_path)
        traced, _ = serve_load(ctx, daemon, factories, history,
                               "traced daemon")
        ctx.units = 2
        untraced = statistics.median(load.uploads)
        overhead = 100.0 * (statistics.median(traced.uploads) - untraced) \
            / untraced
        ctx.metrics = spans.layer_metrics(
            spans.load_spans(spans_path), traced.window, overhead,
            traced.latencies,
        )


def report(ctx: RunContext, load: Load, boots: List[float],
           peak: float) -> None:
    if not (load.uploads and load.snapshots and load.replays):
        raise RuntimeError("a traffic class got no successful request")
    uploads = summarize(load.uploads)
    snapshots = summarize(load.snapshots)
    replay_rate = load.replay_docs / sum(load.replays)
    setup_s = statistics.median(boots)
    upload_p90 = percentile(load.uploads, 90.0)

    ctx.name_metric("setup_s", setup_s, "s", len(boots))
    ctx.name_metric("peak_rss_mb", peak, "MB")
    ctx.name_metric("upload_p50_ms", uploads["p50"], "ms", len(load.uploads))
    ctx.name_metric("upload_p90_ms", upload_p90, "ms", len(load.uploads))
    if "tail" in uploads:
        ctx.name_metric(f"upload_p{uploads['tail_pct']:g}_ms",
                        uploads["tail"], "ms", len(load.uploads))
    ctx.name_metric("snapshot_p50_ms", snapshots["p50"], "ms",
                    len(load.snapshots))
    ctx.name_metric("replay_docs_per_s", replay_rate, "docs/s",
                    len(load.replays))

    # Not calibrated: the measured work runs in the daemon process, whose
    # speed a reference loop in this process does not track.
    ctx.metric("setup_s", setup_s, "s")
    ctx.metric("peak_rss_mb", peak, "MB")
    ctx.metric("profiles_per_s", replay_rate, "profiles/s")
    ctx.metric("op_p50_ms", uploads["p50"], "ms")
    ctx.metric("bulk_s", statistics.median(load.replays), "s")
