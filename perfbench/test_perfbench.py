"""Self-tests of the benchmark's own logic, at tiny sizes.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import harness, record, spans, stats  # noqa: E402


# -- percentiles ------------------------------------------------------------

@pytest.mark.parametrize("samples, expected", [
    (5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(samples, expected):
    assert stats.tail_percentile(samples) == expected


def test_percentile_interpolates_like_numpy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 50.0) == 2.5
    assert stats.percentile(values, 0.0) == 1.0
    assert stats.percentile(values, 100.0) == 4.0
    assert stats.percentile(list(range(11)), 90.0) == pytest.approx(9.0)


def test_summarize_reports_the_tail_only_when_it_qualifies():
    small = stats.summarize([float(v) for v in range(19)])
    assert small == {"p50": 9.0, "samples": 19}
    large = stats.summarize([float(v) for v in range(100)])
    assert large["tail_pct"] == 90.0
    assert large["tail"] == pytest.approx(89.1)
    assert large["samples"] == 100


# -- error accounting -------------------------------------------------------

def test_error_rate_counts_failures_against_attempts():
    ledger = stats.ErrorLedger()
    assert ledger.error_rate == 0.0
    ledger.attempt(64)
    ledger.attempt()
    ledger.fail("replay -> 503", 64)
    ledger.fail("quarantined line", 0)
    assert ledger.attempted == 65
    assert ledger.failed == 64
    assert ledger.error_rate == pytest.approx(64 / 65)
    assert ledger.to_dict()["reasons"] == {"replay -> 503": 64}


# -- spans ------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "clock", clock)
    recorder = spans.Recorder()
    outer, t_outer = recorder.enter("a")          # 0..10
    clock.now = 2.0
    inner, t_inner = recorder.enter("b")          # 2..6
    clock.now = 3.0
    leaf, t_leaf = recorder.enter("c")            # 3..4
    clock.now = 4.0
    recorder.exit(leaf, t_leaf)
    clock.now = 6.0
    recorder.exit(inner, t_inner)
    second, t_second = recorder.enter("b")        # 6..7
    clock.now = 7.0
    recorder.exit(second, t_second)
    clock.now = 10.0
    recorder.exit(outer, t_outer)

    assert leaf.parent == inner.id and inner.parent == outer.id
    assert spans.self_times(recorder.spans) == {
        "a": pytest.approx(10 - 4 - 1),
        "b": pytest.approx(4 - 1 + 1),
        "c": pytest.approx(1),
    }
    assert spans.covered_seconds(recorder.spans, (0.0, 20.0)) == 10.0
    assert spans.covered_seconds(recorder.spans, (5.0, 8.0)) == 3.0


def test_spans_nest_per_asyncio_task_and_thread():
    recorder = spans.Recorder()

    def blocking():
        span, token = recorder.enter("thread")
        recorder.exit(span, token)

    async def request(name):
        span, token = recorder.enter(name)
        await asyncio.sleep(0)
        await asyncio.to_thread(blocking)
        recorder.exit(span, token)

    async def main():
        await asyncio.gather(request("r1"), request("r2"))

    asyncio.run(main())
    by_id = {span.id: span for span in recorder.spans}
    threads = [s for s in recorder.spans if s.name == "thread"]
    assert sorted(by_id[s.parent].name for s in threads) == ["r1", "r2"]
    assert all(by_id[s.parent].parent is None for s in threads)


def test_layer_metrics_cover_every_per_layer_metric():
    spans_ = [
        spans.Span(1, None, "server.request", 0.0, 0.010,
                   {"requests": 1}),
        spans.Span(2, 1, "server.route", 0.001, 0.004),
        spans.Span(3, 2, "service.aggregate.fold", 0.002, 0.003,
                   {"folds": 1, "duplicates": 0}),
        spans.Span(4, None, "service.artifacts.get", 0.020, 0.021,
                   {"lookups": 1, "hits": 1}),
        spans.Span(5, None, "server.request", 5.0, 6.0, {"requests": 1}),
    ]
    metrics = spans.layer_metrics(spans_, (0.0, 0.1), 12.5,
                                  client_latency_s=[0.015])
    assert [name for name, *_ in spans.PER_LAYER] == list(metrics)
    assert metrics["server.requests"]["value"] == 1  # span 5 is outside
    assert metrics["server.route_s"]["value"] == pytest.approx(0.002)
    assert metrics["server.request_s"]["value"] == pytest.approx(0.007)
    assert metrics["service.aggregate.folds"]["value"] == 1
    assert metrics["service.artifacts.hit_ratio"]["value"] == 1.0
    assert metrics["server.wait_ms"]["value"] == pytest.approx(5.0)
    assert metrics["trace.unattributed_pct"]["value"] == pytest.approx(89.0)
    assert metrics["trace.overhead_pct"]["value"] == 12.5
    assert metrics["engine.branches"]["value"] == 0


def test_instrumentation_wraps_imported_copies_and_restores_them():
    import repro.engine.trace_cache as trace_cache
    import repro.postlink.vacuum as vacuum

    original = trace_cache.image_for
    recorder = spans.Recorder()
    layer = spans.Layer("probe", "repro.engine.trace_cache:image_for")
    instrumentation = spans.Instrumentation(recorder, [layer])
    try:
        assert vacuum.image_for is trace_cache.image_for
        assert vacuum.image_for is not original
    finally:
        instrumentation.remove()
    assert trace_cache.image_for is original
    assert vacuum.image_for is original


def test_every_layer_target_resolves():
    for module in spans.PRELOAD:
        __import__(module)
    recorder = spans.Recorder()
    instrumentation = spans.Instrumentation(recorder)
    instrumentation.remove()
    traced_names = {layer.span for layer in spans.LAYERS}
    for _, _, span_name, _ in spans.PER_LAYER:
        assert span_name is None or span_name in traced_names


# -- run records ------------------------------------------------------------

def sample_record(**env_changes):
    env = {
        "git_sha": None, "src_digest": "abc", "nproc": 2, "python": "3.11.7",
        "numpy": "2.0", "batched_kernel": "native", "c_compiler": "cc",
        "native_build_s": None,
    }
    env.update(env_changes)
    return record.make_record(
        "fleet_reopt", 7, 20, False, env,
        [{"name": "equivalent", "ok": True, "detail": ""}],
        stats.ErrorLedger().to_dict(),
        {"bulk_s": {"value": 6.5, "unit": "s"}},
        {"repack_s": {"value": 6.5, "unit": "s", "samples": 1}}, 1,
    )


def test_record_round_trips(tmp_path):
    rec = sample_record()
    path = str(tmp_path / "records" / "one.json")
    record.write_record(path, rec)
    assert record.load_record(path) == rec
    assert set(rec) == set(record.RECORD_KEYS)
    assert rec["correct"] is True


def test_records_compare_only_with_matching_environment():
    base = sample_record()
    assert record.mismatches(base, sample_record(git_sha="f00")) == []
    assert record.mismatches(base, sample_record(native_build_s=0.3)) == []
    problems = record.mismatches(base, sample_record(batched_kernel="lockstep"))
    assert problems == ["env.batched_kernel: 'native' != 'lockstep'"]


def test_load_record_rejects_other_schemas(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 0}))
    with pytest.raises(ValueError):
        record.load_record(str(path))


# -- BENCHMARK.json ---------------------------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [m["name"] for m in bench["per_layer"]] == [
        name for name, *_ in spans.PER_LAYER
    ]
    assert [m["unit"] for m in bench["per_layer"]] == [
        unit for _, unit, *_ in spans.PER_LAYER
    ]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [w["name"] for w in bench["workloads"]] == [
        "paper_suite", "fleet_reopt", "fleet_ingest"
    ]


def test_compare_refuses_mismatched_environments(tmp_path):
    from perfbench import compare

    base, change, other = (tmp_path / n for n in ("base", "change", "other"))
    record.write_record(str(base / "a.json"), sample_record())
    record.write_record(str(change / "a.json"), sample_record(git_sha="f"))
    record.write_record(str(other / "a.json"),
                        sample_record(c_compiler=None))
    lines = compare.compare(compare.load_group(str(base)),
                            compare.load_group(str(change)))
    assert lines[0].startswith("fleet_reopt trace=0 (1 vs 1 runs)")
    assert "bulk_s" in lines[1] and "+0.0%" in lines[1]
    lines = compare.compare(compare.load_group(str(base)),
                            compare.load_group(str(other)))
    assert "not comparable: env.c_compiler" in lines[0]
