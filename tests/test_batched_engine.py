"""Batched engine: bit-identity with sequential compiled runs.

The contract (see :mod:`repro.engine.batched`) is that a batch of N
client rows — divergent behavior seeds over one binary — produces the
same :class:`ExecutionSummary` fields and the same
``(branch_uid, taken, phase)`` event stream as N sequential
:class:`CompiledExecutor` runs, for both kernels (``scalar`` and
``native``) and through the fleet simulation layer (byte-identical
profile documents).
"""

from __future__ import annotations

import glob
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.native
from repro.engine.batched import BatchedExecutor, batch_kernel, row_behavior
from repro.engine.compiled import CompiledExecutor
from repro.engine.native import native_kernel
from repro.engine.trace_cache import reset_default_cache
from repro.fuzz import load_case
from repro.hsd.serialize import make_provenance, save_profile
from repro.postlink.vacuum import VacuumPacker
from repro.service.aggregate import ingest_dir, merge_runs
from repro.service.artifacts import ArtifactStore
from repro.service.clients import simulate_fleet
from repro.service.farm import FarmConfig, pack_fleet
from repro.workloads.suite import load_benchmark
from repro.workloads.synthetic import (
    MIN_PHASE_BRANCHES,
    SyntheticSpec,
    build_workload,
)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

KERNELS = ("scalar", "native")

SUITE_INPUTS = (
    ("181.mcf", "A"),
    ("134.perl", "C"),
    ("130.li", "B"),
    ("099.go", "A"),
)


def summary_tuple(summary):
    return (
        summary.instructions,
        summary.branches,
        summary.taken_branches,
        summary.calls,
        summary.steps,
        summary.stop_reason,
        tuple(sorted(summary.block_visits.items())),
    )


def sequential_traces(workload, seeds, limits=None):
    limits = limits or workload.limits
    traces = []
    for seed in seeds:
        executor = CompiledExecutor(
            workload.program,
            row_behavior(workload.behavior, seed),
            workload.phase_script,
            limits=limits,
        )
        traces.append(executor.run_traced())
    return traces


def assert_batch_matches(workload, seeds, limits=None):
    limits = limits or workload.limits
    expected = sequential_traces(workload, seeds, limits)
    run = BatchedExecutor(
        workload.program,
        workload.behavior,
        workload.phase_script,
        seeds=seeds,
        limits=limits,
    ).run_traced()
    assert len(run.traces) == len(seeds)
    for row, (exp, got) in enumerate(zip(expected, run.traces)):
        assert summary_tuple(exp.summary) == summary_tuple(got.summary), (
            f"row {row} summary diverged under kernel {run.kernel}"
        )
        assert np.array_equal(exp.uids, got.uids), f"row {row} uids"
        assert np.array_equal(exp.taken, got.taken), f"row {row} taken"
        assert np.array_equal(
            exp.phases(workload.phase_script),
            got.phases(workload.phase_script),
        ), f"row {row} phases"
    return run


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "bench,input_name", SUITE_INPUTS,
    ids=[f"{b}/{i}" for b, i in SUITE_INPUTS],
)
def test_suite_bit_identity(bench, input_name, kernel, monkeypatch):
    if kernel == "native" and native_kernel() is None:
        pytest.skip("no C compiler for the native kernel")
    if kernel == "scalar":
        monkeypatch.setattr(repro.engine.native, "native_kernel", lambda: None)
    workload = load_benchmark(bench, input_name, scale=0.05)
    run = assert_batch_matches(workload, seeds=[3, 4, 5, 6])
    if kernel == "scalar" or not run.scalar_rows:
        assert run.kernel == kernel


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_fuzz_corpus_bit_identity(path):
    workload = load_case(path).workload
    assert_batch_matches(workload, seeds=[1, 2, 3])


# -- hypothesis: random (N, seeds, phase script) combinations ----------

_HYPO_CACHE = {}


def _hypo_workload(phases, pattern):
    key = (phases, pattern)
    if key not in _HYPO_CACHE:
        spec = SyntheticSpec(
            name=f"t.batched.{phases}.{pattern}",
            seed=17 + phases,
            phases=phases,
            work_functions=4,
            functions_per_phase=2,
            cold_functions=2,
            cold_blocks_per_function=3,
            branch_budget=phases * MIN_PHASE_BRANCHES,
            phase_pattern=pattern,
        )
        workload = build_workload(spec)
        packed = VacuumPacker().pack(workload).packed
        _HYPO_CACHE[key] = (workload, packed)
    return _HYPO_CACHE[key]


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    base_seed=st.integers(min_value=0, max_value=60),
    stride=st.integers(min_value=1, max_value=9),
    budget_scale=st.sampled_from([1.0, 1.5, 4.0]),
    phases=st.integers(min_value=2, max_value=3),
    pattern=st.sampled_from(["sequence", "repeat"]),
)
def test_random_batches_bit_identical(
    n, base_seed, stride, budget_scale, phases, pattern
):
    workload, packed = _hypo_workload(phases, pattern)
    seeds = [base_seed + stride * k for k in range(n)]
    # Budgets beyond the script's end make rows run to HALT at
    # seed-dependent event counts: the early-halt stragglers park while
    # the rest of the batch keeps retiring branches.
    limits = replace(
        workload.limits,
        max_branches=int(workload.limits.max_branches * budget_scale),
    )
    expected = sequential_traces(workload, seeds, limits)
    run = BatchedExecutor(
        workload.program,
        workload.behavior,
        workload.phase_script,
        seeds=seeds,
        limits=limits,
    ).run_traced()
    for exp, got in zip(expected, run.traces):
        assert summary_tuple(exp.summary) == summary_tuple(got.summary)
        assert np.array_equal(exp.uids, got.uids)
        assert np.array_equal(exp.taken, got.taken)
    # Replay-through-packed: every batched trace must drive the packed
    # clone of the binary without divergence (copies resolve through
    # origin uids), retiring exactly the recorded number of branches.
    for seed, trace in zip(seeds, run.traces):
        player = CompiledExecutor(
            packed.program,
            row_behavior(workload.behavior, seed),
            workload.phase_script,
            limits=limits,
        )
        replayed = player.run(replay=trace)
        assert replayed.branches == trace.summary.branches
        assert replayed.stop_reason == trace.summary.stop_reason


# -- engine selection ---------------------------------------------------

def test_batch_kernel_reports_the_running_kernel(monkeypatch):
    expected = "native" if native_kernel() is not None else "scalar"
    assert batch_kernel() == expected
    monkeypatch.setenv("REPRO_NATIVE", "off")
    assert batch_kernel() == "scalar"


def test_auto_without_compiler_runs_scalar(monkeypatch):
    # REPRO_NATIVE=off stands in for a machine without a C compiler.
    monkeypatch.setenv("REPRO_NATIVE", "off")
    workload = load_benchmark("181.mcf", "A", scale=0.05)
    run = assert_batch_matches(workload, seeds=[3, 4, 5, 6])
    assert run.kernel == "scalar"


def test_single_run_falls_back_to_scalar():
    workload, _ = _hypo_workload(2, "sequence")
    run = BatchedExecutor(
        workload.program,
        workload.behavior,
        workload.phase_script,
        seeds=[5],
        limits=workload.limits,
    ).run_traced()
    assert run.kernel == "scalar"


# -- observability ------------------------------------------------------

def test_batched_counters_increment():
    from repro.obs import default_registry
    from repro.obs.metrics import series_name

    def total(name):
        return sum(
            value
            for key, value in default_registry().snapshot()["counters"].items()
            if series_name(key) == name
        )

    workload, _ = _hypo_workload(2, "sequence")
    before_rows = total("engine.batched.rows")
    before_retired = total("engine.batched.retired_rows")
    run = BatchedExecutor(
        workload.program,
        workload.behavior,
        workload.phase_script,
        seeds=[7, 8, 9],
        limits=workload.limits,
    ).run_traced()
    assert total("engine.batched.rows") == before_rows + 3
    assert (
        total("engine.batched.retired_rows")
        == before_retired + 3 - len(run.scalar_rows)
    )
    assert total("engine.batched.steps") > 0


# -- fleet layer --------------------------------------------------------

def _fleet_bytes(directory):
    return {
        os.path.basename(p): open(p, "rb").read()
        for p in sorted(glob.glob(os.path.join(str(directory), "*.json")))
    }


def per_client_fleet(out_dir, runs, base_seed, scale, epochs, mutate=None):
    """The fleet as one fresh build, seed and profile per client: the
    oracle :func:`simulate_fleet`'s batched rows must match byte for
    byte."""
    out_dir.mkdir(parents=True)
    for i in range(runs):
        workload = load_benchmark("181.mcf", "A", scale=scale)
        workload.behavior.seed = base_seed + i
        if mutate is not None:
            mutate(workload, i)
        profile = VacuumPacker().profile(workload)
        provenance = make_provenance(
            f"181.mcf/A#r{i:04d}", base_seed + i, i * epochs // runs
        )
        save_profile(
            out_dir / f"client-{i:04d}.json",
            profile.records,
            meta={"benchmark": "181.mcf/A", "scale": scale,
                  "provenance": provenance},
        )


def test_fleet_documents_identical_batched_vs_sequential(
    tmp_path, monkeypatch
):
    from repro.service.drift import DriftSpec, apply_drift

    spec = DriftSpec(severity=0.5, warm_bias=0.4, seed=7)

    def mutate(w, i):
        apply_drift(w.behavior, spec)

    # Neither side may read traces the other one cached.
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    reset_default_cache()
    try:
        for drift_mutate in (None, mutate):
            tag = "drift" if drift_mutate else "plain"
            seq_dir = tmp_path / f"seq-{tag}"
            per_client_fleet(seq_dir, 4, base_seed=3, scale=0.1, epochs=2,
                             mutate=drift_mutate)
            bat_dir = tmp_path / f"bat-{tag}"
            simulate_fleet("181.mcf", "A", 4, bat_dir, base_seed=3,
                           scale=0.1, epochs=2, mutate=drift_mutate)
            seq_docs = _fleet_bytes(seq_dir)
            bat_docs = _fleet_bytes(bat_dir)
            assert len(seq_docs) == 4 and seq_docs == bat_docs, (
                f"{tag} fleet diverged"
            )
    finally:
        monkeypatch.undo()
        reset_default_cache()


def test_fleet_rejects_mutate_that_rebuilds_program(tmp_path):
    def rebuild(w, i):
        # Replacing the limits object steps outside the shared-binary
        # contract the batched fleet runs under.
        w.limits = replace(w.limits)

    with pytest.raises(ValueError, match="shared binary"):
        simulate_fleet("181.mcf", "A", 2, tmp_path / "f", base_seed=1,
                       scale=0.05, mutate=rebuild)
    assert not list((tmp_path / "f").glob("*.json"))


def test_farm_jobs_invariant_with_batched_engine(tmp_path):
    out = tmp_path / "profiles"
    simulate_fleet("134.perl", "C", runs=4, out_dir=out, base_seed=0,
                   scale=0.2)
    merged = merge_runs(ingest_dir(out))
    config = FarmConfig(benchmark="134.perl", input_name="C", scale=0.2)
    serial = pack_fleet(merged, config, jobs=1, store=ArtifactStore("off"))
    pooled = pack_fleet(merged, config, jobs=2, store=ArtifactStore("off"))
    assert [o.payload for o in serial.outcomes] == [
        o.payload for o in pooled.outcomes
    ]
    assert [o.key for o in serial.outcomes] == [
        o.key for o in pooled.outcomes
    ]
    assert serial.degraded_shards == pooled.degraded_shards == 0
