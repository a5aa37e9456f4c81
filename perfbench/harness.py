"""Run plumbing shared by the workloads: paths, isolation, set-up probes.

Every run works in a private directory under ``.perfbench/`` at the
repository root (trace cache, artifact store, documents, temporary
files) that is deleted when the run ends, so no run reads another's
state.  Only the native kernel build (``.perfbench/native``) and the
run records (``.perfbench/records``) persist between runs.
"""

from __future__ import annotations

import os
import queue
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.stats import ErrorLedger

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
NATIVE_CACHE = os.path.join(STATE, "native")
RECORDS = os.path.join(STATE, "records")

#: The end-to-end metrics every workload reports, as in BENCHMARK.json;
#: README.md maps each onto the workload's own metric names.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("profiles_per_s", "profiles/s"),
    ("op_p50_ms", "ms"),
    ("bulk_s", "s"),
)

#: Fresh processes timed per run for ``setup_s`` (the median is kept).
SETUP_PROBES = 3
#: Longest a set-up probe or daemon boot may take before it fails.
PROBE_TIMEOUT = 60.0


#: Iterations of the calibration loop; one window takes about
#: :data:`CALIBRATION_NOMINAL_S` on a quiet 2.1 GHz x86-64 core.
CALIBRATION_LOOP = 200_000
CALIBRATION_NOMINAL_S = 0.02


def calibration_window() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    started = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_LOOP):
        total += value * value % 7
    return time.perf_counter() - started


class Calibration:
    """How fast this machine runs during a measurement.

    On a shared machine the CPU speed a process gets drifts by tens of
    percent over minutes.  The in-process workloads sample the reference
    loop between timed items; :attr:`slowdown` (median window over nominal) converts
    a wall time into the time it would have taken at nominal speed, so
    run-to-run drift cancels while the program's own speed shows.
    """

    def __init__(self) -> None:
        self.windows: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.windows.append(calibration_window())

    @property
    def slowdown(self) -> float:
        return statistics.median(self.windows) / CALIBRATION_NOMINAL_S


@dataclass
class RunContext:
    """What one workload run measures, checks and counts."""

    workload: str
    seed: int
    seconds: int
    trace: bool
    workdir: str
    ledger: ErrorLedger = field(default_factory=ErrorLedger)
    checks: List[Dict[str, object]] = field(default_factory=list)
    #: The workload's own metric names (README.md, "Metrics").
    named: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: ``BENCHMARK.json`` metrics: end-to-end, or per-layer when traced.
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Timed units of work (suite passes, cycles, load phases).
    units: int = 0
    batched_kernel: Optional[str] = None
    calibration: Calibration = field(default_factory=Calibration)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok

    def name_metric(self, name: str, value: float, unit: str,
                    samples: Optional[int] = None) -> None:
        entry: Dict[str, object] = {"value": value, "unit": unit}
        if samples is not None:
            entry["samples"] = samples
        self.named[name] = entry

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def fresh_dir(self, *parts: str) -> str:
        path = self.path(*parts)
        os.makedirs(path)
        return path


def child_env(workdir: str) -> Dict[str, str]:
    """Environment of this run and of every process it starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_TRACE_CACHE"] = os.path.join(workdir, "trace-cache")
    env["REPRO_ARTIFACT_STORE"] = os.path.join(workdir, "store")
    env["REPRO_NATIVE_CACHE"] = NATIVE_CACHE
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    for name in ("REPRO_ENGINE", "REPRO_SCALE", "REPRO_JOBS", "REPRO_OBS"):
        env.pop(name, None)
    return env


def isolate(workdir: str) -> None:
    """Point this process's caches and temporary files into ``workdir``."""
    os.makedirs(os.path.join(workdir, "tmp"), exist_ok=True)
    env = child_env(workdir)
    os.environ.clear()
    os.environ.update(env)
    tempfile.tempdir = os.environ["TMPDIR"]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def use_trace_cache(directory: str) -> None:
    """Make ``directory`` the process's (empty) default trace cache."""
    from repro.engine.trace_cache import reset_default_cache

    os.makedirs(directory, exist_ok=True)
    os.environ["REPRO_TRACE_CACHE"] = directory
    reset_default_cache()


def warm_native_kernel() -> Tuple[Optional[float], str]:
    """Build or load the native batched kernel before anything is timed.

    Returns the build time when this call compiled it (``None`` when a
    previous run in this checkout already had) and the batched kernel
    the ``auto`` policy selects here.
    """
    from repro.engine.batched import batch_kernel
    from repro.engine.native import native_kernel

    built = not any(
        name.endswith(".so") for name in (
            os.listdir(NATIVE_CACHE) if os.path.isdir(NATIVE_CACHE) else ()
        )
    )
    started = time.perf_counter()
    kernel = native_kernel()
    elapsed = time.perf_counter() - started
    choice = batch_kernel()
    if choice == "auto":
        choice = "native" if kernel is not None else "lockstep"
    return (elapsed if built and kernel is not None else None), choice


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Launched:
    """A child process started by :func:`launch_until`.

    A reader thread collects its stdout lines, so waiting for a marker
    line can time out and the pipe never fills.
    """

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.output: List[str] = []
        self.exit_code: Optional[int] = None
        self.peak_rss_mb: Optional[float] = None
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            self.lines.put(line)
        self.lines.put(None)

    def wait(self, timeout: float = PROBE_TIMEOUT) -> int:
        """Reap the child with its own rusage (its peak RSS)."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.exit_code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.exit_code
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self._reader.join(timeout)
        self.proc.stdout.close()
        return self.exit_code

    def kill(self) -> None:
        """Stop the child if it still runs and reap it."""
        if self.exit_code is None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.exit_code = self.proc.returncode
            self._reader.join(PROBE_TIMEOUT)
            self.proc.stdout.close()


def launch_until(
    argv: Sequence[str], env: Dict[str, str], marker: str, log_path: str,
    timeout: float = PROBE_TIMEOUT,
) -> Tuple[float, "re.Match", Launched]:
    """Start ``argv`` and time it until a stdout line matches ``marker``.

    The child's stderr goes to ``log_path``.  Raises ``RuntimeError``
    (after killing the child) when it exits or times out first.
    """
    pattern = re.compile(marker)
    with open(log_path, "ab") as log:
        started = time.monotonic()
        proc = subprocess.Popen(
            list(argv), env=env, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=log, text=True,
        )
    child = Launched(proc)
    try:
        while True:
            remaining = timeout - (time.monotonic() - started)
            try:
                line = child.lines.get(timeout=max(remaining, 0.0))
            except queue.Empty:
                raise RuntimeError(f"{argv[:4]} not ready in {timeout}s")
            if line is None:
                raise RuntimeError(
                    f"{argv[:4]} exited before ready; see {log_path}"
                )
            match = pattern.search(line)
            if match:
                return time.monotonic() - started, match, child
    except BaseException:
        child.kill()
        raise


def probe_setup(ctx: RunContext, code: str) -> List[float]:
    """Seconds from launch to ``ready`` for fresh processes running
    ``code`` (which prints ``ready`` when it can serve its first
    operation)."""
    workdir = ctx.workdir
    env = child_env(workdir)
    samples = []
    for number in range(SETUP_PROBES):
        ctx.calibration.sample(3)
        env["REPRO_TRACE_CACHE"] = os.path.join(
            workdir, f"probe-cache-{number}"
        )
        seconds, _, child = launch_until(
            [sys.executable, "-c", code], env, r"^ready$",
            os.path.join(workdir, "probe.log"),
        )
        if child.wait() != 0:
            raise RuntimeError(f"set-up probe exited {child.exit_code}")
        samples.append(seconds)
    return samples
