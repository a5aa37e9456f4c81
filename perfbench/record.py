"""The run record: one schema for every workload and both modes.

A record holds what a run measured (``metrics`` — the generic
end-to-end or per-layer values the result line prints — and ``named``,
the workload's own metric names), what it checked, its failure ledger,
and the environment it ran in.  Two records are comparable only when
their environments agree on :data:`MATCH_FIELDS`; the seed and the code
version (``git_sha``, ``src_digest``) are what a comparison varies.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
from typing import Dict, List, Optional

SCHEMA_VERSION = 1

#: Environment fields that must agree before two records are compared.
MATCH_FIELDS = ("nproc", "python", "numpy", "batched_kernel", "c_compiler")

#: Every key a record carries.
RECORD_KEYS = (
    "schema", "workload", "seed", "seconds", "trace", "env", "correct",
    "checks", "ledger", "metrics", "named", "units",
)


def git_sha(root: str) -> Optional[str]:
    """HEAD's commit id read from ``.git`` directly, or ``None``."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git_dir, ref)) as handle:
            return handle.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def src_digest(root: str) -> str:
    """Content hash of every Python file under ``src/``.

    Identifies the code under test where no git metadata exists.
    """
    digest = hashlib.blake2b(digest_size=16)
    src = os.path.join(root, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def c_compiler() -> Optional[str]:
    """The first C compiler the native kernel build would try."""
    for name in ("cc", "gcc", "clang"):
        if shutil.which(name):
            return name
    return None


def environment(root: str, batched_kernel: str,
                native_build_s: Optional[float]) -> Dict[str, object]:
    import numpy

    return {
        "git_sha": git_sha(root),
        "src_digest": src_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "batched_kernel": batched_kernel,
        "c_compiler": c_compiler(),
        "native_build_s": native_build_s,
    }


def make_record(
    workload: str, seed: int, seconds: int, trace: bool,
    env: Dict[str, object], checks: List[Dict[str, object]],
    ledger: Dict[str, object], metrics: Dict[str, Dict[str, object]],
    named: Dict[str, Dict[str, object]], units: int,
) -> Dict[str, object]:
    return {
        "schema": SCHEMA_VERSION,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "env": env,
        "correct": all(check["ok"] for check in checks),
        "checks": checks,
        "ledger": ledger,
        "metrics": metrics,
        "named": named,
        "units": units,
    }


def write_record(path: str, record: Dict[str, object]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_record(path: str) -> Dict[str, object]:
    with open(path) as handle:
        record = json.load(handle)
    missing = [key for key in RECORD_KEYS if key not in record]
    if missing or record["schema"] != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: not a schema-{SCHEMA_VERSION} run record "
            f"(missing {missing})"
        )
    return record


def mismatches(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """Why two records may not be compared; empty when they may."""
    problems = []
    for key in ("workload", "trace", "seconds"):
        if a[key] != b[key]:
            problems.append(f"{key}: {a[key]!r} != {b[key]!r}")
    for key in MATCH_FIELDS:
        if a["env"].get(key) != b["env"].get(key):
            problems.append(
                f"env.{key}: {a['env'].get(key)!r} != {b['env'].get(key)!r}"
            )
    return problems
