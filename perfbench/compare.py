#!/usr/bin/env python3
"""Compare two sets of run records, metric by metric.

Usage, from the repository root::

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds run records (``.perfbench/records/*.json`` copied
aside per commit).  Records are grouped by workload and trace mode; a
group is compared only when every record on both sides has a matching
environment (``record.mismatches``).  For each metric the report gives
both sides' median and quartiles and the change of the medians.
"""

from __future__ import annotations

import glob
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import record  # noqa: E402

Group = Dict[Tuple[str, bool], List[dict]]


def load_group(directory: str) -> Group:
    groups: Group = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        rec = record.load_record(path)
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(base: Group, change: Group) -> List[str]:
    lines = []
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        problems = sorted({
            problem
            for a in base[key] for b in change[key]
            for problem in record.mismatches(a, b)
        })
        title = f"{workload} trace={int(trace)} " \
                f"({len(base[key])} vs {len(change[key])} runs)"
        if problems:
            lines.append(f"{title}: not comparable: {'; '.join(problems)}")
            continue
        lines.append(title)
        for name in base[key][0]["metrics"]:
            old = [r["metrics"][name]["value"] for r in base[key]]
            new = [r["metrics"][name]["value"] for r in change[key]
                   if name in r["metrics"]]
            if not new:
                continue
            oq, nq = quartiles(old), quartiles(new)
            delta = (nq[1] - oq[1]) / oq[1] * 100.0 if oq[1] else 0.0
            unit = base[key][0]["metrics"][name]["unit"]
            lines.append(
                f"  {name:32s} {oq[1]:12.6g} [{oq[0]:.6g}, {oq[2]:.6g}]"
                f" -> {nq[1]:12.6g} [{nq[0]:.6g}, {nq[2]:.6g}] {unit}"
                f"  {delta:+.1f}%"
            )
    return lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines = compare(load_group(argv[0]), load_group(argv[1]))
    print("\n".join(lines) if lines else "no workload in both sets")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
