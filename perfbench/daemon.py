#!/usr/bin/env python3
"""Start ``repro server`` with every layer wrapped in spans.

Usage::

    python3 perfbench/daemon.py SPANS.json -- server --bench NAME/INPUT ...

Installs the :mod:`perfbench.spans` wrappers inside the daemon process,
hands the remaining arguments to the ``repro`` command line, and writes
the recorded spans to ``SPANS.json`` when the daemon has stopped.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import spans  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    recorder = spans.Recorder()
    spans.instrument(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[2:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
