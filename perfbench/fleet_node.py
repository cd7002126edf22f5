"""A fleet worker node for the benchmark: ``repro worker`` with the tracer armed.

Usage (``workload.py`` starts it; the arguments are those of ``repro worker``)::

    PYTHONPATH=src python perfbench/fleet_node.py --coordinator http://127.0.0.1:PORT

When ``PERFBENCH_TRACE_DIR`` is set, the outside-in tracer and the program's
stage profiler are installed before the node starts, and the node's spans
and counters are written there when it exits.  A node serves leases until it
is stopped with SIGTERM, which ``repro worker`` turns into a clean return.
"""

from __future__ import annotations

import os
import sys


def main() -> int:
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    tracer = None
    if trace_dir:
        from repro.utils.profiling import PROFILER
        from tracer import Tracer

        tracer = Tracer(trace_dir, "fleet-node").install()
        PROFILER.enabled = True
    from repro.cli import main as repro_main

    try:
        return repro_main(["worker", *sys.argv[1:]])
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
