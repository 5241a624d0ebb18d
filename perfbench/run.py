"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload relay --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` first runs an untraced pass of half the length, then wraps
the program's public functions (see ``layers.py``) for a traced pass and
prints the per-layer metrics, each layer's share of the traced pass and
the tracing overhead (traced minus untraced end-to-end figures).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A correctness
failure still prints that line, with ``correct`` false, and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: set-ups timed per untraced run, one before the measured loop and the
#: rest spread over it, so that ``setup_s`` (their median) samples the
#: whole run rather than one moment of it
SETUP_REPEATS = 15
WORKLOADS = ("relay", "campaign", "failover")


def _load(name: str):
    """Import the workload against the program in this checkout's src/."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        # never fall back to some other installed copy of the program
        sys.exit(f"error: no program source at {src}/repro")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    return importlib.import_module(f"workload_{name}")


def _timed_setup(workload, seed: int, times: list[float]):
    # start each set-up from a collected heap, so that collecting the
    # garbage of whatever ran before it is not charged to it
    gc.collect()
    t0 = time.perf_counter()
    state = workload.setup(seed)
    times.append(time.perf_counter() - t0)
    return state


def _close(state) -> None:
    if hasattr(state, "close"):
        state.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = _load(args.workload)
    import layers
    from common import Deadline
    from tracing import Tracer

    setup_times: list[float] = []
    state = _timed_setup(workload, args.seed, setup_times)
    outcomes = []
    try:
        if args.trace:
            untraced = workload.run(state, Deadline(args.seconds / 2))
            tracer = Tracer()
            layers.install(tracer)
            try:
                t0 = time.perf_counter()
                traced = workload.run(state, Deadline(args.seconds), tracer)
                wall = time.perf_counter() - t0
                tracer.quiesce()
            finally:
                tracer.uninstall()
            outcomes = [untraced, traced]
        elif hasattr(workload, "setup_seconds"):
            outcomes = [workload.run(state, Deadline(args.seconds))]
            setup_times = workload.setup_seconds(outcomes[0])
        else:
            def interlude() -> None:
                _close(_timed_setup(workload, args.seed, setup_times))

            deadline = Deadline(args.seconds, interlude,
                                every=args.seconds / SETUP_REPEATS)
            outcomes = [workload.run(state, deadline)]
    finally:
        _close(state)

    ops = [op for out in outcomes for op in out.ops]
    failures = [op for op in ops if not op.ok]
    errors = [err for out in outcomes for err in out.errors]
    for op in failures[:10]:
        print(f"FAILED: {op}", file=sys.stderr)
    for err in errors[:10]:
        print(f"SERVER ERROR: {err!r}", file=sys.stderr)
    correct = not failures and not errors

    if args.trace:
        metrics = layers.per_layer(
            tracer, wall, traced.checkpoint,
            workload.layer_extras(traced, untraced),
        )
        base = workload.end_to_end(untraced)
        for name, value in workload.end_to_end(traced).items():
            metrics[f"trace.overhead.{name}"] = value - base[name]
        units = {name: unit for name, unit, _ in layers.catalog()}
    else:
        metrics = workload.end_to_end(outcomes[0])
        metrics["setup_s"] = median(setup_times)
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms",
                 "MBps": "MB/s"}
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
