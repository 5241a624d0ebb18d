"""The layers the traced run wraps, and the per-layer metrics it reports.

Layer names are the program's module names.  ``analysis`` (lint) serves
no transfer and is left out.  Count metrics are read at a checkpoint
after the first full cycle of operations (27 relay sessions, one
campaign round, one failover episode), so two traced runs with the same
seed report identical counts however many operations each completed.
"""

from __future__ import annotations

from tracing import Span, Tracer, mb_per_s, mean_ms, mean_us

LAYERS = (
    "lsl.header", "lsl.options", "lsl.faults", "lsl.socket_transport",
    "lsl.failover", "lsl.health", "core.minimax", "core.scheduler", "nws",
    "net", "obs", "testbed",
)


def _arg_len(index: int):
    return lambda args, result: len(args[index])


def _result_len(args, result) -> int:
    return len(result) if result is not None else 0


def _enabled(args) -> bool:
    return args[0].enabled


#: (target, metric key, layer, extra wrap arguments)
WRAPS = (
    ("repro.lsl.header:SessionHeader.encode", "lsl.header.encode",
     "lsl.header", {}),
    ("repro.lsl.header:SessionHeader.decode", "lsl.header.decode",
     "lsl.header", {}),
    ("repro.lsl.header:encode_options", "lsl.options.encode",
     "lsl.options", {}),
    ("repro.lsl.header:decode_options", "lsl.options.decode",
     "lsl.options", {}),
    ("repro.lsl.faults:SessionLedger.append", "lsl.ledger.append",
     "lsl.faults", {"nbytes": _arg_len(2)}),
    ("repro.lsl.faults:SessionLedger.append_stripe", "lsl.ledger.append",
     "lsl.faults", {"nbytes": _arg_len(3)}),
    ("repro.lsl.faults:SessionLedger.read", "lsl.ledger.read",
     "lsl.faults", {"nbytes": _result_len}),
    ("repro.lsl.faults:SessionLedger.read_stripe", "lsl.ledger.read",
     "lsl.faults", {"nbytes": _result_len}),
    ("repro.lsl.socket_transport:send_session", "lsl.send_session",
     "lsl.socket_transport", {}),
    ("repro.lsl.failover:send_session", "lsl.send_session",
     "lsl.socket_transport", {}),
    ("repro.lsl.socket_transport:DepotServer.handle", "lsl.depot.handle",
     "lsl.socket_transport", {"cpu": True}),
    ("repro.lsl.socket_transport:SinkServer.handle", "lsl.sink.handle",
     "lsl.socket_transport", {"cpu": True}),
    ("repro.lsl.failover:FailoverSender.send", "lsl.failover.send",
     "lsl.failover", {}),
    ("repro.lsl.health:HealthMonitor.diagnose", "lsl.health.diagnose",
     "lsl.health", {}),
    ("repro.core.scheduler:build_mmp_tree", "core.minimax.build",
     "core.minimax", {}),
    ("repro.core.scheduler:LogisticalScheduler.decide",
     "core.scheduler.decide", "core.scheduler", {}),
    ("repro.core.scheduler:LogisticalScheduler.reroute",
     "core.scheduler.reroute", "core.scheduler", {}),
    ("repro.nws.matrix:CliqueAggregator.observe", "nws.observe", "nws", {}),
    ("repro.nws.matrix:CliqueAggregator.build_matrix", "nws.build_matrix",
     "nws", {}),
    ("repro.net.simulator:NetworkSimulator.run_batch", "net.run_batch",
     "net", {}),
    ("repro.net.vectorized:VectorizedBatch.step_all", "net.step_all",
     "net", {}),
    ("repro.obs.timeline:SessionTimeline.record", "obs.timeline.record",
     "obs", {"count_if": _enabled}),
    ("repro.obs.registry:Registry.counter", "obs.registry.lookup", "obs", {}),
    ("repro.obs.registry:Registry.gauge", "obs.registry.lookup", "obs", {}),
    ("repro.obs.registry:Registry.histogram", "obs.registry.lookup",
     "obs", {}),
    ("repro.testbed.planetlab:generate_planetlab", "testbed.generate",
     "testbed", {}),
)

#: metrics a workload computes itself; the rest come from the spans
WORKLOAD_METRICS = (
    "lsl.connections_per_session", "lsl.connections_per_session.striped",
    "lsl.failover.reroutes", "lsl.depot.sessions_resumed",
    "lsl.depot.retransmitted_bytes", "obs.overhead_ms",
)


def install(tracer: Tracer) -> None:
    for target, key, layer, extra in WRAPS:
        tracer.wrap(target, key, layer, **extra)


def _merged(spans: dict[str, Span], *keys: str) -> Span:
    out = Span("")
    for key in keys:
        span = spans[key]
        out.entered += span.entered
        out.calls += span.calls
        out.counted += span.counted
        out.wall += span.wall
        out.cpu += span.cpu
        out.nbytes += span.nbytes
    return out


def _cpu_ms(span: Span) -> float:
    return 1e3 * span.cpu / span.calls if span.calls else 0.0


def per_layer(tracer: Tracer, wall: float, checkpoint: dict,
              extras: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one traced pass.

    ``checkpoint`` holds the spans after the first cycle; ``extras``
    carries the workload's own figures plus ``checkpoint_ops``
    (operations in that cycle) and ``checkpoint_observed`` (of those, the
    ones with a timeline on).
    """
    spans = tracer.snapshot()
    cp = checkpoint["spans"]
    ops = extras["checkpoint_ops"]
    observed = extras["checkpoint_observed"]
    steps = spans["net.step_all"]
    batch = spans["net.run_batch"]
    conns = _merged(cp, "lsl.depot.handle", "lsl.sink.handle").entered
    metrics = {
        "lsl.header.encode_us": mean_us(spans["lsl.header.encode"]),
        "lsl.header.decode_us": mean_us(spans["lsl.header.decode"]),
        "lsl.header.calls": _merged(
            cp, "lsl.header.encode", "lsl.header.decode").calls / ops,
        "lsl.send_session_ms": mean_ms(spans["lsl.send_session"]),
        "lsl.depot.handle_ms": mean_ms(spans["lsl.depot.handle"]),
        "lsl.depot.handle_cpu_ms": _cpu_ms(spans["lsl.depot.handle"]),
        "lsl.sink.handle_ms": mean_ms(spans["lsl.sink.handle"]),
        "lsl.sink.handle_cpu_ms": _cpu_ms(spans["lsl.sink.handle"]),
        "lsl.connections_per_session": conns / ops,
        "lsl.connections_per_session.striped": 0.0,
        "lsl.ledger.append_MBps": mb_per_s(spans["lsl.ledger.append"]),
        "lsl.ledger.read_MBps": mb_per_s(spans["lsl.ledger.read"]),
        "lsl.health.diagnose_ms": mean_ms(spans["lsl.health.diagnose"]),
        "core.scheduler.reroute_us": mean_us(spans["core.scheduler.reroute"]),
        "lsl.failover.reroutes": 0.0,
        "lsl.depot.sessions_resumed": 0.0,
        "lsl.depot.retransmitted_bytes": 0.0,
        "nws.observe_us": mean_us(spans["nws.observe"]),
        "nws.observations": cp["nws.observe"].calls / ops,
        "nws.build_matrix_ms": mean_ms(spans["nws.build_matrix"]),
        "core.minimax.build_ms": mean_ms(spans["core.minimax.build"]),
        "core.minimax.trees": cp["core.minimax.build"].calls / ops,
        "core.scheduler.decide_us": mean_us(spans["core.scheduler.decide"]),
        "net.run_batch_s": batch.wall / batch.calls if batch.calls else 0.0,
        "net.flow_steps": cp["net.step_all"].calls / ops,
        "net.steprate": steps.calls / batch.wall if batch.wall > 0 else 0.0,
        "net.step_all_us": mean_us(steps),
        "obs.timeline.record_us": mean_us(spans["obs.timeline.record"]),
        "obs.timeline.events_per_session": (
            cp["obs.timeline.record"].counted / observed if observed else 0.0
        ),
        "obs.overhead_ms": 0.0,
    }
    for key in WORKLOAD_METRICS:
        if key in extras:
            metrics[key] = float(extras[key])
    self_time = tracer.layer_self_time()
    for layer in LAYERS:
        metrics[f"share.{layer}"] = 100.0 * self_time.get(layer, 0.0) / wall
    return metrics


#: (metric name, unit, better) of every per-layer metric, in print order
def catalog() -> list[tuple[str, str, str]]:
    units = {
        "_us": "us", "_ms": "ms", "_s": "s", "_MBps": "MB/s",
        "_bytes": "B", "steprate": "1/s",
    }
    out = []
    names = [
        "lsl.header.encode_us", "lsl.header.decode_us", "lsl.header.calls",
        "lsl.send_session_ms", "lsl.depot.handle_ms",
        "lsl.depot.handle_cpu_ms", "lsl.sink.handle_ms",
        "lsl.sink.handle_cpu_ms", "lsl.connections_per_session",
        "lsl.connections_per_session.striped", "lsl.ledger.append_MBps",
        "lsl.ledger.read_MBps", "lsl.health.diagnose_ms",
        "core.scheduler.reroute_us", "lsl.failover.reroutes",
        "lsl.depot.sessions_resumed", "lsl.depot.retransmitted_bytes",
        "nws.observe_us", "nws.observations", "nws.build_matrix_ms",
        "core.minimax.build_ms", "core.minimax.trees",
        "core.scheduler.decide_us", "net.run_batch_s", "net.flow_steps",
        "net.steprate", "net.step_all_us", "obs.timeline.record_us",
        "obs.timeline.events_per_session", "obs.overhead_ms",
    ]
    for name in names:
        unit = next(
            (u for suffix, u in units.items() if name.endswith(suffix)),
            "count",
        )
        better = "higher" if unit in ("MB/s", "1/s") else "lower"
        out.append((name, unit, better))
    out += [(f"share.{layer}", "%", "lower") for layer in LAYERS]
    out += [
        ("trace.overhead.ops_per_s", "1/s", "higher"),
        ("trace.overhead.op_ms.p50", "ms", "lower"),
        ("trace.overhead.MBps", "MB/s", "higher"),
    ]
    return out
