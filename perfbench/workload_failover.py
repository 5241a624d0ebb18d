"""``failover``: a depot dies mid-session and the sender reroutes.

Each episode rebuilds the golden scenario of the failover tests: an
8 MiB session over src-d1-d2-d3-sink, where ``d2`` drops the stream
after 256 KiB and then refuses every reconnect and probe.  A
``FailoverSender`` with a ``HealthMonitor`` diagnoses the route,
reroutes through ``LogisticalScheduler.reroute`` (src-d1-d3-sink) and
the surviving hops resume from their ledgers.  Registry and timeline are
on.  Starting the servers is set-up; an episode is timed from the start
of ``send`` until the sink has stored the payload.

The golden event sequence is deliberately not asserted: in rare runs
the sink sees no byte before ``d2`` drops and so logs no ``resume``,
which is a valid sequence that differs from the golden one.

The check for exactly one failover is kept although the program fails
it in about one episode in a thousand.  When ``d3`` has already
connected to the sink before ``d2`` drops, that stale connection can
reach the sink's ledger after the rerouted one and claim a newer
generation; the live stream's appends are then refused, ``d3`` gives
up with no retries left, and the sender fails over a second time, onto
src-sink.  The payload still arrives byte-exact.  The golden test in
``tests/lsl/test_failover.py`` asserts the same single failover and
fails the same way when episodes are run back to back under load.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from statistics import median

from repro.core.scheduler import LogisticalScheduler
from repro.lsl.failover import FailoverSender
from repro.lsl.faults import FaultKind, FaultPlan, FaultRule, RetryPolicy
from repro.lsl.health import HealthMonitor
from repro.lsl.socket_transport import DepotServer
from repro.obs.registry import Registry
from repro.obs.timeline import SessionTimeline

from common import KIB, MIB, Deadline, Inputs, SignallingSink

PAYLOAD_SIZE = 8 * MIB
FAIL_AFTER = 256 * KIB
DELIVERY_TIMEOUT_S = 30.0

#: fail fast on the broken route so the budget goes to reroutes
POLICY = RetryPolicy(
    max_retries=0, base_delay=0.01, jitter=0.0,
    io_timeout=5.0, connect_timeout=2.0,
)

_COSTS = {
    ("src", "d1"): 1.0, ("d1", "d2"): 1.0, ("d2", "d3"): 1.0,
    ("d3", "sink"): 1.0, ("d1", "d3"): 2.0, ("src", "sink"): 10.0,
}


class ChainGraph:
    """The cost graph the scheduler routes on (d1-d3 is the detour)."""

    hosts = ["src", "d1", "d2", "d3", "sink"]

    def cost(self, src: str, dst: str) -> float:
        if src == dst:
            return 0.0
        return _COSTS.get((src, dst), _COSTS.get((dst, src), math.inf))


@dataclass
class State:
    inputs: Inputs
    payload: bytes


@dataclass
class Episode:
    seconds: float
    setup: float
    ok: bool
    error: str = ""
    reroutes: int = 0
    resumed: int = 0
    retransmitted: int = 0


@dataclass
class Outcome:
    episodes: list[Episode] = field(default_factory=list)
    wall: float = 0.0
    checkpoint: dict | None = None
    errors: list = field(default_factory=list)

    @property
    def ops(self) -> list:
        return self.episodes


def setup(seed: int) -> State:
    inputs = Inputs(seed, "failover")
    return State(inputs, inputs.payload(PAYLOAD_SIZE))


def _episode(state: State) -> Episode:
    t_setup = time.perf_counter()
    registry = Registry()
    timeline = SessionTimeline()
    plan = FaultPlan([
        FaultRule("d2", FaultKind.DROP, after_bytes=FAIL_AFTER),
        FaultRule("d2", FaultKind.REFUSE, times=1000,
                  after_fired=("d2", FaultKind.DROP)),
    ])
    servers = {
        name: DepotServer(name=name, fault_plan=plan, retry=POLICY,
                          registry=registry, timeline=timeline)
        for name in ("d1", "d2", "d3")
    }
    sink = SignallingSink(name="sink", fault_plan=plan, registry=registry,
                          timeline=timeline)
    servers["sink"] = sink
    endpoints = {name: server.address for name, server in servers.items()}
    try:
        health = HealthMonitor(endpoints, probe_timeout_s=1.0,
                               failure_threshold=1, cooldown=POLICY,
                               registry=registry)
        sender = FailoverSender(
            LogisticalScheduler(ChainGraph()), endpoints, source="src",
            dest="sink", retry=POLICY, health=health, source_name="src",
            registry=registry, timeline=timeline, fault_plan=plan,
        )
        sid = state.inputs.session_id()
        event, stamps = sink.expect(sid.hex())
        t0 = time.perf_counter()
        setup_s = t0 - t_setup
        error = ""
        report = None
        try:
            report = sender.send(state.payload, session_id=sid)
        except (ConnectionError, OSError) as exc:
            error = f"send failed: {exc}"
        if not error and not event.wait(DELIVERY_TIMEOUT_S):
            error = "payload never stored"
        seconds = stamps[0] - t0 if stamps else DELIVERY_TIMEOUT_S
        if not error and sink.take(sid.hex()) != state.payload:
            error = "payload differs"
        if not error and report.failovers != 1:
            error = (
                f"{report.failovers} failovers, expected 1: "
                f"routes {report.routes}"
            )
        if not error and (
            "d2" not in report.avoided or "d2" in report.routes[-1]
        ):
            error = f"d2 not avoided: routes {report.routes}"
    finally:
        for server in servers.values():
            server.kill()
    stats = [servers[n].snapshot() for n in ("d1", "d2", "d3")]
    return Episode(
        seconds, setup_s, not error, error,
        reroutes=report.failovers if report is not None else 0,
        resumed=sum(s["sessions_resumed"] for s in stats),
        retransmitted=sum(s["retransmitted_bytes"] for s in stats),
    )


def run(state: State, deadline: Deadline, tracer=None) -> Outcome:
    out = Outcome()
    while not deadline.expired():
        out.episodes.append(_episode(state))
        if out.checkpoint is None and tracer is not None:
            tracer.quiesce()
            out.checkpoint = {"spans": tracer.snapshot()}
    out.wall = deadline.measured()
    return out


def setup_seconds(out: Outcome) -> list[float]:
    """Per-episode server start-up, which counts as set-up time."""
    return [e.setup for e in out.episodes]


def end_to_end(out: Outcome) -> dict[str, float]:
    times = [e.seconds for e in out.episodes]
    return {
        "ops_per_s": len(times) / out.wall,
        "op_ms.p50": 1e3 * median(times),
        "MBps": PAYLOAD_SIZE * len(times) / sum(times) / 1e6,
    }


def layer_extras(out: Outcome, untraced: Outcome) -> dict[str, float]:
    first = out.episodes[0]
    n = len(out.episodes)
    return {
        "lsl.failover.reroutes": first.reroutes,
        "lsl.depot.sessions_resumed": sum(e.resumed for e in out.episodes) / n,
        "lsl.depot.retransmitted_bytes":
            sum(e.retransmitted for e in out.episodes) / n,
        "checkpoint_ops": 1,
        "checkpoint_observed": 1,
    }
