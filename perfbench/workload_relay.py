"""``relay``: one closed-loop sender pushes sessions through loopback depots.

Sessions cycle through hops {0, 1, 3} x payload {4 KiB, 256 KiB, 8 MiB}
x mode {plain, resumable, striped}; each cycle visits all 27 in an order
drawn from the seed.  Every fourth session runs through a second chain
whose sender and servers all carry a ``Registry`` and a
``SessionTimeline`` (what ``repro send --metrics`` sets up).  A session
is timed from the start of ``send_session`` until the sink has stored
its payload, which is then compared byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import median

from repro.lsl.faults import RetryPolicy
from repro.lsl import socket_transport

from common import KIB, MIB, Chain, Deadline, Inputs

HOPS = (0, 1, 3)
SIZES = (4 * KIB, 256 * KIB, 8 * MIB)
MODES = ("plain", "resumable", "striped")
SMALL, BULK = SIZES[0], SIZES[-1]
#: every OBSERVED_EVERY-th session runs on the observed chain
OBSERVED_EVERY = 4
DELIVERY_TIMEOUT_S = 30.0


def _send_kwargs(mode: str) -> dict:
    if mode == "resumable":
        return {"retry": RetryPolicy()}
    if mode == "striped":
        return {"stripes": 2}
    return {}


@dataclass
class State:
    seed: int
    payloads: dict[int, bytes]
    plain: Chain
    observed: Chain

    def close(self) -> None:
        self.plain.close()
        self.observed.close()


@dataclass
class Session:
    hops: int
    size: int
    mode: str
    observed: bool
    seconds: float
    ok: bool
    connections: int = 0
    error: str = ""


@dataclass
class Outcome:
    sessions: list[Session] = field(default_factory=list)
    wall: float = 0.0
    #: tracer snapshot and sessions after the first full cycle
    checkpoint: dict | None = None
    #: server-side handler errors, which a clean run has none of
    errors: list = field(default_factory=list)
    depot_stats: dict[str, int] = field(default_factory=dict)

    @property
    def ops(self) -> list:
        return self.sessions


def setup(seed: int) -> State:
    inputs = Inputs(seed, "relay")
    payloads = {size: inputs.payload(size) for size in SIZES}
    state = State(
        seed,
        payloads,
        Chain.start("p", observed=False),
        Chain.start("o", observed=True),
    )
    # warm both chains once per (hops, mode) so lazy set-up is paid here
    for chain in (state.plain, state.observed):
        for hops in HOPS:
            for mode in MODES:
                session = _one(state, inputs, chain, hops, SMALL, mode, None)
                if not session.ok:
                    state.close()
                    raise RuntimeError(f"warm-up session failed: {session}")
    return state


def _one(state: State, inputs: Inputs, chain: Chain, hops: int, size: int,
         mode: str, tracer) -> Session:
    payload = state.payloads[size]
    sid = inputs.session_id()
    header, first_hop = chain.route(hops, sid)
    event, stamps = chain.sink.expect(header.hex_id)
    observed = chain.registry is not None
    kwargs = _send_kwargs(mode)
    if observed:
        kwargs.update(
            registry=chain.registry, timeline=chain.timeline,
            source_name="src",
        )
    before = _entered(tracer)
    t0 = time.perf_counter()
    error = ""
    try:
        # through the module attribute, which the traced run wraps
        socket_transport.send_session(payload, header, first_hop, **kwargs)
    except (ConnectionError, OSError) as exc:
        error = f"send failed: {exc}"
    if not error and not event.wait(DELIVERY_TIMEOUT_S):
        error = "payload never stored"
    seconds = stamps[0] - t0 if stamps else DELIVERY_TIMEOUT_S
    if not error and chain.sink.take(header.hex_id) != payload:
        error = "payload differs"
    return Session(hops, size, mode, observed, seconds, not error,
                   _entered(tracer) - before, error)


def _entered(tracer) -> int:
    """Connections accepted so far (handler entries on every server)."""
    if tracer is None:
        return 0
    spans = tracer.spans
    return spans["lsl.depot.handle"].entered + spans["lsl.sink.handle"].entered


def run(state: State, deadline: Deadline, tracer=None) -> Outcome:
    combos = [(h, s, m) for h in HOPS for s in SIZES for m in MODES]
    # a fresh stream per pass, so the traced pass of a --trace 1 run
    # sees the same cycles however long its untraced pass ran
    inputs = Inputs(state.seed, f"relay/pass/{tracer is not None}")
    out = Outcome()
    index = 0
    while not deadline.expired():
        for hops, size, mode in inputs.permutation(combos):
            index += 1
            chain = (
                state.observed if index % OBSERVED_EVERY == 0 else state.plain
            )
            out.sessions.append(
                _one(state, inputs, chain, hops, size, mode, tracer)
            )
        if out.checkpoint is None and tracer is not None:
            tracer.quiesce()
            out.checkpoint = {
                "spans": tracer.snapshot(),
                "sessions": list(out.sessions),
            }
    out.wall = deadline.measured()
    for chain in (state.plain, state.observed):
        out.errors += chain.errors()
        for depot in chain.depots:
            for key, value in depot.snapshot().items():
                out.depot_stats[key] = out.depot_stats.get(key, 0) + value
    return out


def end_to_end(out: Outcome) -> dict[str, float]:
    small = [1e3 * s.seconds for s in out.sessions if s.size == SMALL]
    bulk = [s.seconds for s in out.sessions if s.size == BULK]
    return {
        "ops_per_s": len(out.sessions) / out.wall,
        "op_ms.p50": median(small),
        "MBps": BULK * len(bulk) / sum(bulk) / 1e6,
    }


def layer_extras(out: Outcome, untraced: Outcome) -> dict[str, float]:
    """Per-layer figures only this workload can compute.

    ``obs.overhead_ms`` comes from the untraced pass: wrapping the obs
    calls would inflate the observed chain's cost.
    """
    first = out.checkpoint["sessions"]
    single = [s.connections for s in first if s.mode != "striped"]
    striped = [s.connections for s in first if s.mode == "striped"]

    def small_p50(observed: bool) -> float:
        return median([
            1e3 * s.seconds
            for s in untraced.sessions
            if s.size == SMALL and s.observed is observed
        ])

    return {
        "lsl.connections_per_session": sum(single) / len(single),
        "lsl.connections_per_session.striped": sum(striped) / len(striped),
        "obs.overhead_ms": small_p50(True) - small_p50(False),
        "lsl.depot.sessions_resumed":
            out.depot_stats["sessions_resumed"] / len(out.sessions),
        "lsl.depot.retransmitted_bytes":
            out.depot_stats["retransmitted_bytes"] / len(out.sessions),
        "checkpoint_ops": len(first),
        "checkpoint_observed": sum(s.observed for s in first),
    }
