"""Helpers shared by the workloads: inputs, delivery signalling, stats."""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.lsl.header import SessionHeader
from repro.lsl.options import LooseSourceRoute
from repro.lsl.socket_transport import DepotServer, SinkServer
from repro.obs.registry import Registry
from repro.obs.timeline import SessionTimeline

KIB = 1 << 10
MIB = 1 << 20


class Inputs:
    """Every input a run hands the program, drawn from the run's seed."""

    def __init__(self, seed: int, stream: str) -> None:
        self._rng = random.Random(f"{stream}/{seed}")

    def payload(self, size: int) -> bytes:
        return self._rng.randbytes(size)

    def session_id(self) -> bytes:
        return self._rng.randbytes(16)

    def permutation(self, items: list) -> list:
        out = list(items)
        self._rng.shuffle(out)
        return out


class SignallingSink(SinkServer):
    """A sink that stamps the moment each expected payload is stored.

    ``SinkServer.wait_for`` polls every 5 ms, longer than a whole small
    session, so the benchmark registers a session before sending it and
    this subclass records ``time.perf_counter()`` and sets an event as
    soon as the handler that stored the payload returns.
    """

    def __init__(self, *args, **kwargs) -> None:
        self._expected: dict[str, tuple[threading.Event, list[float]]] = {}
        self._expect_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def expect(self, hex_id: str) -> tuple[threading.Event, list[float]]:
        entry = (threading.Event(), [])
        with self._expect_lock:
            self._expected[hex_id] = entry
        return entry

    def handle(self, conn) -> None:
        try:
            super().handle(conn)
        finally:
            stamp = time.perf_counter()
            with self._expect_lock:
                stored = [h for h in self._expected if h in self.payloads]
                entries = [self._expected.pop(h) for h in stored]
            for event, stamps in entries:
                stamps.append(stamp)
                event.set()

    def take(self, hex_id: str) -> bytes | None:
        """Remove and return a stored payload (``None`` if absent)."""
        self.headers.pop(hex_id, None)
        return self.payloads.pop(hex_id, None)


@dataclass
class Chain:
    """Three depots in series in front of one signalling sink."""

    depots: list[DepotServer]
    sink: SignallingSink
    registry: Registry | None = None
    timeline: SessionTimeline | None = None

    @property
    def servers(self) -> list:
        return [*self.depots, self.sink]

    @classmethod
    def start(cls, prefix: str, observed: bool) -> "Chain":
        registry = Registry() if observed else None
        timeline = SessionTimeline() if observed else None
        depots = [
            DepotServer(
                name=f"{prefix}d{i}", registry=registry, timeline=timeline
            )
            for i in (1, 2, 3)
        ]
        sink = SignallingSink(
            name=f"{prefix}sink", registry=registry, timeline=timeline
        )
        return cls(depots, sink, registry, timeline)

    def route(self, hops: int, session_id: bytes):
        """Header and first hop for a session through ``hops`` depots."""
        addrs = [d.address for d in self.depots[:hops]] + [self.sink.address]
        options = ()
        if len(addrs) > 1:
            options = (LooseSourceRoute(hops=tuple(addrs[1:])),)
        header = SessionHeader(
            session_id=session_id,
            src_ip="127.0.0.1",
            dst_ip=self.sink.host,
            src_port=0,
            dst_port=self.sink.port,
            options=options,
        )
        return header, addrs[0]

    def errors(self) -> list:
        return [err for server in self.servers for err in server.errors]

    def close(self) -> None:
        for server in self.servers:
            server.close()


class Deadline:
    """Closed-loop stop rule: keep starting operations until time is up.

    ``interlude``, when given, runs between operations once per
    ``every`` seconds of the loop (as often as is owed when one
    operation outlasts several periods).  Its time is not the loop's:
    the deadline moves back by it and :meth:`measured` leaves it out.
    """

    def __init__(self, seconds: float, interlude=None,
                 every: float = float("inf")) -> None:
        self.start = time.perf_counter()
        self.end = self.start + seconds
        self.paused = 0.0
        self._interlude = interlude
        self._every = every
        self._next = self.start + every

    def expired(self) -> bool:
        now = time.perf_counter()
        while self._interlude is not None and now >= self._next:
            self._interlude()
            after = time.perf_counter()
            self.paused += after - now
            self.end += after - now
            self._next += self._every + (after - now)
            now = after
        return now >= self.end

    def measured(self) -> float:
        """Seconds the loop has run, interludes left out."""
        return time.perf_counter() - self.start - self.paused
