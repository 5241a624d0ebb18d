"""Per-session event timelines shared by the real and simulated stacks.

The paper reasons about transfers through per-sublink time series (the
sequence-number traces of Figures 4 and 5).  :class:`SessionTimeline`
is the event-level counterpart: every node on a session's path records
the same small vocabulary of events, so a simulated relay and a real
loopback relay of the same topology produce directly comparable logs.

Event vocabulary
----------------
``connect``
    A sender opened the TCP connection for a sublink.
``header_tx`` / ``header_rx``
    The LSL session header left a sender / was parsed by a receiver.
``resume``
    A session (or one stripe of it) resumed from a nonzero
    acknowledged byte.
``first_byte``
    A receiver saw the first payload byte of the session.
``progress``
    A receiver's cumulative byte count crossed a watermark (quarter
    fractions of the known total by default).
``eof``
    A receiver saw the last payload byte.
``complete``
    A sender finished and had the full payload acknowledged.
``failover``
    The source abandoned the current route mid-transfer and re-issued
    the session over a reroute (``detail`` names the avoided hosts).
``error``
    A node recorded a failure for the session.

Every event names the recording ``node`` and the ``stream`` it belongs
to: ``"up"`` for a node's receiving side, ``"down"`` for its sending
side.  Within one ``(node, stream)`` pair the order of events is
deterministic — that per-stream sequence is the schema the end-to-end
equivalence test pins across the simulator and the socket transport.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

#: The two directions a node's events belong to.
STREAM_UP = "up"
STREAM_DOWN = "down"

#: The closed event vocabulary (schema version 1).
EVENTS = (
    "connect",
    "header_tx",
    "header_rx",
    "resume",
    "first_byte",
    "progress",
    "eof",
    "complete",
    "failover",
    "error",
)

#: Default progress watermark fractions (quarters, end exclusive).
DEFAULT_FRACTIONS = (0.25, 0.5, 0.75)


@dataclass(frozen=True)
class TimelineEvent:
    """One recorded event.

    Attributes
    ----------
    t:
        Timestamp in seconds.  Wall clock (``time.monotonic``) for the
        socket transport, virtual time for the simulator — timestamps
        are comparable *within* one timeline, never across stacks.
    event:
        One of :data:`EVENTS`.
    node:
        Name of the recording node (``source``, ``depot0``, ``sink``).
    stream:
        :data:`STREAM_UP` or :data:`STREAM_DOWN`.
    session:
        Hex session id, empty when unknown (e.g. pre-header errors).
    nbytes:
        Cumulative byte position the event refers to, when one exists
        (watermark events); ``None`` otherwise.
    detail:
        Free-form annotation (watermark fraction, error text).
    """

    t: float
    event: str
    node: str
    stream: str
    session: str = ""
    nbytes: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        """The JSON-schema form documented in ``docs/OBSERVABILITY.md``."""
        out = {
            "t": self.t,
            "event": self.event,
            "node": self.node,
            "stream": self.stream,
            "session": self.session,
        }
        if self.nbytes is not None:
            out["nbytes"] = self.nbytes
        if self.detail:
            out["detail"] = self.detail
        return out


class SessionTimeline:
    """An append-only, thread-safe event log.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time; defaults to
        ``time.monotonic``.  The simulator bypasses the clock entirely
        by passing explicit ``t`` values (virtual time).
    enabled:
        ``False`` drops every record on the floor (the no-op mode
        transports default to — see :data:`DISABLED_TIMELINE`).
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._events: list[TimelineEvent] = []

    def record(
        self,
        event: str,
        node: str,
        stream: str,
        session: str = "",
        t: float | None = None,
        nbytes: float | None = None,
        detail: str = "",
    ) -> None:
        """Append one event (no-op when the timeline is disabled)."""
        if not self.enabled:
            return
        if event not in EVENTS:
            raise ValueError(f"unknown timeline event {event!r}")
        if stream not in (STREAM_UP, STREAM_DOWN):
            raise ValueError(f"unknown stream {stream!r}")
        entry = TimelineEvent(
            t=self._clock() if t is None else float(t),
            event=event,
            node=node,
            stream=stream,
            session=session,
            nbytes=nbytes,
            detail=detail,
        )
        with self._lock:
            self._events.append(entry)

    def events(self, session: str | None = None) -> list[TimelineEvent]:
        """Snapshot of recorded events, optionally for one session."""
        with self._lock:
            events = list(self._events)
        if session is not None:
            events = [e for e in events if e.session == session]
        return events

    def sequences(
        self, session: str | None = None
    ) -> dict[tuple[str, str], tuple[str, ...]]:
        """Per-``(node, stream)`` event-name sequences.

        This is the comparison form of the timeline: per-stream
        ordering is deterministic in both the simulator and the socket
        transport, while the global interleaving across nodes is not.
        """
        out: dict[tuple[str, str], list[str]] = {}
        for event in self.events(session):
            out.setdefault((event.node, event.stream), []).append(event.event)
        return {key: tuple(names) for key, names in out.items()}

    def to_dicts(self, session: str | None = None) -> list[dict]:
        """Serialised events for the JSON exporter."""
        return [e.to_dict() for e in self.events(session)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


#: The shared disabled timeline: record anything, keep nothing.
DISABLED_TIMELINE = SessionTimeline(enabled=False)


@dataclass
class ProgressWatermarks:
    """Tracks which watermark fractions a byte count has crossed.

    Both stacks share this helper so they emit identical ``progress``
    sequences: thresholds are ``fraction * total`` and each fires
    exactly once, in order, when the cumulative count reaches it.
    """

    total: float
    fractions: Iterable[float] = DEFAULT_FRACTIONS
    _pending: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.total < 0:
            raise ValueError(f"total={self.total!r} must be non-negative")
        self._pending = sorted(
            (float(f), float(f) * float(self.total))
            for f in self.fractions
            if 0.0 < float(f) < 1.0
        )

    def advance(self, nbytes: float) -> list[tuple[float, float]]:
        """``(fraction, threshold_bytes)`` pairs newly crossed at ``nbytes``."""
        crossed: list[tuple[float, float]] = []
        while self._pending and nbytes >= self._pending[0][1]:
            crossed.append(self._pending.pop(0))
        return crossed
