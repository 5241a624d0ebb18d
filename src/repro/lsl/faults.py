"""Fault injection and recovery policy for the LSL stack.

The paper stages data at depots to improve throughput; the unstated
corollary is that staged data makes *failure recovery* cheap — a broken
sublink only needs retransmission from the last depot, not from the
source.  This module supplies the three pieces the socket transport and
the simulator share to exercise that claim:

* :class:`FaultPlan` — a deterministic, consumable schedule of injected
  faults (drop a connection after N bytes, refuse a connect, stall a
  stream, corrupt a forwarded header) that
  :class:`~repro.lsl.socket_transport.DepotServer`,
  :class:`~repro.lsl.socket_transport.SinkServer` and
  :func:`~repro.lsl.socket_transport.send_session` consult;
* :class:`RetryPolicy` — bounded retries with exponential backoff and
  deterministic jitter (via :mod:`repro.util.rng`), used at every
  sublink;
* :class:`SessionLedger` — the per-session staging/acknowledgement state
  a depot or sink keeps across reconnects so an upstream can resume from
  the last byte this node acknowledged (carried on the wire by the
  :class:`~repro.lsl.options.ResumeOffset` header option).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.util.rng import RngStream
from repro.util.validation import check_non_negative, check_positive


class FaultKind(Enum):
    """The fault taxonomy injected by a :class:`FaultPlan`."""

    #: sever the connection (RST) after ``after_bytes`` payload bytes
    DROP = "drop"
    #: abort inbound connections at accept time (connect refused)
    REFUSE = "refuse"
    #: stop reading for ``delay`` seconds after ``after_bytes`` bytes
    STALL = "stall"
    #: flip bytes in the next session header this node emits
    CORRUPT_HEADER = "corrupt-header"


@dataclass
class FaultRule:
    """One injectable fault.

    Parameters
    ----------
    site:
        Name of the node that executes the fault (a server's ``name``,
        or ``"source"`` for :func:`~repro.lsl.socket_transport.send_session`).
        ``DROP``/``REFUSE``/``STALL`` act on the node's *inbound* stream;
        ``CORRUPT_HEADER`` acts on the header the node *emits*.
    kind:
        The :class:`FaultKind`.
    after_bytes:
        Payload bytes the current connection must deliver before a
        ``DROP``/``STALL`` fires (ignored for the other kinds).
    delay:
        Stall duration in seconds (``STALL`` only).
    times:
        How many times this rule fires before it is exhausted.
    after_fired:
        ``(site, kind)`` another rule must have fired before this one
        arms; ``None`` (the default) arms immediately.  Sequencing is
        what turns independent rules into a *scenario* — e.g. a depot
        that dies mid-stream and then refuses reconnects is
        ``DROP(after_bytes=N)`` followed by
        ``REFUSE(after_fired=(site, DROP))``.
    """

    site: str
    kind: FaultKind
    after_bytes: int = 0
    delay: float = 0.0
    times: int = 1
    after_fired: tuple[str, FaultKind] | None = None

    def __post_init__(self) -> None:
        check_non_negative("after_bytes", self.after_bytes)
        check_non_negative("delay", self.delay)
        check_positive("times", self.times)


class FaultPlan:
    """A thread-safe, consumable schedule of injected faults.

    Rules are consumed in declaration order; every firing is appended to
    :attr:`fired` as ``(site, kind)`` so tests can assert the plan
    actually executed.
    """

    def __init__(self, rules: list[FaultRule] | tuple[FaultRule, ...] = ()) -> None:
        self._rules = list(rules)
        self._lock = threading.Lock()
        #: chronological ``(site, FaultKind)`` log of fired rules
        self.fired: list[tuple[str, FaultKind]] = []

    def add(self, rule: FaultRule) -> "FaultPlan":
        """Append a rule to the schedule; returns ``self`` for chaining."""
        with self._lock:
            self._rules.append(rule)
        return self

    def _take(self, site: str, kinds, predicate=None) -> FaultRule | None:
        with self._lock:
            for rule in self._rules:
                if rule.site != site or rule.kind not in kinds or rule.times <= 0:
                    continue
                if (
                    rule.after_fired is not None
                    and rule.after_fired not in self.fired
                ):
                    continue
                if predicate is not None and not predicate(rule):
                    continue
                rule.times -= 1
                self.fired.append((site, rule.kind))
                return rule
        return None

    # -- consultation points -------------------------------------------------
    def should_refuse(self, site: str) -> bool:
        """Consume a pending ``REFUSE`` at ``site``, if any."""
        return self._take(site, {FaultKind.REFUSE}) is not None

    def corrupt_header(self, site: str, encoded: bytes) -> bytes:
        """Mutate an outgoing header if a ``CORRUPT_HEADER`` is pending.

        Flips the first byte (the version field's high byte), which every
        receiver rejects loudly on decode.
        """
        rule = self._take(site, {FaultKind.CORRUPT_HEADER})
        if rule is None or not encoded:
            return encoded
        return bytes([encoded[0] ^ 0xFF]) + encoded[1:]

    def stream_watch(self, site: str) -> "StreamWatch":
        """A per-connection byte counter for ``DROP``/``STALL`` rules."""
        return StreamWatch(self, site)

    def pending(self) -> list[FaultRule]:
        """Rules with firings left (armed or not) — empty when consumed.

        The chaos harness uses this to tell a plan that ran to
        completion from one whose faults never got the chance to fire.
        """
        with self._lock:
            return [rule for rule in self._rules if rule.times > 0]

    def count(self, site: str | None = None, kind: FaultKind | None = None) -> int:
        """How many firings match ``site``/``kind`` (``None`` = any)."""
        with self._lock:
            return sum(
                1
                for s, k in self.fired
                if (site is None or s == site) and (kind is None or k == kind)
            )


class StreamWatch:
    """Counts one connection's inbound payload bytes against a plan.

    Call :meth:`advance` with each received chunk's size *before*
    consuming it; a returned rule tells the caller to drop or stall.
    """

    def __init__(self, plan: FaultPlan, site: str) -> None:
        self._plan = plan
        self._site = site
        self._seen = 0

    def advance(self, nbytes: int) -> FaultRule | None:
        """Count ``nbytes`` received; returns the rule that just fired."""
        self._seen += nbytes
        return self._plan._take(
            self._site,
            {FaultKind.DROP, FaultKind.STALL},
            predicate=lambda rule: self._seen >= rule.after_bytes,
        )


class RetryExhausted(ConnectionError):
    """A sublink failed more times than its :class:`RetryPolicy` allows."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``delay(attempt)`` for attempt ``0, 1, 2, …`` is
    ``min(max_delay, base_delay * multiplier**attempt)`` scaled by
    ``1 + jitter * u`` where ``u`` is a uniform [0, 1) draw from a
    :class:`~repro.util.rng.RngStream` derived from ``seed`` and the
    attempt index — the same policy always yields the same delays.
    """

    max_retries: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    io_timeout: float = 5.0
    connect_timeout: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_non_negative("max_retries", self.max_retries)
        check_positive("base_delay", self.base_delay)
        check_positive("multiplier", self.multiplier)
        check_positive("max_delay", self.max_delay)
        check_non_negative("jitter", self.jitter)
        check_positive("io_timeout", self.io_timeout)
        check_positive("connect_timeout", self.connect_timeout)

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        check_non_negative("attempt", attempt)
        raw = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        if self.jitter:
            u = float(RngStream(self.seed, f"retry/attempt{attempt}").random())
            raw *= 1.0 + self.jitter * u
        return raw

    def delays(self) -> list[float]:
        """The full backoff schedule, one entry per allowed retry."""
        return [self.delay(a) for a in range(self.max_retries)]


def _staging_buffer(size: int) -> memoryview:
    """A writable, uninitialised ``size``-byte staging buffer.

    Uninitialised on purpose: ``bytearray(size)`` zeroes every byte
    before returning (0.75 ms for 8 MiB of fresh pages on a 2-vCPU
    Xeon VM), which a receiver would pay before it can acknowledge the
    header.  The ledger only exposes bytes a stripe has delivered.
    """
    return memoryview(np.empty(size, dtype=np.uint8))


class SessionLedger:
    """Per-session staging state a node keeps across reconnects.

    The ledger is the "store" in store-and-forward: it stages a
    session's payload, acknowledges how much arrived, and remembers how
    much was already pushed downstream (to count retransmissions).

    Every session runs as ``stripes`` parallel sublinks in the
    :class:`~repro.lsl.options.StripeOption` layout (one stripe by
    default): stripe ``k`` owns the ``block``-sized payload blocks ``j``
    with ``j % stripes == k`` and delivers them in stripe-local order.
    Each stripe stages into its own buffer, preallocated to the
    stripe's share of the payload, so staging is one contiguous copy
    and :meth:`read_stripe` is a zero-copy view.  Claiming, appending
    and acknowledging happen per stripe: each stripe connection resumes
    from its own watermark, and concurrent stripes never invalidate one
    another.

    Claims are fenced by the receiving server's *accept sequence*: a
    connection may claim a stripe only if no connection accepted later
    already holds it, and only the current claimant may append.  A
    stale connection that was accepted first but claims last therefore
    cannot take over a live stream.

    Raises
    ------
    ValueError
        The buffers for ``total`` bytes cannot be allocated.
    """

    def __init__(self, total: int, stripes: int = 1, block: int = 16 << 10) -> None:
        check_non_negative("total", total)
        check_positive("stripes", stripes)
        check_positive("block", block)
        self.total = int(total)
        self.stripes = int(stripes)
        self.block = int(block)
        try:
            self._views = [
                _staging_buffer(self.stripe_total(k))
                for k in range(self.stripes)
            ]
        except (MemoryError, OverflowError) as exc:
            raise ValueError(
                f"cannot stage a {self.total}-byte session: "
                f"{type(exc).__name__}"
            ) from None
        self._progress = [0] * self.stripes
        self._claimant = [0] * self.stripes
        self._high = [0] * self.stripes
        self._completion_claimed = False
        self.lock = threading.Lock()

    def stripe_total(self, stripe: int) -> int:
        """Bytes stripe ``stripe`` owns of the session payload."""
        if not (0 <= stripe < self.stripes):
            raise ValueError(f"stripe {stripe} outside 0..{self.stripes - 1}")
        blocks, tail = divmod(self.total, self.block)
        owned = (blocks - stripe + self.stripes - 1) // self.stripes
        return owned * self.block + (tail if blocks % self.stripes == stripe else 0)

    def matches(self, stripes: int, block: int) -> bool:
        """Whether a connection's stripe layout agrees with this ledger."""
        return stripes == self.stripes and (
            self.stripes == 1 or block == self.block
        )

    def claim_stripe(self, stripe: int, seq: int) -> int | None:
        """Make connection ``seq`` the claimant of one stripe.

        ``seq`` is the server's accept sequence number for the
        connection.  Returns the stripe-local byte count durably
        received — where that stripe's upstream resumes — or ``None``
        when a connection accepted later already holds the stripe.
        """
        if not (0 <= stripe < self.stripes):
            raise ValueError(f"stripe {stripe} outside 0..{self.stripes - 1}")
        with self.lock:
            if seq < self._claimant[stripe]:
                return None
            self._claimant[stripe] = seq
            return self._progress[stripe]

    def append_stripe(self, stripe: int, seq: int, chunk) -> bool:
        """Stage one stripe's next bytes; False if ``seq`` was superseded.

        Raises
        ------
        ValueError
            The chunk runs past the stripe's share of the payload: the
            stream is corrupt.
        """
        with self.lock:
            if seq != self._claimant[stripe]:
                return False
            start = self._progress[stripe]
            end = start + len(chunk)
            view = self._views[stripe]
            if end > len(view):
                raise ValueError(
                    f"stripe {stripe} received {end} bytes of a "
                    f"{len(view)}-byte share"
                )
            view[start:end] = chunk
            self._progress[stripe] = end
            return True

    #: ``perfbench/layers.py`` traces the ledger by this name as well
    append = append_stripe

    def stripe_acked(self, stripe: int) -> int:
        """Stripe-local bytes durably received (its resume watermark)."""
        with self.lock:
            return self._progress[stripe]

    def stripe_generation(self, stripe: int) -> int:
        """Accept sequence of the stripe's claimant (0: never claimed)."""
        with self.lock:
            return self._claimant[stripe]

    def read_stripe(self, stripe: int, start: int, end: int) -> memoryview:
        """A zero-copy view of staged stripe-local bytes ``[start, end)``."""
        with self.lock:
            end = min(end, self._progress[stripe])
        return self._views[stripe][start:max(start, end)]

    def note_stripe_sent(self, stripe: int, start: int, end: int) -> int:
        """Record a downstream send of stripe-local ``[start, end)``.

        Returns how many of those bytes had been sent before (the
        retransmitted portion) and advances the stripe's high-water
        mark.
        """
        with self.lock:
            high = self._high[stripe]
            self._high[stripe] = max(high, end)
            return max(0, min(end, high) - start)

    @property
    def complete(self) -> bool:
        with self.lock:
            return sum(self._progress) >= self.total

    def claim_completion(self) -> bool:
        """True for exactly one caller once the ledger is complete.

        Concurrent stripe handlers use this to attribute the session's
        completion (counters, parking) to a single connection.
        """
        with self.lock:
            if self._completion_claimed or sum(self._progress) < self.total:
                return False
            self._completion_claimed = True
            return True

    def read(self) -> bytes:
        """The session payload in order, reassembled from the stripes.

        Positions the stripes have not delivered yet hold undefined
        bytes, so callers read complete ledgers (parking, delivery).
        """
        if self.stripes == 1:
            return bytes(self._views[0])
        parts = []
        for index in range(-(-self.total // self.block)):
            local = (index // self.stripes) * self.block
            view = self._views[index % self.stripes]
            parts.append(view[local : local + self.block])
        return b"".join(parts)
