"""LSL over real TCP sockets (localhost functional transport).

The paper's depots were "user-level depot processes that implement the
LSL protocol" on stock Linux.  This module is the same thing scaled to a
test box: every component runs on ``127.0.0.1`` with real sockets, real
byte streams and the real wire format from :mod:`repro.lsl.header`.

* :class:`DepotServer` — accepts a session, parses the header, advances
  the loose source route (or consults a route table keyed by
  ``ip:port`` strings), stages the payload and pumps it onward;
* :class:`SinkServer` — terminates sessions and stores payloads by
  session id;
* :func:`send_session` — the source side: connect, emit header, stream
  payload.

One session protocol
--------------------
Every session is *fault-tolerant* and *striped*: its header carries a
:class:`~repro.lsl.options.ResumeOffset` option with the payload length,
and it runs as N parallel striped sublinks (GridFTP-style), N = 1 by
default.  A header without a :class:`~repro.lsl.options.StripeOption`
is stripe 0 of 1.  Each stripe connection transports an interleaved
slice of the payload in stripe-local order; every receiving node
replies with an 8-byte acknowledgement point, stages the slice in the
session's :class:`~repro.lsl.faults.SessionLedger` (which survives
reconnects) and confirms the stripe with a final 8-byte
acknowledgement.  Senders (the source and each depot's downstream side)
retry failed sublinks under a :class:`~repro.lsl.faults.RetryPolicy`,
resuming each stripe from the byte the peer acknowledged — recovery cost
is proportional to the failed sublink only.  Servers additionally
consult an optional :class:`~repro.lsl.faults.FaultPlan` so tests can
inject connection drops, refused connects, stalls and corrupted headers
deterministically.

Sessions of type :attr:`~repro.lsl.header.SessionType.MULTICAST` retain
their completed ledgers instead of evicting them, so a staging tree's
ancestors can replay the payload toward descendants (and toward orphaned
branches after a depot death) without the source resending a byte.

Localhost has no bandwidth-delay product, so this transport verifies
*correctness* (framing, routing, integrity, back-pressure, recovery);
performance claims are the simulator's job.
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.lsl.faults import (
    FaultKind,
    FaultPlan,
    RetryExhausted,
    RetryPolicy,
    SessionLedger,
)
from repro.lsl.header import FIXED_HEADER_SIZE, SessionHeader, SessionType
from repro.lsl.options import LooseSourceRoute, ResumeOffset, StripeOption
from repro.obs.registry import NULL_REGISTRY, Registry
from repro.obs.timeline import (
    DISABLED_TIMELINE,
    STREAM_DOWN,
    STREAM_UP,
    ProgressWatermarks,
    SessionTimeline,
)
from repro.util.validation import check_positive_int

_LOG = logging.getLogger(__name__)

_BACKLOG = 16
_IO_CHUNK = 64 << 10

#: Kernel send/receive buffer cap.  Loopback autotuning otherwise grows
#: the in-flight window to megabytes, and every in-flight byte at the
#: moment of a connection failure is a byte the resume protocol must
#: retransmit — capping the buffers keeps recovery accounting tight and
#: deterministic across kernels.
_SOCK_BUF = 128 << 10

#: The 8-byte network-order acknowledgement used by the resume handshake
#: (once after the header, once after the final payload byte).
RESUME_ACK = struct.Struct("!Q")

#: The layout of a session whose header carries no stripe option.
_ONE_STRIPE = StripeOption(index=0, count=1)


class SessionEnded(ConnectionError):
    """The peer closed cleanly at a message boundary (no partial unit)."""


class TruncatedStream(ConnectionError):
    """The peer closed mid-unit: a header or payload was cut short."""


class ThreadLeakError(RuntimeError):
    """A server's handler thread outlived ``close()``'s join timeout."""


def _cap_buffers(sock: socket.socket) -> None:
    """Pin ``sock``'s kernel buffers to :data:`_SOCK_BUF` (best effort)."""
    for opt in (socket.SO_SNDBUF, socket.SO_RCVBUF):
        try:
            sock.setsockopt(socket.SOL_SOCKET, opt, _SOCK_BUF)
        except OSError:  # pragma: no cover - platform quirk
            pass


def _abort_socket(sock: socket.socket) -> None:
    """Close with RST so the peer fails fast instead of seeing clean EOF."""
    try:
        # struct linger is a *kernel* ABI, not wire data: it must use the
        # platform's native layout, so the '!' prefix would be wrong here.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)  # rpr: disable=RPR001
        )
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _read_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes.

    Raises
    ------
    SessionEnded
        Clean EOF before the first byte — the peer finished at a unit
        boundary (e.g. no further session on this connection).
    TruncatedStream
        EOF after a partial read — the unit was cut mid-flight.

    Both are ``ConnectionError`` subclasses, so callers that only care
    about "the read failed" keep working unchanged.
    """
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if not buf:
                raise SessionEnded(
                    f"clean EOF before any of {n} expected bytes"
                )
            raise TruncatedStream(
                f"peer closed after {len(buf)} of {n} expected bytes"
            )
        buf += chunk
    return bytes(buf)


def read_header(sock: socket.socket) -> SessionHeader:
    """Read and decode one session header from a connected socket.

    Raises :class:`SessionEnded` if the peer closed before sending any
    header byte and :class:`TruncatedStream` if the header was cut
    mid-flight.
    """
    fixed = _read_exact(sock, FIXED_HEADER_SIZE)
    # header length is the third u16
    hlen = int.from_bytes(fixed[4:6], "big")
    if hlen < FIXED_HEADER_SIZE:
        raise ValueError(f"header length {hlen} below fixed size")
    rest = _read_exact(sock, hlen - FIXED_HEADER_SIZE) if hlen > FIXED_HEADER_SIZE else b""
    header, _ = SessionHeader.decode(fixed + rest)
    return header


def _stripe_detail(ledger: SessionLedger, stripe: int) -> str:
    """Event detail naming a striped session's stripe ("" for one)."""
    return f"stripe={stripe}" if ledger.stripes > 1 else ""


class _Server:
    """Shared accept loop and session receive path of depots and sinks."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str | None = None,
        fault_plan: FaultPlan | None = None,
        registry: Registry | None = None,
        timeline: SessionTimeline | None = None,
    ) -> None:
        self.name = name or type(self).__name__.lower()
        self.fault_plan = fault_plan
        #: metric series sink; defaults to the shared no-op registry
        self.obs = registry if registry is not None else NULL_REGISTRY
        #: session event log; defaults to the shared disabled timeline
        self.timeline = timeline if timeline is not None else DISABLED_TIMELINE
        if not hasattr(self, "errors"):
            self.errors: list = []
        self.leaked_threads: list[threading.Thread] = []
        #: staging ledgers of in-flight sessions, keyed by hex session id
        self._ledgers: dict[str, SessionLedger] = {}
        self._ledger_lock = threading.Lock()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        _cap_buffers(self._sock)  # inherited by accepted connections
        self._sock.bind((host, port))
        self._sock.listen(_BACKLOG)
        self.host, self.port = self._sock.getsockname()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._handler_seq = 0
        #: live connections -> their accept sequence numbers
        self._conns: dict[socket.socket, int] = {}
        self._conn_lock = threading.Lock()
        #: guards the thread registry (_threads, _handler_seq) and the
        #: errors list, both shared between handler threads and close()
        self._reg_lock = threading.Lock()
        #: serialises close() bodies so concurrent callers cannot race
        #: the teardown; _closed makes repeat calls cheap no-ops
        self._close_lock = threading.Lock()
        self._closed = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"lsl:{self.name}:accept",
            daemon=True,
        )
        self._accept_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, peer = self._sock.accept()
            except OSError:
                return  # listener closed
            with self._reg_lock:
                self._handler_seq += 1
                seq = self._handler_seq
            thread = threading.Thread(
                target=self._safe_handle,
                args=(conn, seq),
                name=f"lsl:{self.name}:h{seq}:{peer[0]}:{peer[1]}",
                daemon=True,
            )
            thread.start()
            with self._reg_lock:
                self._threads.append(thread)

    def _safe_handle(self, conn: socket.socket, seq: int) -> None:
        with self._conn_lock:
            self._conns[conn] = seq
        try:
            if self.fault_plan is not None and self.fault_plan.should_refuse(
                self.name
            ):
                _abort_socket(conn)
                return
            self.handle(conn)
        except SessionEnded:
            # Clean EOF before any header byte: a probe or an idle
            # connection closing at the unit boundary, not a failure.
            # A header or payload cut mid-unit still raises
            # TruncatedStream and lands in ``errors`` below.
            _LOG.debug("%s: peer closed before sending a header", self.name)
        except (ConnectionError, OSError, ValueError) as exc:
            with self._reg_lock:
                self.errors.append(exc)
            self.timeline.record(
                "error", node=self.name, stream=STREAM_UP, detail=str(exc)
            )
            self.obs.counter(
                "lsl_handler_errors_total", labels={"node": self.name}
            ).inc()
        finally:
            with self._conn_lock:
                self._conns.pop(conn, None)
            try:
                conn.close()
            except OSError:
                pass

    def handle(self, conn: socket.socket) -> None:  # pragma: no cover
        raise NotImplementedError

    # -- the session receive path ---------------------------------------------
    def _ledger_for(
        self, header: SessionHeader
    ) -> tuple[SessionLedger, int]:
        """The session's ledger and the stripe this connection carries.

        Raises
        ------
        ValueError
            The header lacks a resume option, disagrees with the stripe
            layout of the session's existing ledger, or announces a
            total this server cannot allocate.
        """
        resume = header.option(ResumeOffset)
        if resume is None:
            raise ValueError(
                f"session {header.hex_id} lacks a resume option"
            )
        stripe = header.option(StripeOption) or _ONE_STRIPE
        with self._ledger_lock:
            ledger = self._ledgers.get(header.hex_id)
            if ledger is None:
                ledger = SessionLedger(
                    resume.total, stripes=stripe.count, block=stripe.block
                )
                self._ledgers[header.hex_id] = ledger
            elif not ledger.matches(stripe.count, stripe.block):
                raise ValueError(
                    f"session {header.hex_id} stripe layout mismatch: ledger "
                    f"x{ledger.stripes}/block {ledger.block}, connection "
                    f"x{stripe.count}/block {stripe.block}"
                )
            elif ledger.stripe_generation(stripe.index) > 0:
                # an earlier connection claimed this stripe: a resume
                self._note_resumed()
            return ledger, stripe.index

    def _note_resumed(self) -> None:
        """Hook: a connection resumes a stripe an earlier one claimed."""

    def _evict_ledger(self, hex_id: str) -> None:
        with self._ledger_lock:
            self._ledgers.pop(hex_id, None)

    def _receive(
        self,
        conn: socket.socket,
        header: SessionHeader,
        ledger: SessionLedger,
        stripe: int,
        on_complete: Callable[[], None],
        pump: "_DownstreamPump | None" = None,
    ) -> bool:
        """Serve one stripe connection of a session, header to final ack.

        Claims the stripe for this connection, replies with its
        acknowledgement point and stages inbound bytes in the ledger
        (consulting the fault plan), handing each chunk to ``pump`` when
        the session is forwarded.  Once the stripe is whole, drains the
        pump, runs ``on_complete`` if this connection completed the
        ledger, and sends the final ack.  Returns True when this
        connection completed the ledger.

        A connection accepted before the stripe's current claimant is
        stale: it is closed without an ack.
        """
        with self._conn_lock:
            seq = self._conns.get(conn, 0)
        acked = ledger.claim_stripe(stripe, seq)
        if acked is None:
            _LOG.debug(
                "%s: stale connection %d for session %s stripe %d closed",
                self.name, seq, header.hex_id, stripe,
            )
            return False
        conn.sendall(RESUME_ACK.pack(acked))
        detail = _stripe_detail(ledger, stripe)
        if acked > 0:
            self.timeline.record(
                "resume", node=self.name, stream=STREAM_UP,
                session=header.hex_id, nbytes=acked, detail=detail,
            )
        goal = ledger.stripe_total(stripe)
        progress = _RxProgress(self, header.hex_id, goal, acked)
        watch = (
            self.fault_plan.stream_watch(self.name)
            if self.fault_plan is not None
            else None
        )
        while acked < goal:
            try:
                data = conn.recv(_IO_CHUNK)
            except OSError:
                data = b""
            rule = watch.advance(len(data)) if watch is not None and data else None
            if rule is not None and rule.kind is FaultKind.STALL:
                time.sleep(rule.delay)
            elif rule is not None and rule.kind is FaultKind.DROP:
                _abort_socket(conn)
                data = b""
            if not data:
                raise TruncatedStream(
                    f"session {header.hex_id} stripe {stripe} interrupted "
                    f"at {acked}/{goal} bytes; awaiting resume"
                )
            if not ledger.append_stripe(stripe, seq, data):
                return False  # a later connection took over this stripe
            acked += len(data)
            progress.note(acked, len(data))
            if pump is not None:
                pump.flush()
        if ledger.stripe_generation(stripe) != seq:
            return False
        progress.eof()
        if pump is not None:
            pump.finish()
        # complete before acking upstream: once the ack is out the whole
        # chain unwinds, and callers joining on it must see the result
        completed = ledger.claim_completion()
        if completed:
            on_complete()
        conn.sendall(RESUME_ACK.pack(goal))
        return completed

    # -- shutdown -------------------------------------------------------------
    def close(self, timeout: float = 5.0, abort: bool = False) -> None:
        """Stop accepting and wait for in-flight sessions to finish.

        ``timeout`` bounds the *total* wait across all handler threads.
        Threads still alive afterwards are reported loudly: a warning
        naming each leaked thread (and the handler it runs) is logged, a
        :class:`ThreadLeakError` carrying those names is appended to
        ``errors`` and the threads are listed in ``leaked_threads`` — a
        silent leak is a bug, a loud one is a diagnosable event.  With
        ``abort=True`` every live connection is reset first (simulating
        a crashed depot), which unblocks handlers stuck in ``recv``.

        Idempotent and safe under concurrent callers: the teardown is
        serialised, a repeat ``close()`` returns immediately, and a
        ``kill()`` *after* a graceful close still aborts any handler
        that outlived the first call.
        """
        with self._close_lock:
            if self._closed and not abort:
                return
            self._closed = True
            self._close_locked(timeout, abort)

    def _close_locked(self, timeout: float, abort: bool) -> None:
        self._stop.set()
        try:
            # shutdown() (not just close()) is what actually wakes a
            # thread blocked in accept() on Linux.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        if abort:
            with self._conn_lock:
                conns = list(self._conns)
            for conn in conns:
                try:
                    # shutdown() wakes a handler blocked in recv() on
                    # this connection; close() alone would not.
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                _abort_socket(conn)
        deadline = time.monotonic() + timeout
        self._accept_thread.join(timeout=timeout)
        leaked: list[threading.Thread] = []
        if self._accept_thread.is_alive():  # pragma: no cover - defensive
            leaked.append(self._accept_thread)
        with self._reg_lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                leaked.append(thread)
        with self._reg_lock:
            self._threads = [t for t in self._threads if t.is_alive()]
        if leaked:
            self.leaked_threads = leaked
            detail = ", ".join(
                self._describe_thread(thread) for thread in leaked
            )
            message = (
                f"{self.name}: {len(leaked)} handler thread(s) still alive "
                f"after close(timeout={timeout}): {detail}"
            )
            _LOG.warning(message)
            with self._reg_lock:
                self.errors.append(ThreadLeakError(message))

    def _describe_thread(self, thread: threading.Thread) -> str:
        """``name (target=...)`` for the leak report.

        Thread names encode the server and peer (``lsl:<server>:h<seq>:
        <ip>:<port>``); the target is recovered from which loop the
        thread runs, so the report says *which* handler wedged, not just
        how many.
        """
        if thread is self._accept_thread:
            target = type(self)._accept_loop.__qualname__
        else:
            target = type(self).handle.__qualname__
        return f"{thread.name} (target={target})"

    def kill(self) -> None:
        """Simulate a crash: reset live connections, stop listening."""
        self.close(timeout=0.5, abort=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class _DownstreamPump:
    """A depot's fault-tolerant downstream side for one stripe.

    Lazily connects toward ``next_hop``, performs the resume handshake,
    streams newly staged ledger bytes of its stripe, and transparently
    reconnects (bounded by the depot's
    :class:`~repro.lsl.faults.RetryPolicy`) when the sublink fails —
    resending only bytes the downstream node had not acknowledged.
    Offsets are stripe-local and the final acknowledgement must equal
    the stripe's share of the payload.
    """

    def __init__(
        self,
        depot: "DepotServer",
        next_hop: tuple[str, int],
        header: SessionHeader,
        ledger: SessionLedger,
        stripe: int,
    ) -> None:
        self._depot = depot
        self._next_hop = next_hop
        self._header = header
        self._ledger = ledger
        self._stripe = stripe
        self._sock: socket.socket | None = None
        self._fwd = 0  # next stripe-local offset to send downstream
        self._attempts = 0
        self._tx = depot.obs.counter(
            "lsl_tx_bytes_total", labels={"node": depot.name}
        )

    def _backoff(self, exc: Exception) -> None:
        self._drop_socket()
        self._attempts += 1
        policy = self._depot.retry
        if self._attempts > policy.max_retries:
            raise RetryExhausted(
                f"downstream {self._next_hop} failed after "
                f"{policy.max_retries} retries"
            ) from exc
        time.sleep(policy.delay(self._attempts - 1))

    def _drop_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _connect(self) -> None:
        policy = self._depot.retry
        while self._sock is None:
            sock = None
            try:
                sock = socket.create_connection(
                    self._next_hop, timeout=policy.connect_timeout
                )
                sock.settimeout(policy.io_timeout)
                _cap_buffers(sock)
                timeline = self._depot.timeline
                session = self._header.hex_id
                timeline.record(
                    "connect",
                    node=self._depot.name,
                    stream=STREAM_DOWN,
                    session=session,
                )
                timeline.record(
                    "header_tx",
                    node=self._depot.name,
                    stream=STREAM_DOWN,
                    session=session,
                )
                encoded = self._header.encode()
                plan = self._depot.fault_plan
                if plan is not None:
                    encoded = plan.corrupt_header(self._depot.name, encoded)
                sock.sendall(encoded)
                ack = RESUME_ACK.unpack(_read_exact(sock, RESUME_ACK.size))[0]
                if ack > 0:
                    timeline.record(
                        "resume",
                        node=self._depot.name,
                        stream=STREAM_DOWN,
                        session=session,
                        nbytes=ack,
                    )
                self._sock = sock
                self._fwd = ack
            except (ConnectionError, OSError) as exc:
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass
                self._backoff(exc)

    def flush(self) -> None:
        """Push every staged byte beyond the forward point downstream."""
        stripe = self._stripe
        while True:
            staged = self._ledger.stripe_acked(stripe)
            if self._fwd >= staged and self._sock is not None:
                return
            if self._sock is None:
                self._connect()
                continue
            chunk = self._ledger.read_stripe(stripe, self._fwd, staged)
            if not chunk:
                return
            try:
                self._sock.sendall(chunk)
            except (ConnectionError, OSError) as exc:
                self._backoff(exc)
                continue
            end = self._fwd + len(chunk)
            self._tx.inc(len(chunk))
            self._depot._note_sent(
                len(chunk),
                self._ledger.note_stripe_sent(stripe, self._fwd, end),
            )
            self._fwd = end

    def finish(self) -> None:
        """Flush, half-close, and insist on the downstream final ack."""
        goal = self._ledger.stripe_total(self._stripe)
        while True:
            try:
                self.flush()
                assert self._sock is not None
                self._sock.shutdown(socket.SHUT_WR)
                final = RESUME_ACK.unpack(
                    _read_exact(self._sock, RESUME_ACK.size)
                )[0]
                if final != goal:
                    raise TruncatedStream(
                        f"downstream acknowledged {final} of {goal} bytes"
                    )
                self._depot.timeline.record(
                    "complete",
                    node=self._depot.name,
                    stream=STREAM_DOWN,
                    session=self._header.hex_id,
                    nbytes=final,
                    detail=_stripe_detail(self._ledger, self._stripe),
                )
                return
            except (ConnectionError, OSError) as exc:
                self._backoff(exc)

    def close(self) -> None:
        self._drop_socket()


class DepotServer(_Server):
    """A forwarding depot on real sockets.

    Every session stages its full payload in a
    :class:`~repro.lsl.faults.SessionLedger` — that retained copy is what
    makes depot-resume possible.

    Parameters
    ----------
    host, port:
        Listen address (port 0 picks an ephemeral port).
    route_table:
        Optional ``dest_ip -> next_hop_ip:port`` strings mapping used
        when a session carries no loose source route.  Values are
        ``"ip:port"``.
    name:
        Label used by :class:`~repro.lsl.faults.FaultPlan` rules and
        diagnostics (defaults to ``"depotserver"``).
    fault_plan:
        Optional injected-fault schedule this depot consults.
    retry:
        Backoff policy for this depot's downstream reconnects.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        route_table: dict[str, str] | None = None,
        name: str | None = None,
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        registry: Registry | None = None,
        timeline: SessionTimeline | None = None,
    ) -> None:
        self.route_table = dict(route_table or {})
        self.retry = retry or RetryPolicy()
        self.sessions_forwarded = 0
        self.bytes_forwarded = 0
        #: bytes this depot sent downstream more than once (recovery cost)
        self.retransmitted_bytes = 0
        #: stripe connections that resumed after an interruption
        self.sessions_resumed = 0
        #: guards the forwarding counters, which concurrent session
        #: handlers update
        self._stats_lock = threading.Lock()
        self.errors: list = []
        #: asynchronous sessions parked here, keyed by hex session id
        self.held: dict[str, bytes] = {}
        self._held_lock = threading.Lock()
        super().__init__(
            host,
            port,
            name=name,
            fault_plan=fault_plan,
            registry=registry,
            timeline=timeline,
        )

    def _next_hop(self, header: SessionHeader) -> tuple[tuple[str, int], SessionHeader]:
        lsrr = header.option(LooseSourceRoute)
        if lsrr is not None:
            hop, remaining = lsrr.advance()
            if hop is not None:
                options = tuple(
                    remaining if opt is lsrr else opt for opt in header.options
                )
                return hop, header.with_options(options)
        entry = self.route_table.get(header.dst_ip)
        if entry is not None:
            ip, _, port = entry.partition(":")
            return (ip, int(port)), header
        return (header.dst_ip, header.dst_port), header

    def _note_resumed(self) -> None:
        # _stats_lock nests inside _ledger_lock here (called from
        # _ledger_for); no path takes them in the opposite order.
        with self._stats_lock:
            self.sessions_resumed += 1

    def _note_sent(self, nbytes: int, retransmitted: int) -> None:
        """Count ``nbytes`` sent downstream, ``retransmitted`` of them again."""
        with self._stats_lock:
            self.bytes_forwarded += nbytes - retransmitted
            self.retransmitted_bytes += retransmitted

    def snapshot(self) -> dict[str, int]:
        """A consistent view of the traffic counters, under the lock.

        Every out-of-thread read of the forwarding counters (CLI status
        loops, metric exports, tests polling for completion) must come
        through here: the attributes themselves are only coherent while
        ``_stats_lock`` is held.
        """
        with self._stats_lock:
            return {
                "sessions_forwarded": self.sessions_forwarded,
                "bytes_forwarded": self.bytes_forwarded,
                "retransmitted_bytes": self.retransmitted_bytes,
                "sessions_resumed": self.sessions_resumed,
            }

    def fill_registry(self, registry: Registry | None = None) -> Registry:
        """Publish the locked :meth:`snapshot` as labelled gauges.

        Routes the legacy attribute counters through the obs layer:
        gauges named ``lsl_depot_<counter>`` carry a ``node`` label so
        exports from several depots can share one registry.  Uses the
        server's own registry when none is given; returns the registry
        written to.
        """
        target = registry if registry is not None else self.obs
        for key, value in self.snapshot().items():
            target.gauge(
                f"lsl_depot_{key}", labels={"node": self.name}
            ).set(value)
        return target

    def handle(self, conn: socket.socket) -> None:
        """Serve one inbound connection: pick up, park, or forward."""
        header = read_header(conn)
        self.timeline.record(
            "header_rx", node=self.name, stream=STREAM_UP,
            session=header.hex_id,
        )
        self.obs.counter(
            "lsl_sessions_total", labels={"node": self.name}
        ).inc()
        # asynchronous pickup: stream a held session back to the caller
        if header.session_type == SessionType.PICKUP:
            with self._held_lock:
                payload = self.held.pop(header.hex_id, None)
            if payload is None:
                raise ValueError(f"no held session {header.hex_id}")
            conn.sendall(payload)
            return
        ledger, stripe = self._ledger_for(header)
        pump = None
        if (header.dst_ip, header.dst_port) == (self.host, self.port):
            # sessions addressed to this depot are parked, not forwarded
            def complete() -> None:
                payload = ledger.read()
                with self._held_lock:
                    self.held[header.hex_id] = payload
        else:
            next_hop, out_header = self._next_hop(header)
            pump = _DownstreamPump(self, next_hop, out_header, ledger, stripe)

            def complete() -> None:
                with self._stats_lock:
                    self.sessions_forwarded += 1
        try:
            done = self._receive(conn, header, ledger, stripe, complete, pump)
        finally:
            if pump is not None:
                pump.close()
        if done and not self._retains_ledger(header):
            self._evict_ledger(header.hex_id)

    def _retains_ledger(self, header: SessionHeader) -> bool:
        """Multicast sessions keep their completed ledgers.

        A retained ledger is what lets this depot later *replay* the
        payload toward tree descendants (and re-graft orphaned branches
        after a downstream depot dies) without the source resending: a
        new delivery through this depot claims the complete ledger, acks
        the full total upstream, and pumps from local bytes only.
        """
        return header.session_type == SessionType.MULTICAST


class _RxProgress:
    """Receiver-side instrumentation of one stripe connection.

    Emits the canonical up-stream sequence (``first_byte`` →
    ``progress`` watermarks → ``eof``) plus the received-byte counter
    and, at EOF, the session's duration/throughput series.  Every call
    degrades to a no-op when the server runs with the null registry and
    disabled timeline.
    """

    def __init__(
        self, server: _Server, session: str, total: int, acked: int
    ) -> None:
        self._server = server
        self._session = session
        self._total = total
        self._rx = server.obs.counter(
            "lsl_rx_bytes_total", labels={"node": server.name}
        )
        self._marks = ProgressWatermarks(total)
        self._marks.advance(acked)  # staged bytes crossed these already
        self._seen_first = acked > 0
        self._t0 = time.monotonic()

    def note(self, position: int, nbytes: int) -> None:
        """Record a chunk of ``nbytes`` ending at cumulative ``position``."""
        self._rx.inc(nbytes)
        timeline = self._server.timeline
        if not self._seen_first:
            self._seen_first = True
            timeline.record(
                "first_byte", node=self._server.name, stream=STREAM_UP,
                session=self._session, nbytes=position,
            )
        for fraction, threshold in self._marks.advance(position):
            timeline.record(
                "progress", node=self._server.name, stream=STREAM_UP,
                session=self._session, nbytes=threshold,
                detail=f"{fraction:g}",
            )

    def eof(self) -> None:
        """Record session end plus its duration/throughput series."""
        self._server.timeline.record(
            "eof", node=self._server.name, stream=STREAM_UP,
            session=self._session, nbytes=self._total,
        )
        elapsed = time.monotonic() - self._t0
        labels = {"node": self._server.name}
        self._server.obs.histogram(
            "lsl_session_seconds", labels=labels
        ).observe(elapsed)
        if elapsed > 0:
            self._server.obs.gauge(
                "lsl_session_throughput_bytes_per_sec", labels=labels
            ).set(self._total / elapsed)


class SinkServer(_Server):
    """Terminates LSL sessions; stores payloads keyed by session id."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str | None = None,
        fault_plan: FaultPlan | None = None,
        registry: Registry | None = None,
        timeline: SessionTimeline | None = None,
    ) -> None:
        self.payloads: dict[str, bytes] = {}
        self.headers: dict[str, SessionHeader] = {}
        self._lock = threading.Lock()
        self.errors: list = []
        super().__init__(
            host,
            port,
            name=name,
            fault_plan=fault_plan,
            registry=registry,
            timeline=timeline,
        )

    def handle(self, conn: socket.socket) -> None:
        """Terminate one stripe connection; store the completed payload."""
        header = read_header(conn)
        self.timeline.record(
            "header_rx", node=self.name, stream=STREAM_UP,
            session=header.hex_id,
        )
        self.obs.counter(
            "lsl_sessions_total", labels={"node": self.name}
        ).inc()
        ledger, stripe = self._ledger_for(header)

        def complete() -> None:
            payload = ledger.read()
            with self._lock:
                self.payloads[header.hex_id] = payload
                self.headers[header.hex_id] = header

        if self._receive(conn, header, ledger, stripe, complete):
            self._evict_ledger(header.hex_id)

    def staged_bytes(self, session_id_hex: str) -> int:
        """Bytes durably received for an (incomplete) session."""
        with self._ledger_lock:
            ledger = self._ledgers.get(session_id_hex)
        if ledger is None:
            return 0
        return sum(ledger.stripe_acked(k) for k in range(ledger.stripes))

    def wait_for(self, session_id_hex: str, timeout: float = 10.0) -> bytes:
        """Block until the payload for a session arrives (tests helper)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if session_id_hex in self.payloads:
                    return self.payloads[session_id_hex]
            time.sleep(0.005)
        raise TimeoutError(f"session {session_id_hex} never arrived")


def _stripe_slice(
    payload: bytes, index: int, count: int, block: int
) -> bytes:
    """Stripe ``index``'s interleaved slice of ``payload``.

    The source-side mirror of the ledger's stripe layout: every
    ``block``-sized block ``j`` with ``j % count == index``, in order.
    """
    if count == 1:
        return payload
    out = bytearray()
    for start in range(index * block, len(payload), count * block):
        out += payload[start : start + block]
    return bytes(out)


@dataclass
class SendReport:
    """Outcome of a :func:`send_session`.

    Attributes
    ----------
    attempts:
        Connections opened (``stripes`` = no failure: one per sublink).
    retransmitted:
        Payload bytes this source sent more than once.
    payload_bytes:
        Total payload size.
    high_water:
        Payload bytes this source sent at least once (0 when every
        stripe's first hop had already staged the whole session).
    """

    attempts: int = 0
    retransmitted: int = 0
    payload_bytes: int = 0
    high_water: int = 0


class _StripeWorker:
    """Source side of one stripe of a session.

    :meth:`handshake` (run serially by :func:`send_session`) opens the
    connection and performs the header+ack round trip; :meth:`run`
    streams the slice from the acknowledged offset, transparently
    re-handshaking on failure under the retry policy.  Both keep a
    final failure in ``error`` instead of raising it.
    """

    def __init__(
        self,
        payload_slice: bytes,
        header: SessionHeader,
        first_hop: tuple[str, int],
        chunk_size: int,
        policy: RetryPolicy,
        fault_plan: FaultPlan | None,
        source_name: str,
        obs: Registry,
        tl: SessionTimeline,
        index: int,
        stripes: int,
    ) -> None:
        self._slice = memoryview(payload_slice)
        self._header = header
        self._first_hop = first_hop
        self._chunk = chunk_size
        self._policy = policy
        self._fault_plan = fault_plan
        self._source_name = source_name
        self._tl = tl
        self._tx = obs.counter(
            "lsl_tx_bytes_total", labels={"node": source_name}
        )
        self.index = index
        #: names the stripe in messages and events ("" for one stripe)
        self._detail = f"stripe={index}" if stripes > 1 else ""
        self.failures = 0
        self.retransmitted = 0
        self.high_water = 0
        self.error: Exception | None = None
        self._sock: socket.socket | None = None
        self._start = 0

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _failure(self, exc: Exception) -> None:
        self._drop()
        self.failures += 1
        if self.failures > self._policy.max_retries:
            where = f" {self._detail}" if self._detail else ""
            raise RetryExhausted(
                f"session {self._header.hex_id}{where} failed after "
                f"{self._policy.max_retries} retries: {exc}"
            ) from exc
        time.sleep(self._policy.delay(self.failures - 1))

    def _connect(self) -> None:
        header, tl, source_name = self._header, self._tl, self._source_name
        sock = socket.create_connection(
            self._first_hop, timeout=self._policy.connect_timeout
        )
        try:
            sock.settimeout(self._policy.io_timeout)
            _cap_buffers(sock)
            tl.record(
                "connect", node=source_name, stream=STREAM_DOWN,
                session=header.hex_id,
            )
            tl.record(
                "header_tx", node=source_name, stream=STREAM_DOWN,
                session=header.hex_id,
            )
            encoded = header.encode()
            if self._fault_plan is not None:
                encoded = self._fault_plan.corrupt_header(source_name, encoded)
            sock.sendall(encoded)
            ack = RESUME_ACK.unpack(_read_exact(sock, RESUME_ACK.size))[0]
            if ack > len(self._slice):
                raise ValueError(
                    f"peer acknowledged {ack} bytes of a "
                    f"{len(self._slice)}-byte slice"
                )
        except BaseException:
            try:
                sock.close()
            except OSError:
                pass
            raise
        if ack > 0:
            tl.record(
                "resume", node=source_name, stream=STREAM_DOWN,
                session=header.hex_id, nbytes=ack, detail=self._detail,
            )
        self._sock = sock
        self._start = ack

    def _stream(self) -> None:
        """Send the slice from the acknowledged offset; await the final ack."""
        sock = self._sock
        size = len(self._slice)
        for off in range(self._start, size, self._chunk):
            end = min(off + self._chunk, size)
            sock.sendall(self._slice[off:end])
            self._tx.inc(end - off)
            self.retransmitted += max(0, min(end, self.high_water) - off)
            self.high_water = max(self.high_water, end)
        sock.shutdown(socket.SHUT_WR)
        final = RESUME_ACK.unpack(_read_exact(sock, RESUME_ACK.size))[0]
        if final != size:
            raise TruncatedStream(
                f"peer acknowledged {final} of {size} bytes"
                + (f" ({self._detail})" if self._detail else "")
            )

    def _retry(self, streaming: bool) -> bool:
        """Reconnect under the policy until the stripe has handshaken or,
        with ``streaming``, delivered its slice.

        A final failure is kept in ``error`` and recorded as an
        ``error`` event; returns False in that case.
        """
        try:
            while True:
                try:
                    if self._sock is None:
                        self._connect()
                    if streaming:
                        self._stream()
                    return True
                except (ConnectionError, OSError) as exc:
                    self._failure(exc)
        except Exception as exc:
            self.error = exc
            self._drop()
            self._tl.record(
                "error", node=self._source_name, stream=STREAM_DOWN,
                session=self._header.hex_id,
                detail=f"{self._detail}: {exc}" if self._detail else str(exc),
            )
            return False

    def handshake(self) -> bool:
        """Connect and complete the header+ack round trip (with retry)."""
        return self._retry(streaming=False)

    def run(self) -> None:
        """Stream the slice to completion (see ``error`` on failure)."""
        self._retry(streaming=True)
        self._drop()


def send_session(
    payload: bytes,
    header: SessionHeader,
    first_hop: tuple[str, int],
    chunk_size: int = _IO_CHUNK,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    source_name: str = "source",
    registry: Registry | None = None,
    timeline: SessionTimeline | None = None,
    stripes: int = 1,
    stripe_block: int = 16 << 10,
) -> SendReport:
    """Open a session toward ``first_hop`` and stream the payload.

    ``first_hop`` is the first depot of the loose source route, or the
    sink itself for a direct session.

    The header gains a resume option carrying the payload length (or
    must already carry a matching one).  Each connection starts with the
    receiver's acknowledgement point and ends with a final
    acknowledgement; failures are retried under ``retry`` (the default
    :class:`~repro.lsl.faults.RetryPolicy` when omitted), resuming from
    the acknowledged byte.

    The session runs as ``stripes`` parallel striped sublinks.  Their
    handshakes happen serially — one blocking header+ack round trip
    each — then the interleaved slices stream concurrently, each stripe
    retrying and resuming at its own watermark.  The last stripe streams
    on the calling thread, so a one-stripe session starts no thread.

    Raises
    ------
    RetryExhausted
        A stripe failed more times than the policy allows.
    """
    check_positive_int("chunk_size", chunk_size)
    check_positive_int("stripes", stripes)
    check_positive_int("stripe_block", stripe_block)
    if header.option(StripeOption) is not None:
        raise ValueError(
            "send_session attaches stripe options itself; the header "
            "must not already carry one"
        )
    resume = header.option(ResumeOffset)
    if resume is None:
        header = header.with_options(
            header.options + (ResumeOffset(total=len(payload)),)
        )
    elif resume.total != len(payload):
        raise ValueError(
            f"resume option total {resume.total} != payload "
            f"{len(payload)} bytes"
        )
    policy = retry or RetryPolicy()
    obs = registry if registry is not None else NULL_REGISTRY
    tl = timeline if timeline is not None else DISABLED_TIMELINE
    workers = [
        _StripeWorker(
            _stripe_slice(payload, k, stripes, stripe_block),
            header if stripes == 1 else header.with_options(
                header.options
                + (StripeOption(index=k, count=stripes, block=stripe_block),)
            ),
            first_hop, chunk_size, policy, fault_plan, source_name,
            obs, tl, k, stripes,
        )
        for k in range(stripes)
    ]
    t0 = time.monotonic()
    try:
        # all() stops at the first stripe that gives up its handshake
        if all(worker.handshake() for worker in workers):
            threads = [
                threading.Thread(
                    target=worker.run,
                    name=f"lsl:{source_name}:stripe{worker.index}",
                    daemon=True,
                )
                for worker in workers[:-1]
            ]
            for thread in threads:
                thread.start()
            workers[-1].run()
            for thread in threads:
                thread.join()
    finally:
        for worker in workers:
            worker._drop()
    errors = [w.error for w in workers if w.error is not None]
    if errors:
        # each failed stripe already recorded its own "error" event
        raise errors[0]
    tl.record(
        "complete", node=source_name, stream=STREAM_DOWN,
        session=header.hex_id, nbytes=len(payload),
        detail=f"stripes={stripes}" if stripes > 1 else "",
    )
    elapsed = time.monotonic() - t0
    obs.histogram(
        "lsl_session_seconds", labels={"node": source_name}
    ).observe(elapsed)
    if elapsed > 0:
        obs.gauge(
            "lsl_session_throughput_bytes_per_sec",
            labels={"node": source_name},
        ).set(len(payload) / elapsed)
    return SendReport(
        attempts=sum(w.failures + 1 for w in workers),
        retransmitted=sum(w.retransmitted for w in workers),
        payload_bytes=len(payload),
        high_water=sum(w.high_water for w in workers),
    )


def fetch_pickup(
    depot: tuple[str, int], session_id: bytes, timeout: float = 10.0
) -> bytes:
    """Claim an asynchronously parked session from a depot.

    Sends a :attr:`~repro.lsl.header.SessionType.PICKUP` header carrying
    the session id and reads the stored payload until EOF.
    """
    from repro.lsl.async_session import pickup_header

    header = pickup_header(depot[0], depot[1], session_id)
    with socket.create_connection(depot, timeout=timeout) as sock:
        sock.sendall(header.encode())
        sock.shutdown(socket.SHUT_WR)
        chunks = bytearray()
        while True:
            data = sock.recv(_IO_CHUNK)
            if not data:
                break
            chunks += data
    return bytes(chunks)
