"""Real-socket integration tests: the LSL protocol over localhost TCP."""

import hashlib
import socket
import threading
import time

import pytest

from repro.lsl.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    RetryPolicy,
)
from repro.lsl.header import SessionHeader, new_session_id
from repro.lsl.options import LooseSourceRoute, ResumeOffset, StripeOption
from repro.lsl.socket_transport import (
    RESUME_ACK,
    DepotServer,
    SessionEnded,
    SinkServer,
    ThreadLeakError,
    TruncatedStream,
    _read_exact,
    read_header,
    send_session,
)
from repro.obs.timeline import SessionTimeline
from repro.util.rng import RngStream


def make_header(sink, hops=()):
    return SessionHeader(
        session_id=new_session_id(),
        src_ip="127.0.0.1",
        dst_ip="127.0.0.1",
        src_port=0,
        dst_port=sink.port,
        options=(LooseSourceRoute(hops=tuple(hops)),) if hops else (),
    )


class TestDirectSession:
    def test_payload_arrives_intact(self):
        payload = RngStream(1).generator.bytes(100_000)
        with SinkServer() as sink:
            header = make_header(sink)
            send_session(payload, header, sink.address)
            got = sink.wait_for(header.hex_id)
        assert got == payload

    def test_multiple_sessions_kept_separate(self):
        with SinkServer() as sink:
            h1, h2 = make_header(sink), make_header(sink)
            send_session(b"payload-one", h1, sink.address)
            send_session(b"payload-two", h2, sink.address)
            assert sink.wait_for(h1.hex_id) == b"payload-one"
            assert sink.wait_for(h2.hex_id) == b"payload-two"

    def test_header_recorded_at_sink(self):
        with SinkServer() as sink:
            h = make_header(sink)
            send_session(b"x", h, sink.address)
            sink.wait_for(h.hex_id)
            assert sink.headers[h.hex_id].session_id == h.session_id


class TestSingleDepotRelay:
    def test_relay_preserves_bytes(self):
        payload = RngStream(2).generator.bytes(250_000)
        with SinkServer() as sink, DepotServer() as depot:
            header = make_header(sink)  # no LSRR: depot forwards to dst
            send_session(payload, header, depot.address)
            got = sink.wait_for(header.hex_id)
        assert hashlib.sha256(got).digest() == hashlib.sha256(payload).digest()
        assert depot.sessions_forwarded == 1
        assert depot.bytes_forwarded == len(payload)


class TestLooseSourceRouteRelay:
    def test_two_depot_chain(self):
        payload = RngStream(3).generator.bytes(300_000)
        with SinkServer() as sink, DepotServer() as d1, DepotServer() as d2:
            # connect to d1; LSRR carries d2 as the remaining hop
            header = make_header(sink, hops=[("127.0.0.1", d2.port)])
            send_session(payload, header, d1.address)
            got = sink.wait_for(header.hex_id)
            assert got == payload
            assert d1.sessions_forwarded == 1
            assert d2.sessions_forwarded == 1

    def test_lsrr_consumed_by_arrival(self):
        with SinkServer() as sink, DepotServer() as d1, DepotServer() as d2:
            header = make_header(sink, hops=[("127.0.0.1", d2.port)])
            send_session(b"probe", header, d1.address)
            sink.wait_for(header.hex_id)
            arrived = sink.headers[header.hex_id]
            lsrr = arrived.option(LooseSourceRoute)
            assert lsrr is not None and lsrr.hops == ()


class TestRouteTableRelay:
    def test_depot_forwards_via_table(self):
        with SinkServer() as sink, DepotServer() as d2:
            table = {"127.0.0.1": f"127.0.0.1:{d2.port}"}
            with DepotServer(route_table=table) as d1:
                # dst 127.0.0.1 is rerouted by d1's table through d2;
                # d2 has no entry and forwards to the real destination
                header = make_header(sink)
                send_session(b"table-routed", header, d1.address)
                got = sink.wait_for(header.hex_id)
                assert got == b"table-routed"
                assert d1.sessions_forwarded == 1
                assert d2.sessions_forwarded == 1


class TestRobustness:
    def test_large_payload_staged_through_a_depot(self):
        payload = RngStream(4).generator.bytes(2_000_000)
        with SinkServer() as sink, DepotServer() as depot:
            header = make_header(sink)
            send_session(payload, header, depot.address)
            got = sink.wait_for(header.hex_id, timeout=30)
        assert got == payload

    def test_garbage_header_does_not_kill_server(self):
        with SinkServer() as sink:
            with socket.create_connection(sink.address, timeout=5) as s:
                s.sendall(b"\x00" * 34)  # version 0: rejected
            # server should still work afterwards
            header = make_header(sink)
            send_session(b"after-garbage", header, sink.address)
            assert sink.wait_for(header.hex_id) == b"after-garbage"
            assert len(sink.errors) >= 1


class TestStreamErrors:
    """Clean EOF at a unit boundary vs. truncation mid-unit."""

    def test_read_exact_clean_eof_is_session_ended(self):
        a, b = socket.socketpair()
        with a, b:
            a.close()
            with pytest.raises(SessionEnded):
                _read_exact(b, 4)

    def test_read_exact_partial_is_truncated(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(b"xy")
            a.close()
            with pytest.raises(TruncatedStream):
                _read_exact(b, 4)

    def test_read_exact_full_read(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(b"abcd")
            assert _read_exact(b, 4) == b"abcd"

    def test_read_header_eof_before_any_byte(self):
        a, b = socket.socketpair()
        with a, b:
            a.close()
            with pytest.raises(SessionEnded):
                read_header(b)

    def test_read_header_truncated_mid_header(self):
        header = SessionHeader(
            session_id=new_session_id(),
            src_ip="127.0.0.1",
            dst_ip="127.0.0.1",
            src_port=0,
            dst_port=1,
        )
        a, b = socket.socketpair()
        with a, b:
            a.sendall(header.encode()[:10])
            a.close()
            with pytest.raises(TruncatedStream):
                read_header(b)

    def test_read_header_truncated_in_options(self):
        header = SessionHeader(
            session_id=new_session_id(),
            src_ip="127.0.0.1",
            dst_ip="127.0.0.1",
            src_port=0,
            dst_port=1,
            options=(LooseSourceRoute(hops=(("10.0.0.1", 9),)),),
        )
        wire = header.encode()
        a, b = socket.socketpair()
        with a, b:
            a.sendall(wire[:-2])  # cut inside the options block
            a.close()
            with pytest.raises(TruncatedStream):
                read_header(b)

    def test_both_are_connection_errors(self):
        assert issubclass(SessionEnded, ConnectionError)
        assert issubclass(TruncatedStream, ConnectionError)


class TestCloseSemantics:
    """close() must not hang on in-flight sessions, and must be loud."""

    def test_close_with_inflight_session_reports_leak(self):
        sink = SinkServer()
        # a half-open session: header sent, payload never finished
        conn = socket.create_connection(sink.address, timeout=5)
        try:
            header = make_header(sink).with_options(
                (ResumeOffset(total=1000),)
            )
            conn.sendall(header.encode())
            conn.sendall(b"partial")
            time.sleep(0.1)  # let the handler block in recv
            start = time.monotonic()
            sink.close(timeout=0.3)
            elapsed = time.monotonic() - start
            assert elapsed < 2.0  # bounded, not hung
            assert sink.leaked_threads
            assert any(isinstance(e, ThreadLeakError) for e in sink.errors)
        finally:
            conn.close()

    def test_kill_unblocks_stuck_handlers(self):
        sink = SinkServer()
        conn = socket.create_connection(sink.address, timeout=5)
        try:
            header = make_header(sink).with_options(
                (ResumeOffset(total=1000),)
            )
            conn.sendall(header.encode())
            time.sleep(0.1)
            sink.kill()  # aborts the connection instead of waiting
            assert sink.leaked_threads == []
        finally:
            conn.close()

    def test_clean_close_after_completed_sessions_leaks_nothing(self):
        sink = SinkServer()
        header = make_header(sink)
        send_session(b"tidy", header, sink.address)
        sink.wait_for(header.hex_id)
        sink.close()
        assert sink.leaked_threads == []
        assert not any(isinstance(e, ThreadLeakError) for e in sink.errors)


RECOVERY_POLICY = RetryPolicy(
    max_retries=6,
    base_delay=0.05,
    multiplier=1.5,
    max_delay=0.3,
    jitter=0.0,
    io_timeout=5.0,
    connect_timeout=5.0,
    seed=13,
)


class TestDepotCrashRecovery:
    """Kill a depot mid-stream; the session survives its restart."""

    def test_killed_depot_restarted_on_same_port(self):
        payload = RngStream(31).generator.bytes(2 << 20)
        sink = SinkServer(name="sink")
        d2 = DepotServer(name="d2", retry=RECOVERY_POLICY)
        d1 = DepotServer(name="d1", retry=RECOVERY_POLICY)
        # throttle d2 so the kill lands deterministically mid-stream
        plan = FaultPlan(
            [FaultRule("d2", FaultKind.STALL, after_bytes=256 << 10, delay=1.0)]
        )
        d2.fault_plan = plan
        header = SessionHeader(
            session_id=new_session_id(),
            src_ip="127.0.0.1",
            dst_ip="127.0.0.1",
            src_port=0,
            dst_port=sink.port,
            options=(LooseSourceRoute(hops=(("127.0.0.1", d2.port),)),),
        )
        reports = []
        sender = threading.Thread(
            target=lambda: reports.append(
                send_session(
                    payload, header, d1.address, retry=RECOVERY_POLICY
                )
            )
        )
        sender.start()
        d2_restarted = None
        try:
            deadline = time.monotonic() + 10
            while plan.count() == 0:
                assert time.monotonic() < deadline, "stall never fired"
                time.sleep(0.005)
            port = d2.port
            d2.kill()  # crash: all connection state and staged bytes lost
            d2_restarted = DepotServer(
                port=port, name="d2", retry=RECOVERY_POLICY
            )
            got = sink.wait_for(header.hex_id, timeout=30)
            sender.join(timeout=30)
            assert got == payload
            assert reports and reports[0].attempts == 1  # absorbed by d1
            # the restarted depot lost its ledger, so d1 replayed the
            # session from byte zero out of its own staging
            assert d1.retransmitted_bytes >= 256 << 10
            assert d2_restarted.sessions_forwarded == 1
        finally:
            sender.join(timeout=5)
            for server in (d1, d2, d2_restarted, sink):
                if server is not None:
                    server.close()


class TestRecoveryAcceptance:
    """The headline claim on real sockets: a mid-path failure costs one
    sublink's staged bytes with depot-resume, but the whole payload for
    a direct connection whose peer keeps no resume state."""

    def test_relayed_retransmit_bounded_by_one_sublink(self):
        payload = RngStream(32).generator.bytes(2 << 20)
        drop_at = 512 << 10
        plan = FaultPlan(
            [FaultRule("d2", FaultKind.DROP, after_bytes=drop_at)]
        )
        with SinkServer(name="sink") as sink, DepotServer(
            name="d2", fault_plan=plan, retry=RECOVERY_POLICY
        ) as d2, DepotServer(
            name="d1", fault_plan=plan, retry=RECOVERY_POLICY
        ) as d1:
            header = SessionHeader(
                session_id=new_session_id(),
                src_ip="127.0.0.1",
                dst_ip="127.0.0.1",
                src_port=0,
                dst_port=sink.port,
                options=(LooseSourceRoute(hops=(("127.0.0.1", d2.port),)),),
            )
            report = send_session(
                payload, header, d1.address, retry=RECOVERY_POLICY,
                fault_plan=plan,
            )
            got = sink.wait_for(header.hex_id, timeout=30)
            assert got == payload
            assert plan.fired == [("d2", FaultKind.DROP)]
            assert d2.sessions_resumed == 1
            total_retransmitted = (
                report.retransmitted
                + d1.retransmitted_bytes
                + d2.retransmitted_bytes
            )
            # recovery cost is bounded by the failed sublink alone
            assert total_retransmitted < 1.5 * drop_at
            # and the failure never surfaced at the source
            assert report.attempts == 1
            assert report.retransmitted == 0

    def test_direct_restart_retransmits_everything_sent(self):
        payload = RngStream(33).generator.bytes(2 << 20)
        stall_at = 512 << 10
        # stall the sink mid-stream so the crash lands deterministically
        plan = FaultPlan(
            [FaultRule("sink", FaultKind.STALL, after_bytes=stall_at, delay=1.0)]
        )
        sink = SinkServer(name="sink", fault_plan=plan)
        header = make_header(sink)
        reports = []
        sender = threading.Thread(
            target=lambda: reports.append(
                send_session(
                    payload, header, sink.address, retry=RECOVERY_POLICY
                )
            )
        )
        sender.start()
        restarted = None
        try:
            deadline = time.monotonic() + 10
            while plan.count() == 0:
                assert time.monotonic() < deadline, "stall never fired"
                time.sleep(0.005)
            port = sink.port
            sink.kill()  # plain-TCP peer: all partial state is gone
            restarted = SinkServer(port=port, name="sink")
            got = restarted.wait_for(header.hex_id, timeout=30)
            sender.join(timeout=30)
            assert got == payload
            # with no surviving receiver state the source pays for every
            # byte it had already delivered — the full-restart bill
            assert reports and reports[0].retransmitted >= stall_at
            assert reports[0].attempts >= 2
        finally:
            sender.join(timeout=5)
            sink.close()
            if restarted is not None:
                restarted.close()


def settle(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def read_ack(sock):
    """The next 8-byte acknowledgement, or None if the peer closed."""
    data = sock.recv(RESUME_ACK.size)
    if not data:
        return None
    return RESUME_ACK.unpack(data + _read_exact(sock, RESUME_ACK.size - len(data)))[0]


class TestMalformedSessions:
    """Headers and streams the one session protocol refuses loudly."""

    @pytest.mark.parametrize("server_cls", [SinkServer, DepotServer])
    def test_header_without_resume_option_is_rejected(self, server_cls):
        with SinkServer() as sink, server_cls() as server:
            header = make_header(sink)
            with socket.create_connection(server.address, timeout=5) as s:
                s.sendall(header.encode())
                assert read_ack(s) is None  # closed without an ack
            settle(lambda: server.errors)
        assert isinstance(server.errors[0], ValueError)
        assert "lacks a resume option" in str(server.errors[0])
        assert sink.payloads == {}

    @pytest.mark.parametrize("server_cls", [SinkServer, DepotServer])
    def test_chunk_past_the_total_is_refused_as_corrupt(self, server_cls):
        with SinkServer() as sink, server_cls() as server:
            header = make_header(sink).with_options((ResumeOffset(total=10),))
            with socket.create_connection(server.address, timeout=5) as s:
                s.sendall(header.encode())
                assert read_ack(s) == 0
                s.sendall(b"x" * 25)
                s.shutdown(socket.SHUT_WR)
                assert read_ack(s) is None  # no final ack for 10 of 25
            settle(lambda: server.errors)
        assert isinstance(server.errors[0], ValueError)
        assert "10-byte share" in str(server.errors[0])
        assert sink.payloads == {}

    @pytest.mark.parametrize("stripe", [None, StripeOption(index=1, count=2)])
    def test_unallocatable_total_is_recorded_and_serving_continues(
        self, stripe
    ):
        timeline = SessionTimeline()
        with SinkServer(name="sink", timeline=timeline) as sink, DepotServer(
            name="depot", timeline=timeline
        ) as depot:
            options = (ResumeOffset(total=1 << 62),)
            if stripe is not None:
                options += (stripe,)
            header = make_header(sink).with_options(options)
            for server in (depot, sink):
                with socket.create_connection(server.address, timeout=5) as s:
                    s.sendall(header.encode())
                    assert read_ack(s) is None
                settle(lambda server=server: server.errors)
                assert isinstance(server.errors[0], ValueError)
                assert "cannot stage" in str(server.errors[0])
            errors = [e.node for e in timeline.events() if e.event == "error"]
            assert sorted(errors) == ["depot", "sink"]
            # both servers keep serving
            follow_up = make_header(sink)
            send_session(b"still serving", follow_up, depot.address)
            assert sink.wait_for(follow_up.hex_id) == b"still serving"


class _HoldFirstSink(SinkServer):
    """Holds its first connection's handler before it reads or claims."""

    def __init__(self, *args, **kwargs):
        self.entered = threading.Event()
        self.release = threading.Event()
        self._gate = threading.Lock()
        self._first = True
        super().__init__(*args, **kwargs)

    def handle(self, conn):
        with self._gate:
            first, self._first = self._first, False
        if first:
            self.entered.set()
            self.release.wait(timeout=10)
        super().handle(conn)


class TestStaleConnectionFence:
    """A stale connection accepted first but claiming last (a stale
    upstream after a failover) must not supersede the live stream."""

    def test_late_claim_of_an_earlier_connection_gets_no_ack(self):
        payload = RngStream(40).generator.bytes(200_000)
        half = len(payload) // 2
        sink = _HoldFirstSink(name="sink")
        stale = live = None
        try:
            header = make_header(sink).with_options(
                (ResumeOffset(total=len(payload)),)
            )
            stale = socket.create_connection(sink.address, timeout=5)
            assert sink.entered.wait(timeout=5)  # accepted first, held
            stale.sendall(header.encode())
            live = socket.create_connection(sink.address, timeout=5)
            live.sendall(header.encode())
            assert read_ack(live) == 0
            live.sendall(payload[:half])
            settle(lambda: sink.staged_bytes(header.hex_id) >= half)
            sink.release.set()  # the stale handler now claims, too late
            assert read_ack(stale) is None
            live.sendall(payload[half:])
            live.shutdown(socket.SHUT_WR)
            assert read_ack(live) == len(payload)
            assert sink.wait_for(header.hex_id) == payload
        finally:
            sink.release.set()
            for sock in (stale, live):
                if sock is not None:
                    sock.close()
            sink.close()
        assert sink.errors == []
