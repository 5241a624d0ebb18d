"""Transport observability: guards, counters, timelines — and the
end-to-end schema equivalence between the socket stack and the fluid
simulator that ``docs/OBSERVABILITY.md`` promises."""

import socket
import time

import pytest

from repro.lsl.faults import RetryPolicy
from repro.lsl.header import SessionHeader, new_session_id
from repro.lsl.options import LooseSourceRoute
from repro.lsl.socket_transport import (
    DepotServer,
    SinkServer,
    TruncatedStream,
    send_session,
)
from repro.net.simulator import NetworkSimulator, default_node_names
from repro.net.topology import PathSpec
from repro.obs.registry import Registry
from repro.obs.timeline import STREAM_DOWN, STREAM_UP, SessionTimeline
from repro.util.rng import RngStream
from repro.util.validation import ValidationError

#: The per-stream schema both stacks must emit for a fault-free session
#: with a known total (three quarter watermarks between first and last
#: byte).
SENDER_SEQUENCE = ("connect", "header_tx", "complete")
RECEIVER_SEQUENCE = (
    "header_rx", "first_byte", "progress", "progress", "progress", "eof",
)


def make_header(sink, hops=()):
    return SessionHeader(
        session_id=new_session_id(),
        src_ip="127.0.0.1",
        dst_ip="127.0.0.1",
        src_port=0,
        dst_port=sink.port,
        options=(LooseSourceRoute(hops=tuple(hops)),) if hops else (),
    )


class TestConstructionGuards:
    @pytest.mark.parametrize("bad", [0, -1, 0.5, "big", None, True])
    def test_depot_rejects_non_positive_buffer_size(self, bad):
        # buffer_size bounded only the removed fire-and-forget pump: the
        # option is gone, so every value is refused, never ignored
        with pytest.raises(TypeError, match="buffer_size"):
            DepotServer(buffer_size=bad)

    @pytest.mark.parametrize("bad", [0, -4, 0.5, True])
    def test_send_session_rejects_bad_chunk_size(self, bad):
        header = SessionHeader(
            session_id=new_session_id(),
            src_ip="127.0.0.1",
            dst_ip="127.0.0.1",
            src_port=0,
            dst_port=9,
        )
        # validation fires before any connection attempt
        with pytest.raises(ValidationError, match="chunk_size"):
            send_session(b"x", header, ("127.0.0.1", 9), chunk_size=bad)


class TestDepotSnapshot:
    def test_snapshot_is_the_locked_view_of_the_counters(self):
        payload = RngStream(21).generator.bytes(100_000)
        with SinkServer() as sink, DepotServer() as depot:
            header = make_header(sink)
            send_session(payload, header, depot.address)
            sink.wait_for(header.hex_id)
            stats = depot.snapshot()
        assert stats == {
            "sessions_forwarded": 1,
            "bytes_forwarded": len(payload),
            "retransmitted_bytes": 0,
            "sessions_resumed": 0,
        }

    def test_fill_registry_publishes_labelled_gauges(self):
        with SinkServer() as sink, DepotServer(name="depot0") as depot:
            header = make_header(sink)
            send_session(b"counted", header, depot.address)
            sink.wait_for(header.hex_id)
            registry = depot.fill_registry(Registry())
        samples = {
            s["name"]: s for s in registry.series()
        }
        assert samples["lsl_depot_bytes_forwarded"]["value"] == len(b"counted")
        assert samples["lsl_depot_sessions_forwarded"]["value"] == 1
        for sample in samples.values():
            assert sample["labels"] == {"node": "depot0"}
            assert sample["type"] == "gauge"


class TestCleanEofVersusTruncation:
    def _settle(self, server, predicate, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and not predicate():
            time.sleep(0.01)

    def test_probe_connection_is_not_an_error(self):
        registry, timeline = Registry(), SessionTimeline()
        depot = DepotServer(registry=registry, timeline=timeline)
        try:
            with socket.create_connection(depot.address, timeout=5):
                pass  # connect and close without a single header byte
            time.sleep(0.1)
        finally:
            depot.close()
        assert depot.errors == []
        assert timeline.events() == []
        assert len(registry) == 0

    def test_header_cut_mid_unit_is_an_error(self):
        registry, timeline = Registry(), SessionTimeline()
        depot = DepotServer(registry=registry, timeline=timeline)
        try:
            with socket.create_connection(depot.address, timeout=5) as sock:
                sock.sendall(b"\x01\x02\x03")  # three bytes of header, then EOF
            self._settle(depot, lambda: depot.errors)
        finally:
            depot.close()
        assert len(depot.errors) == 1
        assert isinstance(depot.errors[0], TruncatedStream)
        events = [e.event for e in timeline.events()]
        assert events == ["error"]
        errors = registry.counter(
            "lsl_handler_errors_total", labels={"node": depot.name}
        )
        assert errors.value == 1


class TestTransportTimeline:
    def test_direct_default_send_sequences(self):
        registry, timeline = Registry(), SessionTimeline()
        with SinkServer(name="sink", registry=registry,
                        timeline=timeline) as sink:
            header = make_header(sink)
            report = send_session(
                b"plain payload", header, sink.address,
                registry=registry, timeline=timeline,
            )
            sink.wait_for(header.hex_id)
        # a send without a retry policy still runs the resume protocol:
        # the total is on the wire, so the watermarks are too
        assert report.attempts == 1
        assert timeline.sequences(header.hex_id) == {
            ("source", STREAM_DOWN): SENDER_SEQUENCE,
            ("sink", STREAM_UP): RECEIVER_SEQUENCE,
        }

    def test_resumable_send_emits_watermarks(self):
        payload = RngStream(22).generator.bytes(300_000)
        registry, timeline = Registry(), SessionTimeline()
        with SinkServer(name="sink", registry=registry,
                        timeline=timeline) as sink:
            header = make_header(sink)
            report = send_session(
                payload, header, sink.address, retry=RetryPolicy(),
                registry=registry, timeline=timeline,
            )
            assert sink.wait_for(header.hex_id) == payload
        assert report.attempts == 1
        assert timeline.sequences(header.hex_id) == {
            ("source", STREAM_DOWN): SENDER_SEQUENCE,
            ("sink", STREAM_UP): RECEIVER_SEQUENCE,
        }
        tx = registry.counter(
            "lsl_tx_bytes_total", labels={"node": "source"}
        )
        rx = registry.counter(
            "lsl_rx_bytes_total", labels={"node": "sink"}
        )
        assert tx.value == len(payload)
        assert rx.value == len(payload)


class TestSchemaEquivalence:
    """The tentpole contract: one 2-depot relay, two stacks, one schema."""

    NODES = ("source", "depot0", "depot1", "sink")

    def expected(self):
        out = {}
        for sender, receiver in zip(self.NODES, self.NODES[1:]):
            out[(sender, STREAM_DOWN)] = SENDER_SEQUENCE
            out[(receiver, STREAM_UP)] = RECEIVER_SEQUENCE
        return out

    def real_sequences(self, size):
        payload = RngStream(23).generator.bytes(size)
        timeline = SessionTimeline()
        with SinkServer(name="sink", timeline=timeline) as sink, \
                DepotServer(name="depot0", timeline=timeline) as d0, \
                DepotServer(name="depot1", timeline=timeline) as d1:
            header = make_header(sink, hops=[("127.0.0.1", d1.port)])
            send_session(
                payload, header, d0.address, retry=RetryPolicy(),
                timeline=timeline,
            )
            assert sink.wait_for(header.hex_id) == payload
        return timeline.sequences(header.hex_id)

    def simulated_sequences(self, size):
        timeline = SessionTimeline()
        paths = [
            PathSpec.from_mbit(20, 100, name=f"sublink{i}") for i in range(3)
        ]
        NetworkSimulator(seed=5).run_relay(
            paths, size, timeline=timeline, session="sim",
            node_names=default_node_names(3),
        )
        return timeline.sequences("sim")

    def test_simulator_and_sockets_emit_identical_streams(self):
        size = 400_000
        real = self.real_sequences(size)
        simulated = self.simulated_sequences(size)
        assert real == self.expected()
        assert simulated == self.expected()
        assert real == simulated

    def test_default_node_names_shape(self):
        assert default_node_names(1) == ["source", "sink"]
        assert default_node_names(3) == [
            "source", "depot0", "depot1", "sink",
        ]
        with pytest.raises(ValueError):
            default_node_names(0)
