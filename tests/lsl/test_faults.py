"""Fault injection and recovery: unit tests for the policy objects and
the full fault matrix over the real-socket LSL chain.

The matrix drives every fault kind through every hop position, once
expecting recovery and once expecting retry exhaustion, and asserts the
paper's staging corollary along the way: a failure strictly downstream
of the first depot is absorbed by depot-resume and never surfaces to the
source.
"""

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lsl.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    RetryExhausted,
    RetryPolicy,
    SessionLedger,
)
from repro.lsl.header import SessionHeader, new_session_id
from repro.lsl.options import LooseSourceRoute
from repro.lsl.socket_transport import DepotServer, SinkServer, send_session
from repro.util.rng import RngStream


# -- unit tests: RetryPolicy ---------------------------------------------------
class TestRetryPolicy:
    def test_deterministic_across_instances(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        assert a.delays() == b.delays()

    def test_seed_changes_schedule(self):
        assert RetryPolicy(seed=0).delays() != RetryPolicy(seed=1).delays()

    def test_exponential_growth_without_jitter(self):
        p = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=100.0, jitter=0.0)
        assert p.delay(0) == pytest.approx(0.1)
        assert p.delay(1) == pytest.approx(0.2)
        assert p.delay(3) == pytest.approx(0.8)

    def test_capped_at_max_delay(self):
        p = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=2.0, jitter=0.0)
        assert p.delay(5) == pytest.approx(2.0)

    def test_jitter_bounded(self):
        p = RetryPolicy(base_delay=0.1, multiplier=1.0, jitter=0.5)
        for attempt in range(8):
            d = p.delay(attempt)
            assert 0.1 <= d <= 0.1 * 1.5

    def test_delays_length_matches_budget(self):
        assert len(RetryPolicy(max_retries=3).delays()) == 3

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_exhaustion_is_a_connection_error(self):
        assert issubclass(RetryExhausted, ConnectionError)


# -- unit tests: FaultPlan / StreamWatch --------------------------------------
class TestFaultPlan:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule("x", FaultKind.DROP, after_bytes=-1)
        with pytest.raises(ValueError):
            FaultRule("x", FaultKind.DROP, times=0)

    def test_refuse_consumed_once(self):
        plan = FaultPlan([FaultRule("d1", FaultKind.REFUSE)])
        assert plan.should_refuse("d1")
        assert not plan.should_refuse("d1")
        assert plan.fired == [("d1", FaultKind.REFUSE)]

    def test_sites_are_independent(self):
        plan = FaultPlan([FaultRule("d1", FaultKind.REFUSE)])
        assert not plan.should_refuse("d2")
        assert plan.should_refuse("d1")

    def test_times_budget(self):
        plan = FaultPlan([FaultRule("d1", FaultKind.REFUSE, times=3)])
        assert [plan.should_refuse("d1") for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_corrupt_header_flips_first_byte(self):
        plan = FaultPlan([FaultRule("d1", FaultKind.CORRUPT_HEADER)])
        wire = b"\x00\x01rest"
        assert plan.corrupt_header("d1", wire) == b"\xff\x01rest"
        # consumed: second call passes through
        assert plan.corrupt_header("d1", wire) == wire

    def test_corrupt_header_no_rule_is_identity(self):
        assert FaultPlan().corrupt_header("d1", b"abc") == b"abc"

    def test_stream_watch_fires_at_threshold(self):
        plan = FaultPlan([FaultRule("d1", FaultKind.DROP, after_bytes=100)])
        watch = plan.stream_watch("d1")
        assert watch.advance(60) is None
        rule = watch.advance(60)  # cumulative 120 >= 100
        assert rule is not None and rule.kind is FaultKind.DROP

    def test_stream_watch_counts_per_connection(self):
        plan = FaultPlan([FaultRule("d1", FaultKind.DROP, after_bytes=100)])
        w1 = plan.stream_watch("d1")
        assert w1.advance(50) is None
        # a fresh connection's watch starts from zero
        w2 = plan.stream_watch("d1")
        assert w2.advance(99) is None
        assert w2.advance(1) is not None

    def test_count_filters(self):
        plan = FaultPlan(
            [
                FaultRule("d1", FaultKind.REFUSE, times=2),
                FaultRule("d2", FaultKind.REFUSE),
            ]
        )
        plan.should_refuse("d1")
        plan.should_refuse("d1")
        plan.should_refuse("d2")
        assert plan.count() == 3
        assert plan.count(site="d1") == 2
        assert plan.count(kind=FaultKind.REFUSE) == 3
        assert plan.count(site="d2", kind=FaultKind.DROP) == 0

    def test_add_chains(self):
        plan = FaultPlan().add(FaultRule("s", FaultKind.REFUSE))
        assert plan.should_refuse("s")


# -- unit tests: SessionLedger -------------------------------------------------
class TestSessionLedger:
    def test_claim_returns_ack_point(self):
        ledger = SessionLedger(total=10)
        assert ledger.claim_stripe(0, seq=1) == 0
        assert ledger.append_stripe(0, 1, b"abc")
        assert ledger.claim_stripe(0, seq=2) == 3

    def test_superseded_generation_cannot_append(self):
        ledger = SessionLedger(total=10)
        ledger.claim_stripe(0, seq=1)
        ledger.claim_stripe(0, seq=2)
        assert not ledger.append_stripe(0, 1, b"stale")
        assert ledger.append_stripe(0, 2, b"fresh")
        assert bytes(ledger.read_stripe(0, 0, 5)) == b"fresh"

    def test_complete_at_total(self):
        ledger = SessionLedger(total=4)
        ledger.claim_stripe(0, seq=1)
        assert not ledger.complete
        ledger.append_stripe(0, 1, b"abcd")
        assert ledger.complete

    def test_note_sent_counts_retransmission(self):
        ledger = SessionLedger(total=100)
        assert ledger.note_stripe_sent(0, 0, 60) == 0
        # resend of [40, 80): 20 bytes overlap the old high water
        assert ledger.note_stripe_sent(0, 40, 80) == 20
        # ... and the high water is now 80
        assert ledger.note_stripe_sent(0, 80, 90) == 0

    def test_late_claim_from_an_earlier_connection_is_fenced(self):
        """Claims order by accept sequence, not by arrival: a connection
        accepted first but claiming last cannot take over the stripe."""
        ledger = SessionLedger(total=10)
        assert ledger.claim_stripe(0, seq=5) == 0
        assert ledger.append_stripe(0, 5, b"live")
        assert ledger.claim_stripe(0, seq=3) is None
        assert not ledger.append_stripe(0, 3, b"stale")
        assert ledger.append_stripe(0, 5, b"-more")
        assert ledger.read_stripe(0, 0, 10) == b"live-more"
        # a connection accepted later still supersedes the claimant
        assert ledger.claim_stripe(0, seq=6) == 9

    def test_chunk_past_the_stripe_total_is_refused(self):
        ledger = SessionLedger(total=10)
        ledger.claim_stripe(0, seq=1)
        with pytest.raises(ValueError, match="10-byte share"):
            ledger.append_stripe(0, 1, b"x" * 11)
        assert ledger.stripe_acked(0) == 0

    def test_unallocatable_total_is_a_value_error(self):
        with pytest.raises(ValueError, match="cannot stage"):
            SessionLedger(total=2**62)

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            SessionLedger(total=-1)


# -- the socket fault matrix ---------------------------------------------------
#: fast-but-real backoff for recovery runs
POLICY = RetryPolicy(
    max_retries=3,
    base_delay=0.01,
    multiplier=2.0,
    max_delay=0.05,
    jitter=0.25,
    io_timeout=5.0,
    connect_timeout=5.0,
)
#: tight budget for exhaustion runs (keeps the cascade short)
TIGHT = RetryPolicy(
    max_retries=2,
    base_delay=0.01,
    multiplier=1.5,
    max_delay=0.02,
    jitter=0.0,
    io_timeout=2.0,
    connect_timeout=2.0,
)


class Chain:
    """source -> d1 -> d2 -> sink over localhost, one shared fault plan."""

    def __init__(self, plan=None, policy=POLICY):
        self.plan = plan
        self.policy = policy
        self.sink = SinkServer(name="sink", fault_plan=plan)
        self.d2 = DepotServer(name="d2", fault_plan=plan, retry=policy)
        self.d1 = DepotServer(name="d1", fault_plan=plan, retry=policy)

    def header(self):
        return SessionHeader(
            session_id=new_session_id(),
            src_ip="127.0.0.1",
            dst_ip="127.0.0.1",
            src_port=0,
            dst_port=self.sink.port,
            options=(LooseSourceRoute(hops=(("127.0.0.1", self.d2.port),)),),
        )

    def send(self, payload, chunk_size=16 << 10, timeout=30.0):
        header = self.header()
        report = send_session(
            payload,
            header,
            self.d1.address,
            chunk_size=chunk_size,
            retry=self.policy,
            fault_plan=self.plan,
        )
        return self.sink.wait_for(header.hex_id, timeout=timeout), report

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for server in (self.d1, self.d2, self.sink):
            server.close()
        return False


def rule_for(site, kind):
    """A single-shot rule that fires mid-payload where that makes sense."""
    if kind is FaultKind.DROP:
        return FaultRule(site, kind, after_bytes=16 << 10)
    if kind is FaultKind.STALL:
        return FaultRule(site, kind, after_bytes=8 << 10, delay=0.05)
    return FaultRule(site, kind)


#: every fault kind at every hop position where it is meaningful
#: (DROP/REFUSE/STALL act on a node's inbound stream, so ``source`` has
#: none; CORRUPT_HEADER acts on the header a node emits, so ``sink``
#: has none)
MATRIX = [
    (site, kind)
    for kind, sites in (
        (FaultKind.DROP, ("d1", "d2", "sink")),
        (FaultKind.STALL, ("d1", "d2", "sink")),
        (FaultKind.REFUSE, ("d1", "d2", "sink")),
        (FaultKind.CORRUPT_HEADER, ("source", "d1", "d2")),
    )
    for site in sites
]


def expected_attempts(site, kind):
    """How many connections the *source* should need.

    Only faults on the first sublink (source -> d1) can surface at the
    source; everything further downstream is absorbed by depot-resume.
    A stall is a delay, not a failure, so it never costs an attempt.
    """
    if kind in (FaultKind.DROP, FaultKind.REFUSE) and site == "d1":
        return 2
    if kind is FaultKind.CORRUPT_HEADER and site == "source":
        return 2
    return 1


class TestFaultMatrixRecovered:
    @pytest.mark.parametrize(
        "site,kind", MATRIX, ids=[f"{k.value}-at-{s}" for s, k in MATRIX]
    )
    def test_single_fault_recovers_byte_identical(self, site, kind):
        payload = RngStream(20, f"{site}/{kind.value}").generator.bytes(96 << 10)
        plan = FaultPlan([rule_for(site, kind)])
        with Chain(plan) as chain:
            got, report = chain.send(payload)
        assert got == payload
        assert plan.fired == [(site, kind)]
        assert report.attempts == expected_attempts(site, kind)
        assert report.retransmitted <= len(payload)
        if expected_attempts(site, kind) == 1:
            # the fault was absorbed downstream: the source resent nothing
            assert report.retransmitted == 0


class TestFaultMatrixExhausted:
    @pytest.mark.parametrize(
        "site,kind",
        [
            ("d1", FaultKind.REFUSE),
            ("d1", FaultKind.DROP),
            ("d2", FaultKind.DROP),
            ("sink", FaultKind.REFUSE),
            ("source", FaultKind.CORRUPT_HEADER),
        ],
        ids=["refuse-d1", "drop-d1", "drop-d2", "refuse-sink", "corrupt-source"],
    )
    def test_persistent_fault_exhausts_retries(self, site, kind):
        payload = RngStream(21).generator.bytes(32 << 10)
        # enough firings to outlast every nested retry budget
        plan = FaultPlan([FaultRule(site, kind, times=1000)])
        with Chain(plan, policy=TIGHT) as chain:
            with pytest.raises(RetryExhausted):
                chain.send(payload)
        assert plan.count(site=site, kind=kind) > TIGHT.max_retries

    def test_fault_free_plan_is_inert(self):
        payload = RngStream(22).generator.bytes(48 << 10)
        plan = FaultPlan()
        with Chain(plan) as chain:
            got, report = chain.send(payload)
        assert got == payload
        assert plan.fired == []
        assert report.attempts == 1
        assert report.retransmitted == 0


class TestByteIdentityProperty:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data(), size=st.integers(min_value=1, max_value=40_000))
    def test_recovered_payload_byte_identical(self, data, size):
        """Any payload, any drop point: the sink stores the exact bytes."""
        drop_at = data.draw(st.integers(min_value=0, max_value=size))
        payload = RngStream(23, f"prop{size}").generator.bytes(size)
        plan = FaultPlan([FaultRule("d1", FaultKind.DROP, after_bytes=drop_at)])
        with Chain(plan) as chain:
            got, report = chain.send(payload, chunk_size=8 << 10)
        assert got == payload
        assert report.attempts <= POLICY.max_retries + 1


class TestSeedPinnedOutcomes:
    def _run_matrix(self):
        """One sweep of the recovery matrix, reduced to its outcomes."""
        outcomes = []
        for site, kind in MATRIX:
            payload = RngStream(24, site + kind.value).generator.bytes(48 << 10)
            plan = FaultPlan([rule_for(site, kind)])
            with Chain(plan) as chain:
                got, report = chain.send(payload)
            outcomes.append(
                (site, kind.value, got == payload, report.attempts, plan.fired)
            )
        return outcomes

    def test_fault_matrix_outcomes_are_reproducible(self):
        """The flake check: two sweeps, identical outcome tuples."""
        assert self._run_matrix() == self._run_matrix()


@pytest.mark.faults
class TestFaultStress:
    """Opt-in stress battery (``pytest -m faults``)."""

    def test_concurrent_faulted_sessions(self):
        sessions = 6
        plan = FaultPlan(
            [
                FaultRule("d2", FaultKind.DROP, after_bytes=64 << 10, times=3),
                FaultRule("sink", FaultKind.REFUSE, times=2),
                FaultRule("d1", FaultKind.STALL, delay=0.02, times=2),
            ]
        )
        payloads = [
            RngStream(25, f"stress{i}").generator.bytes(512 << 10)
            for i in range(sessions)
        ]
        results: dict[int, bytes] = {}
        errors: list[BaseException] = []
        with Chain(plan) as chain:
            headers = [chain.header() for _ in range(sessions)]

            def run(i):
                try:
                    send_session(
                        payloads[i],
                        headers[i],
                        chain.d1.address,
                        chunk_size=32 << 10,
                        retry=POLICY,
                        fault_plan=plan,
                    )
                    results[i] = chain.sink.wait_for(
                        headers[i].hex_id, timeout=60
                    )
                except BaseException as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(sessions)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        assert not errors
        for i in range(sessions):
            assert results[i] == payloads[i]

    def test_repeated_drops_on_every_sublink(self):
        payload = RngStream(26).generator.bytes(1 << 20)
        plan = FaultPlan(
            [
                FaultRule("d1", FaultKind.DROP, after_bytes=128 << 10),
                FaultRule("d2", FaultKind.DROP, after_bytes=256 << 10),
                FaultRule("sink", FaultKind.DROP, after_bytes=384 << 10),
            ]
        )
        with Chain(plan) as chain:
            got, report = chain.send(payload, chunk_size=32 << 10)
        assert got == payload
        assert plan.count() == 3
        # the only source-visible failure is the d1 drop
        assert report.attempts == 2
