"""Property tests for SessionLedger: generations and ack accounting.

The ledger arbitrates between a stalled old connection handler and the
reconnect that superseded it.  Whatever the interleaving of claims and
appends, only the newest claimant may extend the staged bytes, every
byte is counted as fresh exactly once, and ``read_stripe()`` returns
exactly what was accepted.  Claimants are numbered by accept sequence, so each
claim below uses the next sequence number.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsl.faults import SessionLedger

# an op is ("claim",) or ("append", use_stale_generation, payload)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("claim")),
        st.tuples(
            st.just("append"),
            st.booleans(),
            st.binary(min_size=1, max_size=64),
        ),
    ),
    max_size=60,
)


@given(_OPS)
@settings(max_examples=200)
def test_interleaved_generations_roundtrip(ops):
    """Stale appenders are refused; reads round-trip accepted bytes."""
    ledger = SessionLedger(total=1 << 20)
    generation = 1
    assert ledger.claim_stripe(0, generation) == 0
    stale = generation
    expected = bytearray()
    for op in ops:
        if op[0] == "claim":
            stale = generation
            generation += 1
            assert ledger.claim_stripe(0, generation) == len(expected)
        else:
            _, use_stale, payload = op
            gen = stale if use_stale else generation
            accepted = ledger.append_stripe(0, gen, payload)
            if gen == generation:
                assert accepted
                expected += payload
            else:
                assert not accepted
            assert ledger.stripe_acked(0) == len(expected)
    assert ledger.read_stripe(0, 0, ledger.total) == bytes(expected)
    assert ledger.complete == (len(expected) >= ledger.total)


@given(
    st.lists(
        st.tuples(
            # how far back from the high-water mark the send restarts
            st.integers(min_value=0, max_value=256),
            st.integers(min_value=1, max_value=256),  # send length
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=200)
def test_no_byte_counted_fresh_twice(sends):
    """Across overlapping sends, fresh + retransmitted bytes balance:
    every byte below the final high-water mark was counted as fresh
    exactly once, no matter how the ranges overlapped."""
    ledger = SessionLedger(total=1 << 20)
    fresh = 0
    high = 0
    for back, length in sends:
        start = max(0, high - back)
        end = start + length
        retransmitted = ledger.note_stripe_sent(0, start, end)
        assert 0 <= retransmitted <= end - start
        fresh += (end - start) - retransmitted
        high = max(high, end)
    assert fresh == high
