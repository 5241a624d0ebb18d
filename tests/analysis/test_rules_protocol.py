"""RPR014 protocol conformance and RPR017 cross-stack parity."""

import shutil
from pathlib import Path

from repro.analysis import run_paths

FIXTURES = Path(__file__).parent / "fixtures"

#: the source-side connect/header_tx narration in
#: ``_StripeWorker._connect`` — swapped by the seeded-mutation test
ORDERED_RECORDS = '''\
            tl.record(
                "connect", node=source_name, stream=STREAM_DOWN,
                session=header.hex_id,
            )
            tl.record(
                "header_tx", node=source_name, stream=STREAM_DOWN,
                session=header.hex_id,
            )
'''

SWAPPED_RECORDS = '''\
            tl.record(
                "header_tx", node=source_name, stream=STREAM_DOWN,
                session=header.hex_id,
            )
            tl.record(
                "connect", node=source_name, stream=STREAM_DOWN,
                session=header.hex_id,
            )
'''


def test_violations_match_annotations(expect_findings):
    result = expect_findings("protocol", select=["RPR014"])
    by_line = {f.line: f for f in result.findings}
    complete = by_line[8]
    assert complete.symbol == "complete"
    assert "after 'connect'" in complete.message
    # the message names the legal successors so the fix is obvious
    assert "legal successors" in complete.message
    assert "header_tx" in complete.message


def test_failover_is_downstream_only(run_fixture):
    result = run_fixture("protocol", select=["RPR014"])
    (failover,) = [f for f in result.findings if f.symbol == "failover"]
    assert "on the up stream" in failover.message


def test_conformant_narration_is_clean(run_fixture):
    result = run_fixture("protocol", select=["RPR014"])
    assert not any("good_protocol" in f.path for f in result.findings)


def test_seeded_order_swap_in_real_transport(tmp_path):
    """Swapping connect/header_tx in the live source-side handshake is
    caught at the (now out-of-order) connect record."""
    src = (
        Path(__file__).parents[2] / "src/repro/lsl/socket_transport.py"
    )
    copy = tmp_path / "socket_transport.py"
    shutil.copy(src, copy)

    clean = run_paths([copy], select=["RPR014"])
    assert clean.findings == []

    text = copy.read_text()
    assert ORDERED_RECORDS in text
    copy.write_text(text.replace(ORDERED_RECORDS, SWAPPED_RECORDS, 1))

    result = run_paths([copy], select=["RPR014"])
    (finding,) = result.findings
    assert finding.rule == "RPR014"
    assert finding.symbol == "connect"
    assert "after 'header_tx'" in finding.message


def test_parity_findings_match_annotations(expect_findings):
    result = expect_findings("parity", select=["RPR017"])
    by_symbol = {f.symbol: f for f in result.findings}
    assert "never by the simulator (net/)" in by_symbol["failover"].message
    assert "lsl" in by_symbol["failover"].path
    assert "never by the socket transport (lsl/)" in by_symbol[
        "error"
    ].message
    assert "net" in by_symbol["error"].path


def test_parity_silent_when_one_stack_absent(fixture_root):
    """A run that only sees one stack has nothing to compare."""
    result = run_paths([fixture_root / "parity" / "lsl"], select=["RPR017"])
    assert result.findings == []
