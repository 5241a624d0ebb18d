"""End-to-end CLI smoke: --metrics exports plus the stats renderer.

This is the loopback scenario the CI workflow runs: a real 2-depot
relay driven through ``repro send --metrics``, the export
validated against the schema, then re-rendered by ``repro stats`` in
all three formats.
"""

import json

import pytest

from repro.cli.main import main
from repro.lsl.socket_transport import DepotServer, SinkServer
from repro.obs.export import validate_export
from repro.util.rng import RngStream


@pytest.fixture
def relay_chain():
    with SinkServer() as sink, DepotServer() as d0, DepotServer() as d1:
        yield sink, d0, d1


@pytest.fixture
def sent_export(tmp_path, relay_chain, capsys):
    sink, d0, d1 = relay_chain
    payload = RngStream(31).generator.bytes(300_000)
    payload_file = tmp_path / "payload.bin"
    payload_file.write_bytes(payload)
    export_file = tmp_path / "metrics.json"
    rc = main([
        "send", str(payload_file),
        "--to", f"127.0.0.1:{sink.port}",
        "--via", f"127.0.0.1:{d0.port},127.0.0.1:{d1.port}",
        "--metrics", str(export_file),
    ])
    assert rc == 0
    # main() returns only after the final acknowledgement
    assert list(sink.payloads.values()) == [payload]
    out = capsys.readouterr().out
    assert "resume protocol: 1 attempt(s)" in out
    assert f"metrics written to {export_file}" in out
    return export_file


def test_send_writes_a_valid_export(sent_export):
    doc = json.loads(sent_export.read_text())
    validate_export(doc)
    names = {m["name"] for m in doc["metrics"]}
    assert "lsl_tx_bytes_total" in names
    assert "lsl_session_seconds" in names
    tx = [m for m in doc["metrics"] if m["name"] == "lsl_tx_bytes_total"]
    assert tx[0]["labels"] == {"node": "source"}
    assert tx[0]["value"] == 300_000
    # the sender's own per-stream schema is in the timeline
    events = [e["event"] for e in doc["timeline"]]
    assert events == ["connect", "header_tx", "complete"]


def test_stats_renders_text_prom_and_json(sent_export, capsys):
    assert main(["stats", str(sent_export)]) == 0
    text = capsys.readouterr().out
    assert "lsl_tx_bytes_total" in text
    assert "timeline: 3 event(s)" in text
    assert "source/down: connect -> header_tx -> complete" in text

    assert main(["stats", str(sent_export), "--format", "prom"]) == 0
    prom = capsys.readouterr().out
    assert "# TYPE lsl_tx_bytes_total counter" in prom
    assert 'lsl_tx_bytes_total{node="source"} 300000' in prom
    assert 'lsl_session_seconds_bucket{le="+Inf",node="source"} 1' in prom

    assert main(["stats", str(sent_export), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    validate_export(doc)


def test_stats_rejects_bad_repeat_options(sent_export, capsys):
    assert main(["stats", str(sent_export), "--count", "0"]) != 0
    assert "--count" in capsys.readouterr().err
    rc = main(["stats", str(sent_export), "--count", "2", "--interval", "0"])
    assert rc != 0
    assert "--interval" in capsys.readouterr().err


def test_simulate_metrics_export(tmp_path, capsys):
    export_file = tmp_path / "sim.json"
    rc = main([
        "simulate", "--size-mb", "1",
        "--direct", "87:400",
        "--via", "68:400", "--via", "34:400",
        "--metrics", str(export_file),
    ])
    assert rc == 0
    doc = json.loads(export_file.read_text())
    validate_export(doc)
    names = {m["name"] for m in doc["metrics"]}
    assert "sim_sublink_bytes_total" in names
    assert "sim_transfer_seconds" in names
    # both runs share one timeline, keyed by session
    sessions = {e["session"] for e in doc["timeline"]}
    assert sessions == {"direct", "relay"}
    runs = {m["labels"].get("run") for m in doc["metrics"]}
    assert runs == {"direct", "relay"}
