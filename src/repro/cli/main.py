"""The ``repro`` command-line entry point.

Each subcommand is a thin shell over the library; all real logic lives
in importable modules so the CLI stays testable (every command is a
function taking parsed args and returning an exit code, printing to
stdout).
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import commands


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Network logistics for Grid applications: minimax scheduling "
            "and the Logistical Session Layer (reproduction of Swany, "
            "SC 2004)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "schedule", help="compute minimax routes from a performance matrix"
    )
    p.add_argument("matrix", help="matrix file: lines of 'src dst bytes/sec'")
    p.add_argument("--source", required=True, help="route tree root host")
    p.add_argument("--dest", help="print only the route to this host")
    p.add_argument(
        "--epsilon",
        type=float,
        default=0.1,
        help="edge-equivalence fraction (default: the paper's 0.1)",
    )
    p.add_argument(
        "--table",
        action="store_true",
        help="emit the depot route table instead of full paths",
    )
    p.add_argument(
        "--avoid",
        action="append",
        default=[],
        metavar="HOST",
        help=(
            "exclude a failed depot and reroute around it (repeatable)"
        ),
    )
    p.set_defaults(func=commands.cmd_schedule)

    p = sub.add_parser(
        "simulate", help="simulate a transfer on the fluid TCP model"
    )
    p.add_argument("--size-mb", type=float, required=True)
    p.add_argument(
        "--direct",
        required=True,
        metavar="RTT_MS:MBIT[:LOSS]",
        help="direct path spec",
    )
    p.add_argument(
        "--via",
        action="append",
        default=[],
        metavar="RTT_MS:MBIT[:LOSS]",
        help="relay sublink spec (repeat per hop; two hops = one depot)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--fail-sublink",
        type=int,
        default=None,
        metavar="INDEX",
        help=(
            "inject a connection failure into this relay sublink "
            "(0-based; the direct path always fails at sublink 0) and "
            "report recovery bytes and added time"
        ),
    )
    p.add_argument(
        "--fail-after-mb",
        type=float,
        default=0.0,
        metavar="MB",
        help="delivered megabytes before the injected failure trips",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=4,
        help="retry budget per sublink for fault-scenario runs",
    )
    p.add_argument(
        "--no-resume",
        action="store_true",
        help=(
            "disable depot-resume for the relayed fault run "
            "(models plain TCP restart)"
        ),
    )
    p.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help=(
            "write an observability export (JSON, schema in "
            "docs/OBSERVABILITY.md) with per-sublink series and the "
            "session timeline"
        ),
    )
    p.set_defaults(func=commands.cmd_simulate)

    p = sub.add_parser("depot", help="run a real-socket LSL depot")
    p.add_argument("--port", type=int, default=0)
    p.add_argument(
        "--route",
        action="append",
        default=[],
        metavar="DST_IP=NEXT_IP:PORT",
        help="route-table entry (repeatable)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="exit after the first forwarded session (for scripting)",
    )
    p.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help=(
            "write an observability export (JSON) with the depot's "
            "registry and timeline on exit"
        ),
    )
    p.set_defaults(func=commands.cmd_depot)

    p = sub.add_parser("send", help="send a file through LSL depots")
    p.add_argument("file", help="payload file path")
    p.add_argument("--to", required=True, metavar="IP:PORT", help="sink")
    p.add_argument(
        "--via",
        default="",
        metavar="IP:PORT[,IP:PORT...]",
        help="comma-separated depot chain",
    )
    p.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help=(
            "write an observability export (JSON) with the source-side "
            "series and session timeline"
        ),
    )
    p.set_defaults(func=commands.cmd_send)

    p = sub.add_parser(
        "stats",
        help="render an observability export (see docs/OBSERVABILITY.md)",
    )
    p.add_argument(
        "file",
        help="export file written by --metrics or repro.obs.write_export",
    )
    p.add_argument(
        "--format",
        choices=("text", "prom", "json"),
        default="text",
        help="text summary, Prometheus exposition text, or raw JSON",
    )
    p.add_argument(
        "--count",
        type=int,
        default=1,
        metavar="N",
        help="re-read and re-render N times (watch a live file)",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SEC",
        help="seconds between re-reads when --count > 1",
    )
    p.set_defaults(func=commands.cmd_stats)

    p = sub.add_parser(
        "forecast",
        help="run the NWS forecaster battery over a measurement series",
    )
    p.add_argument(
        "series",
        help="file with one measurement per line (bandwidth in bytes/sec)",
    )
    p.add_argument(
        "--top", type=int, default=5, help="show the N best forecasters"
    )
    p.set_defaults(func=commands.cmd_forecast)

    p = sub.add_parser(
        "validate", help="check a set of route-table files for loops"
    )
    p.add_argument(
        "tables",
        nargs="+",
        help="route-table files (the 'repro schedule --table' format)",
    )
    p.add_argument(
        "--max-stretch",
        type=int,
        default=6,
        help="flag successful routes longer than this many hops",
    )
    p.set_defaults(func=commands.cmd_validate)

    p = sub.add_parser(
        "pickup", help="fetch an asynchronously parked session from a depot"
    )
    p.add_argument("--depot", required=True, metavar="IP:PORT")
    p.add_argument(
        "--session", required=True, help="hex 128-bit session identifier"
    )
    p.add_argument("--out", required=True, help="file to write the payload to")
    p.set_defaults(func=commands.cmd_pickup)

    p = sub.add_parser(
        "lint",
        help="run the project static checker (wire format, locks, units)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=[],
        help="files or directories to check (default: src/ if present)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (JSON schema documented in docs/ANALYSIS.md)",
    )
    p.add_argument(
        "--select",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    p.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "ratchet baseline file; defaults to .rpr-baseline.json "
            "when it exists"
        ),
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        help="accept the current findings into the baseline file and exit",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    p.set_defaults(func=commands.cmd_lint)

    p = sub.add_parser(
        "chaos",
        help=(
            "soak the LSL stacks with randomized fault schedules and "
            "check integrity invariants"
        ),
    )
    p.add_argument(
        "--episodes",
        type=int,
        default=5,
        help="episodes per stack (default 5)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--stack",
        choices=("socket", "simulator", "both"),
        default="both",
        help="which stack(s) to soak",
    )
    p.add_argument(
        "--depots",
        type=int,
        default=2,
        help="relay chain length (intermediate depots)",
    )
    p.add_argument(
        "--max-size-kb",
        type=int,
        default=1024,
        metavar="KB",
        help="largest episode payload",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=4,
        help="per-sublink retry budget",
    )
    p.add_argument(
        "--topology",
        choices=("relay", "multicast"),
        default="relay",
        help=(
            "soak linear relay chains (default) or randomized multicast "
            "staging trees with mid-staging depot kills and striping"
        ),
    )
    p.add_argument(
        "--tree-nodes",
        type=int,
        default=4,
        help="nodes per randomized multicast tree (root included)",
    )
    p.set_defaults(func=commands.cmd_chaos)

    p = sub.add_parser(
        "bench",
        help=(
            "run the fixed performance suite and write a "
            "BENCH_<timestamp>.json document (see docs/BENCHMARKS.md)"
        ),
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="shrunken workloads (seconds, for CI and quick checks)",
    )
    p.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="WORKLOAD",
        help="run one workload group (repeatable): minimax, simulator, "
        "transport, chaos, multicast, lint",
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="result path (default: BENCH_<timestamp>.json in cwd)",
    )
    p.add_argument(
        "--compare",
        nargs=2,
        default=None,
        metavar=("BASELINE", "CURRENT"),
        help=(
            "diff two result documents instead of benchmarking; exits 1 "
            "when a metric regressed past the threshold"
        ),
    )
    p.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "after running, compare against this document and exit 1 on "
            "regression (the CI mode)"
        ),
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="fractional regression threshold for comparisons "
        "(default 0.10)",
    )
    p.add_argument(
        "--kind",
        action="append",
        default=[],
        choices=("latency", "throughput", "ratio", "wall"),
        help="restrict --compare to these metric kinds (repeatable)",
    )
    p.set_defaults(func=commands.cmd_bench)

    p = sub.add_parser(
        "campaign", help="run a synthetic measurement campaign"
    )
    p.add_argument(
        "--testbed", choices=("planetlab", "abilene"), default="planetlab"
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--campaign-seed", type=int, default=2)
    p.add_argument("--max-cases", type=int, default=60)
    p.add_argument("--iterations", type=int, default=2)
    p.set_defaults(func=commands.cmd_campaign)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
