"""Implementations of the ``repro`` subcommands."""

from __future__ import annotations

import time

from repro.cli.matrixio import load_matrix
from repro.core.scheduler import LogisticalScheduler
from repro.lsl.routetable import RouteTable
from repro.net.simulator import NetworkSimulator
from repro.net.topology import PathSpec
from repro.report.tables import TextTable
from repro.testbed.abilene import abilene_testbed
from repro.testbed.experiment import CampaignConfig, run_campaign
from repro.testbed.planetlab import generate_planetlab
from repro.testbed.stats import (
    box_stats,
    group_cases,
    overall_speedup,
    percentile_of_unity,
    speedup_by_size,
)
from repro.util.units import format_rate, mb


def parse_path_spec(text: str, name: str = "") -> PathSpec:
    """Parse ``RTT_MS:MBIT[:LOSS]`` into a :class:`PathSpec`."""
    fields = text.split(":")
    if len(fields) not in (2, 3):
        raise ValueError(
            f"path spec {text!r}: expected RTT_MS:MBIT[:LOSS]"
        )
    rtt_ms = float(fields[0])
    mbit = float(fields[1])
    loss = float(fields[2]) if len(fields) == 3 else 0.0
    return PathSpec.from_mbit(rtt_ms, mbit, loss_rate=loss, name=name or text)


def parse_endpoint(text: str) -> tuple[str, int]:
    """Parse ``IP:PORT``."""
    host, _, port = text.rpartition(":")
    if not host:
        raise ValueError(f"endpoint {text!r}: expected IP:PORT")
    return host, int(port)


# -- schedule -----------------------------------------------------------------
def cmd_schedule(args) -> int:
    """Compute minimax routes or a route table from a matrix file."""
    matrix = load_matrix(args.matrix)
    scheduler = LogisticalScheduler(matrix, epsilon=args.epsilon)
    if args.source not in matrix:
        raise KeyError(f"source {args.source!r} not in matrix")
    avoid = set(getattr(args, "avoid", None) or ())
    unknown = avoid - set(matrix.hosts)
    if unknown:
        raise KeyError(f"avoided host(s) not in matrix: {sorted(unknown)}")

    if args.table:
        if avoid:
            raise ValueError("--avoid applies to route listings, not --table")
        table = RouteTable.from_scheduler(scheduler, args.source)
        print(table.to_text(), end="")
        return 0

    dests = (
        [args.dest]
        if args.dest
        else [h for h in matrix.hosts if h != args.source and h not in avoid]
    )
    out = TextTable(["destination", "route", "predicted gain"])
    for dest in dests:
        decision = (
            scheduler.reroute(args.source, dest, avoid)
            if avoid
            else scheduler.decide(args.source, dest)
        )
        out.add_row(
            [dest, " -> ".join(decision.route), decision.predicted_gain]
        )
    print(out.render())
    return 0


# -- simulate --------------------------------------------------------------------
def cmd_simulate(args) -> int:
    """Simulate direct (and optionally relayed) transfers."""
    size = mb(args.size_mb)
    sim = NetworkSimulator(seed=args.seed)
    direct = parse_path_spec(args.direct, "direct")
    relay = [
        parse_path_spec(spec, f"hop{i}") for i, spec in enumerate(args.via)
    ]
    if args.via and len(relay) < 2:
        raise ValueError("--via must be given at least twice (two hops)")
    if getattr(args, "fail_sublink", None) is not None:
        return _simulate_with_fault(args, sim, direct, relay, size)
    metrics_path = getattr(args, "metrics", None)
    registry = timeline = None
    if metrics_path is not None:
        from repro.obs import Registry, SessionTimeline

        registry, timeline = Registry(), SessionTimeline()
    # sublink throughput series need the traces, so --metrics records them
    d = sim.run_direct(
        direct,
        size,
        record_trace=metrics_path is not None,
        timeline=timeline,
        session="direct",
    )
    print(
        f"direct : {d.duration:8.2f} s   {format_rate(d.bandwidth)}   "
        f"(losses: {d.loss_events})"
    )
    r = None
    if relay:
        r = sim.run_relay(
            relay,
            size,
            record_trace=metrics_path is not None,
            timeline=timeline,
            session="relay",
        )
        print(
            f"relayed: {r.duration:8.2f} s   {format_rate(r.bandwidth)}   "
            f"(losses: {r.loss_events})"
        )
        print(f"speedup: {r.bandwidth / d.bandwidth:.2f}x")
    if metrics_path is not None:
        from repro.obs import transfer_result_metrics, write_export

        transfer_result_metrics(d, registry, run="direct")
        if r is not None:
            transfer_result_metrics(r, registry, run="relay")
        write_export(metrics_path, registry=registry, timeline=timeline)
        print(f"metrics written to {metrics_path}")
    return 0


def _simulate_with_fault(args, sim, direct, relay, size) -> int:
    """A fault-scenario run: kill one sublink, report the recovery bill."""
    from repro.lsl.faults import RetryPolicy
    from repro.net.simulator import SublinkFault

    after = mb(args.fail_after_mb)
    policy = RetryPolicy(max_retries=args.retries, seed=args.seed)
    resume = not args.no_resume

    def describe(label, result):
        state = "completed" if result.completed else "gave up"
        print(
            f"{label}: {state} in {result.duration:8.2f} s   "
            f"retransmitted {result.retransmitted_bytes / (1 << 20):.2f} MB   "
            f"recovery +{result.recovery_seconds:.2f} s   "
            f"retries {result.retries}"
        )

    dfr = sim.run_relay_with_faults(
        [direct], size, [SublinkFault(0, after)], retry=policy, resume=False
    )
    describe("direct (full restart)", dfr)
    if relay:
        if not (0 <= args.fail_sublink < len(relay)):
            raise ValueError(
                f"--fail-sublink {args.fail_sublink} outside the "
                f"{len(relay)}-sublink relay"
            )
        rfr = sim.run_relay_with_faults(
            relay,
            size,
            [SublinkFault(args.fail_sublink, after)],
            retry=policy,
            resume=resume,
        )
        describe(
            "relayed (depot-resume)" if resume else "relayed", rfr
        )
        if rfr.retransmitted_bytes > 0:
            saved = dfr.retransmitted_bytes / rfr.retransmitted_bytes
            print(f"recovery bytes saved by staging: {saved:.1f}x")
    return 0


# -- depot ----------------------------------------------------------------------
def cmd_depot(args) -> int:
    """Run a real-socket LSL depot until interrupted or terminated."""
    import signal

    from repro.lsl.socket_transport import DepotServer

    metrics_path = getattr(args, "metrics", None)
    registry = timeline = None
    if metrics_path is not None:
        from repro.obs import Registry, SessionTimeline

        registry, timeline = Registry(), SessionTimeline()
    route_table = {}
    for entry in args.route:
        dst, _, hop = entry.partition("=")
        if not hop:
            raise ValueError(f"--route {entry!r}: expected DST=IP:PORT")
        route_table[dst] = hop
    server = DepotServer(
        port=args.port,
        route_table=route_table,
        registry=registry,
        timeline=timeline,
    )

    def _terminate(signum, frame):
        # unwind through the poll loop so the shutdown path below runs
        # (close the listener, flush --metrics) instead of dying mid-write
        raise KeyboardInterrupt

    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:
        # only the main thread may set handlers; in-process test drivers
        # run the poll loop elsewhere and stop it via --once
        previous_sigterm = None
    try:
        # the banner sits inside the guarded block: a SIGTERM racing the
        # startup print must still unwind into the flush path below
        print(f"depot listening on {server.host}:{server.port}", flush=True)
        while True:
            time.sleep(0.05)
            # the counters are only coherent under the server's stats
            # lock, so every poll goes through the locked snapshot
            if args.once and server.snapshot()["sessions_forwarded"] >= 1:
                break
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
        # flush metrics inside the shutdown path: a SIGTERM'd depot must
        # still leave its export behind
        if metrics_path is not None:
            from repro.obs import write_export

            server.fill_registry()
            write_export(metrics_path, registry=registry, timeline=timeline)
            print(f"metrics written to {metrics_path}", flush=True)
    stats = server.snapshot()
    print(
        f"forwarded {stats['sessions_forwarded']} session(s), "
        f"{stats['bytes_forwarded']} bytes"
    )
    return 0


# -- send ------------------------------------------------------------------------
def cmd_send(args) -> int:
    """Send a file through LSL depots to a sink."""
    from repro.lsl.header import SessionHeader, new_session_id
    from repro.lsl.options import LooseSourceRoute
    from repro.lsl.socket_transport import send_session

    metrics_path = getattr(args, "metrics", None)
    registry = timeline = None
    if metrics_path is not None:
        from repro.obs import Registry, SessionTimeline

        registry, timeline = Registry(), SessionTimeline()
    with open(args.file, "rb") as fh:
        payload = fh.read()
    sink = parse_endpoint(args.to)
    hops = [parse_endpoint(h) for h in args.via.split(",") if h]
    options = ()
    if len(hops) > 1:
        options = (LooseSourceRoute(hops=tuple(hops[1:])),)
    header = SessionHeader(
        session_id=new_session_id(),
        src_ip="127.0.0.1",
        dst_ip=sink[0],
        src_port=0,
        dst_port=sink[1],
        options=options,
    )
    first_hop = hops[0] if hops else sink
    report = send_session(
        payload,
        header,
        first_hop,
        registry=registry,
        timeline=timeline,
    )
    print(
        f"sent {len(payload)} bytes as session {header.hex_id} via "
        f"{len(hops)} depot(s)"
    )
    print(
        f"resume protocol: {report.attempts} attempt(s), "
        f"{report.retransmitted} byte(s) retransmitted"
    )
    if metrics_path is not None:
        from repro.obs import write_export

        write_export(metrics_path, registry=registry, timeline=timeline)
        print(f"metrics written to {metrics_path}")
    return 0


# -- forecast --------------------------------------------------------------------
def cmd_forecast(args) -> int:
    """Race the NWS forecaster battery over a measurement file."""
    from repro.nws.selector import AdaptiveSelector

    values = []
    with open(args.series, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(
                    f"line {lineno}: {line!r} is not a number"
                ) from None
    if len(values) < 2:
        raise ValueError("need at least two measurements")

    selector = AdaptiveSelector()
    selector.extend(values)
    report = selector.forecast()
    print(
        f"{len(values)} measurements; forecast {format_rate(report.value)} "
        f"by {report.forecaster!r} "
        f"(relative error {selector.prediction_error():.1%})"
    )
    table = TextTable(["forecaster", "mse"])
    ranked = sorted(selector.error_table().items(), key=lambda kv: kv[1])
    for name, mse in ranked[: args.top]:
        table.add_row([name, f"{mse:.4g}"])
    print(table.render())
    return 0


# -- validate --------------------------------------------------------------------
def cmd_validate(args) -> int:
    """Check route-table files for loops, dead ends and stretch."""
    from repro.core.validate import validate_route_tables

    tables = {}
    for path in args.tables:
        with open(path, "r", encoding="utf-8") as fh:
            table = RouteTable.from_text(fh.read())
        tables[table.owner] = table
    report = validate_route_tables(tables, max_stretch=args.max_stretch)
    print(
        f"checked {report.pairs_checked} pairs across {len(tables)} tables; "
        f"longest route {report.max_hops_seen} hops"
    )
    if report.ok:
        print("OK: no loops, dead ends or over-stretched routes")
        return 0
    for violation in report.violations:
        print(
            f"{violation.kind}: {violation.source} -> {violation.dest}: "
            f"{violation.detail}"
        )
    return 1


# -- pickup -----------------------------------------------------------------------
def cmd_pickup(args) -> int:
    """Fetch an asynchronously parked session from a depot."""
    from repro.lsl.socket_transport import fetch_pickup

    session_id = bytes.fromhex(args.session)
    if len(session_id) != 16:
        raise ValueError("session id must be 32 hex digits (128 bits)")
    payload = fetch_pickup(parse_endpoint(args.depot), session_id)
    if not payload:
        raise ValueError("depot returned no data (unknown session id?)")
    with open(args.out, "wb") as fh:
        fh.write(payload)
    print(f"fetched {len(payload)} bytes into {args.out}")
    return 0


# -- stats -----------------------------------------------------------------------
def _stats_text(doc: dict) -> str:
    """Human-readable rendering of one export document."""
    lines = []
    if doc["metrics"]:
        table = TextTable(["metric", "labels", "value"])
        for sample in doc["metrics"]:
            labels = ",".join(
                f"{k}={v}" for k, v in sorted(sample["labels"].items())
            )
            if sample["type"] == "histogram":
                value = f"count={sample['count']} sum={sample['sum']:.6g}"
            else:
                value = f"{sample['value']:.6g}"
            table.add_row([sample["name"], labels, value])
        lines.append(table.render())
    else:
        lines.append("no metric series")
    events = doc["timeline"]
    lines.append(f"timeline: {len(events)} event(s)")
    sequences: dict[tuple[str, str, str], list[str]] = {}
    for event in events:
        key = (event["session"], event["node"], event["stream"])
        sequences.setdefault(key, []).append(event["event"])
    for (session, node, stream), names in sorted(sequences.items()):
        label = f"{session} {node}/{stream}" if session else f"{node}/{stream}"
        lines.append(f"  {label}: {' -> '.join(names)}")
    return "\n".join(lines)


def cmd_stats(args) -> int:
    """Render an observability export file, optionally repeatedly."""
    import json

    from repro.obs import load_export, render_prometheus

    if args.count < 1:
        raise ValueError("--count must be at least 1")
    if args.count > 1 and args.interval <= 0:
        raise ValueError("--interval must be positive")
    for i in range(args.count):
        if i:
            time.sleep(args.interval)
        doc = load_export(args.file)
        if args.format == "json":
            print(json.dumps(doc, indent=2, sort_keys=True))
        elif args.format == "prom":
            print(render_prometheus(doc["metrics"]), end="")
        else:
            print(_stats_text(doc))
    return 0


# -- lint ------------------------------------------------------------------------
def cmd_lint(args) -> int:
    """Run the project static checker; exit 0 clean, 1 on findings."""
    import os

    from repro.analysis import (
        DEFAULT_BASELINE,
        Baseline,
        all_rules,
        render_json,
        render_text,
        run_paths,
    )

    if args.list_rules:
        table = TextTable(["id", "name", "rationale"])
        for rule in all_rules():
            table.add_row([rule.id, rule.name, rule.rationale])
        print(table.render())
        return 0

    paths = args.paths or (["src"] if os.path.isdir("src") else ["."])
    select = args.select.split(",") if args.select else None

    baseline_path = args.baseline or DEFAULT_BASELINE
    baseline = None
    if not args.update_baseline and os.path.exists(baseline_path):
        baseline = Baseline.load(baseline_path)

    result = run_paths(paths, select=select, baseline=baseline)

    if args.update_baseline:
        Baseline.from_findings(result.findings).save(baseline_path)
        print(
            f"baseline {baseline_path}: accepted {len(result.findings)} "
            f"finding(s) across {result.files_scanned} file(s)"
        )
        return 0

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=True))
    return 0 if result.clean else 1


# -- chaos --------------------------------------------------------------------------
def cmd_chaos(args) -> int:
    """Soak the LSL stacks with randomized faults; exit 1 on violations."""
    from repro.testbed.chaos import ChaosConfig, run_chaos

    stacks = (
        ("socket", "simulator")
        if args.stack == "both"
        else (args.stack,)
    )
    config = ChaosConfig(
        episodes=args.episodes,
        seed=args.seed,
        stacks=stacks,
        depots=args.depots,
        max_size=args.max_size_kb << 10,
        max_retries=args.retries,
        topology=args.topology,
        tree_nodes=args.tree_nodes,
    )
    report = run_chaos(config)
    print(report.summary())
    return 0 if report.ok else 1


# -- campaign -----------------------------------------------------------------------
def cmd_campaign(args) -> int:
    """Run a synthetic campaign and print the paper's statistics."""
    if args.testbed == "planetlab":
        testbed = generate_planetlab(seed=args.seed)
    else:
        testbed = abilene_testbed(seed=args.seed)
    result = run_campaign(
        testbed,
        CampaignConfig(max_cases=args.max_cases, iterations=args.iterations),
        seed=args.campaign_seed,
    )
    cases = group_cases(result.measurements)
    print(
        f"{args.testbed}: {len(testbed.hosts)} hosts, coverage "
        f"{result.coverage:.1%}, {len(result.measurements)} measurements"
    )
    print(f"overall mean speedup: {overall_speedup(cases):.3f}")
    table = TextTable(["size (MB)", "mean", "median", "pct<=1"])
    for size, mean in speedup_by_size(cases).items():
        b = box_stats(cases, size)
        table.add_row(
            [size >> 20, mean, b.median, percentile_of_unity(cases, size)]
        )
    print(table.render())
    return 0


# -- bench --------------------------------------------------------------------------
def cmd_bench(args) -> int:
    """Run the fixed benchmark suite or compare two result documents."""
    from repro.bench import (
        compare,
        default_path,
        load,
        run_suite,
    )

    if args.compare:
        baseline, current = (load(p) for p in args.compare)
        cmp = compare(
            baseline,
            current,
            threshold=args.threshold,
            kinds=tuple(args.kind) if args.kind else None,
        )
        print(cmp.format())
        return 0 if cmp.ok else 1

    report = run_suite(
        smoke=args.smoke,
        only=args.only or None,
        progress=lambda name: print(f"running {name} ..."),
    )
    for r in report.results:
        print(f"  {r.name:<40} {r.value:>14.4g} {r.unit}")
    out = args.out or default_path(report.created)
    path = report.write(out)
    print(f"wrote {path}")
    if args.baseline:
        cmp = compare(load(args.baseline), report, threshold=args.threshold)
        print(cmp.format())
        return 0 if cmp.ok else 1
    return 0
