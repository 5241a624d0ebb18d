"""Failover-aware multicast staging over real sockets.

:func:`~repro.lsl.multicast.simulate_staging` replicates a payload down
a staging tree through in-process depot engines; this module is the
wire-level, fault-tolerant version.  :class:`MulticastFailoverSender`
stages one session down a :class:`~repro.lsl.multicast.StagingTree` of
:class:`~repro.lsl.socket_transport.DepotServer` nodes so that

* every tree node receives the payload as a *parked*
  :attr:`~repro.lsl.header.SessionType.MULTICAST` session under one
  shared session id (claimable later with
  :func:`~repro.lsl.socket_transport.fetch_pickup`);
* each delivery travels through the node's ancestor chain as a loose
  source route, and because multicast sessions retain their completed
  ledgers, a complete ancestor acknowledges the full total instantly —
  the payload crosses each tree edge exactly once and the source resends
  nothing for deep nodes;
* a branch failure is diagnosed with
  :class:`~repro.lsl.health.HealthMonitor` probes feeding the per-depot
  circuit breakers, and the orphaned branch is re-grafted: either via
  :meth:`~repro.core.scheduler.LogisticalScheduler.reroute` around the
  avoided hosts (when a scheduler is attached) or by pruning dead
  ancestors so the delivery resumes from the *nearest surviving
  ancestor*'s ledger watermark.  Sibling branches are untouched — each
  branch is its own delivery with its own ledger state.

With ``stripes > 1`` every hop of every branch runs that many parallel
striped sublinks (see :mod:`repro.lsl.socket_transport`).

The failover is visible end to end exactly like the point-to-point
:class:`~repro.lsl.failover.FailoverSender`: a ``failover`` timeline
event on the source's down stream whose ``detail`` names the branch and
the avoided hosts, plus the ``lsl_failovers_total`` counter and the
health monitor's breaker series.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from repro.core.scheduler import LogisticalScheduler
from repro.lsl.failover import NoRouteLeft
from repro.lsl.faults import FaultPlan, RetryExhausted, RetryPolicy
from repro.lsl.header import SessionHeader, SessionType, new_session_id
from repro.lsl.health import HealthMonitor
from repro.lsl.multicast import StagingTree
from repro.lsl.options import LooseSourceRoute
from repro.lsl.socket_transport import SendReport, send_session
from repro.obs.registry import NULL_REGISTRY, Registry
from repro.obs.timeline import DISABLED_TIMELINE, STREAM_DOWN, SessionTimeline

log = logging.getLogger(__name__)

Address = tuple[str, int]


def _label(addr: Address) -> str:
    return f"{addr[0]}:{addr[1]}"


@dataclass
class MulticastStagingReport:
    """Outcome of one :meth:`MulticastFailoverSender.stage`.

    Attributes
    ----------
    session:
        Hex session id shared by every node's parked copy.
    payload_bytes:
        Size of the replicated payload.
    delivered:
        Per-node :class:`~repro.lsl.socket_transport.SendReport`, in
        delivery (parents-before-children) order.  A deep node whose ancestors
        were already staged shows ``high_water == 0``: the source sent
        no payload bytes, the nearest complete ancestor replayed them.
    chains:
        Ancestor chains actually attempted per node (addresses, nearest
        the source first); more than one entry means that branch failed
        over.
    failovers:
        Branch re-grafts performed across the whole staging.
    avoided:
        Labels of hosts excluded from routing by the end.
    stripes:
        Striped sublinks per hop (1 = single stream).
    """

    session: str
    payload_bytes: int
    delivered: dict[Address, SendReport] = field(default_factory=dict)
    chains: dict[Address, list[list[Address]]] = field(default_factory=dict)
    failovers: int = 0
    avoided: set[str] = field(default_factory=set)
    stripes: int = 1


class MulticastFailoverSender:
    """Stage one payload down a depot tree, re-grafting dead branches.

    Parameters
    ----------
    tree:
        The staging tree of depot listener addresses; every node must be
        a :class:`~repro.lsl.socket_transport.DepotServer` (payloads are
        parked for pickup, which sinks do not speak).
    retry:
        Per-attempt :class:`~repro.lsl.faults.RetryPolicy` (same-chain
        reconnect budget); also paces breaker cooldowns when this sender
        builds its own :class:`~repro.lsl.health.HealthMonitor`.
    health:
        Shared monitor; one is built over the tree's nodes when omitted.
    max_failovers:
        Re-graft budget *per branch* (attempts per node = 1 + this).
    stripes, stripe_block:
        Striped sublinks per hop and their interleave unit.
    scheduler, host_names:
        Optional re-graft oracle: ``host_names`` maps node addresses to
        scheduler host names (every tree node plus the source must
        appear), and a failed branch then asks
        :meth:`~repro.core.scheduler.LogisticalScheduler.reroute` for a
        fresh relay chain avoiding the suspect hosts — which may route
        through depots outside the original ancestor chain.  Without a
        scheduler the fallback prunes dead ancestors from the chain, so
        the branch resumes from its nearest surviving ancestor.
    source_name:
        Label for the source's timeline events and counters.
    registry, timeline, fault_plan:
        Forwarded to :func:`~repro.lsl.socket_transport.send_session`.
    """

    def __init__(
        self,
        tree: StagingTree,
        retry: RetryPolicy | None = None,
        health: HealthMonitor | None = None,
        max_failovers: int = 3,
        stripes: int = 1,
        stripe_block: int = 16 << 10,
        scheduler: LogisticalScheduler | None = None,
        host_names: dict[Address, str] | None = None,
        source_host: str = "source",
        source_name: str = "source",
        registry: Registry | None = None,
        timeline: SessionTimeline | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if max_failovers < 0:
            raise ValueError(f"max_failovers={max_failovers} must be >= 0")
        if stripes < 1:
            raise ValueError(f"stripes={stripes} must be >= 1")
        if scheduler is not None and host_names is None:
            raise ValueError("a scheduler requires host_names for the tree")
        self.tree = tree
        self.retry = retry or RetryPolicy()
        self.max_failovers = max_failovers
        self.stripes = stripes
        self.stripe_block = stripe_block
        self.scheduler = scheduler
        self.host_names = dict(host_names or {})
        self.source_host = source_host
        self.source_name = source_name
        self._obs = registry if registry is not None else NULL_REGISTRY
        self._tl = timeline if timeline is not None else DISABLED_TIMELINE
        self._fault_plan = fault_plan
        if health is None:
            targets = {
                self._host_label(tree.address_of(i)): tree.address_of(i)
                for i in range(len(tree))
            }
            health = HealthMonitor(
                targets, cooldown=self.retry, registry=self._obs
            )
        self.health = health

    def _host_label(self, addr: Address) -> str:
        return self.host_names.get(addr) or _label(addr)

    # -- chain construction ------------------------------------------------
    def _surviving_chain(
        self, index: int, avoided: set[str]
    ) -> list[Address]:
        """The node's ancestor addresses with avoided hosts pruned."""
        return [
            self.tree.address_of(i)
            for i in self.tree.path_to(index)[:-1]
            if self._host_label(self.tree.address_of(i)) not in avoided
        ]

    def _rerouted_chain(
        self, index: int, avoided: set[str]
    ) -> list[Address]:
        """A scheduler-chosen relay chain avoiding ``avoided`` hosts."""
        assert self.scheduler is not None
        node = self.tree.address_of(index)
        dest = self._host_label(node)
        decision = self.scheduler.reroute(self.source_host, dest, avoided)
        addr_of = {name: addr for addr, name in self.host_names.items()}
        chain: list[Address] = []
        for host in decision.route[1:-1]:
            addr = addr_of.get(host)
            if addr is None:
                raise ValueError(
                    f"scheduler routed via {host!r}, which has no known "
                    f"listener address"
                )
            chain.append(addr)
        return chain

    def _chain_for(self, index: int, avoided: set[str]) -> list[Address]:
        if self.scheduler is not None and avoided:
            return self._rerouted_chain(index, avoided)
        return self._surviving_chain(index, avoided)

    def _breaker_blocked(self, chain: list[Address]) -> set[str]:
        """Chain hosts whose circuit breakers currently deny traffic."""
        return {
            label
            for label in (self._host_label(a) for a in chain)
            if label in self.health.targets and not self.health.allow(label)
        }

    def _diagnose(self, chain: list[Address]) -> set[str]:
        """Probe the chain's depots; returns labels of the dead ones."""
        candidates = [
            label
            for label in (self._host_label(a) for a in chain)
            if label in self.health.targets
        ]
        return self.health.diagnose(candidates) if candidates else set()

    def _header_for(
        self, session_id: bytes, index: int, chain: list[Address]
    ) -> tuple[SessionHeader, Address]:
        """Multicast park header for node ``index`` via ``chain``.

        The root's header additionally announces the whole tree as a
        :class:`~repro.lsl.options.MulticastTreeOption` — the paper's
        Section-2 header option travelling with the session.
        """
        node = self.tree.address_of(index)
        first_hop = chain[0] if chain else node
        options: list = []
        if index == 0:
            options.append(self.tree.to_option())
        if len(chain) > 1:
            options.append(LooseSourceRoute(hops=tuple(chain[1:])))
        return (
            SessionHeader(
                session_id=session_id,
                src_ip="127.0.0.1",
                dst_ip=node[0],
                src_port=0,
                dst_port=node[1],
                session_type=SessionType.MULTICAST,
                options=tuple(options),
            ),
            first_hop,
        )

    # -- the staging loop --------------------------------------------------
    def stage(
        self,
        payload: bytes,
        chunk_size: int = 64 << 10,
        session_id: bytes | None = None,
    ) -> MulticastStagingReport:
        """Replicate ``payload`` to every tree node, re-grafting on failure.

        Nodes are visited parents-before-children, so a child's
        delivery finds its ancestors' ledgers complete.  Each
        branch runs its own failover loop; a failure on one branch never
        disturbs a sibling already delivered or still pending.

        Raises
        ------
        NoRouteLeft
            Some branch's re-graft budget ran out — the exception names
            the branch and the avoided hosts.
        """
        if not payload:
            raise ValueError("payload must be non-empty")
        session_id = session_id if session_id is not None else new_session_id()
        report = MulticastStagingReport(
            session=session_id.hex(),
            payload_bytes=len(payload),
            stripes=self.stripes,
        )
        avoided: set[str] = set()
        # node order is already topological: the wire format requires
        # parents before children, so ascending index visits ancestors
        # before descendants
        for index in range(len(self.tree)):
            self._stage_node(
                index, payload, chunk_size, session_id, avoided, report
            )
        report.avoided = set(avoided)
        return report

    def _stage_node(
        self,
        index: int,
        payload: bytes,
        chunk_size: int,
        session_id: bytes,
        avoided: set[str],
        report: MulticastStagingReport,
    ) -> None:
        node = self.tree.address_of(index)
        branch = self._host_label(node)
        attempts = report.chains.setdefault(node, [])
        last_error: Exception | None = None
        for _ in range(self.max_failovers + 1):
            try:
                chain = self._chain_for(index, avoided)
            except ValueError as exc:
                raise NoRouteLeft(
                    f"session {session_id.hex()} branch {branch}: no chain "
                    f"avoiding {sorted(avoided)}: {exc}"
                ) from exc
            blocked = self._breaker_blocked(chain)
            if blocked:
                # a breaker opened since the chain was computed; fold it
                # in rather than knowingly dial a short-circuited depot
                avoided |= blocked
                report.avoided = set(avoided)
                continue
            attempts.append(list(chain))
            header, first_hop = self._header_for(session_id, index, chain)
            try:
                sent = send_session(
                    payload,
                    header,
                    first_hop,
                    chunk_size=chunk_size,
                    retry=self.retry,
                    fault_plan=self._fault_plan,
                    source_name=self.source_name,
                    registry=self._obs,
                    timeline=self._tl,
                    stripes=self.stripes,
                    stripe_block=self.stripe_block,
                )
            except (RetryExhausted, ConnectionError, OSError) as exc:
                last_error = exc
                failed = self._diagnose(chain)
                if not failed:
                    # nothing on the chain looks dead — suspect every
                    # relay so the re-graft actually changes topology
                    failed = {self._host_label(a) for a in chain}
                if not failed:
                    # direct delivery with no relays left to blame: the
                    # branch target itself is the problem
                    break
                avoided |= failed
                report.avoided = set(avoided)
                report.failovers += 1
                self._obs.counter(
                    "lsl_failovers_total",
                    labels={"node": self.source_name},
                ).inc()
                self._tl.record(
                    "failover",
                    node=self.source_name,
                    stream=STREAM_DOWN,
                    session=session_id.hex(),
                    detail=(
                        f"branch={branch} avoid=" + ",".join(sorted(avoided))
                    ),
                )
                log.info(
                    "session %s branch %s: chain %s failed (%s); "
                    "avoiding %s",
                    session_id.hex(), branch,
                    [_label(a) for a in chain], exc, sorted(avoided),
                )
                continue
            for addr in chain:
                label = self._host_label(addr)
                if label in self.health.targets:
                    self.health.breaker(label).record_success()
            report.delivered[node] = sent
            return
        raise NoRouteLeft(
            f"session {session_id.hex()} branch {branch} failed after "
            f"{report.failovers} failover(s), avoiding {sorted(avoided)}"
        ) from last_error
