"""The resilient node lifecycle, written once for every runtime.

:class:`ResilientCluster` hosts one :class:`~repro.faults.recovery.RecoveryManager`
per node and owns everything that happens to a node over its life:
boot wiring, crash, (durable) restart, join, drain, decommission, the
client-side guards, monitor plumbing, :meth:`~ResilientCluster.cluster_view`
and :meth:`~ResilientCluster.recovery_stats`.  A runtime supplies only
what genuinely differs:

* the clock and timers — a ``now()``/``call_later()`` scheduler
  (:mod:`repro.faults.scheduler`);
* the fabric — ``register``/``send``/``crash``/``restart(node, handler)``,
  i.e. :class:`~repro.sim.network.Network` or
  :class:`~repro.faults.runtime.FaultyTransport`;
* the grant context a client waits on, woken by :meth:`~ResilientCluster._wake`;
* how drain and decommission completion is awaited.

:class:`~repro.faults.simcluster.ResilientSimCluster` and
:class:`~repro.faults.runtime.ResilientThreadedCluster` are the two
runtimes.  Because the grant listener is shared, every grant on either
runtime is leased and credited to a session, and every forced release
(self-fence, revocation, drain) reaches the monitor.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..core.automaton import ProtocolOptions
from ..core.lockspace import LockSpace, TokenHomeFn
from ..core.messages import Envelope, LockId, Message, NodeId
from ..core.modes import LockMode
from ..errors import ConfigurationError, SimulationError
from ..obs.sink import ObsSink
from ..verification.invariants import Monitor
from .plan import FaultPlan
from .recovery import RecoveryConfig, RecoveryManager

#: Protocol options every resilient node runs with.
RESILIENT_OPTIONS = ProtocolOptions(recovery=True)


class ResilientNodeClient:
    """Per-node client guards shared by both runtimes' clients.

    Requests go through the recovery manager so retransmission timers
    are armed; a crashed, leaving or lease-fenced node refuses them.
    """

    def __init__(self, cluster: "ResilientCluster", node_id: NodeId) -> None:
        self._cluster = cluster
        self._node_id = node_id

    @property
    def node_id(self) -> NodeId:
        """This client's node."""

        return self._node_id

    def _request(self, lock_id: LockId, mode: LockMode, ctx: object) -> None:
        cluster, node = self._cluster, self._node_id
        if cluster.is_crashed(node):
            raise SimulationError(f"node {node} is crashed")
        manager = cluster.managers[node]
        if node in cluster._departed_nodes or manager.departing:
            raise SimulationError(f"node {node} is leaving the cluster")
        if manager.fenced:
            raise SimulationError(f"node {node} is lease-fenced")
        cluster._record("on_request", node, lock_id, mode)
        manager.request(lock_id, mode, ctx)

    def release(self, lock_id: LockId, mode: LockMode) -> None:
        """Release one hold of *mode* on *lock_id*."""

        cluster, node = self._cluster, self._node_id
        if cluster.is_crashed(node):
            raise SimulationError(f"node {node} is crashed")
        manager = cluster.managers[node]
        if node in cluster._departed_nodes or manager.departing:
            # ``begin_leave`` already force-released every residual hold
            # (through the forced-release hook); a late application
            # release would double-count it, like the fenced case below.
            return
        if manager.fenced:
            # The fence already force-released this hold and told the
            # monitor via the forced-release hook; recording a second,
            # application-driven release would double-count it.
            return
        cluster._record("on_release", node, lock_id, mode)
        manager.release(lock_id, mode)


class ResilientCluster:
    """N nodes with recovery managers: the lifecycle every runtime shares.

    Subclasses implement :meth:`_connect` (build the scheduler and the
    fabric) and :meth:`_wake` (hand a grant to a waiting client), set
    :attr:`CLIENT`, start the managers once the fabric is up, and expose
    ``drain_node``/``decommission_node`` over :meth:`_begin_drain` /
    :meth:`_begin_decommission` with their own way of awaiting
    :meth:`_finalize_departure`.
    """

    #: Client class built for every node (set per runtime).
    CLIENT = ResilientNodeClient
    #: Whether a durable restart re-asserts the surviving sessions'
    #: holds (lease reclaim) instead of disowning them.
    reclaim = False

    def __init__(
        self,
        num_nodes: int,
        plan: Optional[FaultPlan],
        config: RecoveryConfig,
        token_home: TokenHomeFn,
        monitor: Optional[Monitor],
        obs: Optional[ObsSink],
        persistence,
        flight,
    ) -> None:
        if num_nodes < 2:
            raise ConfigurationError(
                "a resilient cluster needs at least two nodes (someone "
                "must survive to regenerate the token)"
            )
        self.num_nodes = num_nodes
        self.plan = plan
        self.config = config
        self.monitor = monitor
        self._monitor_lock = threading.Lock()
        self.obs = obs
        self._token_home = token_home
        self.scheduler, self._fabric = self._connect()
        self.lockspaces: Dict[NodeId, LockSpace] = {}
        self.managers: Dict[NodeId, RecoveryManager] = {}
        #: Per-node durability backend (see :mod:`repro.persist`);
        #: ``None`` keeps the cluster volatile and the code path
        #: byte-identical to the pre-durability behaviour.
        self.persistence = persistence
        self.journals: Dict[NodeId, object] = {}
        #: Per-node flight recorders (see :mod:`repro.obs.flightrec`):
        #: pass a dict to share recorders with the harness, ``True`` to
        #: create one per node, ``None`` (default) to record nothing.
        self.flight = None
        if flight is not None:
            self.flight = flight if isinstance(flight, dict) else {}
        #: One rejoin report per durable restart, in restart order.
        self.durability_log: List[Dict[str, object]] = []
        self._crashed: set = set()
        self.crash_log: List[Dict[str, object]] = []
        #: Current member node ids (the god-view mirror of the installed
        #: membership view): grows on :meth:`join_node`, shrinks when a
        #: drain or decommission completes.
        self.members: List[NodeId] = list(range(num_nodes))
        #: Nodes that have left for good (drained or decommissioned).
        self._departed_nodes: set = set()
        #: One entry per membership event (join / drain / decommission).
        self.membership_log: List[Dict[str, object]] = []
        for node_id in range(num_nodes):
            self._boot_node(node_id, boot=0, fresh=True)
        self.clients = [self.CLIENT(self, n) for n in range(num_nodes)]

    def _connect(self):
        """Build and return ``(scheduler, fabric)`` for this runtime."""

        raise NotImplementedError

    def _wake(self, ctx: object, mode: LockMode) -> None:
        """Hand a grant of *mode* to the client waiting on *ctx*."""

        raise NotImplementedError

    # -- node lifecycle ----------------------------------------------------

    def _boot_node(
        self,
        node_id: NodeId,
        boot: int,
        fresh: bool,
        membership: Optional[List[NodeId]] = None,
    ) -> None:
        lockspace = LockSpace(
            node_id=node_id,
            token_home=self._token_home,
            listener=self._make_listener(node_id),
            options=RESILIENT_OPTIONS,
        )
        lockspace.obs = self.obs
        if self.flight is not None:
            from ..obs.flightrec import FlightRecorder

            recorder = self.flight.setdefault(
                node_id,
                FlightRecorder(
                    node_id, protocol="hierarchical", clock=self.scheduler.now
                ),
            )
            if not fresh:
                recorder.record_restart()
            recorder.attach(lockspace)
        manager = RecoveryManager(
            node_id=node_id,
            lockspace=lockspace,
            membership=(
                membership if membership is not None else list(self.members)
            ),
            scheduler=self.scheduler,
            transport_send=self._make_sender(node_id),
            config=self.config,
            obs=self.obs,
            boot=boot,
        )
        manager.forced_release_hook = self._forced_release
        self.lockspaces[node_id] = lockspace
        self.managers[node_id] = manager
        if self.persistence is not None:
            from ..persist import NodeJournal

            journal = NodeJournal(
                self.persistence.store_for(node_id),
                node_id,
                boot=boot,
                obs=self.obs,
            )
            journal.attach(lockspace)
            journal.session_source = manager.sessions.export
            journal.view_source = manager.view_journal_payload
            self.journals[node_id] = journal
            manager.journal = journal
        if fresh:
            self._fabric.register(node_id, manager.handle)

    def _start_managers(self) -> None:
        # Only once every node is registered: the first heartbeat needs
        # every peer reachable.
        for manager in self.managers.values():
            manager.start()

    def _make_sender(self, node_id: NodeId):
        def send(dest: NodeId, message: Message) -> None:
            self._fabric.send(node_id, [Envelope(dest, message)])

        return send

    def _make_listener(self, node_id: NodeId):
        def listener(lock_id: LockId, mode: LockMode, ctx: object) -> None:
            self._record("on_grant", node_id, lock_id, mode)
            # Every grant is leased: looked up at call time so the
            # current incarnation's manager leases its own grants.
            self.managers[node_id].note_grant(lock_id, mode)
            self._wake(ctx, mode)

        return listener

    def _forced_release(self, holder: NodeId, lock_id: LockId) -> None:
        """Lease layer (or a drain) force-released *holder*'s holds."""

        self._record("on_forced_release", holder, lock_id)

    def crash(self, node_id: NodeId) -> None:
        """Kill *node_id*: volatile state gone, fabric silenced."""

        if node_id in self._crashed:
            return
        self._crashed.add(node_id)
        if self.flight is not None:
            self.flight[node_id].record_crash()
        self.crash_log.append({"at": self.scheduler.now(), "node": node_id})
        self._fabric.crash(node_id)
        self.managers[node_id].stop()
        journal = self.journals.pop(node_id, None)
        if journal is not None:
            # The store survives (it is the durable medium); only the
            # in-process journal handle dies with the node.
            journal.close()
        self._record("on_crash", node_id)
        if self.obs is not None:
            self.obs.fault("crash", node_id)

    def restart(self, node_id: NodeId) -> None:
        """Bring *node_id* back under a bumped boot incarnation.

        Without persistence the node rejoins blank; with it, the node
        replays its snapshot + WAL and rejoins with its pre-crash locks
        (token custody fenced until the epoch handshake settles — see
        :meth:`~repro.faults.recovery.RecoveryManager.rejoin_from_journal`).
        """

        if node_id not in self._crashed:
            return
        if node_id in self._departed_nodes:
            return  # Decommissioned while down: it no longer exists.
        self._crashed.discard(node_id)
        boot = self.managers[node_id].boot + 1
        self._boot_node(node_id, boot=boot, fresh=False)
        manager = self.managers[node_id]
        # Fabric first: rejoin replay dispatches messages immediately.
        self._fabric.restart(node_id, manager.handle)
        reclaimed: List = []
        if self.persistence is not None:
            from ..persist import VIEW_JOURNAL_KEY, recover_node_state
            from ..services.sessions import SESSIONS_JOURNAL_KEY

            state, recover_report = recover_node_state(
                self.persistence.store_for(node_id)
            )
            # The journalled view first: quorum sizes and the departed
            # set of everything below derive from it.
            view_payload = state.pop(VIEW_JOURNAL_KEY, None)
            if view_payload is not None:
                manager.adopt_view(view_payload)
            # Sessions ride the same WAL under a reserved key; they are
            # not a lock and must never reach the per-lock rejoin.
            sessions_payload = state.pop(SESSIONS_JOURNAL_KEY, None)
            if sessions_payload is not None:
                manager.sessions.restore(sessions_payload)
            reclaim_cb = None
            if self.reclaim and sessions_payload is not None:
                base, survivors = manager.sessions.reclaimer(
                    self.scheduler.now(), manager.lease_config.session_ttl
                )

                def reclaim_cb(lock_id, mode):
                    if not base(lock_id, str(mode)):
                        return False
                    # Fresh lease under the restored epoch; the session
                    # already carries the hold count, so no note_grant.
                    manager.mint_lease(lock_id, mode)
                    self._record("on_grant", node_id, lock_id, mode)
                    reclaimed.append((lock_id, mode))
                    return True

            rejoin_report = manager.rejoin_from_journal(
                state, reclaim=reclaim_cb
            )
            self.durability_log.append(
                {
                    "at": round(self.scheduler.now(), 6),
                    "node": node_id,
                    "boot": boot,
                    "recovered": recover_report,
                    "rejoin": rejoin_report,
                }
            )
            # Re-seed the snapshot under the new boot so the next crash
            # replays from here instead of the whole pre-crash log.
            self.journals[node_id].compact()
        manager.start()
        # The restarted workload won't re-release holds it never
        # knowingly re-acquired: hand each reclaimed hold back after a
        # short grace so waiters eventually progress.
        for i, (lock_id, mode) in enumerate(reclaimed):
            self.scheduler.call_later(
                0.5 + 0.25 * i,
                lambda n=node_id, l=lock_id, m=mode: (
                    self._release_reclaimed(n, l, m)
                ),
            )
        if self.obs is not None:
            self.obs.fault("restart", node_id)

    def _release_reclaimed(
        self, node_id: NodeId, lock_id: LockId, mode: LockMode
    ) -> None:
        if node_id in self._crashed or self.managers[node_id].fenced:
            return
        self._record("on_release", node_id, lock_id, mode)
        self.managers[node_id].release(lock_id, mode)

    def is_crashed(self, node_id: NodeId) -> bool:
        """Whether *node_id* is currently down."""

        return node_id in self._crashed

    def client(self, node_id: NodeId):
        """Return the client object of *node_id*."""

        return self.clients[node_id]

    def live_nodes(self) -> List[NodeId]:
        """Current members that are up, ascending."""

        return [n for n in self.members if n not in self._crashed]

    # -- dynamic membership (see repro.membership / docs/MEMBERSHIP.md) ----

    def join_node(self) -> NodeId:
        """Admit a brand-new node into the running cluster.

        Allocates the next node id, boots it with the full recovery
        stack, and has it ask the lowest live member for admission; the
        sponsor drives the quorum-gated view change and sends the state
        transfer.  The returned id's client is usable immediately (its
        first requests simply route while the view converges).
        """

        live = self.live_nodes()
        if not live:
            raise SimulationError("no live member can sponsor a join")
        sponsor = min(live)
        node_id = self.num_nodes
        self.num_nodes += 1
        # The joiner boots believing the view is (sponsor's view | self):
        # an over-approximation, so every quorum it counts before the
        # real install arrives is at least as large as the true one.
        bootstrap = sorted(
            set(self.managers[sponsor].membership) | {node_id}
        )
        self.members.append(node_id)
        self._boot_node(node_id, boot=0, fresh=True, membership=bootstrap)
        manager = self.managers[node_id]
        manager.start()
        manager.request_join(sponsor)
        self.clients.append(self.CLIENT(self, node_id))
        self._log_membership("join", node_id, sponsor=sponsor)
        return node_id

    def _begin_drain(
        self, node_id: NodeId, successor: Optional[NodeId]
    ) -> NodeId:
        """Start draining *node_id* (see ``drain_node``); return the
        successor its token custody is handed to."""

        if node_id in self._crashed:
            raise SimulationError(
                f"node {node_id} is crashed; decommission it instead"
            )
        if (
            node_id in self._departed_nodes
            or self.managers[node_id].departing
        ):
            raise SimulationError(f"node {node_id} is already leaving")
        chosen = self.managers[node_id].begin_leave(successor)
        self._log_membership("drain-begin", node_id, successor=chosen)
        return chosen

    def _begin_decommission(self, node_id: NodeId) -> NodeId:
        """Start force-removing the crashed *node_id* (see
        ``decommission_node``); return the coordinating member."""

        if node_id not in self._crashed:
            raise SimulationError(
                f"node {node_id} is alive; drain it instead"
            )
        if node_id in self._departed_nodes:
            raise SimulationError(f"node {node_id} already decommissioned")
        live = self.live_nodes()
        if not live:
            raise SimulationError("no live member can coordinate")
        coordinator = min(live)
        self.managers[coordinator].decommission(node_id)
        self._log_membership(
            "decommission-begin", node_id, coordinator=coordinator
        )
        return coordinator

    def _listed(self, node_id: NodeId) -> bool:
        """Whether any live member's installed view still lists *node_id*."""

        return any(
            node_id in self.managers[n].membership for n in self.live_nodes()
        )

    def _finalize_departure(self, node_id: NodeId, event: str) -> None:
        if node_id in self._departed_nodes:
            return
        self._departed_nodes.add(node_id)
        if node_id in self.members:
            self.members.remove(node_id)
        if node_id not in self._crashed:
            # A drained node: silence its fabric and stop its timers now
            # that its removal view is installed cluster-wide enough for
            # anti-entropy to finish the spread without it.
            self._fabric.crash(node_id)
            self.managers[node_id].stop()
            journal = self.journals.pop(node_id, None)
            if journal is not None:
                journal.close()
        self._log_membership(event, node_id)

    def _log_membership(self, event: str, node_id: NodeId, **extra) -> None:
        self.membership_log.append(
            {
                "at": round(self.scheduler.now(), 6),
                "event": event,
                "node": node_id,
                **extra,
            }
        )
        if self.obs is not None and not event.endswith("-begin"):
            self.obs.fault(event, node_id)

    # -- monitor plumbing --------------------------------------------------

    def _record(self, hook: str, *args) -> None:
        """Feed ``monitor.<hook>(now, *args)``, serialized across threads."""

        if self.monitor is not None:
            with self._monitor_lock:
                getattr(self.monitor, hook)(self.scheduler.now(), *args)

    # -- aggregates --------------------------------------------------------

    def cluster_view(self):
        """Capture a :class:`repro.obs.live.ClusterView` of all nodes.

        Each live node is snapshotted under its recovery manager's mutex
        (the lock every automaton access already takes), so per-node
        state is internally consistent and carries the manager's
        :class:`~repro.obs.live.RecoveryHealth`.  Crashed nodes appear as
        dead snapshots with no lock state (their volatile state is
        genuinely gone).
        """

        from ..obs.live import ClusterView, NodeSnapshot, snapshot_node

        nodes = []
        for node_id in sorted(self.members):
            if node_id in self._crashed:
                nodes.append(NodeSnapshot(node=node_id, alive=False))
                continue
            manager = self.managers[node_id]
            with manager._mutex:
                nodes.append(
                    snapshot_node(
                        node_id,
                        self.lockspaces[node_id],
                        recovery=manager.health_snapshot(),
                    )
                )
        return ClusterView(
            protocol="hierarchical",
            captured_at=self.scheduler.now(),
            nodes=tuple(nodes),
        )

    def recovery_stats(self) -> Dict[str, object]:
        """Aggregate recovery counters across managers."""

        managers = self.managers.values()
        suspects = sorted(
            {
                (round(t, 6), peer)
                for manager in managers
                for (t, peer) in manager.suspect_log
            }
        )
        return {
            "suspect_events": len(suspects),
            "suspected_nodes": sorted({peer for _, peer in suspects}),
            "regenerations": [
                regen for manager in managers for regen in manager.regenerations
            ],
            "app_retransmits": sum(m.app_retransmits for m in managers),
            "channel_retransmits": sum(
                m.channel.retransmits for m in managers
            ),
            "duplicates_dropped": sum(
                m.channel.duplicates_dropped for m in managers
            ),
            "leases_revoked": sum(m.leases_revoked for m in managers),
            "fenced_nodes": sorted(
                n for n, m in self.managers.items() if m.fenced
            ),
        }
