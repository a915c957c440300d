"""A simulated cluster with the full recovery stack and fault injection.

:class:`ResilientSimCluster` is the chaos-capable sibling of
:class:`~repro.sim.cluster.SimHierarchicalCluster`: every node runs its
:class:`~repro.core.lockspace.LockSpace` in recovery mode behind a
:class:`~repro.faults.recovery.RecoveryManager`, the network carries a
:class:`~repro.faults.plan.FaultPlan`, and the plan's crash/restart
schedule is enacted against real node state (a crashed node's lock space
is discarded; a restarted node rejoins blank under a bumped boot
incarnation).  The node lifecycle itself is shared with the threaded
runtime (:mod:`repro.faults.lifecycle`); this module supplies the
simulator's clock, network, grant events and polled drain completion.

This lives in :mod:`repro.faults` rather than :mod:`repro.sim` on
purpose: the plain cluster — the one all reproduced figures run on —
stays byte-for-byte untouched, which is what keeps fault-free figure
runs bit-identical to the pre-fault codebase.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.lockspace import TokenHomeFn, default_token_home
from ..core.messages import LockId, NodeId
from ..core.modes import LockMode
from ..obs.sink import ObsSink
from ..sim.cluster import _GrantCtx
from ..sim.engine import SimEvent, Simulator
from ..sim.network import Network
from ..sim.rng import Distribution, Exponential
from ..verification.invariants import Monitor
from .lifecycle import ResilientCluster, ResilientNodeClient
from .plan import FaultPlan
from .recovery import RecoveryConfig
from .scheduler import SimScheduler


class ResilientClient(ResilientNodeClient):
    """Per-node client: like ``HierClient`` but requests through the
    recovery manager so retransmission timers are armed."""

    def acquire(self, lock_id: LockId, mode: LockMode) -> SimEvent:
        """Request *lock_id* in *mode*; yield the returned event to wait."""

        event = SimEvent(self._cluster.sim)
        self._request(lock_id, mode, _GrantCtx(event=event))
        return event


class ResilientSimCluster(ResilientCluster):
    """N simulated nodes with recovery managers under a fault plan."""

    CLIENT = ResilientClient

    def __init__(
        self,
        num_nodes: int,
        plan: Optional[FaultPlan] = None,
        sim: Optional[Simulator] = None,
        latency: Optional[Distribution] = None,
        seed: int = 0,
        token_home: TokenHomeFn = default_token_home,
        monitor: Optional[Monitor] = None,
        config: RecoveryConfig = RecoveryConfig(),
        obs: Optional[ObsSink] = None,
        persistence=None,
        reclaim: bool = False,
        flight=None,
    ) -> None:
        self.sim = sim if sim is not None else Simulator()
        self._latency = latency if latency is not None else Exponential(0.150)
        self._seed = seed
        self.reclaim = reclaim
        super().__init__(
            num_nodes, plan, config, token_home, monitor, obs, persistence,
            flight,
        )
        self._start_managers()
        if plan is not None:
            for crash in plan.crashes:
                self.sim.schedule(
                    max(crash.at - self.sim.now, 0.0),
                    lambda node=crash.node: self.crash(node),
                )
                if crash.restart_at is not None:
                    self.sim.schedule(
                        max(crash.restart_at - self.sim.now, 0.0),
                        lambda node=crash.node: self.restart(node),
                    )

    def _connect(self):
        obs = self.obs
        observer = None
        if obs is not None:
            self.sim.tick_hook = obs.engine_tick

            def observer(sender, dest, message):
                obs.message(sender, dest, type(message).__name__)

        self.network = Network(
            self.sim,
            latency=self._latency,
            rng=random.Random(self._seed ^ 0x5EED),
            observer=observer,
            faults=self.plan,
            tracer=getattr(obs, "tracer", None) if obs is not None else None,
        )
        return SimScheduler(self.sim), self.network

    def _wake(self, ctx: object, mode: LockMode) -> None:
        if isinstance(ctx, _GrantCtx):
            ctx.event.trigger(mode)

    # -- dynamic membership (see repro.membership / docs/MEMBERSHIP.md) ----

    def drain_node(
        self, node_id: NodeId, successor: Optional[NodeId] = None
    ) -> NodeId:
        """Gracefully remove *node_id*: drain its holds, hand off any
        token custody to *successor* (lowest live member by default),
        migrate its copyset children, then install a view without it.

        Returns the successor.  Finalization is asynchronous: the
        cluster polls the manager and silences the node's fabric once
        its removal view is installed (see :attr:`membership_log`).
        """

        chosen = self._begin_drain(node_id, successor)
        self._poll_departure(node_id, "drained")
        return chosen

    def decommission_node(self, node_id: NodeId) -> NodeId:
        """Force-remove a crashed *node_id* from the view for good.

        The lowest live member coordinates the view change; the install
        fences the dead node's leases and evicts its copyset entries
        everywhere.  Returns the coordinator.  A decommissioned node can
        never :meth:`restart`.  Finalization is asynchronous, once no
        live member's view lists the node.
        """

        coordinator = self._begin_decommission(node_id)
        self._poll_departure(node_id, "decommissioned")
        return coordinator

    def _poll_departure(self, node_id: NodeId, event: str) -> None:
        if node_id in self._departed_nodes:
            return
        if event == "drained":
            if node_id in self._crashed:
                return  # Crashed mid-drain: decommission it instead.
            settled = self.managers[node_id].has_left
        else:
            settled = not self._listed(node_id)
        if not settled:
            self.scheduler.call_later(
                self.config.heartbeat_interval,
                lambda: self._poll_departure(node_id, event),
            )
            return
        self._finalize_departure(node_id, event)
