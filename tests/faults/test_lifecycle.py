"""One node lifecycle, two runtimes.

``ResilientSimCluster`` and ``ResilientThreadedCluster`` share their
boot, crash, restart, join, drain and decommission code
(:mod:`repro.faults.lifecycle`).  Each test here runs on both runtimes;
they differ only in how a test waits (stepping virtual time vs blocking
on a wall-clock timeout), which the two drivers below hide.
"""

from __future__ import annotations

import pytest

from repro.core.modes import LockMode
from repro.faults.plan import DELAY, FaultPlan, FaultRule
from repro.faults.runtime import ResilientThreadedCluster
from repro.faults.simcluster import ResilientSimCluster
from repro.persist import MemoryPersistence
from repro.sim.rng import Fixed
from repro.verification.invariants import CompatibilityMonitor


class _SimDriver:
    """Steps virtual time until each operation completes."""

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("seed", 0)
        self.cluster = ResilientSimCluster(3, **kwargs)

    def _run_until(self, done, limit: float = 60.0) -> None:
        sim = self.cluster.sim
        deadline = sim.now + limit
        while not done():
            assert sim.now < deadline, "operation did not complete"
            sim.run(until=sim.now + 0.1)

    def acquire(self, node: int, lock_id: str, mode: LockMode) -> None:
        event = self.cluster.client(node).acquire(lock_id, mode)
        self._run_until(lambda: event.triggered)

    def drain(self, node: int) -> None:
        self.cluster.drain_node(node)
        self._run_until(lambda: node not in self.cluster.members)

    def close(self) -> None:
        pass


class _ThreadedDriver:
    """Blocks on the cluster's own wall-clock waits."""

    def __init__(self, **kwargs) -> None:
        self.cluster = ResilientThreadedCluster(3, plan=FaultPlan(), **kwargs)

    def acquire(self, node: int, lock_id: str, mode: LockMode) -> None:
        self.cluster.client(node).acquire(lock_id, mode, timeout=20.0)

    def drain(self, node: int) -> None:
        self.cluster.drain_node(node, timeout=30.0)

    def close(self) -> None:
        self.cluster.shutdown()


@pytest.fixture(params=["sim", "threaded"])
def make_driver(request):
    drivers = []

    def make(**kwargs):
        cls = _SimDriver if request.param == "sim" else _ThreadedDriver
        drivers.append(cls(**kwargs))
        return drivers[-1]

    yield make
    for driver in drivers:
        driver.close()


class TestSharedLifecycle:
    def test_durable_restart_after_release(self, make_driver):
        """The journal's session and view keys are popped before the
        per-lock rejoin, so a released lock's node restarts cleanly."""

        driver = make_driver(persistence=MemoryPersistence())
        cluster = driver.cluster
        driver.acquire(1, "db", LockMode.R)
        cluster.client(1).release("db", LockMode.R)
        cluster.crash(1)
        cluster.restart(1)
        assert cluster.managers[1].boot == 1
        assert [entry["node"] for entry in cluster.durability_log] == [1]
        assert cluster.managers[1].rejoin_report is not None
        driver.acquire(1, "db", LockMode.W)

    def test_drained_w_holder_does_not_block_the_next_w(self, make_driver):
        """Draining a W holder force-releases it through the monitor's
        forced-release hook, so another node's W is a legal grant."""

        monitor = CompatibilityMonitor()
        driver = make_driver(monitor=monitor)
        driver.acquire(1, "db", LockMode.W)
        driver.drain(1)
        driver.acquire(2, "db", LockMode.W)
        assert monitor.grants == 2

    def test_durable_token_holder_restart_after_a_drain_handoff(
        self, make_driver
    ):
        """The drain hands custody to node 0, a W grant moves the token
        on to node 2 within the same epoch, and node 2 crashes holding
        it.  Peers replaying their stale same-epoch hint ("node 0 holds
        it") must not demote node 2's restored custody — nobody else
        holds the token, so that would lose it."""

        driver = make_driver(persistence=MemoryPersistence(), seed=2)
        cluster = driver.cluster
        driver.acquire(1, "db", LockMode.W)
        driver.drain(1)
        driver.acquire(2, "db", LockMode.W)
        cluster.client(2).release("db", LockMode.W)
        cluster.crash(2)
        cluster.restart(2)
        assert cluster.managers[2].rejoin_report["custody"] == ["db"]
        driver.acquire(2, "db", LockMode.R)
        driver.acquire(0, "db", LockMode.R)

    def test_every_grant_is_leased(self, make_driver):
        driver = make_driver()
        driver.acquire(1, "db", LockMode.R)
        leases = driver.cluster.managers[1].own_leases
        assert [lease.lock for lease in leases.leases()] == ["db"]
        assert driver.cluster.managers[1].sessions.export()


class TestViewChangeVotes:
    def test_concurrent_join_and_drain_do_not_split_an_epoch(self):
        """A leaver that has not yet installed a join's view proposes its
        removal at the same epoch as the join.  A member that already
        voted for the join must not also vote for the removal, or the
        two views both win epoch 1 and never reconcile."""

        slow_view_traffic = FaultPlan(
            rules=(
                FaultRule(
                    action=DELAY,
                    delay=2.0,
                    message_types=frozenset({"view-install"}),
                    dests=frozenset({1, 2}),
                    until=1.0,
                ),
                FaultRule(
                    action=DELAY,
                    delay=2.0,
                    message_types=frozenset({"view-proposal"}),
                    dests=frozenset({1}),
                ),
            ),
            seed=0,
            name="join-races-drain",
        )
        cluster = ResilientSimCluster(
            3, plan=slow_view_traffic, latency=Fixed(0.01), seed=0
        )
        cluster.join_node()
        cluster.sim.run(until=0.5)
        cluster.drain_node(1)
        cluster.sim.run(until=10.0)
        views = {
            node: (
                cluster.managers[node].view_epoch,
                tuple(cluster.managers[node].membership),
            )
            for node in cluster.live_nodes()
        }
        assert set(views.values()) == {(2, (0, 2, 3))}, views
        assert cluster.members == [0, 2, 3]
