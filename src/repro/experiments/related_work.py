"""Related-work study (§5): dynamic vs. static token trees.

The paper positions itself against the two O(log n) token algorithms:
Naimi-Tréhel (dynamic tree, path reversal — the protocol it builds on)
and Raymond (static tree, no adaptation).  This experiment runs both on
the identical single-token workload and reports messages per request as
the cluster grows, measuring the claim that "Raymond's algorithm uses a
non-adaptive logical structure while we use a dynamic one, which results
in dynamic path compression".

A second sweep shows Raymond's topology sensitivity (balanced tree vs.
chain): the static structure pays its full height on every transfer,
which is precisely what adaptivity avoids.

The regime matters: under *heavy* contention Raymond amortizes its tree
height (the privilege sweeps the tree serving whole batches of queued
requests), and any per-node "idle time" still saturates once enough
nodes exist.  The comparison therefore issues **strictly sequential,
isolated requests** from uniformly random nodes — each completes before
the next is issued — so every request pays exactly its protocol's path
cost, which is the quantity §5 talks about.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from ..metrics import MetricsCollector
from ..raymond.topology import Topology, balanced_binary_tree, chain
from ..sim.cluster import SimNaimiCluster, SimRaymondCluster
from ..sim.engine import Process
from ..sim.rng import Exponential, derive_rng
from ..verification.invariants import MutualExclusionMonitor
from .report import render_series_table, shape_checks

LOCK = "global"


def sequential_probe(
    cluster, num_nodes: int, rounds: int, seed: int, metrics: MetricsCollector
):
    """One coroutine issuing isolated requests from random nodes."""

    sim = cluster.sim
    rng = derive_rng(seed, "probe", num_nodes)
    for _round in range(rounds):
        node = rng.randrange(num_nodes)
        issued = sim.now
        yield cluster.client(node).acquire(LOCK)
        metrics.record_request(node, "probe", issued, sim.now, lock=LOCK)
        cluster.client(node).release(LOCK)


def _sequential_overhead(cluster, num_nodes, rounds, seed) -> float:
    metrics = cluster.metrics
    process = Process(cluster.sim, sequential_probe(
        cluster, num_nodes, rounds, seed, metrics
    ))
    cluster.sim.run(max_events=10_000_000)
    assert process.done.triggered
    return metrics.message_overhead()


def sequential_naimi(num_nodes: int, rounds: int = 60, seed: int = 7) -> float:
    """Messages per isolated request under Naimi (dynamic tree)."""

    metrics = MetricsCollector()
    cluster = SimNaimiCluster(
        num_nodes, latency=Exponential(0.150), seed=seed, metrics=metrics,
        monitor=MutualExclusionMonitor(),
    )
    return _sequential_overhead(cluster, num_nodes, rounds, seed)


def sequential_raymond(
    num_nodes: int, topology: Topology, rounds: int = 60, seed: int = 7
) -> float:
    """Messages per isolated request under Raymond on *topology*."""

    metrics = MetricsCollector()
    cluster = SimRaymondCluster(
        num_nodes, latency=Exponential(0.150), seed=seed,
        topology=topology, metrics=metrics,
        monitor=MutualExclusionMonitor(),
    )
    return _sequential_overhead(cluster, num_nodes, rounds, seed)


@dataclasses.dataclass
class RelatedWorkResult:
    """Dynamic-vs-static comparison data."""

    node_counts: List[int]
    overhead: Dict[str, List[float]]

    def checks(self) -> List:
        """The §5 claims, evaluated on this data."""

        naimi = self.overhead["naimi (dynamic)"]
        tree = self.overhead["raymond (balanced)"]
        chain_series = self.overhead["raymond (chain)"]
        n = self.node_counts
        return [
            (
                "the static chain pays ~linear per-request overhead",
                chain_series[-1] > 0.3 * n[-1],
            ),
            (
                "dynamic path reversal beats the static chain at scale",
                naimi[-1] < chain_series[-1],
            ),
            (
                "dynamic path reversal beats the balanced static tree too",
                naimi[-1] < tree[-1],
            ),
            (
                "balanced Raymond and Naimi are both sub-linear",
                tree[-1] < n[-1] / 2 and naimi[-1] < n[-1] / 2,
            ),
        ]

    def render(self) -> str:
        """Paper-style rows for the §5 comparison."""

        table = render_series_table(
            "Related work (§5) — messages per request, single token",
            "nodes",
            [float(n) for n in self.node_counts],
            self.overhead,
        )
        return "\n\n".join([table, shape_checks(self.checks())])


def run_related_work(
    node_counts: Sequence[int] = (2, 4, 8, 16, 32, 64),
    rounds: int = 60,
    seed: int = 7,
) -> RelatedWorkResult:
    """Sweep Naimi vs. Raymond (balanced and chain topologies)."""

    overhead: Dict[str, List[float]] = {
        "naimi (dynamic)": [],
        "raymond (balanced)": [],
        "raymond (chain)": [],
    }
    for n in node_counts:
        overhead["naimi (dynamic)"].append(
            sequential_naimi(n, rounds=rounds, seed=seed)
        )
        overhead["raymond (balanced)"].append(
            sequential_raymond(
                n, balanced_binary_tree(n), rounds=rounds, seed=seed
            )
        )
        overhead["raymond (chain)"].append(
            sequential_raymond(n, chain(n), rounds=rounds, seed=seed)
        )
    return RelatedWorkResult(
        node_counts=list(node_counts), overhead=overhead
    )


def main(argv: Sequence[str] = ()) -> None:
    """CLI entry point."""

    quick = "--quick" in argv
    counts = (2, 4, 8, 16) if quick else (2, 4, 8, 16, 32, 64)
    print(run_related_work(counts, rounds=30 if quick else 60).render())


if __name__ == "__main__":  # pragma: no cover - CLI
    import sys

    main(sys.argv[1:])
