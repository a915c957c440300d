"""The benchmark's workloads, driven only through public APIs.

The simulated workloads (``paper-120`` and the ``recovery-*`` ones) pool a
fixed number of seeded sub-runs, so their counts and virtual-time
metrics are exact for a benchmark seed and do not hinge on one
sub-seed's luck; repeated sub-runs then fill the measuring window, each
reproducing its first run exactly.  The service workload
(``service-threaded``) drives the blocking client of
:class:`~repro.runtime.cluster.ThreadedHierarchicalCluster` on the
in-memory transport from two closed-loop threads for the whole window.

Each workload yields an :class:`Outcome`; ``run.py`` turns outcomes
into the printed metrics.
"""

from __future__ import annotations

import bisect
import dataclasses
import gc
import heapq
import random
import statistics
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.lockspace import hashed_token_home
from repro.core.modes import LockMode, intention_mode
from repro.errors import InvariantViolation, SimulationError
from repro.experiments.common import run_hierarchical
from repro.faults.chaos import (
    CHAOS_OBS_MAX_BUCKETS,
    CHAOS_OBS_MAX_SPANS,
    WORKLOAD_MODES,
    run_chaos,
)
from repro.faults.plan import named_plan
from repro.faults.simcluster import ResilientSimCluster
from repro.metrics import MetricsCollector
from repro.obs.collect import RunObserver
from repro.obs.live import audit_view
from repro.obs.sink import ObsSink
from repro.persist import MemoryPersistence
from repro.runtime.cluster import ThreadedHierarchicalCluster
from repro.runtime.transport import ThreadedTransport
from repro.sim.cluster import SimHierarchicalCluster
from repro.sim.engine import Process, Simulator, Timeout
from repro.sim.rng import Exponential, derive_rng
from repro.verification.invariants import CompatibilityMonitor, MonitorSet
from repro.workload.airline import hierarchical_client
from repro.workload.generator import (
    draw_operation,
    entry_lock_id,
    table_lock_id,
)
from repro.workload.spec import WorkloadSpec

#: Simulator callbacks allowed per run; more means livelock.
EVENT_BUDGET = 30_000_000

#: ``paper-120``: the paper's largest cluster, its §4 parameters, and
#: the sub-runs pooled per benchmark seed.
PAPER_NODES = 120
PAPER_OPS_PER_NODE = 30
PAPER_SUBRUNS = 10

#: ``recovery-*``: the chaos plan each runs (``recovery-20`` is kept out
#: of BENCHMARK.json: see NOTES.md, known defect 3), cluster size, locks,
#: issue window and drain (virtual s), and the sub-runs pooled per seed.
RECOVERY_PLANS = {"recovery-nofault-20": "none", "recovery-20": "smoke"}
RECOVERY_NODES = 20
RECOVERY_LOCKS = 3
RECOVERY_WINDOW = 60.0
RECOVERY_GRACE = 15.0
RECOVERY_SUBRUNS = 12

#: ``service-threaded``: cluster size, client nodes (node 0 is the token
#: home of every lock), a write-heavy mix with real U->W upgrades, and
#: think times in the paper's 15 ms : 150 ms critical-section:idle ratio.
SERVICE_NODES = 4
SERVICE_CLIENT_NODES = (1, 2)
SERVICE_MIX = (
    (LockMode.IR, 0.40),
    (LockMode.R, 0.10),
    (LockMode.U, 0.10),
    (LockMode.IW, 0.20),
    (LockMode.W, 0.20),
)
SERVICE_CS_MEAN = 0.0002
SERVICE_IDLE_MEAN = 0.002
#: An acquire or upgrade that takes longer than this has failed.
ACQUIRE_TIMEOUT = 5.0
#: Latencies and queue waits reserved per second of a service run; the
#: clients' think times keep them near 1200 and 1100 per second.
SAMPLES_PER_S = 4000
#: Seconds between the service run's readings of hypervisor steal time.
STEAL_INTERVAL_S = 0.5

#: ``service-threaded``: cluster builds per run whose median is
#: ``setup_s`` (the sims time the build of every sub-run instead).
SETUP_REPEATS = 30

#: A p99 needs at least ten samples beyond it.
MIN_GRANTS = 1000

#: Seconds the calibration loop takes on the reference host.  The sims'
#: wall-clock figures are scaled to that host speed (see
#: :func:`calibration_s`).
CALIBRATION_REFERENCE_S = 0.2


class CorrectnessError(Exception):
    """A workload's output failed a correctness check."""


class LatchedCompatibility(CompatibilityMonitor):
    """Rule-1 monitor that also remembers a violation it raised.

    In the threaded runtime the raise happens on a dispatcher thread,
    where nobody sees it; the latch lets the benchmark fail the run.
    """

    def __init__(self) -> None:
        super().__init__()
        self.violations: List[str] = []

    def on_grant(self, time, node, lock_id, mode) -> None:
        try:
            super().on_grant(time, node, lock_id, mode)
        except InvariantViolation as exc:
            self.violations.append(str(exc))
            raise


@dataclasses.dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int
    failed: int
    #: Granted lock requests (acquire + upgrade calls).
    requests: int
    #: Inter-node messages the fabric carried.
    messages: int
    #: Issue->grant latencies, seconds, ascending: virtual and of every
    #: grant in the sims; wall and of the grants :func:`quiet_latencies`
    #: keeps in the service.
    latencies: List[float]
    #: One-way link latency, seconds, the Figure 6 normaliser: the
    #: configured mean in sims, the median ``wire_sent`` time in the
    #: service.
    link_latency_s: float
    #: Median wall seconds to build a cluster.
    setup_s: float = 0.0
    #: Granted requests per wall second.
    rate: float = 0.0
    #: Peak resident memory of the process during the measured runs, and
    #: its resident memory when they started, MB (see :class:`PeakMemory`).
    peak_rss_mb: float = 0.0
    base_rss_mb: float = 0.0
    #: Longest time a lock went without service after the crash.
    outage_s: Optional[float] = None
    #: The service's enqueue->dispatch seconds per message, ascending.
    queue_waits: List[float] = dataclasses.field(default_factory=list)
    #: Counts for the per-layer report.
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)
    notes: List[str] = dataclasses.field(default_factory=list)


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""

    if not sorted_values:
        raise CorrectnessError("no latencies to summarise")
    rank = max(int(round(fraction * len(sorted_values) + 0.5)) - 1, 0)
    return sorted_values[min(rank, len(sorted_values) - 1)]


# ---------------------------------------------------------------------------
# Simulated workloads
# ---------------------------------------------------------------------------


class PaperCase:
    """One seeded ``paper-120`` run, built the way Figures 5 and 6 are."""

    def __init__(self, seed: int, nodes: int, ops_per_node: int) -> None:
        self.nodes = nodes
        self.spec = spec = WorkloadSpec(seed=seed, ops_per_node=ops_per_node)
        self.sim = sim = Simulator()
        self.metrics = metrics = MetricsCollector()
        self.compat = LatchedCompatibility()
        self.cluster = SimHierarchicalCluster(
            nodes,
            sim=sim,
            latency=Exponential(spec.latency_mean),
            seed=spec.seed,
            token_home=hashed_token_home(nodes),
            monitor=MonitorSet([self.compat]),
            metrics=metrics,
        )
        entries = spec.entry_count(nodes)
        self.processes = [
            Process(
                sim,
                hierarchical_client(
                    sim,
                    self.cluster.client(node),
                    spec,
                    entries,
                    derive_rng(spec.seed, "hier", nodes, node),
                    metrics=metrics,
                ),
            )
            for node in range(nodes)
        ]

    def run(self) -> None:
        self.sim.run(max_events=EVENT_BUDGET)

    def finish(self) -> Outcome:
        _check_processes(self.processes)
        self.compat.assert_all_released()
        self.cluster.assert_quiescent_invariants()
        metrics = self.metrics
        latencies = sorted(r.latency for r in metrics.requests)
        return Outcome(
            attempted=metrics.total_requests,
            failed=0,
            requests=metrics.total_requests,
            messages=metrics.total_messages,
            latencies=latencies,
            link_latency_s=self.spec.latency_mean,
            extra={
                "sim.events": self.sim.events_processed,
                "net.msgs": self.cluster.network.messages_sent,
                "net.dropped": self.cluster.network.messages_dropped,
                "lockspace.upgrades": sum(
                    1 for r in metrics.requests if r.kind == "U->W"
                ),
            },
        )

    def reference_check(self, outcome: Outcome) -> Callable[[], None]:
        """Fig. 5/6 figures must equal ``run_hierarchical`` exactly.

        Returns the check, holding only the figures it compares, so it
        can run after this case is released.
        """

        nodes, spec = self.nodes, self.spec
        ours = (
            self.metrics.message_overhead(),
            self.metrics.latency_factor(spec.latency_mean),
        )

        def check() -> None:
            reference = run_hierarchical(nodes, spec)
            theirs = (reference.message_overhead(), reference.latency_factor())
            if ours != theirs:
                raise CorrectnessError(
                    f"paper-120 (msgs/request, latency factor) {ours} differs "
                    f"from run_hierarchical {theirs}"
                )

        return check


class RecoveryCase:
    """One seeded run of a chaos-harness scenario on the recovery stack.

    Built like :func:`repro.faults.chaos.run_chaos` with ``durable=True``
    and flight recording: the same cluster, plan and per-node workload,
    so :meth:`reference_check` can demand identical request counts.  A
    :class:`~repro.obs.collect.RunObserver` is attached as well.
    """

    def __init__(
        self, plan: str, seed: int, nodes: int, window: float, grace: float
    ) -> None:
        self.plan = plan
        self.seed = seed
        self.nodes = nodes
        self.window = window
        self.grace = grace
        self.sim = sim = Simulator()
        self.compat = LatchedCompatibility()
        self.persistence = MemoryPersistence()
        self.obs = RunObserver(
            clock=lambda: sim.now,
            max_buckets=CHAOS_OBS_MAX_BUCKETS,
            max_spans=CHAOS_OBS_MAX_SPANS,
        )
        self.cluster = ResilientSimCluster(
            num_nodes=nodes,
            plan=named_plan(plan, seed),
            sim=sim,
            seed=seed,
            monitor=MonitorSet([self.compat]),
            obs=self.obs,
            persistence=self.persistence,
            flight={},
        )
        #: One ``[node, lock, issued_at, granted_at]`` per request.
        self.records: List[list] = []
        self.processes = [
            Process(sim, self._client(node)) for node in range(nodes)
        ]

    def _client(self, node: int):
        """The chaos harness's closed-loop client of one node."""

        sim, cluster = self.sim, self.cluster
        rng = derive_rng(self.seed, "chaos", node)
        client = cluster.client(node)
        while sim.now < self.window:
            if cluster.is_crashed(node):
                return
            lock_id = f"lock-{rng.randrange(RECOVERY_LOCKS)}"
            mode = WORKLOAD_MODES[rng.randrange(len(WORKLOAD_MODES))]
            record = [node, lock_id, sim.now, None]
            self.records.append(record)
            try:
                event = client.acquire(lock_id, mode)
            except SimulationError:
                return  # Crashed or fenced: this client is done.
            yield event  # Never fires if the node crashes meanwhile.
            record[3] = sim.now
            yield Timeout(sim, rng.uniform(0.05, 0.30))
            if cluster.is_crashed(node):
                return
            client.release(lock_id, mode)
            yield Timeout(sim, rng.uniform(0.05, 0.25))

    def reference_check(self, outcome: Outcome) -> Callable[[], None]:
        """Counts must equal ``run_chaos`` for the same scenario.

        Returns the check, holding only the counts it compares.
        """

        plan, seed, nodes = self.plan, self.seed, self.nodes
        window, grace = self.window, self.grace
        ours = (
            outcome.attempted, outcome.requests, outcome.failed,
            outcome.messages,
        )

        def check() -> None:
            verdict = run_chaos(
                plan,
                seed=seed,
                nodes=nodes,
                duration=window,
                locks=RECOVERY_LOCKS,
                grace=grace,
                durable=True,
            ).data
            theirs = (
                verdict["requests"]["issued"],
                verdict["requests"]["granted"],
                verdict["requests"]["outstanding"],
                verdict["faults"]["messages_sent"],
            )
            if ours != theirs:
                raise CorrectnessError(
                    f"{plan} scenario (issued, granted, never granted, "
                    f"messages) {ours} differs from run_chaos {theirs}"
                )

        return check

    def run(self) -> None:
        self.sim.run(until=self.window + self.grace)

    def finish(self) -> Outcome:
        _check_processes(self.processes, allow_blocked=True)
        cluster = self.cluster
        crash_times: Dict[int, List[float]] = {}
        for crash in cluster.crash_log:
            crash_times.setdefault(int(crash["node"]), []).append(
                float(crash["at"])
            )
        if len(crash_times) != len(cluster.plan.crashes):
            raise CorrectnessError(
                f"{self.plan} scenario: {len(cluster.plan.crashes)} crashes "
                f"planned, {len(crash_times)} happened"
            )
        fenced = {n for n, m in cluster.managers.items() if m.fenced_at}

        def abandoned(record: list) -> bool:
            node, issued = record[0], record[2]
            if node in fenced:
                return True
            return any(t >= issued for t in crash_times.get(node, ()))

        granted = [r for r in self.records if r[3] is not None]
        failed = [
            r for r in self.records if r[3] is None and not abandoned(r)
        ]
        latencies = sorted(r[3] - r[2] for r in granted)
        end = self.sim.now
        outage = 0.0
        crash_at = min(
            (t for times in crash_times.values() for t in times), default=end
        )
        for lock_id in sorted({r[1] for r in self.records}):
            after = [
                r for r in self.records
                if r[1] == lock_id and r[2] >= crash_at and not abandoned(r)
            ]
            if not after:
                continue
            first_demand = min(r[2] for r in after)
            grants = [r[3] for r in after if r[3] is not None]
            served = min(grants) if grants else end
            outage = max(outage, served - first_demand)
        mean = statistics.fmean(latencies) if latencies else None
        audit = audit_view(
            cluster.cluster_view(), quiescent=True, mean_grant_latency=mean
        )
        findings: Dict[str, int] = {}
        for finding in audit.findings:
            findings[finding.rule] = findings.get(finding.rule, 0) + 1
        stats = cluster.recovery_stats()
        wal = self.persistence.stats()
        extra = {
            "sim.events": self.sim.events_processed,
            "net.msgs": cluster.network.messages_sent,
            "net.dropped": cluster.network.messages_dropped,
            "channel.retransmits": stats["channel_retransmits"],
            "channel.dups_dropped": stats["duplicates_dropped"],
            "recovery.suspect_events": stats["suspect_events"],
            "recovery.app_retransmits": stats["app_retransmits"],
            "recovery.regenerations": len(stats["regenerations"]),
            "wal.appends": wal["appends"],
            "wal.bytes": wal["bytes_written"],
            "audit.findings": len(audit.findings),
        }
        notes = []
        if findings or failed:
            notes.append(
                f"{self.plan} sub-seed {self.seed}: {len(failed)} of "
                f"{len(self.records)} requests never granted on live nodes; "
                "audit at quiescence: "
                + (
                    ", ".join(f"{r} x{n}" for r, n in sorted(findings.items()))
                    or "no findings"
                )
            )
        return Outcome(
            attempted=len(self.records),
            failed=len(failed),
            requests=len(granted),
            messages=cluster.network.messages_sent,
            latencies=latencies,
            link_latency_s=cluster.network.mean_latency,
            outage_s=outage,
            extra=extra,
            notes=notes,
        )


def _check_processes(processes, allow_blocked: bool = False) -> None:
    for index, process in enumerate(processes):
        if process.error is not None:
            raise CorrectnessError(
                f"client process {index} crashed: "
                f"{type(process.error).__name__}: {process.error}"
            )
    if not allow_blocked:
        blocked = [i for i, p in enumerate(processes) if not p.done.triggered]
        if blocked:
            raise CorrectnessError(f"client processes {blocked} never finished")


#: Counts a rerun in the same process may legitimately change: WAL
#: records embed request serials, which come from a process-wide counter,
#: so a later run writes longer numbers.
UNREPEATABLE = frozenset({"wal.bytes"})


def signature(outcome: Outcome) -> tuple:
    """Everything a seeded sim run must reproduce exactly."""

    return (
        outcome.attempted,
        outcome.failed,
        outcome.requests,
        outcome.messages,
        tuple(outcome.latencies),
        outcome.outage_s,
        tuple(
            sorted(
                (key, value)
                for key, value in outcome.extra.items()
                if key not in UNREPEATABLE
            )
        ),
    )


class _Slot:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def calibration_s(iterations: int = 60_000) -> float:
    """Wall seconds of a fixed CPU-bound Python loop (no program code).

    The loop mixes what the simulator spends its time on: dict lookups,
    small-object allocation and heap operations.  On a shared host the
    speed of CPU-bound Python drifts by half from minute to minute; a
    sim's wall time divided by the loop's time measured around it is
    steady (over blocks of four sub-runs, spread 0.41 raw against 0.09
    scaled, on a 2-vCPU virtual machine).

    The garbage collector is off while the loop runs: a collection would
    walk whatever the program keeps alive, and the yardstick would then
    move with the program's heap.
    """

    rng = random.Random(7)
    table: Dict[int, _Slot] = {}
    heap: List[Tuple[int, int]] = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(iterations):
            key = rng.randrange(2048)
            old = table.get(key)
            table[key] = _Slot(i, old.a if old is not None else 0)
            heapq.heappush(heap, (i * 7919 % 10007, i))
            if len(heap) > 256:
                heapq.heappop(heap)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _status_kib(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise CorrectnessError(f"/proc/self/status has no {field}")


class PeakMemory:
    """Peak resident memory of this process during the measured runs.

    :meth:`start` resets the kernel's resident high-water mark of this
    process (Linux ``/proc/self/clear_refs``), so nothing that ran
    before counts; :meth:`mb` reads it (``VmHWM``) before anything that
    should not count runs, such as the reference checks.  The figure
    includes the interpreter and the imports (``base_mb``, the resident
    size at :meth:`start`).
    """

    def start(self) -> "PeakMemory":
        with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
            refs.write("5")
        self.base_mb = _status_kib("VmRSS") / 1024.0
        return self

    def mb(self) -> float:
        return _status_kib("VmHWM") / 1024.0


def median_setup(
    build: Callable[[], object],
    teardown: Callable[[object], None] = lambda built: None,
) -> float:
    """Median wall seconds of ``SETUP_REPEATS`` builds.

    Each build starts after a full garbage collection, so no build pays
    for another's garbage.
    """

    perf = time.perf_counter
    samples: List[float] = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = perf()
        built = build()
        samples.append(perf() - start)
        teardown(built)
    return statistics.median(samples)


def subrun_seeds(seed: int, count: int) -> List[int]:
    """The sub-run seeds of benchmark seed *seed* (disjoint per seed)."""

    return [seed * 1000 + index for index in range(count)]


def run_subruns(
    build: Callable[[int], object], seeds: List[int], seconds: float
) -> Outcome:
    """Run the seeded sim case of every seed in *seeds*, then repeat them.

    The sub-runs give every count and virtual-time metric (pooled, so a
    run's figures do not hinge on one seed's luck).  Repetitions,
    round-robin from the first seed, fill the rest of the *seconds*
    window (at least one is made); each must reproduce its first run
    exactly.  Wall-clock figures are scaled to the reference host speed:
    every build and ``Simulator.run`` is timed between two runs of the
    calibration loop.  The rate is all runs' granted requests over their
    scaled run time; ``setup_s`` is the median scaled build time of all
    runs.  Only one case is alive at a time; the first sub-run's
    reference check runs after the peak memory is read.  Returns the
    pooled outcome.
    """

    perf = time.perf_counter
    deadline = perf() + seconds
    memory = PeakMemory().start()
    calibration = [calibration_s()]
    setups: List[float] = []
    scaled: List[Tuple[int, float]] = []
    outcomes: List[Outcome] = []

    def once(sub_seed: int):
        gc.collect()  # The previous sub-run's garbage is not this one's cost.
        start = perf()
        case = build(sub_seed)
        built = perf()
        gc.collect()
        begun = perf()
        case.run()
        served = perf() - begun
        calibration.append(calibration_s())
        scale = CALIBRATION_REFERENCE_S / statistics.fmean(calibration[-2:])
        outcome = case.finish()
        setups.append((built - start) * scale)
        scaled.append((outcome.requests, served * scale))
        return case, outcome

    check = None
    for sub_seed in seeds:
        case, outcome = once(sub_seed)
        if check is None:
            check = case.reference_check(outcome)
        outcomes.append(outcome)
        del case
    index = 0
    while True:
        again = once(seeds[index % len(seeds)])[1]
        if signature(again) != signature(outcomes[index % len(seeds)]):
            raise CorrectnessError(
                f"two runs of seed {seeds[index % len(seeds)]} differ: the "
                "simulation is not deterministic"
            )
        index += 1
        if perf() >= deadline:
            break
    peak_rss_mb = memory.mb()
    check()
    extra: Dict[str, float] = {}
    for outcome in outcomes:
        for key, value in outcome.extra.items():
            extra[key] = extra.get(key, 0) + value
    outages = [o.outage_s for o in outcomes if o.outage_s is not None]
    return Outcome(
        attempted=sum(o.attempted for o in outcomes),
        failed=sum(o.failed for o in outcomes),
        requests=sum(o.requests for o in outcomes),
        messages=sum(o.messages for o in outcomes),
        latencies=sorted(x for o in outcomes for x in o.latencies),
        link_latency_s=outcomes[0].link_latency_s,
        setup_s=statistics.median(setups),
        rate=sum(r for r, _ in scaled) / sum(t for _, t in scaled),
        peak_rss_mb=peak_rss_mb,
        base_rss_mb=memory.base_mb,
        outage_s=max(outages) if outages else None,
        extra=extra,
        notes=[note for o in outcomes for note in o.notes],
    )


# ---------------------------------------------------------------------------
# Service workload
# ---------------------------------------------------------------------------


class Samples:
    """Records of *width* floats kept in memory reserved up front.

    Any thread may add.  The service run records a latency per grant and
    a queue wait per message; reserved before the peak-memory
    measurement starts, that bookkeeping does not grow ``peak_rss_mb``
    with the request rate.
    """

    def __init__(self, capacity: int, width: int = 1) -> None:
        self._width = width
        self._values = array("d", bytes(8 * capacity * width))
        self._count = 0
        self._lock = threading.Lock()

    def add(self, *values: float) -> None:
        with self._lock:
            at = self._count * self._width
            if at < len(self._values):
                self._values[at:at + self._width] = array("d", values)
            else:
                self._values.extend(values)
            self._count += 1

    def column(self, index: int = 0) -> List[float]:
        """Field *index* of every record, in the order they were added."""

        used = self._values[: self._count * self._width]
        return used[index::self._width].tolist()


def steal_ticks() -> int:
    """CPU time the hypervisor has taken from this machine, in ticks.

    The ``steal`` field of ``/proc/stat``; 0 where there is none.
    """

    with open("/proc/stat", encoding="ascii") as stat:
        fields = stat.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def quiet_latencies(
    ends: List[float], latencies: List[float], steal: List[Tuple[float, int]]
) -> List[float]:
    """Latencies of the grants that ended in the run's quieter intervals.

    *steal* holds (time, steal ticks) readings taken while serving; each
    interval between two readings has a steal count.  Grants that ended
    in an interval with more steal than the median interval are left
    out, because the hypervisor took the CPUs away for part of them.
    The choice depends only on the steal readings, never on the
    latencies.  Returns the kept latencies, ascending.
    """

    times = [t for t, _ in steal]
    counts = [b - a for (_, a), (_, b) in zip(steal, steal[1:])]
    if not counts:
        return sorted(latencies)
    limit = statistics.median(counts)
    kept = []
    for end, latency in zip(ends, latencies):
        index = min(max(bisect.bisect_left(times, end) - 1, 0), len(counts) - 1)
        if counts[index] <= limit:
            kept.append(latency)
    return sorted(kept)


class WireSink(ObsSink):
    """Transport ``obs`` hook: keeps each ``wire_sent`` time.

    The threaded transport reports each message's enqueue->dispatch
    seconds.
    """

    def __init__(self, seconds: Samples) -> None:
        self.seconds = seconds

    def wire_sent(self, sender, dest, nbytes, seconds) -> None:
        self.seconds.add(seconds)


class ServiceRun:
    """Two closed-loop client threads against a threaded cluster.

    *latencies* receives (end, wall seconds) of every granted acquire or
    upgrade, *queue_waits* every message's enqueue->dispatch seconds.
    ``steal`` holds the (time, steal ticks) readings taken while serving.
    """

    def __init__(
        self, seed: int, latencies: Samples, queue_waits: Samples
    ) -> None:
        self.seed = seed
        self.latencies = latencies
        self.sink = WireSink(queue_waits)
        self.spec = WorkloadSpec(
            seed=seed,
            mode_mix=SERVICE_MIX,
            cs_mean=SERVICE_CS_MEAN,
            idle_mean=SERVICE_IDLE_MEAN,
        )
        self.compat = LatchedCompatibility()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self.steal: List[Tuple[float, int]] = []
        self.cluster: Optional[ThreadedHierarchicalCluster] = None

    def build(self) -> "ServiceRun":
        """Build and start the cluster."""

        self.cluster = ThreadedHierarchicalCluster(
            SERVICE_NODES,
            monitor=MonitorSet([self.compat]),
            transport=ThreadedTransport(obs=self.sink),
        )
        return self

    def serve(self, seconds: float) -> float:
        """Run both clients for *seconds*; returns the wall time used."""

        start = time.perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(
                target=self._client,
                args=(node, deadline),
                name=f"perfbench-client-{node}",
                daemon=True,
            )
            for node in SERVICE_CLIENT_NODES
        ]
        for thread in threads:
            thread.start()
        limit = deadline + 2 * ACQUIRE_TIMEOUT + 5.0
        self.steal = [(start, steal_ticks())]
        while True:
            alive = [t for t in threads if t.is_alive()]
            if not alive or time.perf_counter() > limit:
                break
            alive[0].join(STEAL_INTERVAL_S)
            self.steal.append((time.perf_counter(), steal_ticks()))
        if alive:
            self._stop.set()
            names = [t.name for t in alive]
            raise CorrectnessError(f"client threads never finished: {names}")
        return time.perf_counter() - start

    def _timed(self, call: Callable[[], None], what: str) -> bool:
        with self._lock:
            self.attempted += 1
        start = time.perf_counter()
        try:
            call()
        except TimeoutError as exc:
            with self._lock:
                self.failed += 1
                self.failures.append(f"{what}: {exc}")
            self._stop.set()
            return False
        end = time.perf_counter()
        self.latencies.add(end, end - start)
        return True

    def _client(self, node: int, deadline: float) -> None:
        spec = self.spec
        rng = derive_rng(self.seed, "service", node)
        cs = Exponential(spec.cs_mean)
        idle = Exponential(spec.idle_mean)
        client = self.cluster.client(node)
        table = table_lock_id()
        entries = SERVICE_NODES
        sleep = time.sleep
        timeout = ACQUIRE_TIMEOUT
        while not self._stop.is_set() and time.perf_counter() < deadline:
            sleep(idle.sample(rng))
            op = draw_operation(rng, spec, node, entries)
            if op.is_entry_op:
                intent = intention_mode(op.mode)
                leaf = LockMode.R if op.mode is LockMode.IR else LockMode.W
                entry = entry_lock_id(op.entry)
                if not self._timed(
                    lambda: client.acquire(table, intent, timeout=timeout),
                    f"node {node} {intent} on {table}",
                ):
                    return
                if not self._timed(
                    lambda: client.acquire(entry, leaf, timeout=timeout),
                    f"node {node} {leaf} on {entry}",
                ):
                    return
                sleep(cs.sample(rng))
                client.release(entry, leaf)
                client.release(table, intent)
            elif op.mode is LockMode.U:
                if not self._timed(
                    lambda: client.acquire(table, LockMode.U, timeout=timeout),
                    f"node {node} U on {table}",
                ):
                    return
                sleep(cs.sample(rng))
                if not self._timed(
                    lambda: client.upgrade(table, timeout=timeout),
                    f"node {node} U->W on {table}",
                ):
                    return
                sleep(cs.sample(rng))
                client.release(table, LockMode.W)
            else:
                mode = op.mode
                if not self._timed(
                    lambda: client.acquire(table, mode, timeout=timeout),
                    f"node {node} {mode} on {table}",
                ):
                    return
                sleep(cs.sample(rng))
                client.release(table, mode)

    def check(self) -> None:
        """Rule 1 held; with no timeout, every hold was released."""

        if self.compat.violations:
            raise CorrectnessError(
                f"Rule 1 violated: {self.compat.violations[0]}"
            )
        if self.failed:
            return  # A timed-out request may still be granted later.
        self.cluster.transport.drain()
        self.compat.assert_all_released()

    def shutdown(self) -> None:
        if self.cluster is not None:
            self.cluster.shutdown()


def run_service(seed: int, seconds: float) -> Outcome:
    """Measure ``service-threaded`` over *seconds* of wall time.

    The transport reports every message through its ``obs.wire_sent``
    hook; the median of those times is the run's link latency.  The
    latency figures come from the grants :func:`quiet_latencies` keeps.
    """

    capacity = int(seconds * SAMPLES_PER_S) + 1
    granted, queue_waits = Samples(capacity, width=2), Samples(capacity)
    memory = PeakMemory().start()
    setup_s = median_setup(
        lambda: ServiceRun(seed, Samples(0, width=2), Samples(0)).build(),
        teardown=ServiceRun.shutdown,
    )
    run = ServiceRun(seed, granted, queue_waits).build()
    try:
        wall = run.serve(seconds)
        peak_rss_mb = memory.mb()
        run.check()
        messages = run.cluster.transport.messages_sent
    finally:
        run.shutdown()
    ends, latencies = granted.column(0), granted.column(1)
    kept = quiet_latencies(ends, latencies, run.steal)
    waits = sorted(queue_waits.column())
    notes = [f"timed out: {f}" for f in run.failures]
    if len(kept) < len(latencies):
        every = sorted(latencies)
        notes.append(
            f"latency figures from {len(kept)} of {len(every)} grants: the "
            "rest ended in intervals with more hypervisor steal than the "
            "median interval; over every grant p50 "
            f"{percentile(every, 0.5) * 1e3:.4f} ms, p99 "
            f"{percentile(every, 0.99) * 1e3:.4f} ms"
        )
    return Outcome(
        attempted=run.attempted,
        failed=run.failed,
        requests=len(latencies),
        messages=messages,
        latencies=kept,
        link_latency_s=statistics.median(waits) if waits else 0.0,
        setup_s=setup_s,
        rate=len(latencies) / wall,
        peak_rss_mb=peak_rss_mb,
        base_rss_mb=memory.base_mb,
        notes=notes,
        queue_waits=waits,
    )
