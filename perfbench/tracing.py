"""Span tracing installed from outside the program.

The traced run of the benchmark replaces public methods of the lock
service's classes with timing wrappers *before* it builds a cluster, so
no tracing code lives in the program itself.  Every wrapped call opens a
span (name, start, end, parent span, op id); a layer's self time is the
time of its spans minus the part covered by their child spans.

Aggregates (calls, self time, total time per span name) are exact.  Span
records are kept in memory up to a cap per thread and written out as
JSON lines when the run ends; spans of the hottest calls (``store=False``,
the mode-table functions) are aggregated but never stored, since a
120-node run makes millions of them.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Dict, List, Optional

#: Span records kept per thread before further spans are only counted.
MAX_STORED_SPANS = 200_000


class _ThreadState:
    """Per-thread span stack and aggregates (merged when the run ends)."""

    __slots__ = ("stack", "self_s", "total_s", "calls", "spans", "dropped")

    def __init__(self) -> None:
        # Each frame: [span_id, op_id, child_seconds].
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.spans: List[tuple] = []
        self.dropped = 0


class SpanRecorder:
    """Collects spans from every thread that calls a wrapped function."""

    def __init__(self, max_stored: int = MAX_STORED_SPANS) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._max_stored = max_stored
        self._patched: List[tuple] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def _span_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def wrap(
        self,
        fn: Callable,
        name: str,
        store: bool = True,
        op: bool = False,
    ) -> Callable:
        """Return *fn* wrapped in a span called *name*.

        The layer is the part of *name* before its first dot.  With
        ``op=True`` the span starts a new op id that its children carry.
        """

        layer = name.split(".", 1)[0]
        recorder = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = recorder._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            span_id = recorder._span_id() if store else 0
            op_id = span_id if op else (parent[1] if parent else 0)
            frame = [span_id, op_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                state.self_s[layer] = (
                    state.self_s.get(layer, 0.0) + duration - frame[2]
                )
                state.total_s[name] = state.total_s.get(name, 0.0) + duration
                state.calls[name] = state.calls.get(name, 0) + 1
                if store:
                    if len(state.spans) < recorder._max_stored:
                        state.spans.append(
                            (
                                span_id,
                                parent[0] if parent else 0,
                                name,
                                start,
                                end,
                                op_id,
                            )
                        )
                    else:
                        state.dropped += 1

        return traced

    def patch(
        self,
        owner,
        attr: str,
        name: str,
        store: bool = True,
        op: bool = False,
        inner: Optional[Callable[[Callable], Callable]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a class or module) with a traced one.

        *inner*, when given, decorates the original inside the span (the
        message ledger counts there).
        """

        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        target = original if inner is None else inner(original)
        setattr(owner, attr, self.wrap(target, name, store=store, op=op))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""

        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer, summed over threads."""

        totals: Dict[str, float] = {}
        for state in self._states:
            for layer, seconds in state.self_s.items():
                totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def thread_self_s(self) -> List[float]:
        """Self seconds of every layer, summed per thread."""

        return [sum(state.self_s.values()) for state in self._states]

    def calls(self, prefix: str = "") -> int:
        """Calls of every span whose name starts with *prefix*."""

        return sum(
            count
            for state in self._states
            for name, count in state.calls.items()
            if name.startswith(prefix)
        )

    def total_s(self, name: str) -> float:
        """Total (inclusive) seconds of spans called exactly *name*."""

        return sum(state.total_s.get(name, 0.0) for state in self._states)

    def span_count(self) -> int:
        """Spans opened, stored or not."""

        return self.calls("")

    def write(self, path: str, meta: Dict[str, object]) -> int:
        """Write stored spans as JSON lines; returns the number written."""

        written = 0
        with open(path, "w", encoding="utf-8") as out:
            header = dict(meta)
            header["dropped"] = sum(s.dropped for s in self._states)
            out.write(json.dumps({"meta": header}) + "\n")
            for thread_index, state in enumerate(self._states):
                for span_id, parent, name, start, end, op_id in state.spans:
                    out.write(
                        json.dumps(
                            {
                                "id": span_id,
                                "parent": parent,
                                "name": name,
                                "start": start,
                                "end": end,
                                "op": op_id,
                                "thread": thread_index,
                            }
                        )
                        + "\n"
                    )
                    written += 1
        return written


def wrapper_cost_s(samples: int = 20_000) -> float:
    """Measured seconds one traced call adds over a direct call."""

    recorder = SpanRecorder(max_stored=0)

    def noop() -> None:
        return None

    traced = recorder.wrap(noop, "calibrate.noop", store=False)
    perf = time.perf_counter
    start = perf()
    for _ in range(samples):
        noop()
    direct = perf() - start
    start = perf()
    for _ in range(samples):
        traced()
    wrapped = perf() - start
    return max(wrapped - direct, 0.0) / samples


def install_layers(recorder: SpanRecorder, ledger) -> None:
    """Wrap the public calls of every layer the benchmark attributes.

    *ledger* (a :class:`~ledger.MessageLedger`) counts messages inside
    the fabric ``send`` spans.
    """

    from repro.core import automaton
    from repro.core.lockspace import LockSpace
    from repro.faults.channel import ReliableChannel
    from repro.faults.detector import HeartbeatDetector
    from repro.faults.recovery import RecoveryManager
    from repro.leases.lease import LeaseTable
    from repro.obs.collect import RunObserver
    from repro.obs.flightrec import FlightRecorder
    from repro.obs.tracing import MessageTracer
    from repro.persist.journal import NodeJournal
    from repro.runtime.cluster import BlockingLockClient
    from repro.runtime.transport import ThreadedTransport
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.verification.invariants import MonitorSet

    patch = recorder.patch
    patch(Simulator, "run", "sim.run")
    patch(Network, "send", "net.send", inner=ledger.counting)
    for fn in ("request", "release", "upgrade", "handle"):
        patch(LockSpace, fn, f"lockspace.{fn}")
    for fn in MODES_FUNCTIONS:
        patch(automaton, fn, f"modes.{fn}", store=False)
    for fn in ("on_request", "on_grant", "on_release", "on_crash",
               "on_forced_release"):
        patch(MonitorSet, fn, f"monitor.{fn}")
    for fn in ("send", "handle"):
        patch(ReliableChannel, fn, f"channel.{fn}")
    for fn in ("beat", "check"):
        patch(HeartbeatDetector, fn, f"detector.{fn}")
    for fn in ("request", "release", "handle"):
        patch(RecoveryManager, fn, f"recovery.{fn}")
    for fn in ("record", "compact"):
        patch(NodeJournal, fn, f"wal.{fn}")
    for fn in ("get", "grant", "renew", "observe", "drop", "drop_holder",
               "clear", "leases", "active", "holder_active", "expired",
               "export"):
        patch(LeaseTable, fn, f"lease.{fn}")
    for fn in ("phase", "queue_depth", "copyset_size", "freeze_size",
               "message", "wire_sent", "wire_received", "fault",
               "peer_lost", "persist_event", "engine_tick"):
        patch(RunObserver, fn, f"obs.{fn}")
    for fn in ("outbound", "delivered", "begin_delivery", "end_delivery",
               "stamp_frame"):
        patch(MessageTracer, fn, f"obs.tracer.{fn}")
    for fn in ("record_birth", "record_op", "record_msg", "record_crash",
               "record_restart"):
        patch(FlightRecorder, fn, f"flightrec.{fn}")
    for fn in ("acquire", "upgrade", "release"):
        patch(BlockingLockClient, fn, f"client.{fn}", op=True)
    patch(ThreadedTransport, "send", "transport.send", inner=ledger.counting)


#: The names ``repro.core.automaton`` imports from ``repro.core.modes``
#: and calls on its hot paths.
MODES_FUNCTIONS = (
    "child_can_grant",
    "compatible",
    "max_mode",
    "freeze_set",
    "should_queue",
    "strictly_weaker",
    "token_can_grant",
    "token_transfer_required",
)
