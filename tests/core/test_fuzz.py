"""Property-based fuzzing of the protocol automata.

Hypothesis drives random operation scripts through random message
interleavings (beyond the per-pair-FIFO orders the exhaustive explorer
already covers, this fuzzer scales to more nodes and longer scripts).
Invariants checked on every path: pairwise-compatible holds, eventual
completion of every request, and a consistent quiescent tree.  After
every step each automaton's owned mode and each token node's frozen set
must also equal their definitions (Definition 3 and Table 2(b)), which
pins the precomputed mode tables against the per-entry formula.
"""

from __future__ import annotations

import sys
from collections import deque
from pathlib import Path
from typing import Dict, List, Tuple

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import Pump  # noqa: E402

from repro.core.automaton import ProtocolOptions  # noqa: E402
from repro.core.modes import (  # noqa: E402
    LockMode,
    compatible,
    freeze_set,
    max_mode,
)

MODES = [LockMode.IR, LockMode.R, LockMode.U, LockMode.IW, LockMode.W]


class _FuzzHarness:
    """Drives a Pump with externally chosen delivery order."""

    def __init__(self, num_nodes: int, options: ProtocolOptions) -> None:
        self.pump = Pump(num_nodes, options=options)
        self.options = options
        self.holds: List[Tuple[int, LockMode]] = []
        self.completed = 0

    def check_derived_state(self) -> None:
        """Owned modes and frozen sets equal their definitions."""

        for node, automaton in self.pump.automata.items():
            owned = automaton.owned_mode()
            assert owned is max_mode(
                list(automaton.held_modes) + list(automaton.children.values())
            ), f"node {node}: owned mode {owned}"
            if not automaton.has_token:
                continue
            expected = set()
            if self.options.freezing:
                for queued in automaton.queued_requests:
                    expected |= freeze_set(owned, queued.mode)
            assert automaton.frozen_modes == expected, (
                f"token node {node} freezes {set(automaton.frozen_modes)}, "
                f"queue {[str(q.mode) for q in automaton.queued_requests]} "
                f"owning {owned} needs {expected}"
            )

    def check_grants(self) -> None:
        """Fold new grants into holds, checking pairwise compatibility."""

        while self.completed < len(self.pump.grants):
            node, mode, _ctx = self.pump.grants[self.completed]
            for holder, held in self.holds:
                assert compatible(held, mode), (
                    f"{mode} granted to {node} while {holder} holds {held}"
                )
            self.holds.append((node, mode))
            self.completed += 1
        self.check_derived_state()

    def deliver_one(self, choice: int) -> bool:
        """Deliver the choice-th queued message (mod queue length)."""

        queue = self.pump.queue
        if not queue:
            return False
        # Respect per-pair FIFO: pick among the heads of each channel.
        heads: Dict[Tuple[int, int], int] = {}
        for index, (sender, envelope) in enumerate(queue):
            key = (sender, envelope.dest)
            if key not in heads:
                heads[key] = index
        indices = sorted(heads.values())
        index = indices[choice % len(indices)]
        sender, envelope = queue[index]
        del queue[index]
        replies = self.pump.automata[envelope.dest].handle(envelope.message)
        self.pump.send(envelope.dest, replies)
        self.check_grants()
        return True

    def release_one(self, choice: int) -> bool:
        """Release the choice-th live hold."""

        if not self.holds:
            return False
        index = choice % len(self.holds)
        node, mode = self.holds.pop(index)
        out = self.pump.automata[node].release(mode)
        self.pump.send(node, out)
        self.check_grants()
        return True


# A contended script (the token queues conflicting requests and freezes)
# run under every option set whose freeze path differs: always covered,
# whatever the random draws above pick.
_CONTENDED = dict(
    num_nodes=4,
    requests=[
        (1, LockMode.R), (2, LockMode.W), (3, LockMode.IR),
        (1, LockMode.IW), (2, LockMode.U), (3, LockMode.R),
    ],
    schedule=[0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1],
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    num_nodes=st.integers(min_value=2, max_value=5),
    requests=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.sampled_from(MODES),
        ),
        min_size=1,
        max_size=6,
    ),
    schedule=st.lists(st.integers(min_value=0, max_value=99), max_size=60),
    options=st.sampled_from(
        [
            ProtocolOptions(),
            ProtocolOptions(freezing=False),
            ProtocolOptions(child_grants=False),
            ProtocolOptions(local_reentry=False),
            ProtocolOptions(priority_scheduling=True),
        ]
    ),
)
@example(options=ProtocolOptions(), **_CONTENDED)
@example(options=ProtocolOptions(freezing=False), **_CONTENDED)
@example(options=ProtocolOptions(priority_scheduling=True), **_CONTENDED)
def test_random_interleavings_stay_safe_and_complete(
    num_nodes, requests, schedule, options
):
    harness = _FuzzHarness(num_nodes, options)
    pump = harness.pump
    pending_issues = deque(
        (node % num_nodes, mode) for node, mode in requests
    )
    issues: Dict[int, int] = {}

    def grants_for(node: int) -> int:
        return sum(1 for n, _m, _c in pump.grants if n == node)

    def issue_next() -> bool:
        if not pending_issues:
            return False
        node, mode = pending_issues[0]
        if issues.get(node, 0) > grants_for(node):
            return False  # one outstanding request per node
        pending_issues.popleft()
        issues[node] = issues.get(node, 0) + 1
        out = pump.automata[node].request(mode, ctx=(node, mode))
        pump.send(node, out)
        harness.check_grants()
        return True

    # Interleave issues, deliveries and releases per the random schedule.
    for choice in schedule:
        action = choice % 3
        if action == 0 and issue_next():
            continue
        if action == 1 and harness.deliver_one(choice // 3):
            continue
        harness.release_one(choice // 3)
        harness.check_grants()

    # Drain: issue what's left, deliver everything, release everything.
    steps = 0
    while pending_issues or pump.queue or harness.holds:
        steps += 1
        assert steps < 10_000, "fuzz run failed to converge"
        if issue_next():
            continue
        if harness.deliver_one(0):
            continue
        if harness.release_one(0):
            continue
        break
    harness.check_grants()
    # Every request eventually granted.
    assert len(pump.grants) == len(requests)
    # Tree consistent at quiescence.
    pump.assert_quiescent_tree()
    holders = [n for n, a in pump.automata.items() if a.has_token]
    assert len(holders) == 1
