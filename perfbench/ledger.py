"""Message ledger: every inter-node message, counted at the send boundary.

Session-channel frames (``SessionMessage``) are labelled by the protocol
message they carry, so the ledger splits recovery traffic into the same
kinds as bare-protocol traffic without touching the channel.  Frames are
also keyed by (sender, dest, boot, seq): a key sent more than once was
re-sent by the channel's retransmission timer.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Tuple

#: Ledger kinds, in report order.
KINDS = (
    "request", "grant", "token", "release", "freeze",
    "session_ack", "heartbeat", "view", "other",
)


def _kind_table() -> Dict[type, str]:
    from repro.core import messages as core
    from repro.faults.messages import HeartbeatMessage, SessionAck
    from repro.membership import messages as membership

    table: Dict[type, str] = {
        core.RequestMessage: "request",
        core.GrantMessage: "grant",
        core.TokenMessage: "token",
        core.ReleaseMessage: "release",
        core.FreezeMessage: "freeze",
    }
    table[SessionAck] = "session_ack"
    table[HeartbeatMessage] = "heartbeat"
    for name in ("JoinRequest", "StateTransfer", "ViewProposal", "ViewAck",
                 "ViewInstall", "HandoffMessage", "ChildMigrate"):
        table[getattr(membership, name)] = "view"
    return table


class MessageLedger:
    """Counts messages by kind and detects re-sent session frames."""

    def __init__(self) -> None:
        from repro.faults.messages import SessionMessage

        self._session_type = SessionMessage
        self._kinds = _kind_table()
        self._lock = threading.Lock()
        self.counts: Dict[str, int] = {kind: 0 for kind in KINDS}
        self._frame_sends: Dict[Tuple[int, int, int, int], int] = {}

    def kind(self, message) -> str:
        """Ledger kind of *message* (session frames by their payload)."""

        while isinstance(message, self._session_type):
            message = message.payload
        return self._kinds.get(type(message), "other")

    def count(self, sender: int, envelopes: List) -> None:
        """Record the inter-node envelopes *sender* hands to the fabric."""

        with self._lock:
            for envelope in envelopes:
                if envelope.dest == sender:
                    continue
                message = envelope.message
                self.counts[self.kind(message)] += 1
                if isinstance(message, self._session_type):
                    key = (sender, envelope.dest, message.boot, message.seq)
                    self._frame_sends[key] = self._frame_sends.get(key, 0) + 1

    def total(self) -> int:
        """Messages counted over every kind."""

        return sum(self.counts.values())

    def frames_resent(self) -> int:
        """Distinct session frames that were sent more than once."""

        return sum(1 for sends in self._frame_sends.values() if sends > 1)

    def frames_seen(self) -> int:
        """Distinct session frames sent at least once."""

        return len(self._frame_sends)

    def counting(self, send: Callable) -> Callable:
        """Wrap a fabric ``send(self, sender, envelopes)`` to count first."""

        ledger = self

        def counted(transport, sender, envelopes):
            ledger.count(sender, envelopes)
            return send(transport, sender, envelopes)

        return counted
