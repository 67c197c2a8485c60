"""Simulated wire between card and server, which keeps a transcript.

The channel is a pair of FIFO queues driven by the simulated clock.
Sending stamps the message with a delivery time (send time + latency);
receiving advances the clock to that time if it has not passed yet.
Delivered bytes are identical to sent bytes unless something corrupts
the message in flight.

Every channel records every message that crosses it into a transcript —
this is the eavesdropper's view, and the adversary engine works from
these records alone.  The transcript holds the one copy of each
message; a queue holds only its index and delivery time, so what is
delivered is what is recorded.  Rejections never cross the wire with
their local error code; the server's visible answer is always the same
terminating notice, which ``session.Handshake`` sends.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from .core import SimClock

USER_TO_SERVER = "user->server"
SERVER_TO_USER = "server->user"

# The only thing a rejected peer ever sees.  Local logs and exit codes
# carry the real reason; the wire does not.
WIRE_TERMINATION = "session terminated"


@dataclass(frozen=True)
class TranscriptEntry:
    direction: str
    label: str  # "login", "reply", or "termination"
    data: bytes
    captured_at: int  # ms, send time


@dataclass
class Transcript:
    """Byte-exact record of one session's wire traffic."""

    session_id: str
    rng_seed: int | None = None
    entries: list[TranscriptEntry] = field(default_factory=list)


class SimChannel:
    """FIFO message pipe with per-direction latency; records every message."""

    def __init__(
        self,
        clock: SimClock,
        latency_ms: int = 0,
        session_id: str = "s000",
        rng_seed: int | None = None,
    ):
        if latency_ms < 0:  # a message cannot arrive before it was sent
            raise ValueError("latency must not be negative, got %d ms" % latency_ms)
        self.clock = clock
        self.latency_ms = latency_ms
        self._queues: dict[str, deque] = {
            USER_TO_SERVER: deque(),
            SERVER_TO_USER: deque(),
        }
        self._transcript = Transcript(session_id, rng_seed)

    def send(self, direction: str, label: str, data: bytes) -> None:
        queue = self._queue(direction)
        sent_at = self.clock.now()
        entries = self._transcript.entries
        queue.append((len(entries), sent_at + self.latency_ms))
        entries.append(TranscriptEntry(direction, label, bytes(data), sent_at))

    def recv(self, direction: str) -> bytes:
        queue = self._queue(direction)
        if not queue:
            raise LookupError("no message in flight on %s" % direction)
        index, deliver_at = queue.popleft()
        if self.clock.now() < deliver_at:
            self.clock.advance(deliver_at - self.clock.now())
        return self._transcript.entries[index].data

    def corrupt_in_flight(self, direction: str, offset: int, mask: bytes) -> None:
        """XOR `mask` into the oldest undelivered message.

        The recorded transcript shows the corrupted bytes too: the wire
        carried them, and an eavesdropper cannot see the sender's
        intent.  A zero mask leaves the message identical.
        """
        queue = self._queue(direction)
        if not queue:
            raise LookupError("no message in flight to corrupt on %s" % direction)
        entries = self._transcript.entries
        index = queue[0][0]
        data = bytearray(entries[index].data)
        if offset < 0 or offset + len(mask) > len(data):
            raise ValueError("corruption mask falls outside the message")
        for i, b in enumerate(mask):
            data[offset + i] ^= b
        entries[index] = replace(entries[index], data=bytes(data))

    def terminate(self, direction: str) -> None:
        """Record the uniform rejection notice (no local code leaks)."""
        self._transcript.entries.append(
            TranscriptEntry(
                direction,
                "termination",
                WIRE_TERMINATION.encode("ascii"),
                self.clock.now(),
            )
        )

    def transcript(self) -> Transcript:
        """A copy of the transcript so far; the channel keeps its own."""
        return replace(self._transcript, entries=list(self._transcript.entries))

    def _queue(self, direction: str) -> deque:
        try:
            return self._queues[direction]
        except KeyError:
            raise ValueError("unknown direction %r" % direction) from None
