"""The scheme registry and step-wise login -> respond -> finish sessions.

Each scheme module provides ``SCHEME``, ``LOGIN_WIRE``/``REPLY_WIRE``,
``LoginMessage``/``ReplyMessage``, ``Card``, ``Server``, ``register``,
``login`` and ``finish``.
"""

from __future__ import annotations

from . import baseline, improved
from .channel import SERVER_TO_USER, USER_TO_SERVER, SimChannel
from .core import Env, Field128, WireMessage

SCHEMES = {m.SCHEME: m for m in (baseline, improved)}


def scheme_module(name: str):
    """The module of scheme `name`; ValueError for an unknown name."""
    try:
        return SCHEMES[name]
    except KeyError:
        raise ValueError(
            "unknown scheme %r: expected %s" % (name, " or ".join(SCHEMES))
        ) from None


class Handshake:
    """One login -> respond -> finish session over `channel`, step by step.

    It owns the ledger scopes, the wire accounting, the codec and the
    channel hops.  It draws no randomness (callers pass r_u and r_s, so
    their RNG streams keep their order) and catches no errors.  Scheme
    functions are looked up on `mod` at each call, so a wrapper
    installed on the module or the server class sees every step.
    """

    def __init__(self, mod, env: Env, server, channel: SimChannel):
        self.mod = mod
        self.env = env
        self.server = server
        self.channel = channel

    def login(self, card, user_id: Field128, password: str, reading, r_u: int):
        """Card-side step; sends the login and returns (message, pending)."""
        with self.env.ledger.scope("login", "user"):
            msg, pending = self.mod.login(
                self.env, card, user_id, password, reading, r_u
            )
        self._send(USER_TO_SERVER, "login", msg)
        return msg, pending

    def respond(self, r_s: int, processing_ms: int = 0):
        """Server step on the login in flight; sends the reply and
        returns (reply, server key).  LookupError if nothing is in flight."""
        msg = self.mod.LoginMessage.decode(self.channel.recv(USER_TO_SERVER))
        with self.env.ledger.scope("authentication", "server"):
            reply, sk_server = self.server.respond(
                msg, r_s, processing_ms=processing_ms
            )
        self._send(SERVER_TO_USER, "reply", reply)
        return reply, sk_server

    def finish(self, pending) -> Field128:
        """Card-side completion on the reply in flight; the user's key."""
        reply = self.mod.ReplyMessage.decode(self.channel.recv(SERVER_TO_USER))
        with self.env.ledger.scope("authentication", "user"):
            return self.mod.finish(self.env, pending, reply)

    def _send(self, direction: str, label: str, msg: WireMessage) -> None:
        raw = msg.encode()
        self.env.ledger.record_wire(label, len(raw))
        self.channel.send(direction, label, raw)
