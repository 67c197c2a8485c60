"""The scheme registry, the wire-label table and the session, a
``Handshake``: login -> respond -> finish over a channel of its own.

Each scheme module provides ``SCHEME``, ``LoginMessage``/``ReplyMessage``
(with ``LOGIN_WIRE``/``REPLY_WIRE``, their layouts), ``Card``,
``PendingLogin``, ``Server``, ``register``, ``login`` and ``finish``.
Every protocol value is named as the scheme's ``EQUATIONS`` name it: a
message's fields, in order, are its wire layout; a card holds each
name of ``Card.FIELD_NAMES``, its stored fields, as an attribute, plus
its hash's name ``h``; a pending login holds the session values the
card keeps until ``finish``.  A ``Server`` subclasses
``core.BaseServer`` and supplies ``enroll``, ``respond`` and, if it
stores more than the identity per user, ``Record`` and
``RECORD_FIELDS``; a record holds what the state file holds for it.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields

from . import baseline, improved
from .channel import SERVER_TO_USER, USER_TO_SERVER, SimChannel
from .core import Env, Field128, GroupParams, ProtocolError, WireMessage

SCHEMES = {m.SCHEME: m for m in (baseline, improved)}

# Why a card of one scheme cannot log in to a server of the other
# (the card's scheme, then the server's)
CROSS_SCHEME_LOGIN = "a card of the %s scheme cannot log in to a server of the %s scheme"

# The one place a message label is paired with the direction it travels
# and the name of its WireMessage class in a scheme module.
WIRE_LABELS = {
    "login": (USER_TO_SERVER, "LoginMessage"),
    "reply": (SERVER_TO_USER, "ReplyMessage"),
}


def wire_traffic(transcript) -> list[tuple[str, int]]:
    """(label, bits) of each protocol message in `transcript`, in order;
    a termination notice is no protocol message."""
    return [(e.label, 8 * len(e.data)) for e in transcript.entries
            if e.label in WIRE_LABELS]


def scheme_module(name: str):
    """The module of scheme `name`; ValueError for an unknown name."""
    if name not in SCHEMES:
        raise ValueError("unknown scheme %r: expected %s" % (name, " or ".join(SCHEMES)))
    return SCHEMES[name]


def wire_message(mod, label: str) -> tuple[str, type[WireMessage]]:
    """(direction, message class) of the `label` message of scheme module
    `mod`; ValueError if the scheme sends no such message."""
    if label not in WIRE_LABELS:
        raise ValueError("no %s message in the %s scheme" % (label, mod.SCHEME))
    direction, cls_name = WIRE_LABELS[label]
    return direction, getattr(mod, cls_name)


def scheme_of(card_or_server) -> str:
    """The scheme name of a card or server instance."""
    for name, mod in SCHEMES.items():
        if isinstance(card_or_server, (mod.Card, mod.Server)):
            return name
    raise TypeError("not a card or server: %r" % (card_or_server,))


def card_from_fields(scheme: str, fields):
    """The `scheme` card whose attributes are `fields`' values, once its
    group ``p``, ``g`` is verified; `fields` may hold other names too."""
    card = scheme_module(scheme).Card
    GroupParams.from_values(fields["p"], fields["g"])
    return card(**{f.name: fields[f.name] for f in dataclass_fields(card)})


class Handshake:
    """One login -> respond -> finish session, step by step, and its
    temporary information: r_u, r_s, the card's pending login, both keys.

    Its channel runs on ``env.clock``, the card's clock.  It owns the
    ledger scopes, the codec and the channel hops, and it is what
    answers a server rejection on the wire.  Each party's step is scoped
    on its own Env: the card's on `env`, the server's on ``server.env``,
    which differ when an adversary logs in.  It draws no randomness
    (callers pass r_u and r_s, so their RNG streams keep their order).
    The server's scheme functions are looked up at each call, so a
    wrapper installed on the module or the server class sees every step.
    """

    def __init__(self, env: Env, server, latency_ms: int = 0,
                 session_id: str = "s000", rng_seed: int | None = None):
        self.mod = SCHEMES[scheme_of(server)]
        self.env = env
        self.server = server
        self.channel = SimChannel(env.clock, latency_ms, session_id, rng_seed)
        self.pending = self.r_u = self.r_s = None  # set by the steps
        self.sk_user = self.sk_server = None

    def keys_match(self) -> bool:
        """Both sides derived a key, and the keys are equal."""
        return self.sk_user is not None and self.sk_user == self.sk_server

    def login(self, card, user_id: Field128, password: str, reading, r_u: int):
        """Card-side step; keeps r_u and the pending login, and sends
        and returns the login.  ValueError, before the card's step runs,
        for a card of another scheme than the server's."""
        if not isinstance(card, self.mod.Card):
            raise ValueError(CROSS_SCHEME_LOGIN % (scheme_of(card), self.mod.SCHEME))
        with self.env.ledger.scope("login", "user"):
            msg, self.pending = self.mod.login(
                self.env, card, user_id, password, reading, r_u
            )
        self.r_u = r_u
        self._send("login", msg)
        return msg

    def respond(self, r_s: int, processing_ms: int = 0):
        """Server step on the login in flight; sends and returns the reply.
        LookupError if nothing is in flight; else r_s is kept, and so is
        the server key if the login is accepted.  A rejection puts the
        termination notice where the reply would go, then re-raises the
        server's ProtocolError."""
        self.server.check_processing_ms(processing_ms)  # before the login leaves the wire
        msg = self._recv("login")
        self.r_s = r_s
        try:
            with self.server.env.ledger.scope("authentication", "server"):
                reply, self.sk_server = self.server.respond(
                    msg, r_s, processing_ms=processing_ms
                )
        except ProtocolError:
            self.channel.terminate(wire_message(self.mod, "reply")[0])
            raise
        self._send("reply", reply)
        return reply

    def finish(self) -> Field128:
        """Card-side completion on the reply in flight; keeps and returns
        the user's key.  The pending login is destroyed whether the reply
        verifies or not, and kept only if no reply arrived (LookupError)."""
        reply = self._recv("reply")
        pending, self.pending = self.pending, None
        with self.env.ledger.scope("authentication", "user"):
            self.sk_user = self.mod.finish(self.env, pending, reply)
        return self.sk_user

    def _send(self, label: str, msg: WireMessage) -> None:
        self.channel.send(wire_message(self.mod, label)[0], label, msg.encode())

    def _recv(self, label: str) -> WireMessage:
        direction, cls = wire_message(self.mod, label)
        return cls.decode(self.channel.recv(direction))
