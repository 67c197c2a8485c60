"""The scheme registry and step-wise login -> respond -> finish sessions.

Each scheme module provides ``SCHEME``, ``LOGIN_WIRE``/``REPLY_WIRE``,
``LoginMessage``/``ReplyMessage``, ``Card``, ``Server``, ``register``,
``login`` and ``finish``.  A ``Card`` lists its stored fields in
``FIELD_NAMES``.  A ``Server`` subclasses ``core.BaseServer`` and
supplies ``enroll``, ``respond`` and, if it stores more than the
identity per user, ``Record`` and ``RECORD_FIELDS``.
"""

from __future__ import annotations

from . import baseline, improved
from .channel import SERVER_TO_USER, USER_TO_SERVER, SimChannel
from .core import Env, Field128, GroupParams, WireMessage

SCHEMES = {m.SCHEME: m for m in (baseline, improved)}


def scheme_module(name: str):
    """The module of scheme `name`; ValueError for an unknown name."""
    if name not in SCHEMES:
        raise ValueError("unknown scheme %r: expected %s" % (name, " or ".join(SCHEMES)))
    return SCHEMES[name]


def scheme_of(card_or_server) -> str:
    """The scheme name of a card or server instance."""
    for name, mod in SCHEMES.items():
        if isinstance(card_or_server, (mod.Card, mod.Server)):
            return name
    raise TypeError("not a card or server: %r" % (card_or_server,))


def card_fields(card) -> dict:
    """The card's fields as {name: value}, in ``Card.FIELD_NAMES`` order:
    ``h`` is the hash name, ``p`` and ``g`` the group's ints, ``P_i``
    the HelperData, and any other name the attribute ``name.lower()``."""
    derived = {"h": card.hash_name, "p": card.params.p, "g": card.params.g,
               "P_i": card.helper}
    return {
        name: derived[name] if name in derived else getattr(card, name.lower())
        for name in card.FIELD_NAMES
    }


def card_from_fields(scheme: str, fields):
    """The inverse of `card_fields`, the group verified; `fields` must
    also carry ``h`` where the scheme's card does not store it."""
    card = scheme_module(scheme).Card
    plain = {name.lower(): fields[name] for name in card.FIELD_NAMES
             if name not in ("h", "p", "g", "P_i")}
    params = GroupParams.from_values(fields["p"], fields["g"])
    return card(hash_name=fields["h"], params=params, helper=fields["P_i"], **plain)


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
