"""The baseline three-factor login scheme.

Registration (over a secure channel):
  user:   N random, W = h(PW || N), (R, P_i) = Gen(B)
  server: H = h(ID || X), e = H xor W, issues card {e, h(), p, g, Y}
  user:   L = N xor R, V = h(ID || PW || N); card gains P_i, L, V

Login (card-side, after the biometric and V check pass):
  A1 = g^r_u, A2 = Y^r_u, NID = ID xor A2,
  C_i = h(ID || H || A1 || A2 || T1)          ->  <NID, A1, C_i, T1>

Server response:
  check T2 - T1 <= dt, A3 = A1^X, ID = NID xor A3,
  verify C_i, then A4 = g^r_s, A5 = A1^r_s,
  SK = h(ID || A3 || A5 || H || T1 || T3),
  Cs = h(ID || SK || H || T3)                 ->  <Cs, A4, T3>

User finish:
  check T4 - T3 <= dt, A6 = A4^r_u,
  SK = h(ID || A2 || A6 || H || T1 || T3), verify Cs.

The weakness exercised by the adversary engine: every value C_i binds
is either on the wire (A1, T1), reconstructable from the card plus the
session exponent r_u (A2, hence ID), or a function of the password
alone once N is exposed through L and the biometric key.  Leak r_u and
C_i becomes a password-testing oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    AuthFailure,
    BaseServer,
    Env,
    Field128,
    LocalAuthFailure,
    SessionRng,
    UnknownUser,
    WireMessage,
    encode_text,
)
from .fuzzy import BiometricTemplate, HelperData, gen, rep

SCHEME = "baseline"

# The equations the adversary model reasons with, one `value = expression`
# each, written as the functions below compute them.  An expression is
# built from atoms, ^, h(...), exp(base, exponent) and rep(B, P_i); a
# value no party keeps (W) is written out where it is used.  C_i is the
# verifier a dictionary attack tests.
EQUATIONS = (
    "R = rep(B, P_i)",
    "L = N ^ R",
    "e = H ^ h(PW, N)",
    "A2 = exp(Y, r_u)",
    "NID = ID ^ A2",
    "C_i = h(ID, H, A1, A2, T1)",
    "A6 = exp(A4, r_u)",
    "SK = h(ID, A2, A6, H, T1, T3)",
)


@dataclass(frozen=True)
class BaselineCard:
    """Smart card contents after registration completes.

    e, h (the hash's name), p, g, Y come from the issuer; P_i (the
    helper data), L (masked N) and V (local verifier) are written by
    the holder.
    """

    e: Field128
    h: str
    p: int
    g: int
    Y: Field128
    P_i: HelperData
    L: Field128
    V: Field128

    # The stored fields, one 128-bit unit each; the helper string is
    # one declared field although it is template-length.
    FIELD_NAMES = ("e", "h", "p", "g", "Y", "P_i", "L", "V")


# Wire layouts: one 128-bit word per field, in transmission order.
@dataclass(frozen=True)
class LoginMessage(WireMessage):
    NID: Field128
    A1: Field128
    C_i: Field128
    T1: Field128


@dataclass(frozen=True)
class ReplyMessage(WireMessage):
    Cs: Field128
    A4: Field128
    T3: Field128


LOGIN_WIRE = LoginMessage.WIRE
REPLY_WIRE = ReplyMessage.WIRE


@dataclass
class PendingLogin:
    """Session secrets the card keeps between login and finish.

    These live only here; the scenario runner destroys the record when
    the session completes unless a leak step exported it first.
    """

    ID: Field128
    H: Field128
    A2: Field128
    r_u: int
    T1: Field128


class BaselineServer(BaseServer):
    """Holds the long-term secret X and the registered identities."""

    def enroll(self, user_id: Field128, w: Field128) -> Field128:
        """Registration step at the server: returns e = h(ID||X) xor W."""
        self._add(user_id)
        return self.env.h(user_id, self.x_word) ^ w

    def respond(
        self, msg: LoginMessage, r_s: int, processing_ms: int = 0
    ) -> tuple[ReplyMessage, Field128]:
        """Authenticate a login message; returns (reply, session key).

        The freshness check runs before any exponentiation, so a stale
        or malformed message costs the server no group operations.
        `processing_ms` is simulated compute time between receiving the
        login and stamping the reply; a negative one is refused before
        any work is spent.
        """
        self.check_processing_ms(processing_ms)
        env = self.env
        if fault := env.freshness_fault(msg.T1, env.clock.now(), "login"):
            raise fault

        try:
            a3 = env.mod_exp(msg.A1, self.x)
        except ValueError as exc:
            raise AuthFailure("A1 is not a group element") from exc
        user_id = msg.NID ^ a3
        if user_id not in self.user_ids:
            raise UnknownUser("recovered identity is not enrolled")
        h_val = env.h(user_id, self.x_word)
        expected = env.h(user_id, h_val, msg.A1, a3, msg.T1)
        if expected != msg.C_i:
            raise AuthFailure("login verifier mismatch")

        a4 = env.mod_exp(env.params.g, r_s)
        a5 = env.mod_exp(msg.A1, r_s)
        env.clock.advance(processing_ms)
        _, t3 = env.now_field()
        sk = env.h(user_id, a3, a5, h_val, msg.T1, t3)
        cs = env.h(user_id, sk, h_val, t3)
        return ReplyMessage(cs, a4, t3), sk


def register(
    env: Env,
    server: BaselineServer,
    user_id: Field128,
    password: str,
    template: BiometricTemplate,
    rng: SessionRng,
    exchange_ms: int = 0,
) -> BaselineCard:
    """Run the three registration steps; returns the issued card.

    `exchange_ms` models the secure-channel hop between user and
    server (this scheme reads no clock during registration, so it only
    moves simulated time forward).
    """
    pw = encode_text(password)
    with env.ledger.scope("registration", "user"):
        n = rng.field()
        w = env.h(pw, n)
        r, helper = gen(template, rng)
    if exchange_ms:
        env.clock.advance(exchange_ms)
    with env.ledger.scope("registration", "server"):
        e = server.enroll(user_id, w)
    with env.ledger.scope("registration", "user"):
        l_val = n ^ r
        v = env.h(user_id, pw, n)
    return BaselineCard(
        e=e,
        h=env.hasher.name,
        p=env.params.p,
        g=env.params.g,
        Y=server.y,
        P_i=helper,
        L=l_val,
        V=v,
    )


def login(
    env: Env,
    card: BaselineCard,
    user_id: Field128,
    password: str,
    template: BiometricTemplate,
    r_u: int,
) -> tuple[LoginMessage, PendingLogin]:
    """Card-side login step.

    Rejects the holder locally (V mismatch) before anything reaches the
    wire; a wrong password or a far-off biometric never produces a
    message.
    """
    if card.h != env.hasher.name:
        raise ValueError("card was issued under a different hash function")
    pw = encode_text(password)
    r = rep(template, card.P_i)
    n = card.L ^ r
    if env.h(user_id, pw, n) != card.V:
        raise LocalAuthFailure("card rejected holder")
    h_val = card.e ^ env.h(pw, n)

    _, t1 = env.now_field()
    a1 = env.mod_exp(card.g, r_u)
    a2 = env.mod_exp(card.Y, r_u)
    nid = user_id ^ a2
    c_i = env.h(user_id, h_val, a1, a2, t1)
    msg = LoginMessage(nid, a1, c_i, t1)
    pending = PendingLogin(ID=user_id, H=h_val, A2=a2, r_u=r_u, T1=t1)
    return msg, pending


def finish(env: Env, pending: PendingLogin, reply: ReplyMessage) -> Field128:
    """User-side completion: checks the reply, returns the session key."""
    if fault := env.freshness_fault(reply.T3, env.clock.now(), "reply"):
        raise fault

    try:
        a6 = env.mod_exp(reply.A4, pending.r_u)
    except ValueError as exc:
        raise AuthFailure("A4 is not a group element") from exc
    sk = env.h(pending.ID, pending.A2, a6, pending.H, pending.T1, reply.T3)
    expected = env.h(pending.ID, sk, pending.H, reply.T3)
    if expected != reply.Cs:
        raise AuthFailure("reply verifier mismatch")
    return sk


Card = BaselineCard
Server = BaselineServer
