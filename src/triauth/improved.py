"""The hardened three-factor login scheme.

Same skeleton as the baseline, with one structural change: the two
registration timestamps T1 (user side) and T2 (server side) become
long-term secrets shared by card and server, and every wire value is
masked or keyed by them.  Raw timestamps never travel; the login
message carries Q = T3 xor h(T1) instead of T3, and the reply masks T4
and T5 the same way.  An adversary with the card, the transcripts and
even both session exponents cannot evaluate any verifier equation
without first knowing T1 and T2 — which is exactly what the structural
taint test and the adversary engine check.

Registration (user at time T1, server at time T2):
  user:   N random, W = h(PW || N || T1), (R, P_i) = Gen(B)
  server: G = h(ID || X), H = G xor T2, e = H xor W,
          issues card {e, h(), p, g, Y} plus T1 xor T2,
          stores (ID, T1, T2)
  user:   L = N xor R xor T1, V = h(ID || T1 || PW || T2 || N),
          M = h(ID xor T2) xor T1, Nmask = h(PW || R) xor T2;
          card gains P_i, L, V, M, Nmask (and keeps T1 xor T2).

Login (card unmasks its own state, then masks the wire):
  T2 = Nmask xor h(PW || R), T1 = M xor h(ID xor T2),
  N = R xor L xor T1, verify V, H = e xor h(PW || N || T1),
  A1 = g^r_u, A11 = A1 xor T2 xor T3, A2 = Y^r_u, A22 = A2 xor T3,
  NID = ID xor A22 xor h(T1 || T3 || T2),
  C_i = h(ID || H || A22 || A11 || T1 || T3 || T2),
  Q = T3 xor h(T1)                            ->  <NID, A11, C_i, Q>

Server response (record found by trial verification; T3 must be
derived from Q before freshness can be checked, so the check runs
right after that derivation and before any exponentiation):
  T3 = Q xor h(T1), check T4 - T3 <= dt,
  A1 = A11 xor T2 xor T3, A2 = A1^X, A22 = A2 xor T3,
  ID = NID xor A22 xor h(T1 || T3 || T2), H = h(ID || X) xor T2,
  verify C_i, then A4 = g^r_s, A44 = A4 xor T3 xor T4,
  A5 = A1^r_s, A55 = A5 xor T3 xor T5,
  SK = h(ID || A22 || A55 || H || T1 || T3 || T5),
  Cs = h(ID || SK || H || T2 || T4),
  P = h(T1 || ID || T3) xor T4, Q2 = h(T2 || ID || T3) xor T5
                                              ->  <Cs, A44, P, Q2>

User finish (no freshness check is defined at this step):
  T4 = P xor h(T1 || ID || T3), T5 = Q2 xor h(T2 || ID || T3),
  A4 = A44 xor T3 xor T4, A5 = A4^r_u, A55 = A5 xor T3 xor T5,
  recompute SK and verify Cs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    FIELD_BYTES,
    AuthFailure,
    BaseServer,
    Env,
    Field128,
    LocalAuthFailure,
    SessionRng,
    UnknownUser,
    WireMessage,
    encode_text,
    ms_to_field,
)
from .fuzzy import BiometricTemplate, HelperData, gen, rep

SCHEME = "improved"

# The equations the adversary model reasons with, in the form of
# baseline.EQUATIONS; every wire word has its row, so tests can walk the
# construction dataflow.  C_i is the verifier a dictionary attack tests.
EQUATIONS = (
    "R = rep(B, P_i)",
    "Nmask = h(PW, R) ^ T2",
    "M = h(ID ^ T2) ^ T1",
    "L = N ^ R ^ T1",
    "e = H ^ h(PW, N, T1)",
    "Q = T3 ^ h(T1)",
    "A11 = A1 ^ T2 ^ T3",
    "A2 = exp(Y, r_u)",
    "A22 = A2 ^ T3",
    "NID = ID ^ A22 ^ h(T1, T3, T2)",
    "C_i = h(ID, H, A22, A11, T1, T3, T2)",
    "A44 = A4 ^ T3 ^ T4",
    "A5 = exp(A4, r_u)",
    "A55 = A5 ^ T3 ^ T5",
    "SK = h(ID, A22, A55, H, T1, T3, T5)",
    "Cs = h(ID, SK, H, T2, T4)",
    "P = h(T1, ID, T3) ^ T4",
    "Q2 = h(T2, ID, T3) ^ T5",
)


@dataclass(frozen=True)
class ImprovedCard:
    """Smart card contents after registration.

    T12 = T1 xor T2 is delivered with the card and kept on it; after
    the holder has split it during registration it is never read
    again, but it is a declared field and counts toward storage.  The
    hash's name h is held but, unlike the baseline card's, not declared.
    """

    e: Field128
    h: str
    p: int
    g: int
    Y: Field128
    P_i: HelperData
    L: Field128
    V: Field128
    M: Field128
    Nmask: Field128
    T12: Field128

    FIELD_NAMES = ("e", "p", "g", "Y", "P_i", "L", "V", "M", "Nmask", "T12")


@dataclass(frozen=True)
class LoginMessage(WireMessage):
    NID: Field128
    A11: Field128
    C_i: Field128
    Q: Field128


@dataclass(frozen=True)
class ReplyMessage(WireMessage):
    Cs: Field128
    A44: Field128
    P: Field128
    Q2: Field128


LOGIN_WIRE = LoginMessage.WIRE
REPLY_WIRE = ReplyMessage.WIRE


@dataclass
class PendingLogin:
    """Session secrets retained by the card between login and finish."""

    ID: Field128
    H: Field128
    A22: Field128
    r_u: int
    T1: Field128
    T2: Field128
    T3: Field128


class ServerRecord(NamedTuple):
    """Per-user registration state, exactly as the state file holds it:
    the identity and the two long-term timestamps as millisecond counts."""

    user_id: Field128
    t1_ms: int
    t2_ms: int


class ImprovedServer(BaseServer):
    """Long-term secret X plus the (ID, T1, T2) registry.

    Login messages carry no cleartext identity, so the server finds
    the right record by trial verification: for each record it unmasks
    the message under that record's timestamps and accepts the record
    whose C_i verifies.  Trial cost is visible in the ledger.  A record
    whose tag hash h(T1) differs from Q in the high 8 bytes is dropped
    on that hash alone: T3 = Q xor h(T1) would not be a timestamp word.
    Each record's tag hash is staged when the record is stored: a hash
    object from the engine's ``new`` that has absorbed the record's T1,
    kept in a private list in step with ``records``.  A scan finishes
    each staged tag with one ``digest()``, which leaves the object as it
    was, so every record tried is still hashed on every scan.
    The tag hashes are counted in one ledger call, ``count_hash(n)``,
    when the scan ends, however it ends; a rejection names the number
    of records tried.
    """

    RECORD_FIELDS = ("id", "t1", "t2")
    Record = ServerRecord._make

    def __init__(self, env: Env, x: int | None = None, rng: SessionRng | None = None):
        super().__init__(env, x, rng)
        self._tags: list = []  # records[i]'s h(T1), absorbed but not finished

    def _add(self, user_id: Field128, *ints: int) -> ServerRecord:
        rec = super()._add(user_id, *ints)
        tag = self.env.hasher.new()
        tag.update(ms_to_field(rec.t1_ms))
        self._tags.append(tag)
        return rec

    def enroll(
        self, user_id: Field128, w: Field128, t1_ms: int, t2_ms: int
    ) -> Field128:
        """Registration at the server: returns e; stores (ID, T1, T2)."""
        self._add(user_id, t1_ms, t2_ms)
        g_val = self.env.h(user_id, self.x_word)
        h_val = g_val ^ ms_to_field(t2_ms)
        return h_val ^ w

    def respond(
        self, msg: LoginMessage, r_s: int, processing_ms: int = 0
    ) -> tuple[ReplyMessage, Field128]:
        self.check_processing_ms(processing_ms)  # before the scan spends anything
        env = self.env
        t4_ms = env.clock.now()
        saw_stale = None  # the freshness fault of a stale record
        saw_mismatch = False
        # T3's high half is zero, so Q's is h(T1)'s: a record's tag digest
        # starts with Q[:8] exactly when it lies between these bounds
        low = msg.Q[:8]
        high = low + b"\xff" * (env.hasher.digest_size - 8)
        tried = 0  # records whose tag hash h(T1) was computed
        try:
            for tried, staged in enumerate(self._tags, 1):
                tag = staged.digest()  # counted with the others when the scan ends
                if not low <= tag <= high:
                    continue
                _, t1_ms, t2_ms = self.records[tried - 1]
                t1, t2 = ms_to_field(t1_ms), ms_to_field(t2_ms)
                t3 = msg.Q ^ tag[:FIELD_BYTES]
                if fault := env.freshness_fault(t3, t4_ms, "login"):
                    # stale under this record's T1; no group work was spent
                    saw_stale = fault
                    continue
                a1 = msg.A11 ^ t2 ^ t3
                try:
                    a2 = env.mod_exp(a1, self.x)
                except ValueError:
                    continue  # unmasked value is not a group element
                a22 = a2 ^ t3
                user_id = msg.NID ^ a22 ^ env.h(t1, t3, t2)
                h_val = env.h(user_id, self.x_word) ^ t2
                expected = env.h(user_id, h_val, a22, msg.A11, t1, t3, t2)
                if expected == msg.C_i:
                    break  # this record's values carry on below
                saw_mismatch = True
            else:
                if saw_stale:
                    raise saw_stale
                if saw_mismatch:
                    raise AuthFailure(
                        "login verifier mismatch (%d records tried)" % tried, tried)
                raise UnknownUser(
                    "no registered identity matches this login (%d records tried)" % tried,
                    tried,
                )
        finally:
            if tried:  # one tag hash per record tried; no record, no ledger entry
                env.ledger.count_hash(tried)

        t4 = ms_to_field(t4_ms)
        a4 = env.mod_exp(env.params.g, r_s)
        a44 = a4 ^ t3 ^ t4
        a5 = env.mod_exp(a1, r_s)
        env.clock.advance(processing_ms)
        _, t5 = env.now_field()
        a55 = a5 ^ t3 ^ t5
        sk = env.h(user_id, a22, a55, h_val, t1, t3, t5)
        cs = env.h(user_id, sk, h_val, t2, t4)
        p_mask = env.h(t1, user_id, t3) ^ t4
        q2 = env.h(t2, user_id, t3) ^ t5
        return ReplyMessage(cs, a44, p_mask, q2), sk


def register(
    env: Env,
    server: ImprovedServer,
    user_id: Field128,
    password: str,
    template: BiometricTemplate,
    rng: SessionRng,
    exchange_ms: int = 0,
) -> ImprovedCard:
    """Run registration; the clock is read for T1 and again for T2.

    `exchange_ms` models the secure-channel hop, which is what makes
    T2 land after T1 — the two instants become the card's and the
    server's shared long-term secrets.
    """
    pw = encode_text(password)
    with env.ledger.scope("registration", "user"):
        t1_ms, t1 = env.now_field()
        n = rng.field()
        w = env.h(pw, n, t1)
        r, helper = gen(template, rng)
    if exchange_ms:
        env.clock.advance(exchange_ms)
    with env.ledger.scope("registration", "server"):
        t2_ms, t2 = env.now_field()
        e = server.enroll(user_id, w, t1_ms, t2_ms)
        t12 = t1 ^ t2
    with env.ledger.scope("registration", "user"):
        # the holder learns T2 by splitting the delivered T1 xor T2
        t2_user = t12 ^ t1
        l_val = n ^ r ^ t1
        v = env.h(user_id, t1, pw, t2_user, n)
        m = env.h(user_id ^ t2_user) ^ t1
        nmask = env.h(pw, r) ^ t2_user
    return ImprovedCard(
        e=e,
        h=env.hasher.name,
        p=env.params.p,
        g=env.params.g,
        Y=server.y,
        P_i=helper,
        L=l_val,
        V=v,
        M=m,
        Nmask=nmask,
        T12=t12,
    )


def login(
    env: Env,
    card: ImprovedCard,
    user_id: Field128,
    password: str,
    template: BiometricTemplate,
    r_u: int,
) -> tuple[LoginMessage, PendingLogin]:
    """Card-side login: unmask T2, T1, N; verify V; mask the wire."""
    if card.h != env.hasher.name:
        raise ValueError("card was issued under a different hash function")
    if (card.p, card.g) != (env.params.p, env.params.g):
        raise ValueError("card was issued under a different group")
    pw = encode_text(password)
    r = rep(template, card.P_i)
    t2 = card.Nmask ^ env.h(pw, r)
    t1 = card.M ^ env.h(user_id ^ t2)
    n = r ^ card.L ^ t1
    if env.h(user_id, t1, pw, t2, n) != card.V:
        raise LocalAuthFailure("card rejected holder")
    h_val = card.e ^ env.h(pw, n, t1)

    _, t3 = env.now_field()
    a1 = env.mod_exp(card.g, r_u)
    a11 = a1 ^ t2 ^ t3
    a2 = env.mod_exp(card.Y, r_u)
    a22 = a2 ^ t3
    nid = user_id ^ a22 ^ env.h(t1, t3, t2)
    c_i = env.h(user_id, h_val, a22, a11, t1, t3, t2)
    q = t3 ^ env.h(t1)
    msg = LoginMessage(nid, a11, c_i, q)
    pending = PendingLogin(
        ID=user_id, H=h_val, A22=a22, r_u=r_u, T1=t1, T2=t2, T3=t3
    )
    return msg, pending


def finish(env: Env, pending: PendingLogin, reply: ReplyMessage) -> Field128:
    """User-side completion.

    The scheme defines no freshness check here — T4 and T5 are
    recovered values, trusted only through the Cs verifier; env's
    delta_t is deliberately unused.
    """
    t4 = reply.P ^ env.h(pending.T1, pending.ID, pending.T3)
    t5 = reply.Q2 ^ env.h(pending.T2, pending.ID, pending.T3)
    a4 = reply.A44 ^ pending.T3 ^ t4
    try:
        a5 = env.mod_exp(a4, pending.r_u)
    except ValueError as exc:
        raise AuthFailure("reply unmasked to a non-group element") from exc
    a55 = a5 ^ pending.T3 ^ t5
    sk = env.h(pending.ID, pending.A22, a55, pending.H, pending.T1, pending.T3, t5)
    expected = env.h(pending.ID, sk, pending.H, pending.T2, t4)
    if expected != reply.Cs:
        raise AuthFailure("reply verifier mismatch")
    return sk


Card = ImprovedCard
Server = ImprovedServer
