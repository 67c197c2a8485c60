"""Security findings as concrete attacks on the scheme code.

Each test runs one attack with the schemes' own primitives (`Env.h`,
`Env.mod_exp`, `rep`), not through the symbolic adversary, and asserts
what holds today.  When a finding is mended, its test flips in the same
change.  Where the symbolic verdict disagrees with the concrete attack,
the test asserts both sides: the disagreement is the finding.
"""

from dataclasses import replace

import pytest

from support import enroll, full_leak, login, other_scheme, run_session
from triauth import adversary, baseline, improved
from triauth.core import (
    DEFAULT_EPOCH_MS,
    CostLedger,
    Field128,
    SessionRng,
    UnknownUser,
    encode_text,
    field_to_ms,
    ms_to_field,
)
from triauth.fuzzy import rep
from triauth.session import SCHEMES, Handshake, wire_message


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_login_replayed_inside_the_window_is_accepted_again(scheme):
    """ROADMAP item 4.  No replay cache: the server answers the same
    login twice, with a fresh exponent and a fresh session key each time."""
    enr = enroll(scheme)
    enr.env.clock.advance(60_000)
    msg, _ = login(enr)
    params = enr.env.params
    _, sk = enr.server.respond(msg, enr.rng.exponent(params))
    enr.env.clock.advance(enr.env.delta_t_ms // 2)  # still inside the window
    reply, replayed_sk = enr.server.respond(msg, enr.rng.exponent(params))
    assert isinstance(reply, SCHEMES[scheme].ReplyMessage)
    assert replayed_sk != sk


def test_a_baseline_a1_of_p_minus_1_costs_a_modexp_before_unknown_user():
    """ROADMAP item 4.  The baseline server checks only 0 < A1 < p, so
    A1 = p - 1, an element of order 2, is raised to X (to 1 or p - 1)
    before the recovered identity is refused."""
    enr = enroll("baseline")
    env = enr.env
    p = env.params.p
    assert pow(p - 1, enr.server.x, p) in (1, p - 1)
    _, t1 = env.now_field()
    msg = baseline.LoginMessage(
        NID=encode_text("nobody"), A1=Field128.from_int(p - 1),
        C_i=Field128(bytes(16)), T1=t1,
    )
    env.ledger = CostLedger()
    with pytest.raises(UnknownUser, match="^recovered identity is not enrolled$"):
        enr.server.respond(msg, enr.rng.exponent(env.params))
    assert (env.ledger.modexp_total(), env.ledger.hash_total()) == (1, 0)


@pytest.mark.parametrize("card_scheme, unknown", [
    ("baseline", ("SK",)),
    ("improved", ("A22", "H", "ID", "SK", "T1w", "T3w")),
])
def test_a_login_of_the_other_scheme_is_read_under_the_cards_layout(card_scheme, unknown):
    """ROADMAP item 4.  A transcript names no scheme, and both schemes'
    logins are 64 bytes, so a login-only capture of the other scheme is
    read as a login of the card's scheme: `assemble` raises nothing, and
    the attack on the card, the biometric and r_u, r_s gives the verdict
    that the card's own login-only capture gives."""
    runs = {}
    for scheme in SCHEMES:
        enr = enroll(scheme)
        runs[scheme] = (enr, run_session(enr))
    enr, run = runs[card_scheme]

    def verdict(wire_scheme):
        transcript = runs[wire_scheme][1].transcript
        (entry, *_) = transcript.entries
        assert (entry.label, len(entry.data)) == ("login", 64)
        knowledge = adversary.AdversaryKnowledge.assemble(
            card_scheme, card=enr.card,
            transcripts=(replace(transcript, entries=[entry]),),
            biometric=enr.template, r_u=run.r_u, r_s=run.r_s, dictionary=[enr.password])
        outcome = adversary.attack(knowledge)
        return outcome.status, outcome.work, [(g.equation, g.unknown) for g in outcome.gaps]

    assert verdict(other_scheme(card_scheme)) == verdict(card_scheme) == (
        adversary.INSUFFICIENT, 0, [("C_i", unknown)])


def test_every_improved_login_of_a_user_carries_one_q_tag():
    """ROADMAP item 13.  Q = T3 xor h(T1), and T3's high half is zero,
    so Q's high 8 bytes are h(T1)'s: one tag per user, which links all
    of that user's logins."""
    enr = enroll("improved")
    msgs = []
    for _ in range(4):
        enr.env.clock.advance(60_000)
        msgs.append(login(enr)[0])
    (rec,) = enr.server.records
    assert len({msg.Q for msg in msgs}) == 4
    assert {msg.Q[:8] for msg in msgs} == {enr.env.h(ms_to_field(rec.t1_ms))[:8]}


def _improved_wire(transcript):
    """An improved session's wire words by name, as an eavesdropper reads them."""
    wire = {}
    for entry in transcript.entries:
        wire.update(wire_message(improved, entry.label)[1].words(entry.data))
    return wire


def test_the_card_t12_turns_one_leaked_session_into_a_password_oracle():
    """ROADMAP item 17.  The hardened card keeps T12 = T1 xor T2.  With
    the card, one transcript, the biometric and r_u, each password guess
    gives T2 by Nmask, T1 by T12, T3 by A11 and A1 = g^r_u, and is
    tested by Q = T3 xor h(T1); the true one then gives ID and SK.  The
    symbolic attack on the same leak, without T12, which the model
    withholds, cannot start."""
    enr = enroll("improved", password="real-pw")
    run = run_session(enr)
    card, env = enr.card, replace(enr.env, ledger=CostLedger())
    wire = _improved_wire(run.transcript)
    r = rep(enr.template, card.P_i)
    a1 = env.mod_exp(card.g, run.r_u)
    a2 = env.mod_exp(card.Y, run.r_u)

    recovered = []
    for guess in ("decoy-1", "real-pw", "decoy-2", "decoy-3"):
        pw = encode_text(guess)
        t2 = card.Nmask ^ env.h(pw, r)
        t1 = card.T12 ^ t2
        t3 = wire["A11"] ^ a1 ^ t2
        if wire["Q"] != t3 ^ env.h(t1):
            continue
        a22 = a2 ^ t3
        user_id = wire["NID"] ^ a22 ^ env.h(t1, t3, t2)
        h_val = card.e ^ env.h(pw, card.L ^ r ^ t1, t1)  # N = L ^ R ^ T1
        assert env.h(user_id, h_val, a22, wire["A11"], t1, t3, t2) == wire["C_i"]
        t4 = wire["P"] ^ env.h(t1, user_id, t3)
        t5 = wire["Q2"] ^ env.h(t2, user_id, t3)
        a55 = env.mod_exp(wire["A44"] ^ t3 ^ t4, run.r_u) ^ t3 ^ t5
        sk = env.h(user_id, a22, a55, h_val, t1, t3, t5)
        recovered.append((guess, user_id, sk))
    assert recovered == [("real-pw", enr.user_id, run.sk_user)]

    knowledge = full_leak(enr, run, ["decoy-1", "real-pw", "decoy-2", "decoy-3"])
    assert "T12" not in knowledge.atoms
    outcome = adversary.attack(knowledge)
    assert (outcome.status, outcome.work, outcome.session_key) == (
        adversary.INSUFFICIENT, 0, None)


def test_the_improved_logins_capture_time_is_its_t3():
    """ROADMAP item 3.  The card stamps T3 and sends the login at the same
    instant, so the observer's capture time, as a word, is T3; with the
    login's Q it gives all 128 bits of h(T1), with no search."""
    enr = enroll("improved")
    run = run_session(enr)
    (entry,) = [e for e in run.transcript.entries if e.label == "login"]
    t3 = ms_to_field(entry.captured_at)
    assert t3 == run.pending.T3
    (rec,) = enr.server.records
    assert run.msg.Q ^ t3 == enr.env.h(ms_to_field(rec.t1_ms))


def test_a_small_window_around_registration_leaves_only_the_true_t1():
    """ROADMAP item 13.  Q[:8] = h(T1)[:8] is an exact test of a T1
    guess: of the 2**12 instants around a guess of the registration
    instant, only the true T1 passes it."""
    enr = enroll("improved")
    enr.env.clock.advance(60_000)
    msg, _ = login(enr)
    (rec,) = enr.server.records
    env = replace(enr.env, ledger=CostLedger())
    guess = DEFAULT_EPOCH_MS + 1234  # registration began at the epoch
    window = range(guess - 2**11, guess + 2**11)
    assert rec.t1_ms in window
    survivors = [ms for ms in window if env.h(ms_to_field(ms))[:8] == msg.Q[:8]]
    assert survivors == [rec.t1_ms]
    assert env.ledger.hash_total() == 2**12


def test_the_card_the_biometric_and_one_login_give_the_password_with_no_randomness():
    """ROADMAP item 17.  With no r_u or r_s: the login's tag
    Q[:8] = h(T1)[:8] leaves only the true T1 of a 2**12-ms window around
    the registration instant (item 13), the card's T12 gives
    T2 = T12 xor T1, and Nmask = h(PW||R) xor T2 then tests a password
    guess with one hash.  The symbolic attack on the same leak cannot
    start."""
    enr = enroll("improved", password="real-pw")
    run = run_session(enr)
    card, env = enr.card, replace(enr.env, ledger=CostLedger())
    q_tag = _improved_wire(run.transcript)["Q"][:8]
    guess = DEFAULT_EPOCH_MS + 1234  # registration began at the epoch
    window = range(guess - 2**11, guess + 2**11)
    (t1_ms,) = [ms for ms in window if env.h(ms_to_field(ms))[:8] == q_tag]
    t1 = ms_to_field(t1_ms)
    t2 = card.T12 ^ t1
    r = rep(enr.template, card.P_i)
    words = ["decoy-1", "real-pw", "decoy-2", "decoy-3"]
    passed = [word for word in words if card.Nmask ^ env.h(encode_text(word), r) == t2]
    assert passed == ["real-pw"]
    (rec,) = enr.server.records
    assert (t1, t2) == (ms_to_field(rec.t1_ms), ms_to_field(rec.t2_ms))
    assert (env.ledger.modexp_total(), env.ledger.hash_total()) == (0, 2**12 + 4)

    knowledge = adversary.AdversaryKnowledge.assemble(
        "improved", card=card, transcripts=(run.transcript,), biometric=enr.template,
        dictionary=words)
    outcome = adversary.attack(knowledge)
    assert (outcome.status, outcome.work, outcome.password) == (
        adversary.INSUFFICIENT, 0, None)


def _nmask_passes(card, env, r, words):
    """Each word of `words` whose guess PW leaves Nmask xor h(PW||R) with
    a zero high half, as a well-formed T2 must be, with that T2."""
    unmasked = ((word, card.Nmask ^ env.h(encode_text(word), r)) for word in words)
    return {word: t2 for word, t2 in unmasked if not any(t2[:8])}


def test_the_improved_card_and_the_biometric_alone_give_the_password():
    """ROADMAP item 30.  The card stores Nmask = h(PW||R) xor T2, and T2,
    a 64-bit ms count in a word, has a zero high half.  So the card and
    the biometric test a password guess with one hash, and the true one
    gives T2.  A list of identities then gives ID and T1 by
    M = h(ID xor T2) xor T1: only the true identity leaves T1's high
    half zero.  The symbolic attack on the card and the biometric cannot
    start."""
    enr = enroll("improved", password="real-pw")
    card, env = enr.card, replace(enr.env, ledger=CostLedger())
    words = ["w%03d" % i for i in range(100)]
    words.insert(50, "real-pw")
    passed = _nmask_passes(card, env, rep(enr.template, card.P_i), words)
    (rec,) = enr.server.records
    assert passed == {"real-pw": ms_to_field(rec.t2_ms)}
    assert (env.ledger.modexp_total(), env.ledger.hash_total()) == (0, len(words))

    unmasked = {name: card.M ^ env.h(encode_text(name) ^ passed["real-pw"])
                for name in ("bob", "alice", "carol", "dave")}
    assert {name: t1 for name, t1 in unmasked.items() if not any(t1[:8])} \
        == {"alice": ms_to_field(rec.t1_ms)}

    knowledge = adversary.AdversaryKnowledge.assemble(
        "improved", card=card, biometric=enr.template, dictionary=words)
    outcome = adversary.attack(knowledge)
    assert (outcome.status, outcome.work, outcome.password) == (
        adversary.INSUFFICIENT, 0, None)


@pytest.mark.parametrize("seed", [9, 10, 11])
def test_criterion_4s_leak_gives_the_password_identity_and_session_key(seed):
    """ROADMAP item 30.  Criterion 4's leak, the card without T12, one
    transcript, the biometric and r_u, gives PW and T2 as the card and
    the biometric alone do.  T1 lies exchange_ms before T2, and a scan
    back from T2 finds it by the login's tag Q[:8] = h(T1)[:8] (item 13).
    Then T3 = Q xor h(T1), A22 = Y^r_u xor T3 and
    ID = NID xor A22 xor h(T1||T3||T2); C_i verifies, and T4, T5 and A55
    give the session's key.  The symbolic attack on the same leak cannot
    start: its verdict is the closure's, which does not know that a
    timestamp lies in a known range."""
    enr = enroll("improved", seed=seed, password="real-pw", exchange_ms=10)
    run = run_session(enr)
    card, env = enr.card, replace(enr.env, ledger=CostLedger())
    wire = _improved_wire(run.transcript)
    r = rep(enr.template, card.P_i)
    words = ["w%03d" % i for i in range(100)]
    words.insert(50, "real-pw")
    ((word, t2),) = _nmask_passes(card, env, r, words).items()
    assert word == "real-pw"
    pw = encode_text(word)

    for guesses, t1_ms in enumerate(range(field_to_ms(t2), -1, -1), 1):
        t1 = ms_to_field(t1_ms)
        h_t1 = env.h(t1)
        if h_t1[:8] == wire["Q"][:8]:
            break
    assert guesses == 11  # T2 - T1 is the registration's 10 ms
    t3 = wire["Q"] ^ h_t1
    a22 = env.mod_exp(card.Y, run.r_u) ^ t3
    user_id = wire["NID"] ^ a22 ^ env.h(t1, t3, t2)
    h_val = card.e ^ env.h(pw, card.L ^ r ^ t1, t1)  # N = L ^ R ^ T1
    assert env.h(user_id, h_val, a22, wire["A11"], t1, t3, t2) == wire["C_i"]
    t4 = wire["P"] ^ env.h(t1, user_id, t3)
    t5 = wire["Q2"] ^ env.h(t2, user_id, t3)
    a55 = env.mod_exp(wire["A44"] ^ t3 ^ t4, run.r_u) ^ t3 ^ t5
    sk = env.h(user_id, a22, a55, h_val, t1, t3, t5)
    (rec,) = enr.server.records
    assert (t1, t2, user_id, sk) == (
        ms_to_field(rec.t1_ms), ms_to_field(rec.t2_ms), enr.user_id, run.sk_user)
    assert (env.ledger.modexp_total(), env.ledger.hash_total()) == (2, len(words) + 11 + 6)

    knowledge = adversary.AdversaryKnowledge.assemble(
        "improved", card=card, transcripts=(run.transcript,), biometric=enr.template,
        r_u=run.r_u, dictionary=words)
    assert "T12" not in knowledge.atoms
    outcome = adversary.attack(knowledge)
    assert (outcome.status, outcome.work, outcome.session_key) == (
        adversary.INSUFFICIENT, 0, None)


def test_one_improved_server_record_and_the_wire_give_t3_t4_and_t5():
    """ROADMAP item 10.  The improved server's state file holds each
    user's (ID, T1, T2) in the clear.  One such record and one
    eavesdropped session give T3 = Q xor h(T1), then
    T4 = P xor h(T1||ID||T3) and T5 = Q2 xor h(T2||ID||T3): the
    session's own instants, with no card, password, biometric or
    exponent."""
    enr = enroll("improved")
    run = run_session(enr, network_ms=10, processing_ms=3)
    ((user_id, t1_ms, t2_ms),) = enr.server.records
    env = replace(enr.env, ledger=CostLedger())
    wire = _improved_wire(run.transcript)
    t1, t2 = ms_to_field(t1_ms), ms_to_field(t2_ms)
    t3 = wire["Q"] ^ env.h(t1)
    t4 = wire["P"] ^ env.h(t1, user_id, t3)
    t5 = wire["Q2"] ^ env.h(t2, user_id, t3)
    assert t3 == run.pending.T3
    # the server stamps T4 as the login arrives, one 10 ms hop after it
    # was sent, and T5 as it sends the reply, after 3 ms of processing
    sent = {entry.label: entry.captured_at for entry in run.transcript.entries}
    assert sent["reply"] == sent["login"] + 10 + 3
    assert (t4, t5) == (ms_to_field(sent["login"] + 10), ms_to_field(sent["reply"]))
    assert (env.ledger.modexp_total(), env.ledger.hash_total()) == (0, 3)


WEEK_MS = 7 * 24 * 3600 * 1000


def _forge_login(scheme, env, leaked, server_y, r_u):
    """A login built from a leaked PendingLogin, the server's public key
    and a fresh exponent alone, stamped now; and the forger's own
    PendingLogin for it.  Only the long-term values ID and H (and the
    improved card's T1 and T2) are read from the leak."""
    _, now = env.now_field()
    a1 = env.mod_exp(env.params.g, r_u)
    a2 = env.mod_exp(server_y, r_u)
    if scheme == "baseline":
        msg = baseline.LoginMessage(
            NID=leaked.ID ^ a2, A1=a1,
            C_i=env.h(leaked.ID, leaked.H, a1, a2, now), T1=now)
        return msg, replace(leaked, A2=a2, r_u=r_u, T1=now)
    t1, t2 = leaked.T1, leaked.T2
    a11, a22 = a1 ^ t2 ^ now, a2 ^ now
    msg = improved.LoginMessage(
        NID=leaked.ID ^ a22 ^ env.h(t1, now, t2), A11=a11,
        C_i=env.h(leaked.ID, leaked.H, a22, a11, t1, now, t2),
        Q=now ^ env.h(t1))
    return msg, replace(leaked, A22=a22, r_u=r_u, T3=now)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_leaked_pending_login_forges_a_login_a_week_later(scheme):
    """ROADMAP item 10.  The card's session state between login and
    finish, `handshake.pending`, holds the user's long-term ID and H
    (and the improved card's T1 and T2).  A week later, with a fresh
    exponent and no card, password or biometric, a login forged from it
    is accepted, and the forger holds the server's session key."""
    enr = enroll(scheme)
    env = enr.env
    env.clock.advance(60_000)
    handshake = Handshake(env, enr.server, latency_ms=10)
    handshake.login(enr.card, enr.user_id, enr.password, enr.template,
                    enr.rng.exponent(env.params))
    leaked = replace(handshake.pending)  # read between login and finish
    handshake.respond(enr.rng.exponent(env.params))
    handshake.finish()
    assert handshake.keys_match() and handshake.pending is None

    env.clock.advance(WEEK_MS)
    forger = replace(env, ledger=CostLedger())  # the same clock, its own count
    msg, forged = _forge_login(scheme, forger, leaked, enr.server.y,
                               SessionRng(77).exponent(env.params))
    assert msg.encode() != handshake.channel.transcript().entries[0].data
    reply, sk_server = enr.server.respond(msg, enr.rng.exponent(env.params))
    assert SCHEMES[scheme].finish(forger, forged, reply) == sk_server
