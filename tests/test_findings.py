"""Security findings as concrete attacks on the scheme code.

Each test runs one attack with the schemes' own primitives (`Env.h`,
`Env.mod_exp`, `rep`), not through the symbolic adversary, and asserts
what holds today.  When a finding is mended, its test flips in the same
change.  Where the symbolic verdict disagrees with the concrete attack,
the test asserts both sides: the disagreement is the finding.
"""

from dataclasses import replace

import pytest

from support import enroll, full_leak, login, run_session
from triauth import adversary, baseline, improved
from triauth.core import CostLedger, Field128, UnknownUser, encode_text
from triauth.fuzzy import rep
from triauth.session import SCHEMES, wire_message


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
    assert {msg.Q[:8] for msg in msgs} == {enr.env.h(rec.T1)[:8]}


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
    wire = {}
    for entry in run.transcript.entries:
        wire.update(wire_message(improved, entry.label)[1].words(entry.data))
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
