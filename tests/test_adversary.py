"""Adversary engine: knowledge boundary, derivation closure, the attack."""

import pytest

from support import enroll, run_session
from triauth import adversary
from triauth.adversary import (
    EXHAUSTED,
    FORBIDDEN_ATOMS,
    INSUFFICIENT,
    RECOVERED,
    AdversaryKnowledge,
    AttackOutcome,
    attack_baseline,
    attack_improved,
    explain_gaps,
    forge_improved_session_key,
    impersonate,
    intercept,
    tamper,
    wire_layout,
)
from triauth.channel import USER_TO_SERVER, SimChannel, Transcript
from triauth.core import (
    Field128, HashEngine, SessionRng, SimClock, encode_text, ms_to_field,
)
from triauth.fuzzy import gen
from triauth.session import SCHEMES


def leak_everything(enr, run, dictionary):
    return AdversaryKnowledge.assemble(
        enr.scheme,
        card=enr.card,
        transcripts=(run.transcript,),
        biometric=enr.template,
        r_u=run.r_u,
        r_s=run.r_s,
        dictionary=dictionary,
    )


def words_with(password, position, size=500):
    words = ["w%05d" % i for i in range(size - 1)]
    words.insert(position, password)
    return words


# ---------------------------------------------------------------------------
# Knowledge boundary
# ---------------------------------------------------------------------------

def test_forbidden_atoms_cannot_be_smuggled_in():
    for name in ("ID", "pw", "Password", "X", "T1", "t3", "T12"):
        with pytest.raises(ValueError, match="forbids"):
            AdversaryKnowledge("baseline", card_view={name: b"x"})
    assert "t12" in FORBIDDEN_ATOMS


def test_assemble_strips_t12_from_the_improved_card():
    enr = enroll("improved")
    knowledge = AdversaryKnowledge.assemble("improved", card=enr.card)
    assert "T12" not in knowledge.card_view
    assert "M" in knowledge.card_view
    assert "Nmask" in knowledge.card_view


def test_assemble_baseline_card_view_has_the_declared_fields():
    enr = enroll("baseline")
    knowledge = AdversaryKnowledge.assemble("baseline", card=enr.card)
    assert set(knowledge.card_view) == {"e", "h", "p", "g", "Y", "P_i", "L", "V"}


def test_unknown_scheme_is_rejected():
    with pytest.raises(ValueError):
        AdversaryKnowledge("telepathy")


def test_outcome_invariants():
    with pytest.raises(ValueError):
        AttackOutcome(status=RECOVERED)  # missing PW/ID/SK
    with pytest.raises(ValueError):
        AttackOutcome(status=INSUFFICIENT)  # must explain itself


# ---------------------------------------------------------------------------
# Baseline: the attack goes through
# ---------------------------------------------------------------------------

def test_baseline_attack_recovers_password_identity_and_key():
    enr = enroll("baseline")
    run = run_session(enr)
    knowledge = leak_everything(enr, run, words_with(enr.password, 137))
    outcome = attack_baseline(knowledge)
    assert outcome.status == RECOVERED
    assert outcome.password == enr.password
    assert outcome.identity == enr.user_id
    assert outcome.session_key == run.sk_user  # forged byte-for-byte
    assert outcome.work == 138  # tested exactly up to the planted word
    assert outcome.out_of_model is False


def test_baseline_attack_is_deterministic():
    enr = enroll("baseline")
    run = run_session(enr)
    knowledge = leak_everything(enr, run, words_with(enr.password, 17))
    assert attack_baseline(knowledge) == attack_baseline(knowledge)


def test_baseline_attack_does_not_mutate_its_inputs():
    enr = enroll("baseline")
    run = run_session(enr)
    transcript = run.transcript
    entries_before = list(transcript.entries)
    knowledge = AdversaryKnowledge.assemble(
        "baseline", card=enr.card, transcripts=(transcript,),
        biometric=enr.template, r_u=run.r_u, r_s=run.r_s,
        dictionary=words_with(enr.password, 3),
    )
    attack_baseline(knowledge)
    assert transcript.entries == entries_before
    assert knowledge.dictionary == tuple(words_with(enr.password, 3))


def test_baseline_attack_exhausts_without_the_true_password():
    enr = enroll("baseline")
    run = run_session(enr)
    knowledge = leak_everything(enr, run, ["nope-%d" % i for i in range(50)])
    outcome = attack_baseline(knowledge)
    assert outcome.status == EXHAUSTED
    assert outcome.work == 50
    assert outcome.password is None


def test_unencodable_dictionary_words_count_as_work():
    enr = enroll("baseline")
    run = run_session(enr)
    words = ["x" * 40, enr.password]  # first cannot fit a 128-bit block
    outcome = attack_baseline(leak_everything(enr, run, words))
    assert outcome.status == RECOVERED
    assert outcome.work == 2


def test_baseline_attack_without_r_u_cannot_start():
    enr = enroll("baseline")
    run = run_session(enr)
    knowledge = AdversaryKnowledge.assemble(
        "baseline", card=enr.card, transcripts=(run.transcript,),
        biometric=enr.template, r_s=run.r_s,
        dictionary=words_with(enr.password, 5),
    )
    outcome = attack_baseline(knowledge)
    assert outcome.status == INSUFFICIENT
    (gap,) = outcome.gaps
    assert gap.equation == "C_i"
    # without the session exponent the identity chain never opens
    assert "A2" in gap.unknown and "ID" in gap.unknown
    assert explain_gaps(outcome)[0].startswith("equation C_i blocked")


def test_baseline_attack_without_the_card_cannot_start():
    enr = enroll("baseline")
    run = run_session(enr)
    knowledge = AdversaryKnowledge.assemble(
        "baseline", transcripts=(run.transcript,),
        biometric=enr.template, r_u=run.r_u, r_s=run.r_s,
        dictionary=words_with(enr.password, 5),
    )
    outcome = attack_baseline(knowledge)
    assert outcome.status == INSUFFICIENT
    assert outcome.gaps


def test_baseline_attack_without_the_biometric_cannot_finish_h():
    enr = enroll("baseline")
    run = run_session(enr)
    knowledge = AdversaryKnowledge.assemble(
        "baseline", card=enr.card, transcripts=(run.transcript,),
        r_u=run.r_u, r_s=run.r_s, dictionary=words_with(enr.password, 5),
    )
    outcome = attack_baseline(knowledge)
    assert outcome.status == INSUFFICIENT
    (gap,) = outcome.gaps
    assert "H" in gap.unknown


def test_wrong_scheme_knowledge_is_refused():
    enr = enroll("baseline")
    knowledge = AdversaryKnowledge.assemble("baseline", card=enr.card)
    with pytest.raises(ValueError):
        attack_improved(knowledge)
    improved_knowledge = AdversaryKnowledge("improved")
    with pytest.raises(ValueError):
        attack_baseline(improved_knowledge)


# ---------------------------------------------------------------------------
# Improved: the same engine cannot start, and says why
# ---------------------------------------------------------------------------

def test_improved_attack_is_insufficient_in_model():
    enr = enroll("improved")
    run = run_session(enr)
    knowledge = leak_everything(enr, run, words_with(enr.password, 9))
    outcome = attack_improved(knowledge)
    assert outcome.status == INSUFFICIENT
    assert outcome.work == 0  # not a single verifier evaluation possible
    (gap,) = outcome.gaps
    assert gap.equation == "C_i"
    # the documented mutual lock: T1 needs ID, ID needs T1/T3, T3 needs T1
    assert gap.unknown == ("A22", "H", "ID", "SK", "T1w", "T3w")


def test_granting_the_registration_instants_unlocks_the_attack():
    enr = enroll("improved")
    run = run_session(enr)
    rec = enr.server.records[0]
    knowledge = leak_everything(enr, run, words_with(enr.password, 41))
    outcome = attack_improved(knowledge, (rec.t1_ms, rec.t2_ms))
    assert outcome.status == RECOVERED
    assert outcome.out_of_model is True  # flagged, not an in-model break
    assert outcome.password == enr.password
    assert outcome.identity == enr.user_id
    assert outcome.session_key == run.sk_user
    assert outcome.work == 42


def test_granted_but_wrong_instants_do_not_recover():
    enr = enroll("improved")
    run = run_session(enr)
    rec = enr.server.records[0]
    knowledge = leak_everything(enr, run, words_with(enr.password, 3))
    outcome = attack_improved(knowledge, (rec.t1_ms + 1, rec.t2_ms))
    assert outcome.status == EXHAUSTED
    assert outcome.out_of_model is True


def test_forged_key_under_true_guesses_matches_the_honest_key():
    enr = enroll("improved")
    run = run_session(enr)
    rec = enr.server.records[0]
    knowledge = leak_everything(enr, run, ())
    forged = forge_improved_session_key(
        knowledge, rec.t1_ms, rec.t2_ms, enr.password
    )
    assert forged == run.sk_user


def test_forged_keys_under_guessed_instants_never_match():
    enr = enroll("improved")
    run = run_session(enr)
    rec = enr.server.records[0]
    knowledge = leak_everything(enr, run, ())
    rng = SessionRng(4242)
    hits = 0
    for _ in range(500):
        t1_guess = rec.t1_ms - 86_400_000 + rng.below(86_400_000)
        t2_guess = t1_guess + rng.below(1000)
        forged = forge_improved_session_key(
            knowledge, t1_guess, t2_guess, enr.password
        )
        if forged == run.sk_user:
            hits += 1
    assert hits == 0


def test_forgery_needs_the_leaked_material():
    enr = enroll("improved")
    rec = enr.server.records[0]
    knowledge = AdversaryKnowledge.assemble("improved", card=enr.card)
    assert forge_improved_session_key(knowledge, rec.t1_ms, rec.t2_ms, "x") is None


# ---------------------------------------------------------------------------
# The compiled plan, and the rules it is built from
# ---------------------------------------------------------------------------

def test_the_per_word_loop_derives_only_h():
    enr = enroll("baseline")
    plan = adversary.compile_plan(leak_everything(enr, run_session(enr), ()))
    assert plan.gaps == ()
    assert [r.target for r in plan.per_word] == ["H"]  # + the verifier: 2 hashes

    enr = enroll("improved")
    knowledge = leak_everything(enr, run_session(enr), ())
    assert adversary.compile_plan(knowledge).gaps  # in model: no loop at all
    rec = enr.server.records[0]
    granted = {"T1w": ms_to_field(rec.t1_ms), "T2w": ms_to_field(rec.t2_ms)}
    plan = adversary.compile_plan(knowledge, granted)
    assert plan.gaps == ()
    assert [r.target for r in plan.per_word] == ["H"]


def _honest_atoms(scheme, monkeypatch):
    """Every atom's true value in one real session, from the honest parties.

    Values no party returns are read from the preimage of a hash that an
    honest party took, or from the key `gen` made at registration.
    """
    mod = SCHEMES[scheme]
    preimages, made = {}, {}
    real_hash = HashEngine.__call__

    def recording_hash(self, *parts):
        digest = real_hash(self, *parts)
        preimages[digest] = parts
        return digest

    def recording_gen(template, rng):
        made["R"], helper = gen(template, rng)
        return made["R"], helper

    with monkeypatch.context() as patch:
        patch.setattr(HashEngine, "__call__", recording_hash)
        patch.setattr(mod, "gen", recording_gen)
        enr = enroll(scheme)
        run = run_session(enr)
    card, msg, reply, pending = enr.card, run.msg, run.reply, run.pending
    p, g, x = card.params.p, card.params.g, enr.server.secret.x
    truth = {
        "B": enr.template, "P_i": card.helper, "R": made["R"],
        "PW": encode_text(enr.password), "ID": enr.user_id,
        "L": card.l, "e": card.e, "Y": card.y, "H": pending.h,
        "r_u": run.r_u, "SK": run.sk_user, "NID": msg.nid, "C_i": msg.c_i,
        "A2": Field128.from_int(pow(g, run.r_u * x, p)),  # the server's A1^X
    }
    sk_preimage = preimages[run.sk_user]
    if scheme == "baseline":
        truth.update(
            N=preimages[card.v][2],  # V = h(ID||PW||N)
            A1=msg.a1, T1w=msg.t1, A4=reply.a4, T3w=reply.t3,
            A6=sk_preimage[2],  # SK = h(ID||A2||A6||H||T1||T3)
        )
    else:
        rec = enr.server.records[0]
        truth.update(
            N=preimages[card.v][4],  # V = h(ID||T1||PW||T2||N)
            T1w=ms_to_field(rec.t1_ms), T2w=ms_to_field(rec.t2_ms),
            M=card.m, Nmask=card.nmask, Q=msg.q, A11=msg.a11,
            T3w=pending.t3, A22=pending.a22,
            Q2=reply.q2, P=reply.p, A44=reply.a44,
            T4w=preimages[reply.cs][4],  # Cs = h(ID||SK||H||T2||T4)
            T5w=sk_preimage[6],  # SK = h(ID||A22||A55||H||T1||T3||T5)
            A55=sk_preimage[2],
            A4=Field128.from_int(pow(g, run.r_s, p)),
            A5=Field128.from_int(pow(g, run.r_u * run.r_s, p)),
        )
    return card, truth


@pytest.mark.parametrize("scheme, count", [("baseline", 7), ("improved", 15)])
def test_every_rule_maps_true_inputs_to_the_true_output(monkeypatch, scheme, count):
    card, truth = _honest_atoms(scheme, monkeypatch)
    ctx = adversary._Ctx(card.hash_name, card.params)
    rules_for, verifier = adversary._MODELS[scheme]
    rules = rules_for(ctx)
    assert len(rules) == count
    for rule in rules:
        derived = rule.fn(*(truth[a] for a in rule.needs))
        assert derived == truth[rule.target], rule.how
    assert ctx.h(*(truth[a] for a in verifier.preimage)) == truth[verifier.name]


# ---------------------------------------------------------------------------
# Active operations
# ---------------------------------------------------------------------------

def test_intercept_returns_the_channel_transcript():
    clock = SimClock(0)
    channel = SimChannel(clock, session_id="x")
    channel.send(USER_TO_SERVER, "login", b"\x01" * 64)
    assert len(intercept(channel).entries) == 1


def test_wire_layout_lookup():
    assert wire_layout("baseline", "login") == ("NID", "A1", "C_i", "T1")
    assert wire_layout("improved", "reply") == ("Cs", "A44", "P", "Q2")
    with pytest.raises(ValueError):
        wire_layout("baseline", "greeting")


def test_tamper_flips_exactly_the_named_field():
    enr = enroll("baseline")
    run = run_session(enr)
    transcript = run.transcript
    tampered = tamper(transcript, "baseline", "login", "C_i", b"\x80")
    original = transcript.find("login").data
    altered = tampered.find("login").data
    assert altered != original
    offset = 16 * list(wire_layout("baseline", "login")).index("C_i")
    assert altered[offset] == original[offset] ^ 0x80
    # everything outside the named field is untouched
    assert altered[:offset] == original[:offset]
    assert altered[offset + 1 :] == original[offset + 1 :]
    # and the source transcript was not modified
    assert transcript.find("login").data == original


def test_tamper_with_a_zero_mask_is_the_identity():
    enr = enroll("baseline")
    run = run_session(enr)
    transcript = run.transcript
    tampered = tamper(transcript, "baseline", "login", "NID", bytes(16))
    assert tampered.find("login").data == transcript.find("login").data


def test_tamper_validates_its_arguments():
    enr = enroll("baseline")
    run = run_session(enr)
    transcript = run.transcript
    with pytest.raises(ValueError, match="no field"):
        tamper(transcript, "baseline", "login", "Q", b"\x01")
    with pytest.raises(ValueError, match="longer than a field"):
        tamper(transcript, "baseline", "login", "NID", bytes(17))
    with pytest.raises(ValueError, match="no 'reply' entry"):
        tamper(
            Transcript("empty"),
            "baseline", "reply", "Cs", b"\x01",
        )


def test_impersonation_succeeds_after_a_baseline_recovery():
    enr = enroll("baseline")
    run = run_session(enr)
    knowledge = leak_everything(enr, run, words_with(enr.password, 7))
    outcome = attack_baseline(knowledge)
    assert outcome.status == RECOVERED
    enr.env.clock.advance(500)
    verdict = impersonate(enr.env, enr.server, knowledge, outcome, SessionRng(99))
    assert verdict == "accept"


def test_impersonation_fails_against_the_improved_server():
    enr = enroll("improved")
    run = run_session(enr)
    knowledge = leak_everything(enr, run, words_with(enr.password, 7))
    outcome = attack_improved(knowledge)
    assert outcome.status == INSUFFICIENT
    enr.env.clock.advance(500)
    verdict = impersonate(enr.env, enr.server, knowledge, outcome, SessionRng(99))
    assert verdict == "reject"


def test_impersonation_after_an_exhausted_baseline_attack_is_rejected():
    # no recovery: the adversary falls back to a card it issues to itself
    enr = enroll("baseline")
    run = run_session(enr)
    knowledge = leak_everything(enr, run, ["w%05d" % i for i in range(50)])
    outcome = attack_baseline(knowledge)
    assert outcome.status == EXHAUSTED
    user_ids, records = set(enr.server.user_ids), list(enr.server.records)
    enr.env.clock.advance(500)
    verdict = impersonate(enr.env, enr.server, knowledge, outcome, SessionRng(99))
    assert verdict == "reject"
    assert enr.server.user_ids == user_ids
    assert enr.server.records == records


def test_impersonation_without_a_card_is_refused_before_drawing_randomness():
    enr = enroll("improved")
    run = run_session(enr)
    knowledge = AdversaryKnowledge.assemble(
        "improved", transcripts=(run.transcript,), r_u=run.r_u
    )
    outcome = attack_improved(knowledge)
    assert outcome.status == INSUFFICIENT
    rng = SessionRng(99)
    with pytest.raises(ValueError, match="needs the captured card"):
        impersonate(enr.env, enr.server, knowledge, outcome, rng)
    assert rng.field() == SessionRng(99).field()
