"""Adversary engine: knowledge boundary, derivation closure, the attack."""

import re
from collections import Counter
from dataclasses import fields, replace
from functools import reduce
from operator import xor

import pytest

from support import (
    HASH_NAMES, count_digests, enroll, fresh_tables, full_leak, other_scheme, run_session,
)
from triauth import adversary, core
from triauth.adversary import (
    EXHAUSTED,
    FORBIDDEN_ATOMS,
    INSUFFICIENT,
    RECOVERED,
    AdversaryKnowledge,
    AttackOutcome,
    Call,
    Derivation,
    attack_baseline,
    attack_improved,
    explain_gaps,
    impersonate,
    intercept,
)
from triauth.channel import USER_TO_SERVER, SimChannel
from triauth.core import (
    Field128, FreshnessFailure, HashEngine, SessionRng, SimClock, encode_text,
    ms_to_field,
)
from triauth.fuzzy import gen, rep
from triauth.session import SCHEMES, Handshake


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
            AdversaryKnowledge("baseline", atoms={name: b"x"})
    assert "t12" in FORBIDDEN_ATOMS


def test_assemble_strips_t12_from_the_improved_card():
    enr = enroll("improved")
    knowledge = AdversaryKnowledge.assemble("improved", card=enr.card)
    assert "T12" not in knowledge.atoms
    assert "M" in knowledge.atoms
    assert "Nmask" in knowledge.atoms


def test_assemble_baseline_card_view_has_the_declared_fields():
    enr = enroll("baseline")
    knowledge = AdversaryKnowledge.assemble("baseline", card=enr.card)
    assert set(knowledge.atoms) == {"e", "h", "p", "g", "Y", "P_i", "L", "V"}


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
    knowledge = full_leak(enr, run, words_with(enr.password, 137))
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
    knowledge = full_leak(enr, run, words_with(enr.password, 17))
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
    knowledge = full_leak(enr, run, ["nope-%d" % i for i in range(50)])
    outcome = attack_baseline(knowledge)
    assert outcome.status == EXHAUSTED
    assert outcome.work == 50
    assert outcome.password is None


# Words at the edges of a 16-byte block, each with whether
# core.encode_text gives it one.  The search builds a word's block inline.
_BLOCK_EDGES = (
    ("", True),
    ("correct-horse", True),
    ("x" * 16, True),
    ("\u00e9" * 8, True),  # 16 bytes of two-byte UTF-8
    ("\u00e9" * 8 + "x", False),  # 17 bytes
    ("\ud800", False),  # a lone surrogate: UTF-8 cannot encode it
    ("x" * 17, False),
    ("x" * 40, False),
)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("word, has_block", _BLOCK_EDGES)
def test_the_search_accepts_and_refuses_the_words_encode_text_does(
        monkeypatch, scheme, word, has_block):
    """A word with a block, enrolled as the password, is recovered as the
    first word: the search's block is the one registration hashed.  A
    word without one counts as work and finishes no digest."""
    try:
        encode_text(word)
    except ValueError:
        assert not has_block
    else:
        assert has_block
    counts = count_digests(monkeypatch)
    enr, run, instants, _ = _victim(
        scheme, scheme == "improved", password=word if has_block else "correct-horse")
    outcome = adversary.attack(full_leak(enr, run, [word, enr.password]), instants)
    assert (outcome.status, outcome.work, outcome.password) == (
        RECOVERED, 1 if has_block else 2, enr.password)
    if not has_block:
        spent = []
        for words in ((), [word]):
            before = counts["digest"]
            outcome = adversary.attack(full_leak(enr, run, words), instants)
            spent.append(counts["digest"] - before)
        assert (outcome.status, outcome.work, outcome.session_key) == (EXHAUSTED, 1, None)
        assert spent[0] == spent[1]  # the digests of the steps run once


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


@pytest.mark.parametrize("scheme, unknown", [
    ("baseline", ("A2", "H", "ID", "SK", "h")),
    ("improved", ("A22", "H", "ID", "SK", "T1w", "T2w", "T3w", "h")),
])
def test_without_the_card_the_gap_names_what_the_closure_cannot_reach(
    scheme, unknown
):
    # the wire atoms (A1, C_i, T1w on the baseline wire) are held, so
    # they are no gap; the card's hash is, and so is all it would unlock
    enr = enroll(scheme)
    run = run_session(enr)
    knowledge = AdversaryKnowledge.assemble(
        scheme, transcripts=(run.transcript,),
        biometric=enr.template, r_u=run.r_u, r_s=run.r_s,
    )
    (gap,) = adversary.compile_plan(knowledge).gaps
    assert gap == adversary.EquationGap("C_i", unknown)


_LEAKS = ("card", "transcripts", "biometric", "r_u", "r_s")


def _leak_subsets(enr, run):
    """(subset, leaks) for all 2**5 subsets of the leaks, each after all
    its subsets; the leaks are keyword arguments of `assemble`."""
    leaks = {"card": enr.card, "transcripts": (run.transcript,),
             "biometric": enr.template, "r_u": run.r_u, "r_s": run.r_s}
    for subset in range(1 << len(_LEAKS)):
        yield subset, {name: leaks[name]
                       for bit, name in enumerate(_LEAKS) if subset >> bit & 1}


@pytest.mark.parametrize("scheme", ["baseline", "improved"])
def test_across_all_leak_subsets_gaps_are_unreached_and_leaks_never_add_one(scheme):
    enr = enroll(scheme)
    run = run_session(enr)
    gapless = set()
    for subset, given in _leak_subsets(enr, run):
        knowledge = AdversaryKnowledge.assemble(scheme, **given)
        plan = adversary.compile_plan(knowledge)
        for gap in plan.gaps:
            assert not set(gap.unknown) & set(knowledge.atoms), sorted(given)
        one_less = {subset & ~(1 << bit) for bit in range(len(_LEAKS))} - {subset}
        if one_less & gapless:
            assert plan.gaps == (), sorted(given)
        if not plan.gaps:
            gapless.add(subset)
    # the baseline breaks with card, wire, biometric and r_u; r_s is spare
    assert len(gapless) == (2 if scheme == "baseline" else 0)


def test_wrong_scheme_knowledge_is_refused():
    enr = enroll("baseline")
    knowledge = AdversaryKnowledge.assemble("baseline", card=enr.card)
    for grant in (None, (0, 0)):  # in model, and a forgery under guesses
        with pytest.raises(ValueError, match="^knowledge is not about the improved scheme$"):
            attack_improved(knowledge, grant)
    improved_knowledge = AdversaryKnowledge("improved")
    with pytest.raises(ValueError, match="^knowledge is not about the baseline scheme$"):
        attack_baseline(improved_knowledge)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_knowledge_of_one_scheme_refuses_a_card_of_the_other(scheme):
    other = other_scheme(scheme)
    with pytest.raises(ValueError, match="^knowledge of the %s scheme cannot hold a card of "
                       "the %s scheme$" % (other, scheme)):
        AdversaryKnowledge.assemble(other, card=enroll(scheme).card)


# ---------------------------------------------------------------------------
# Improved: the same engine cannot start, and says why
# ---------------------------------------------------------------------------

def test_improved_attack_is_insufficient_in_model():
    enr = enroll("improved")
    run = run_session(enr)
    knowledge = full_leak(enr, run, words_with(enr.password, 9))
    outcome = attack_improved(knowledge)
    assert outcome.status == INSUFFICIENT
    assert outcome.work == 0  # not a single verifier evaluation possible
    (gap,) = outcome.gaps
    assert gap.equation == "C_i"
    # the documented mutual lock: T1 needs ID, ID needs T1/T3, T3 needs T1
    assert gap.unknown == ("A22", "H", "ID", "SK", "T1w", "T3w")


def test_each_password_guess_unmasks_t3_which_the_gaps_call_unknown():
    """A gap in the model, tracked as ROADMAP item 2.  Under the modelled
    leak, A11 ^ g^r_u ^ Nmask ^ h(PW||R) is the session's T3 for the true
    password, so T3w and A22 = A2 ^ T3 follow for each password guess.
    The equations hold no A1 = g^r_u, so the gap list names both unknown.
    The verdict stands: T1, ID and H stay locked."""
    enr = enroll("improved", seed=9)
    run = run_session(enr)
    knowledge = AdversaryKnowledge.assemble(
        "improved", card=enr.card, transcripts=(run.transcript,),
        biometric=enr.template, r_u=run.r_u,
    )
    atoms = knowledge.atoms
    h = HashEngine(atoms["h"])
    a1 = Field128.from_int(pow(atoms["g"], atoms["r_u"], atoms["p"]))
    r = rep(atoms["B"], atoms["P_i"])

    def t3_under(guess):
        return atoms["A11"] ^ a1 ^ atoms["Nmask"] ^ h(encode_text(guess), r)

    assert t3_under(enr.password) == run.pending.T3
    assert t3_under("wrong-horse") != run.pending.T3
    outcome = attack_improved(knowledge)
    assert outcome.status == INSUFFICIENT
    (gap,) = outcome.gaps
    assert {"T3w", "A22"} <= set(gap.unknown)
    assert {"T1w", "ID", "H"} <= set(gap.unknown)


def test_granting_the_registration_instants_unlocks_the_attack():
    enr = enroll("improved")
    run = run_session(enr)
    rec = enr.server.records[0]
    knowledge = full_leak(enr, run, words_with(enr.password, 41))
    outcome = attack_improved(knowledge, (rec.t1_ms, rec.t2_ms))
    assert outcome.status == RECOVERED
    assert outcome.out_of_model is True  # flagged, not an in-model break
    assert outcome.password == enr.password
    assert outcome.identity == enr.user_id
    assert outcome.session_key == run.sk_user
    assert outcome.work == 42


@pytest.mark.parametrize("wrong", [
    lambda t1, t2: (t1 + 1, t2),
    lambda t1, t2: (t1, t2 + 1),
    lambda t1, t2: (t2, t1),
], ids=["T1+1ms", "T2+1ms", "swapped"])
def test_granted_but_wrong_instants_do_not_recover(wrong):
    enr = enroll("improved")
    run = run_session(enr)
    rec = enr.server.records[0]
    knowledge = full_leak(enr, run, words_with(enr.password, 3))
    outcome = attack_improved(knowledge, wrong(rec.t1_ms, rec.t2_ms))
    assert outcome.status == EXHAUSTED
    assert outcome.work == len(knowledge.dictionary)
    assert outcome.session_key is None
    assert outcome.out_of_model is True


def test_forgeries_under_guessed_instants_give_no_key():
    """A forgery is the granted attack over the true password alone; a
    guess of the instants that misses gives no key at all."""
    enr = enroll("improved")
    run = run_session(enr)
    rec = enr.server.records[0]
    knowledge = full_leak(enr, run, (enr.password,))
    rng = SessionRng(4242)
    for _ in range(500):
        t1_guess = rec.t1_ms - 86_400_000 + rng.below(86_400_000)
        t2_guess = t1_guess + rng.below(1000)
        outcome = attack_improved(knowledge, (t1_guess, t2_guess))
        assert (outcome.status, outcome.work, outcome.session_key) == (EXHAUSTED, 1, None)
    outcome = attack_improved(knowledge, (rec.t1_ms, rec.t2_ms))
    assert (outcome.status, outcome.session_key) == (RECOVERED, run.sk_user)


def test_a_grant_never_enters_the_knowledge():
    enr = enroll("improved")
    run = run_session(enr)
    rec = enr.server.records[0]
    knowledge = full_leak(enr, run, words_with(enr.password, 4))
    assert attack_improved(knowledge, (rec.t1_ms, rec.t2_ms)).status == RECOVERED
    outcome = attack_improved(knowledge)
    assert outcome.status == INSUFFICIENT
    assert outcome.gaps[0].unknown == ("A22", "H", "ID", "SK", "T1w", "T3w")
    assert not {"T1w", "T2w"} & set(knowledge.atoms)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_termination_notice_adds_no_wire_atoms(scheme):
    """A server-rejected session leaks the login, then the termination
    notice; the notice is no message and gives no atom."""
    enr = enroll(scheme)
    handshake = Handshake(enr.env, enr.server)
    params = enr.env.params
    handshake.login(enr.card, enr.user_id, enr.password, enr.template,
                    enr.rng.exponent(params))
    enr.env.clock.advance(enr.env.delta_t_ms + 1)  # the login goes stale
    with pytest.raises(FreshnessFailure):
        handshake.respond(enr.rng.exponent(params))
    leaked = handshake.channel.transcript()
    assert [e.label for e in leaked.entries] == ["login", "termination"]
    login_only = replace(leaked, entries=leaked.entries[:1])
    atoms = AdversaryKnowledge.assemble(scheme, transcripts=(leaked,)).atoms
    assert set(atoms) == {adversary._as_wire(name)
                          for name in SCHEMES[scheme].LOGIN_WIRE}
    assert atoms == AdversaryKnowledge.assemble(scheme, transcripts=(login_only,)).atoms


def test_a_forgery_needs_the_leaked_material():
    enr = enroll("improved")
    rec = enr.server.records[0]
    knowledge = AdversaryKnowledge.assemble("improved", card=enr.card,
                                            dictionary=(enr.password,))
    outcome = attack_improved(knowledge, (rec.t1_ms, rec.t2_ms))
    assert (outcome.status, outcome.work, outcome.session_key) == (INSUFFICIENT, 0, None)


# ---------------------------------------------------------------------------
# The compiled plan, and the rules it is built from
# ---------------------------------------------------------------------------

def test_the_per_word_loop_derives_only_h():
    enr = enroll("baseline")
    plan = adversary.compile_plan(full_leak(enr, run_session(enr), ()))
    assert plan.gaps == ()
    assert [r.target for r in plan.per_word] == ["H"]  # + the verifier: 2 hashes
    assert [r.target for r in plan.known] == ["A2", "ID", "R", "N"]
    assert [r.target for r in plan.on_hit] == ["A6", "SK"]  # A6 only SK needs

    enr = enroll("improved")
    knowledge = full_leak(enr, run_session(enr), ())
    assert adversary.compile_plan(knowledge).gaps  # in model: no loop at all
    rec = enr.server.records[0]
    granted = {"T1w": ms_to_field(rec.t1_ms), "T2w": ms_to_field(rec.t2_ms)}
    plan = adversary.compile_plan(knowledge, granted)
    assert plan.gaps == ()
    assert [r.target for r in plan.per_word] == ["H"]


def _evaluated(rule, values):
    """The value of `rule`'s equation, evaluated from its text alone: its
    needs, read from `values`, are the only locals, and `rep`, the public
    extractor, the only global."""
    expression = rule.how.split(" = ", 1)[1]
    return eval(expression, {"rep": rep}, {a: values[a] for a in rule.needs})


def _reference_attack(knowledge, granted=None):
    """The attack run rule by rule: each word evaluates the plan's known,
    per_word and on_hit steps, then the verifier, each from its text."""
    out_of_model = bool(granted)
    plan = adversary.compile_plan(knowledge, granted)
    if plan.gaps:
        return AttackOutcome(INSUFFICIENT, gaps=plan.gaps, out_of_model=out_of_model)
    verifier = adversary.VERIFIERS[knowledge.scheme]
    for work, word in enumerate(knowledge.dictionary, 1):
        try:
            values = dict(plan.atoms, PW=encode_text(word))
        except ValueError:
            continue
        for rule in plan.known + plan.per_word + plan.on_hit:
            values[rule.target] = _evaluated(rule, values)
        if _evaluated(verifier, values) == values[verifier.target]:
            return AttackOutcome(RECOVERED, work, word, values["ID"], values["SK"],
                                 out_of_model=out_of_model)
    return AttackOutcome(EXHAUSTED, len(knowledge.dictionary), out_of_model=out_of_model)


def _victim(scheme, grant, **enrollment):
    """An enrolled user, one leaked session, and the registration instants
    as `attack_improved` and `compile_plan` take them (None: no grant)."""
    enr = enroll(scheme, **enrollment)
    run = run_session(enr)
    if not grant:
        return enr, run, None, None
    rec = enr.server.records[0]
    return enr, run, (rec.t1_ms, rec.t2_ms), {
        "T1w": ms_to_field(rec.t1_ms), "T2w": ms_to_field(rec.t2_ms)}


_ATTACK_CASES = [("baseline", False, 4), ("improved", False, 0), ("improved", True, 4)]


@pytest.mark.parametrize("scheme, grant, recoveries", _ATTACK_CASES)
def test_the_compiled_attack_equals_the_rules_run_one_by_one(scheme, grant, recoveries):
    enr, run, instants, granted = _victim(scheme, grant)
    pw, long, lone = enr.password, "x" * 17, "\ud800"  # encode_text refuses both
    dictionaries = (
        (pw, long, "w0", lone, "w1"),
        (lone, "w0", long, "w1", pw),
        ("w0", long, lone, "w1", long),
    )
    recovered = 0
    for _, given in _leak_subsets(enr, run):
        for words in dictionaries:
            knowledge = AdversaryKnowledge.assemble(scheme, dictionary=words, **given)
            outcome = adversary.attack(knowledge, instants)
            assert outcome == _reference_attack(knowledge, granted), (sorted(given), words)
            recovered += outcome.status == RECOVERED
    assert recovered == recoveries  # per gapless subset, the two holding PW


@pytest.mark.parametrize("scheme, grant", [case[:2] for case in _ATTACK_CASES])
def test_every_memoised_plan_equals_one_planned_afresh(scheme, grant):
    enr, run, _, granted = _victim(scheme, grant)
    for _, given in _leak_subsets(enr, run):
        plan = adversary.compile_plan(AdversaryKnowledge.assemble(scheme, **given), granted)
        key = (scheme, adversary._NAMES[scheme].intersection(plan.atoms))
        fresh = adversary._plan_shape(*key)
        assert adversary._SHAPES[key] == fresh == replace(plan, atoms={}), sorted(given)


def _hashes_per_word(monkeypatch, attack):
    """(hashes, engine calls, Field128 XORs) that `attack(words)` spends
    per word that misses, over 40 words: its counts less those of an
    empty dictionary.  A hash is a digest finished by a new HashEngine."""
    counts = count_digests(monkeypatch)
    counts.update(call=0, xor=0)
    real_call, real_xor = HashEngine.__call__, Field128.__xor__

    def counting_call(self, *parts):
        counts["call"] += 1
        return real_call(self, *parts)

    def counting_xor(self, other):
        counts["xor"] += 1
        return real_xor(self, other)

    monkeypatch.setattr(HashEngine, "__call__", counting_call)
    monkeypatch.setattr(Field128, "__xor__", counting_xor)
    monkeypatch.setattr(Field128, "__rxor__", counting_xor)

    def spent(words):
        before = dict(counts)
        outcome = attack(words)
        assert (outcome.status, outcome.work) == (EXHAUSTED, len(words))
        return {key: counts[key] - before[key] for key in counts}

    words = ["nope-%d" % i for i in range(40)]
    tested, fixed = spent(words), spent(())
    assert fixed["xor"] > 0  # the hook sees the XORs that run once
    return tuple((tested[key] - fixed[key]) / len(words) for key in ("digest", "call", "xor"))


def test_an_exhausted_baseline_attack_hashes_twice_per_word(monkeypatch):
    enr = enroll("baseline")
    run = run_session(enr)
    per_word = _hashes_per_word(
        monkeypatch, lambda words: attack_baseline(full_leak(enr, run, words)))
    # both digests lowered, the XOR on ints: no engine call or Field128 XOR per word
    assert per_word == (2, 0, 0)


def test_an_exhausted_granted_improved_attack_hashes_twice_per_word(monkeypatch):
    enr, run, instants, _ = _victim("improved", True)
    per_word = _hashes_per_word(
        monkeypatch, lambda words: attack_improved(full_leak(enr, run, words), instants))
    assert per_word == (2, 0, 0)


@pytest.mark.parametrize("name", HASH_NAMES)
@pytest.mark.parametrize("scheme, grant", [("baseline", False), ("improved", True)])
def test_the_lowered_search_digests_under_the_cards_hash(scheme, grant, name):
    """Each word's digests come from the hash the card names, truncated
    to one word: the search recovers as the rules run one by one do."""
    enr, run, instants, granted = _victim(scheme, grant, hash_name=name)
    knowledge = full_leak(enr, run, words_with(enr.password, 6, size=12))
    outcome = adversary.attack(knowledge, instants)
    assert outcome == _reference_attack(knowledge, granted)
    assert (outcome.status, outcome.work, outcome.password, outcome.identity,
            outcome.session_key) == (RECOVERED, 7, enr.password, enr.user_id, run.sk_user)
    # equal bytes are not enough: a word's values are plain bytes in the loop
    assert type(outcome.identity) is type(outcome.session_key) is Field128


def test_a_held_block_of_the_wrong_length_fails_the_engines_check():
    enr = enroll("baseline")
    knowledge = full_leak(enr, run_session(enr), words_with(enr.password, 2, size=4))
    short = AdversaryKnowledge("baseline", {**knowledge.atoms, "A1": knowledge.atoms["A1"][:15]},
                               knowledge.dictionary)
    with pytest.raises(ValueError, match="^hash input block must be 16 bytes, got 15$"):
        attack_baseline(short)


@pytest.mark.parametrize("scheme, unknown", [
    ("baseline", ("A2", "H", "ID", "SK", "h")),
    ("improved", ("A22", "H", "ID", "SK", "T1w", "T2w", "T3w", "h")),
])
@pytest.mark.parametrize("name", ["shake_128", "no-such-hash", 7])
def test_a_card_hash_without_an_engine_leaves_the_attack_without_h(
    monkeypatch, scheme, unknown, name
):
    """A hash name HashEngine refuses makes no tools: the attack reports
    the verifier's gap, h among it, runs no word and keeps no tools."""
    monkeypatch.setattr(adversary, "_TOOLS", {})
    enr = enroll(scheme)
    knowledge = full_leak(enr, run_session(enr), words_with(enr.password, 2, size=4))
    knowledge = AdversaryKnowledge(scheme, {**knowledge.atoms, "h": name},
                                   knowledge.dictionary)
    outcome = adversary.attack(knowledge)
    assert (outcome.status, outcome.work) == (INSUFFICIENT, 0)
    assert [gap.unknown for gap in outcome.gaps] == [unknown]
    assert adversary._TOOLS == {}


@pytest.mark.parametrize("empty", [False, True])
def test_a_held_xor_operand_of_the_wrong_length_fails_before_the_loop(empty):
    """A word's XOR runs on ints, so its held operand is checked as a
    Field128 once, before any word: also for an empty dictionary."""
    enr = enroll("baseline")
    words = () if empty else words_with(enr.password, 2, size=4)
    knowledge = full_leak(enr, run_session(enr), words)
    short = AdversaryKnowledge("baseline", {**knowledge.atoms, "e": knowledge.atoms["e"][:15]},
                               knowledge.dictionary)
    with pytest.raises(ValueError, match="^Field128 needs exactly 16 bytes, got 15$"):
        attack_baseline(short)


# The baseline attack of a full leak, as generated: a change to the
# statements any word runs shows here.
BASELINE_FULL_LEAK_SOURCE = """\
def search(atoms, words):
    exp = atoms['exp']
    Y = atoms['Y']
    r_u = atoms['r_u']
    NID = atoms['NID']
    B = atoms['B']
    P_i = atoms['P_i']
    L = atoms['L']
    e = atoms['e']
    h = atoms['h']
    A4 = atoms['A4']
    T1w = atoms['T1w']
    T3w = atoms['T3w']
    A1 = atoms['A1']
    C_i = atoms['C_i']
    A2 = exp(Y, r_u)
    ID = NID ^ A2
    R = rep(B, P_i)
    N = L ^ R
    new = h.new
    from_bytes = int.from_bytes
    N_ = h.join(N)
    ID_ = h.join(ID)
    A1_A2_T1w_ = h.join(A1, A2, T1w)
    e_int = Field128(e).to_int()
    for work, word in enumerate(words, 1):
        try:
            PW = word.encode()
        except ValueError:
            continue
        if len(PW) > 16:
            continue
        PW = PW.ljust(16, b"\\x00")
        d0 = new()
        d0.update(PW + N_)
        H = (e_int ^ from_bytes(d0.digest()[:16], "big")).to_bytes(16, "big")
        d0 = new()
        d0.update(ID_ + H + A1_A2_T1w_)
        if d0.digest()[:16] == C_i:
            H = Field128(H)
            A6 = exp(A4, r_u)
            SK = h(ID, A2, A6, H, T1w, T3w)
            return work, (word, ID, SK)
    return len(words), None
"""


def test_the_baseline_full_leak_compiles_to_the_pinned_source():
    enr = enroll("baseline")
    plan = adversary.compile_plan(full_leak(enr, run_session(enr), ()))
    assert plan.source == BASELINE_FULL_LEAK_SOURCE


def test_victims_sharing_a_plan_keep_their_own_values():
    victims = []
    for seed, identity, password, name in ((1, "alice", "correct-horse", "sha256"),
                                           (2, "bob", "battery-staple", "blake2b")):
        enr = enroll("baseline", seed=seed, identity=identity, password=password,
                     hash_name=name)
        victims.append((enr, run_session(enr)))
    plans = [adversary.compile_plan(full_leak(enr, run, ()))
             for enr, run in victims]
    assert plans[0].search is plans[1].search  # one memoised shape, two hashes
    (a, run_a), (b, run_b) = victims
    assert plans[0].search(plans[0].atoms, [b.password]) == (1, None)
    assert plans[1].search(plans[1].atoms, [a.password]) == (1, None)
    assert plans[0].search(plans[0].atoms, [a.password]) \
        == (1, (a.password, a.user_id, run_a.sk_user))
    assert plans[1].search(plans[1].atoms, [b.password]) \
        == (1, (b.password, b.user_id, run_b.sk_user))
    # each dictionary offers the other victim's password first
    for (enr, run), (other, _) in zip(victims, victims[::-1]):
        outcome = attack_baseline(
            full_leak(enr, run, [other.password, enr.password]))
        assert (outcome.work, outcome.password, outcome.identity, outcome.session_key) \
            == (2, enr.password, enr.user_id, run.sk_user)


# ---------------------------------------------------------------------------
# The card's exp: core.mod_exp, with pow's values
# ---------------------------------------------------------------------------

def test_the_attackers_exp_gives_pows_value_for_every_base_and_exponent(fresh_tables):
    enr = enroll("baseline")  # registers its server's key Y
    p, g, y = enr.card.p, enr.card.g, enr.card.Y.to_int()
    knowledge = AdversaryKnowledge.assemble("baseline", card=enr.card)
    exp = adversary.compile_plan(knowledge).atoms["exp"]
    # the key's first use reads no table; its second, in the loop, builds one
    assert exp(enr.card.Y, 12345) == Field128.from_int(pow(y, 12345, p))
    assert core._KEY_TABLES == {(y, p): 1}
    # g, the key, an unregistered base, bases at least p, bases that are 0 mod p
    bases = [g, y, 3, p + 5, (1 << 128) - 1, p, 0]
    exponents = [0, 1, 12345, p - 2, p - 1, 1 << 128, 1 << 200, -1, -12345]
    for b in bases:
        for e in exponents:
            if b % p == 0 and e < 0:
                with pytest.raises(ValueError):  # pow refuses it too
                    pow(b, e, p)
                with pytest.raises(ValueError):
                    exp(Field128.from_int(b), e)
            else:
                assert exp(Field128.from_int(b), e) == Field128.from_int(pow(b, e, p)), (b, e)
    assert isinstance(core._KEY_TABLES[(y, p)], tuple)
    assert list(core._KEY_TABLES) == [(y, p)]
    assert list(core._COMB_TABLES) == [(g, p)]


def test_a_second_attack_on_one_victim_builds_its_keys_table(fresh_tables):
    enr = enroll("baseline")
    run = run_session(enr)
    key = (enr.card.Y.to_int(), enr.card.p)
    core._KEY_TABLES[key] = 0  # as if the victim's login had not used the key
    knowledge = full_leak(enr, run, words_with(enr.password, 5, size=20))
    first = attack_baseline(knowledge)
    assert core._KEY_TABLES[key] == 1
    assert attack_baseline(knowledge) == first
    assert isinstance(core._KEY_TABLES[key], tuple)
    core._KEY_TABLES.clear()  # the key is then a base like any other
    assert attack_baseline(knowledge) == first
    assert core._KEY_TABLES == {}
    assert first.status == RECOVERED and first.session_key == run.sk_user


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
    p, g, x = card.p, card.g, enr.server.x
    truth = {
        "B": enr.template, "P_i": card.P_i, "R": made["R"],
        "PW": encode_text(enr.password), "ID": enr.user_id,
        "L": card.L, "e": card.e, "Y": card.Y, "V": card.V, "H": pending.H,
        "r_u": run.r_u, "r_s": run.r_s, "SK": run.sk_user, "NID": msg.NID,
        "C_i": msg.C_i, "Cs": reply.Cs,
        "A2": Field128.from_int(pow(g, run.r_u * x, p)),  # the server's A1^X
    }
    sk_preimage = preimages[run.sk_user]
    if scheme == "baseline":
        truth.update(
            N=preimages[card.V][2],  # V = h(ID||PW||N)
            A1=msg.A1, T1w=msg.T1, A4=reply.A4, T3w=reply.T3,
            A6=sk_preimage[2],  # SK = h(ID||A2||A6||H||T1||T3)
        )
    else:
        rec = enr.server.records[0]
        truth.update(
            N=preimages[card.V][4],  # V = h(ID||T1||PW||T2||N)
            T1w=ms_to_field(rec.t1_ms), T2w=ms_to_field(rec.t2_ms),
            M=card.M, Nmask=card.Nmask, Q=msg.Q, A11=msg.A11,
            T3w=pending.T3, A22=pending.A22,
            Q2=reply.Q2, P=reply.P, A44=reply.A44,
            T4w=preimages[reply.Cs][4],  # Cs = h(ID||SK||H||T2||T4)
            T5w=sk_preimage[6],  # SK = h(ID||A22||A55||H||T1||T3||T5)
            A55=sk_preimage[2],
            A1=Field128.from_int(pow(g, run.r_u, p)),
            A4=Field128.from_int(pow(g, run.r_s, p)),
            A5=Field128.from_int(pow(g, run.r_u * run.r_s, p)),
        )
    return enr, run, truth


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_row_parses_and_renders_back_to_its_wire_form_text(scheme):
    assert [row.how for row in adversary.ROWS[scheme]] \
        == list(map(adversary._as_wire, SCHEMES[scheme].EQUATIONS))


def test_a_row_holds_its_target_and_its_xor_terms_and_is_solved_for_each_atom_term():
    (row,) = [row for row in adversary.ROWS["improved"] if row.target == "M"]
    assert row == Derivation("M", (Call("h", (("ID", "T2w"),)), "T1w"))
    assert row.needs == ("h", "ID", "T2w", "T1w")
    # solved for its atom term T1w only: the block ID ^ T2w is no term
    assert [rule.how for rule in adversary.RULES["improved"] if "M" in rule.needs] \
        == ["T1w = M ^ h(ID ^ T2w)"]
    row = adversary.ROWS["baseline"][0]
    assert (row.how, row.terms, row.needs) \
        == ("R = rep(B, P_i)", (Call("rep", (("B",), ("P_i",))),), ("B", "P_i"))


def _baseline_table(index, line=None):
    """The baseline's EQUATIONS with row `index` replaced by `line`, or
    dropped."""
    table = list(SCHEMES["baseline"].EQUATIONS)
    table[index:index + 1] = [line] if line else []
    return table


@pytest.mark.parametrize("table, refusal", [
    (_baseline_table(3, "A2 = exp(h(Y), r_u)"), "not an equation row: 'A2 = exp(h(Y), r_u)'"),
    (_baseline_table(3, "A2 = pow(Y, r_u)"), "not an equation row: 'A2 = pow(Y, r_u)'"),
    (_baseline_table(1, "L = N + R"), "not an equation row: 'L = N + R'"),
    (_baseline_table(1, "L := N ^ R"), "not an equation row: 'L := N ^ R'"),
    (_baseline_table(5), "no C_i row in: R = rep(B, P_i); L = N ^ R; e = H ^ h(PW, N); "
     "A2 = exp(Y, r_u); NID = ID ^ A2; A6 = exp(A4, r_u); SK = h(ID, A2, A6, H, T1w, T3w)"),
], ids=["nested call", "unknown function", "another operator", "no ' = '", "no C_i row"])
def test_a_table_outside_the_grammar_is_refused_with_its_text(table, refusal):
    """What import runs on each scheme's EQUATIONS, on a broken copy."""
    with pytest.raises(ValueError, match="^%s$" % re.escape(refusal)):
        adversary._derive(tuple(map(adversary._parsed, table)))


@pytest.mark.parametrize("scheme, count", [("baseline", 12), ("improved", 39)])
def test_every_rule_maps_true_inputs_to_the_true_output(monkeypatch, scheme, count):
    enr, _, truth = _honest_atoms(scheme, monkeypatch)
    p = enr.card.p
    truth.update(  # the card's tools are inputs like any atom
        h=HashEngine(enr.card.h),
        exp=lambda base, e: Field128.from_int(pow(base.to_int(), e, p)),
    )
    rules, verifier = adversary.RULES[scheme], adversary.VERIFIERS[scheme]
    assert len(rules) == count
    for rule in rules:
        assert _evaluated(rule, truth) == truth[rule.target], rule.how
    assert _evaluated(verifier, truth) == truth[verifier.target]


@pytest.mark.parametrize("scheme", ["baseline", "improved"])
def test_every_leaked_atom_is_named_as_the_equations_name_it(monkeypatch, scheme):
    enr, run, truth = _honest_atoms(scheme, monkeypatch)
    atoms = dict(full_leak(enr, run, ()).atoms)
    tools = {name: atoms.pop(name) for name in ("h", "p", "g")}
    assert tools == {"h": enr.card.h, "p": enr.card.p, "g": enr.card.g}
    assert {name: truth.get(name) for name in atoms} == atoms


# ---------------------------------------------------------------------------
# Active operations
# ---------------------------------------------------------------------------

# Card fields and wire words that no EQUATIONS row has as its target,
# each with why: the adversary cannot reason about them.  An entry for a
# missing row names the item that adds it, and goes when the row lands.
UNMODELLED = {
    "h": "a tool: the hash the card names",
    "p": "a tool: the modulus of the card's exp",
    "g": "a tool: the generator of the card's group",
    "Y": "Y = g^X, and X never leaks",
    "P_i": "gen's public helper string: an input of rep, no row's output",
    "T1": "a raw timestamp: the adversary holds it as the wire atom T1w",
    "T3": "a raw timestamp: the adversary holds it as the wire atom T3w",
    "V": "pending: item 17 adds each scheme's V row",
    "T12": "pending: item 17 adds T12 = T1 ^ T2",
    "A1": "pending: item 2 adds A1 = exp(g, r_u)",
    "A4": "pending: item 2 adds A4 = exp(g, r_s)",
    "Cs": "pending: item 24 adds the baseline's Cs = h(ID, SK, H, T3), a second verifier",
}


def _unrowed(scheme):
    """The scheme's card fields and wire words that are no row's target."""
    mod = SCHEMES[scheme]
    targets = {row.target for row in adversary.ROWS[scheme]}
    stored = [f.name for f in fields(mod.Card)] + [*mod.LoginMessage.WIRE, *mod.ReplyMessage.WIRE]
    return {name for name in stored if name not in targets}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_card_field_and_wire_word_has_a_row_or_a_declared_reason(scheme):
    """ROADMAP item 24.  Each value a card stores or the wire carries is
    a row's target or an UNMODELLED entry, and each entry is a value some
    scheme still leaves without a row."""
    assert sorted(_unrowed(scheme) - UNMODELLED.keys()) == []
    assert set(UNMODELLED) == set().union(*map(_unrowed, SCHEMES))


class _RecordedHash:
    """A hash object that appends each digest it finishes, as a word, to
    `digests`."""

    def __init__(self, digests, hash_object):
        self.digests, self.hash_object = digests, hash_object

    def update(self, data):
        self.hash_object.update(data)

    def digest(self):
        digest = self.hash_object.digest()
        self.digests.append(Field128(digest[:16]))
        return digest


def _recorded_digests(patch):
    """The list to which each hash finished from now on, by an engine
    built after this call, is appended: the engine's calls and the
    improved scan's staged record tags alike."""
    digests = []
    real_init = HashEngine.__init__

    def recording_init(self, name):
        real_init(self, name)
        new = self.new
        self.new = lambda: _RecordedHash(digests, new())

    patch.setattr(HashEngine, "__init__", recording_init)
    return digests


# Hashes that registration and one session count, and that are no row's
# h(...) term, each with why: the adversary cannot reason about them.
UNROWED_HASHES = {
    "h(ID, X)": "X never leaks",
    "V": "pending: item 17 adds each scheme's V row",
    "Cs": "pending: item 24 adds the baseline's Cs = h(ID, SK, H, T3), a second verifier",
}


@pytest.mark.parametrize("scheme, tally", [
    ("baseline", {"row": 6, "h(ID, X)": 2, "V": 2, "Cs": 2}),
    ("improved", {"row": 20, "h(ID, X)": 2, "V": 2}),
])
def test_every_counted_hash_is_a_rows_term_or_has_a_declared_reason(
        monkeypatch, scheme, tally):
    """ROADMAP item 24.  Each hash counted over registration and one
    session, the improved scan's record tag h(T1) among them, equals the
    value of some row's h(...) term on the session's true atoms, or is
    one that an UNROWED_HASHES entry names."""
    with monkeypatch.context() as patch:
        digests = _recorded_digests(patch)
        enr, _, truth = _honest_atoms(scheme, monkeypatch)
    assert len(digests) == enr.env.ledger.hash_total()  # every counted hash is seen
    h = HashEngine(enr.card.h)
    terms = {term for row in adversary.ROWS[scheme] for term in row.terms
             if isinstance(term, Call) and term.fn == "h"}
    rows = {h(*(reduce(xor, map(truth.get, block)) for block in term.blocks))
            for term in terms}
    unrowed = {h(enr.user_id, enr.server.x_word): "h(ID, X)", truth["V"]: "V",
               truth["Cs"]: "Cs"}
    found = Counter("row" if word in rows else unrowed.get(word, word.hex())
                    for word in digests)
    assert found == tally
    assert tally.keys() - {"row"} <= UNROWED_HASHES.keys()


def test_intercept_returns_the_channel_transcript():
    clock = SimClock(0)
    channel = SimChannel(clock, session_id="x")
    channel.send(USER_TO_SERVER, "login", b"\x01" * 64)
    assert len(intercept(channel).entries) == 1


def test_impersonation_succeeds_after_a_baseline_recovery():
    enr = enroll("baseline")
    run = run_session(enr)
    knowledge = full_leak(enr, run, words_with(enr.password, 7))
    outcome = attack_baseline(knowledge)
    assert outcome.status == RECOVERED
    enr.env.clock.advance(500)
    verdict = impersonate(enr.env, enr.server, knowledge, outcome, SessionRng(99))
    assert verdict == "accept"


def test_impersonation_counts_the_victim_servers_work_in_its_scope():
    enr = enroll("baseline")
    ledger, server = enr.env.ledger, ("authentication", "server")
    run = run_session(enr)  # the first respond this server runs
    hashes, modexps = dict(ledger.hash_calls), dict(ledger.modexp_calls)
    knowledge = full_leak(enr, run, words_with(enr.password, 7))
    outcome = attack_baseline(knowledge)
    assert outcome.status == RECOVERED
    enr.env.clock.advance(500)
    verdict = impersonate(enr.env, enr.server, knowledge, outcome, SessionRng(9))
    assert verdict == "accept"
    # one more respond, and nothing else, lands in the victim's ledger: the
    # adversary's login and finish count in a ledger of its own
    assert ledger.hash_calls == {**hashes, server: 2 * hashes[server]}
    assert ledger.modexp_calls == {**modexps, server: 2 * modexps[server]}


def test_impersonation_fails_against_the_improved_server():
    enr = enroll("improved")
    run = run_session(enr)
    knowledge = full_leak(enr, run, words_with(enr.password, 7))
    outcome = attack_improved(knowledge)
    assert outcome.status == INSUFFICIENT
    enr.env.clock.advance(500)
    verdict = impersonate(enr.env, enr.server, knowledge, outcome, SessionRng(99))
    assert verdict == "reject"


def test_impersonation_after_an_exhausted_baseline_attack_is_rejected():
    # no recovery: the adversary falls back to a card it issues to itself
    enr = enroll("baseline")
    run = run_session(enr)
    knowledge = full_leak(enr, run, ["w%05d" % i for i in range(50)])
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


@pytest.mark.parametrize("scheme", SCHEMES)
def test_impersonation_against_a_server_of_the_other_scheme_is_refused(scheme):
    enr = enroll(scheme)
    knowledge = full_leak(enr, run_session(enr), words_with(enr.password, 3))
    outcome = adversary.attack(knowledge)
    assert outcome.status == (RECOVERED if scheme == "baseline" else INSUFFICIENT)
    other = other_scheme(scheme)
    target = enroll(other)
    rng = SessionRng(99)
    with pytest.raises(ValueError, match="^a card of the %s scheme cannot log in to a "
                       "server of the %s scheme$" % (scheme, other)):
        impersonate(target.env, target.server, knowledge, outcome, rng)
    assert rng.field() == SessionRng(99).field()  # refused before any draw
