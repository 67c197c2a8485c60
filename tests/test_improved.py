"""Hardened scheme: its registration instants, the trial lookup over
records, the rejections that name the records tried, and the structural
property that timestamps protect every wire field.  Behaviour both
schemes share is tested in test_schemes.py."""

import dataclasses

import pytest

from support import HASH_NAMES, enroll, login, run_session
from triauth import adversary, baseline, improved
from triauth.core import (
    AuthFailure,
    Env,
    Field128,
    ProtocolConfig,
    SessionRng,
    SimClock,
    UnknownUser,
    encode_text,
    field_to_ms,
    mod_exp,
    ms_to_field,
)
from triauth.fuzzy import BiometricTemplate, perturb_within_tolerance


def test_registration_timestamps_are_distinct_secrets():
    enr = enroll("improved", exchange_ms=10)
    rec = enr.server.records[0]
    assert rec.t2_ms == rec.t1_ms + 10
    # the card holds only the XOR of the two instants
    assert enr.card.T12 == ms_to_field(rec.t1_ms) ^ ms_to_field(rec.t2_ms)


def test_login_never_reads_the_stored_t12():
    """T12 is spent during registration; login must not depend on it."""
    enr = enroll("improved")
    enr.env.clock.advance(1000)
    scrubbed = dataclasses.replace(enr.card, T12=Field128.from_int(0xDEAD))
    msg, pending = login(dataclasses.replace(enr, card=scrubbed))
    reply, sk_server = enr.server.respond(msg, enr.rng.exponent(enr.env.params))
    assert improved.finish(enr.env, pending, reply) == sk_server


def test_no_raw_timestamp_travels_on_the_wire():
    enr = enroll("improved")
    run = run_session(enr)
    words = [
        run.msg.NID, run.msg.A11, run.msg.C_i, run.msg.Q,
        run.reply.Cs, run.reply.A44, run.reply.P, run.reply.Q2,
    ]
    for word in words:
        with pytest.raises(ValueError):
            field_to_ms(word)  # a raw timestamp would decode cleanly


def test_trial_lookup_finds_the_right_record_among_users():
    enr = enroll("improved")
    env = enr.env
    env.clock.advance(5000)
    rng = enr.rng
    bob_id = encode_text("bob")
    bob_template = BiometricTemplate.random(rng, 512)
    bob_card = improved.register(
        env, enr.server, bob_id, "bob-secret", bob_template, rng, exchange_ms=10
    )
    assert len(enr.server.records) == 2

    env.clock.advance(2500)
    for card, uid, pw, tpl in (
        (enr.card, enr.user_id, enr.password, enr.template),
        (bob_card, bob_id, "bob-secret", bob_template),
    ):
        reading = perturb_within_tolerance(tpl, rng, 8)
        msg, pending = improved.login(
            env, card, uid, pw, reading, rng.exponent(env.params)
        )
        env.clock.advance(10)
        reply, sk_server = enr.server.respond(msg, rng.exponent(env.params))
        assert improved.finish(env, pending, reply) == sk_server
        env.clock.advance(100)


@pytest.mark.parametrize("a1", ["zero", "p", "all-ones"])
def test_a_record_that_unmasks_a1_outside_the_group_is_passed_without_group_work(a1):
    """A login fresh and tagged under alice's record, whose A1 = A11 xor
    T2 xor T3 unmasks outside (0, p) there: that record is passed with no
    modexp counted, bob's record is still tried (its tag hash is counted),
    and no record matching, the login is an unknown user."""
    enr = enroll("improved")
    env = enr.env
    env.clock.advance(5000)
    improved.register(
        env, enr.server, encode_text("bob"), "bob-secret",
        BiometricTemplate.random(enr.rng, 512), enr.rng, exchange_ms=10,
    )
    alice = enr.server.records[0]
    t1, t2 = ms_to_field(alice.t1_ms), ms_to_field(alice.t2_ms)
    env.clock.advance(1000)
    _, t3 = env.now_field()
    value = {"zero": 0, "p": env.params.p, "all-ones": (1 << 128) - 1}[a1]
    msg = improved.LoginMessage(
        NID=Field128(bytes(16)), A11=Field128.from_int(value) ^ t2 ^ t3,
        C_i=Field128(bytes(16)), Q=t3 ^ env.h(t1),
    )
    hashes, modexps = env.ledger.hash_total(), env.ledger.modexp_total()
    with pytest.raises(UnknownUser):
        enr.server.respond(msg, enr.rng.exponent(env.params))
    # one tag hash for alice's record and one for bob's, no group work
    assert env.ledger.hash_total() - hashes == 2
    assert env.ledger.modexp_total() == modexps


def test_a_rejection_names_the_records_the_scan_tried():
    """A flipped C_i and random bytes both pass every record, and the
    rejection says how many: one record, then four."""
    enr = enroll("improved")
    env, rng, server = enr.env, enr.rng, enr.server
    for n in (1, 4):
        while len(server.records) < n:
            env.clock.advance(1000)
            improved.register(
                env, server, encode_text("user-%d" % len(server.records)), "pw",
                BiometricTemplate.random(rng, 512), rng, exchange_ms=10,
            )
        env.clock.advance(1000)
        msg, _ = login(enr)
        flipped = dataclasses.replace(msg, C_i=msg.C_i ^ Field128.from_int(1))
        with pytest.raises(AuthFailure,
                           match=r"^login verifier mismatch \(%d records tried\)$" % n) as bad:
            server.respond(flipped, rng.exponent(env.params))
        assert bad.value.records_tried == n
        noise = improved.LoginMessage.decode(b"".join(rng.field() for _ in range(4)))
        with pytest.raises(UnknownUser, match=r"^no registered identity matches "
                           r"this login \(%d records tried\)$" % n) as unknown:
            server.respond(noise, rng.exponent(env.params))
        assert unknown.value.records_tried == n


@pytest.mark.parametrize("name", HASH_NAMES)
def test_the_scan_tags_records_under_the_configured_hash(name):
    """Under each hash the server accepts its k-th user, and a flipped C_i
    from that user is rejected after all k records: the scan's tag is the
    configured algorithm's digest, truncated to one word."""
    config = ProtocolConfig(hash_name=name)
    env = Env.from_config(config, SimClock())
    rng = SessionRng(4)
    server = improved.Server(env, rng=rng)
    for i in range(3):
        env.clock.advance(1000)
        template = BiometricTemplate.random(rng, config.template_bits)
        card = improved.register(env, server, encode_text("user-%d" % i), "pw-%d" % i,
                                 template, rng, exchange_ms=10)
    k = len(server.records)
    env.clock.advance(1000)
    msg, pending = improved.login(env, card, encode_text("user-%d" % (k - 1)),
                                  "pw-%d" % (k - 1), template, rng.exponent(env.params))
    flipped = dataclasses.replace(msg, C_i=msg.C_i ^ Field128.from_int(1))
    with pytest.raises(AuthFailure) as bad:
        server.respond(flipped, rng.exponent(env.params))
    assert bad.value.records_tried == k
    reply, sk_server = server.respond(msg, rng.exponent(env.params))
    assert improved.finish(env, pending, reply) == sk_server


@pytest.mark.parametrize("bad", ["zero", "p"])
def test_a_reply_that_unmasks_a4_outside_the_group_is_an_auth_failure(bad):
    """A44 rewritten so that A4 = A44 xor T3 xor T4 is 0 or p: finish
    refuses it as AuthFailure before any exponentiation is counted."""
    enr = enroll("improved")
    env = enr.env
    params = env.params
    value = Field128.from_int(0 if bad == "zero" else params.p)
    env.clock.advance(1000)
    msg, pending = login(enr)
    r_s = enr.rng.exponent(params)
    reply, _ = enr.server.respond(msg, r_s)
    a4 = mod_exp(params.g, r_s, params)  # the honest A4, uncounted
    bad_reply = dataclasses.replace(reply, A44=reply.A44 ^ a4 ^ value)
    with env.ledger.scope("authentication", "user"):
        with pytest.raises(AuthFailure, match="reply unmasked to a non-group element"):
            improved.finish(env, pending, bad_reply)
    assert env.ledger.modexp_calls.get(("authentication", "user"), 0) == 0


# ---------------------------------------------------------------------------
# Structural taint: the timestamps protect every wire field
# ---------------------------------------------------------------------------

# The timestamps as the rows and the adversary name them: as wire words
TIMESTAMPS = frozenset({"T1w", "T2w", "T3w", "T4w", "T5w"})


def _ingredients(scheme) -> dict:
    """A scheme's parsed rows as target -> the atoms its row combines."""
    return {row.target: tuple(n for n in row.needs if n not in ("h", "exp"))
            for row in adversary.ROWS[scheme]}


def _wire_fields(mod) -> list:
    """A scheme's wire words, timestamps under their wire names."""
    return [adversary._as_wire(name) for name in (*mod.LOGIN_WIRE, *mod.REPLY_WIRE)]


def _protected_timestamps(notes: dict, wire_fields: list) -> set:
    """Greatest fixed point: which timestamps never leak raw on the wire.

    A timestamp stays protected while each wire field that carries it
    also carries some *other* protected ingredient (an XOR of two
    secrets reveals neither).  A timestamp sent as a bare field, or
    masked only by public material, falls out of the set — and anything
    XORed only with a fallen timestamp then falls in the next round.
    """
    protected = set(TIMESTAMPS)
    changed = True
    while changed:
        changed = False
        for ts in sorted(protected):
            for field in wire_fields:
                ingredients = notes.get(field, ())
                carried = ts == field or ts in ingredients
                if not carried:
                    continue
                others = (set(ingredients) - {ts}) & protected
                if not others:
                    protected.discard(ts)
                    changed = True
                    break
    return protected


def test_every_wire_field_is_protected_by_a_registration_timestamp():
    """Walks the scheme's equations: each of the eight wire fields must
    carry T1/T2 directly or be masked by timestamps that themselves never
    travel unprotected."""
    notes = _ingredients("improved")
    wire_fields = _wire_fields(improved)

    for field in wire_fields:
        assert field in notes, "wire field %s has no construction note" % field

    protected = _protected_timestamps(notes, wire_fields)
    assert protected == TIMESTAMPS  # nothing leaks raw

    for field in wire_fields:
        touched = set(notes[field]) & protected
        assert touched, "wire field %s is not timestamp-protected" % field

    # the verifier preimages must bind the registration secrets directly
    assert {"T1w", "T2w"} <= set(notes["C_i"])
    assert "T2w" in notes["Cs"]
    assert "T1w" in notes["SK"]


def test_taint_checker_flags_the_unprotected_construction():
    """Control: the same checker run over the baseline scheme's equations
    (raw T1/T3 on the wire, unmasked group elements) must reject them —
    otherwise the structural test proves nothing."""
    notes = _ingredients("baseline")
    wire_fields = _wire_fields(baseline)
    protected = _protected_timestamps(notes, wire_fields)
    assert "T3w" not in protected  # sent bare
    assert "T1w" not in protected  # likewise
    unprotected_fields = [
        f for f in wire_fields if not set(notes.get(f, ())) & protected
    ]
    assert "NID" in unprotected_fields
    assert "A1" in unprotected_fields
    assert "C_i" in unprotected_fields  # the attack's password oracle
