"""Behaviour both schemes must show, one test each, run on both: the
honest flow, local rejections, freshness, tampering and the wire codec.
What only one scheme does is tested in its own file."""

import pytest

from support import clock_ahead, enroll, login, run_session
from triauth.core import (
    AuthFailure,
    Field128,
    FreshnessFailure,
    LocalAuthFailure,
    RegistrationError,
    SessionRng,
    UnknownUser,
    encode_text,
    field_to_ms,
)
from triauth.fuzzy import BiometricTemplate
from triauth.session import SCHEMES

# the pending login's name for the login's own timestamp
LOGIN_STAMP = {"baseline": "T1", "improved": "T3"}
# the values a server's enroll takes after (ID, W)
ENROLL_EXTRA = {"baseline": (), "improved": (1, 2)}
# a tampered reply: the baseline checks its bare T3 word, so a flip there
# can be a freshness failure; the improved card checks no freshness
REPLY_TAMPER_FAULTS = {"baseline": (AuthFailure, FreshnessFailure),
                       "improved": (AuthFailure,)}

schemes = pytest.mark.parametrize("scheme", SCHEMES)


@schemes
def test_honest_session_agrees_on_the_key(scheme):
    run = run_session(enroll(scheme))
    assert run.sk_user == run.sk_server
    assert len(run.sk_user) == 16


@schemes
def test_sessions_with_fresh_exponents_get_fresh_keys(scheme):
    enr = enroll(scheme)
    first = run_session(enr)
    second = run_session(enr)
    assert first.sk_user == first.sk_server
    assert second.sk_user == second.sk_server
    assert first.sk_user != second.sk_user


@schemes
def test_duplicate_registration_is_refused(scheme):
    enr = enroll(scheme)
    with pytest.raises(RegistrationError):
        enr.server.enroll(enr.user_id, Field128(bytes(16)), *ENROLL_EXTRA[scheme])


@schemes
def test_wrong_password_is_rejected_locally(scheme):
    enr = enroll(scheme)
    enr.env.clock.advance(60_000)
    with pytest.raises(LocalAuthFailure):
        login(enr, password="wrong-password")


@schemes
def test_wrong_person_biometric_is_rejected_locally(scheme):
    enr = enroll(scheme)
    stranger = BiometricTemplate.random(SessionRng(777), 512)
    with pytest.raises(LocalAuthFailure):
        login(enr, reading=stranger)


@schemes
def test_wrong_identity_is_rejected_locally(scheme):
    enr = enroll(scheme)
    with pytest.raises(LocalAuthFailure):
        login(enr, user_id=encode_text("mallory"))


@schemes
def test_rejected_holder_never_reaches_the_wire(scheme):
    """A local rejection must happen before any message exists."""
    enr = enroll(scheme)
    with pytest.raises(LocalAuthFailure):
        login(enr, password="bad", reading=enr.template)
    # no exponentiation happened either: rejection precedes the group work
    assert enr.env.ledger.modexp_total() == 0


@schemes
def test_stale_login_is_rejected_before_any_exponentiation(scheme):
    enr = enroll(scheme)
    env = enr.env
    env.clock.advance(60_000)
    sent = env.clock.now()
    msg, _ = login(enr)
    modexps_before = env.ledger.modexp_total()
    env.clock.advance(env.delta_t_ms + 1)
    with pytest.raises(FreshnessFailure, match="^login timestamp outside the window$") as stale:
        enr.server.respond(msg, enr.rng.exponent(env.params))
    assert (stale.value.skew_ms, stale.value.window_ms) == (
        env.clock.now() - sent, env.delta_t_ms)
    assert env.ledger.modexp_total() == modexps_before


@schemes
def test_replay_of_a_recorded_login_is_rejected_after_the_window(scheme):
    enr = enroll(scheme)
    run = run_session(enr)
    enr.env.clock.advance(enr.env.delta_t_ms + 1)
    with pytest.raises(FreshnessFailure, match="^login timestamp outside the window$") as replay:
        enr.server.respond(run.msg, enr.rng.exponent(enr.env.params))
    stamp = field_to_ms(getattr(run.pending, LOGIN_STAMP[scheme]))
    assert (replay.value.skew_ms, replay.value.window_ms) == (
        enr.env.clock.now() - stamp, enr.env.delta_t_ms)


@schemes
def test_a_negative_processing_time_is_refused_before_any_work(scheme):
    enr = enroll(scheme)
    enr.env.clock.advance(60_000)
    msg, _ = login(enr)
    ledger = enr.env.ledger
    counts = (ledger.hash_total(), ledger.modexp_total())
    now = enr.env.clock.now()
    r_s = enr.rng.exponent(enr.env.params)
    with pytest.raises(ValueError, match="processing_ms must not be negative, got -5"):
        enr.server.respond(msg, r_s, processing_ms=-5)
    assert (ledger.hash_total(), ledger.modexp_total()) == counts
    assert enr.env.clock.now() == now
    enr.server.respond(msg, r_s)  # the same login is still accepted


@schemes
def test_login_at_the_window_edge_is_accepted(scheme):
    enr = enroll(scheme)
    enr.env.clock.advance(60_000)
    msg, pending = login(enr)
    enr.env.clock.advance(enr.env.delta_t_ms)  # exactly delta_t late
    reply, sk_server = enr.server.respond(msg, enr.rng.exponent(enr.env.params))
    assert SCHEMES[scheme].finish(enr.env, pending, reply) == sk_server


@pytest.mark.parametrize("over", [0, 1])
@schemes
def test_a_login_stamped_ahead_of_the_server_is_refused_past_the_window(scheme, over):
    """The window bounds a stamp from the future too: a login stamped
    delta_t ahead of the server's clock is accepted, one ms more is not."""
    enr = enroll(scheme)
    env = enr.env
    env.clock.advance(60_000)
    ahead = env.delta_t_ms + over
    msg, pending = login(enr, env=clock_ahead(env, ahead))
    r_s = enr.rng.exponent(env.params)
    if over:
        with pytest.raises(FreshnessFailure, match=r"^login timestamp %d ms ahead of "
                           r"the clock \(window %d ms\)$" % (ahead, env.delta_t_ms)) as fault:
            enr.server.respond(msg, r_s)
        assert (fault.value.skew_ms, fault.value.window_ms) == (-ahead, env.delta_t_ms)
    else:
        reply, sk_server = enr.server.respond(msg, r_s)
        assert SCHEMES[scheme].finish(env, pending, reply) == sk_server


@schemes
def test_single_bit_tamper_on_each_login_field_is_rejected(scheme):
    enr = enroll(scheme)
    login_cls = SCHEMES[scheme].LoginMessage
    enr.env.clock.advance(60_000)
    for offset in login_cls.OFFSETS.values():
        msg, _ = login(enr)
        raw = bytearray(msg.encode())
        raw[offset] ^= 0x01
        tampered = login_cls.decode(bytes(raw))
        with pytest.raises((AuthFailure, UnknownUser, FreshnessFailure)):
            enr.server.respond(tampered, enr.rng.exponent(enr.env.params))
        enr.env.clock.advance(100)


@schemes
def test_single_bit_tamper_on_each_reply_field_is_rejected(scheme):
    enr = enroll(scheme)
    mod = SCHEMES[scheme]
    for offset in mod.ReplyMessage.OFFSETS.values():
        enr.env.clock.advance(1000)
        msg, pending = login(enr)
        reply, _ = enr.server.respond(msg, enr.rng.exponent(enr.env.params))
        raw = bytearray(reply.encode())
        raw[offset] ^= 0x01
        tampered = mod.ReplyMessage.decode(bytes(raw))
        with pytest.raises(REPLY_TAMPER_FAULTS[scheme]):
            mod.finish(enr.env, pending, tampered)


@schemes
def test_a_recorded_reply_does_not_finish_a_later_login(scheme):
    """A server reply replayed inside the window answers another login's
    exponent, so the card refuses it and the genuine reply still finishes."""
    enr = enroll(scheme)
    mod = SCHEMES[scheme]
    recorded = run_session(enr).reply
    enr.env.clock.advance(100)
    msg, pending = login(enr)
    with pytest.raises(AuthFailure):
        mod.finish(enr.env, pending, recorded)
    reply, sk_server = enr.server.respond(msg, enr.rng.exponent(enr.env.params))
    assert mod.finish(enr.env, pending, reply) == sk_server


@schemes
def test_wire_encoding_round_trips(scheme):
    mod = SCHEMES[scheme]
    run = run_session(enroll(scheme))
    for cls, wire, message in ((mod.LoginMessage, mod.LOGIN_WIRE, run.msg),
                               (mod.ReplyMessage, mod.REPLY_WIRE, run.reply)):
        size = 16 * len(wire)
        assert cls.decode(message.encode()) == message
        assert len(message.encode()) == size
        for wrong in (size - 16, size - 1, size + 1, size + 16):
            with pytest.raises(ValueError):
                cls.decode(b"\x00" * wrong)
