"""Baseline scheme: honest flow, every rejection path, replay, tampering."""

import dataclasses

import pytest

from support import enroll, run_session
from triauth import baseline
from triauth.core import (
    AuthFailure,
    Field128,
    FreshnessFailure,
    LocalAuthFailure,
    RegistrationError,
    SessionRng,
    SimClock,
    UnknownUser,
    field_to_ms,
    ms_to_field,
)
from triauth.fuzzy import BiometricTemplate, perturb_within_tolerance


def test_honest_session_agrees_on_the_key():
    enr = enroll("baseline")
    run = run_session(enr)
    assert run.sk_user == run.sk_server
    assert len(run.sk_user) == 16


def test_sessions_with_fresh_exponents_get_fresh_keys():
    enr = enroll("baseline")
    first = run_session(enr)
    second = run_session(enr)
    assert first.sk_user == first.sk_server
    assert second.sk_user == second.sk_server
    assert first.sk_user != second.sk_user


def test_card_contents_never_store_the_raw_password_or_identity():
    enr = enroll("baseline")
    stored = {bytes(enr.card.e), bytes(enr.card.L), bytes(enr.card.V),
              bytes(enr.card.Y)}
    from triauth.core import encode_text

    assert bytes(encode_text(enr.password)) not in stored
    assert bytes(enr.user_id) not in stored


def test_duplicate_registration_is_refused():
    enr = enroll("baseline")
    with pytest.raises(RegistrationError):
        enr.server.enroll(enr.user_id, Field128.zero())


def test_wrong_password_is_rejected_locally():
    enr = enroll("baseline")
    enr.env.clock.advance(60_000)
    reading = perturb_within_tolerance(enr.template, enr.rng, 8)
    with pytest.raises(LocalAuthFailure):
        baseline.login(
            enr.env, enr.card, enr.user_id, "wrong-password", reading,
            enr.rng.exponent(enr.env.params),
        )


def test_wrong_person_biometric_is_rejected_locally():
    enr = enroll("baseline")
    stranger = BiometricTemplate.random(SessionRng(777), 512)
    with pytest.raises(LocalAuthFailure):
        baseline.login(
            enr.env, enr.card, enr.user_id, enr.password, stranger,
            enr.rng.exponent(enr.env.params),
        )


def test_wrong_identity_is_rejected_locally():
    from triauth.core import encode_text

    enr = enroll("baseline")
    reading = perturb_within_tolerance(enr.template, enr.rng, 4)
    with pytest.raises(LocalAuthFailure):
        baseline.login(
            enr.env, enr.card, encode_text("mallory"), enr.password, reading,
            enr.rng.exponent(enr.env.params),
        )


def test_rejected_holder_never_reaches_the_wire():
    """A local rejection must happen before any message exists."""
    enr = enroll("baseline")
    try:
        baseline.login(
            enr.env, enr.card, enr.user_id, "bad", enr.template,
            enr.rng.exponent(enr.env.params),
        )
    except LocalAuthFailure:
        pass
    # no exponentiation happened either: rejection precedes A1/A2
    assert enr.env.ledger.modexp_total() == 0


def test_card_issued_under_other_hash_is_refused():
    enr = enroll("baseline")
    other = dataclasses.replace(enr.card, h="sha512")
    with pytest.raises(ValueError):
        baseline.login(
            enr.env, other, enr.user_id, enr.password, enr.template,
            enr.rng.exponent(enr.env.params),
        )


def test_stale_login_is_rejected_before_any_exponentiation():
    enr = enroll("baseline")
    enr.env.clock.advance(60_000)
    reading = perturb_within_tolerance(enr.template, enr.rng, 8)
    msg, _ = baseline.login(
        enr.env, enr.card, enr.user_id, enr.password, reading,
        enr.rng.exponent(enr.env.params),
    )
    modexps_before = enr.env.ledger.modexp_total()
    enr.env.clock.advance(enr.env.delta_t_ms + 1)
    with pytest.raises(FreshnessFailure):
        enr.server.respond(msg, enr.rng.exponent(enr.env.params))
    assert enr.env.ledger.modexp_total() == modexps_before


def test_a_negative_processing_time_is_refused_before_any_work():
    enr = enroll("baseline")
    enr.env.clock.advance(60_000)
    reading = perturb_within_tolerance(enr.template, enr.rng, 8)
    msg, _ = baseline.login(
        enr.env, enr.card, enr.user_id, enr.password, reading,
        enr.rng.exponent(enr.env.params),
    )
    ledger = enr.env.ledger
    counts = (ledger.hash_total(), ledger.modexp_total())
    now = enr.env.clock.now()
    r_s = enr.rng.exponent(enr.env.params)
    with pytest.raises(ValueError, match="processing_ms must not be negative, got -5"):
        enr.server.respond(msg, r_s, processing_ms=-5)
    assert (ledger.hash_total(), ledger.modexp_total()) == counts
    assert enr.env.clock.now() == now
    enr.server.respond(msg, r_s)  # the same login is still accepted


def test_login_at_the_window_edge_is_accepted():
    enr = enroll("baseline")
    enr.env.clock.advance(60_000)
    reading = perturb_within_tolerance(enr.template, enr.rng, 8)
    msg, pending = baseline.login(
        enr.env, enr.card, enr.user_id, enr.password, reading,
        enr.rng.exponent(enr.env.params),
    )
    enr.env.clock.advance(enr.env.delta_t_ms)  # exactly delta_t late
    reply, sk_server = enr.server.respond(msg, enr.rng.exponent(enr.env.params))
    assert baseline.finish(enr.env, pending, reply) == sk_server


def test_malformed_timestamp_is_a_freshness_failure():
    enr = enroll("baseline")
    run = run_session(enr)
    garbled = baseline.LoginMessage(
        run.msg.NID, run.msg.A1, run.msg.C_i, Field128.from_int(1 << 127)
    )
    modexps_before = enr.env.ledger.modexp_total()
    with pytest.raises(FreshnessFailure):
        enr.server.respond(garbled, enr.rng.exponent(enr.env.params))
    assert enr.env.ledger.modexp_total() == modexps_before


def test_each_freshness_rejection_says_why():
    enr = enroll("baseline")
    run = run_session(enr)
    garbage = Field128.from_int(1 << 127)
    bad_t1 = dataclasses.replace(run.msg, T1=garbage)
    bad_t3 = dataclasses.replace(run.reply, T3=garbage)
    r_s = enr.rng.exponent(enr.env.params)
    with pytest.raises(FreshnessFailure, match="^malformed timestamp$") as malformed:
        enr.server.respond(bad_t1, r_s)
    assert (malformed.value.skew_ms, malformed.value.window_ms) == (None, None)
    with pytest.raises(FreshnessFailure, match="^malformed timestamp$"):
        baseline.finish(enr.env, run.pending, bad_t3)
    enr.env.clock.advance(enr.env.delta_t_ms + 1)
    now, window = enr.env.clock.now(), enr.env.delta_t_ms
    with pytest.raises(FreshnessFailure, match="^login timestamp outside the window$") as login:
        enr.server.respond(run.msg, r_s)
    assert (login.value.skew_ms, login.value.window_ms) == (
        now - field_to_ms(run.msg.T1), window)
    with pytest.raises(FreshnessFailure, match="^reply timestamp outside the window$") as reply:
        baseline.finish(enr.env, run.pending, run.reply)
    assert (reply.value.skew_ms, reply.value.window_ms) == (
        now - field_to_ms(run.reply.T3), window)



def _clock_ahead(env, ms):
    """`env` with a clock of its own, `ms` ahead of env's (behind if negative)."""
    return dataclasses.replace(env, clock=SimClock(env.clock.now() + ms))


@pytest.mark.parametrize("over", [0, 1])
def test_a_login_stamped_ahead_of_the_server_is_refused_past_the_window(over):
    """The window bounds a stamp from the future too: a login stamped
    delta_t ahead of the server's clock is accepted, one ms more is not."""
    enr = enroll("baseline")
    env = enr.env
    env.clock.advance(60_000)
    ahead = env.delta_t_ms + over
    reading = perturb_within_tolerance(enr.template, enr.rng, 8)
    msg, pending = baseline.login(
        _clock_ahead(env, ahead), enr.card, enr.user_id, enr.password, reading,
        enr.rng.exponent(env.params),
    )
    r_s = enr.rng.exponent(env.params)
    if over:
        with pytest.raises(FreshnessFailure, match=r"^login timestamp %d ms ahead of "
                           r"the clock \(window %d ms\)$" % (ahead, env.delta_t_ms)):
            enr.server.respond(msg, r_s)
    else:
        reply, sk_server = enr.server.respond(msg, r_s)
        assert baseline.finish(env, pending, reply) == sk_server


@pytest.mark.parametrize("over", [0, 1])
def test_a_reply_stamped_ahead_of_the_card_is_refused_past_the_window(over):
    enr = enroll("baseline")
    env = enr.env
    env.clock.advance(60_000)
    reading = perturb_within_tolerance(enr.template, enr.rng, 8)
    msg, pending = baseline.login(
        env, enr.card, enr.user_id, enr.password, reading, enr.rng.exponent(env.params)
    )
    reply, sk_server = enr.server.respond(msg, enr.rng.exponent(env.params))
    ahead = env.delta_t_ms + over
    card_env = _clock_ahead(env, -ahead)  # the card's clock lags the server's
    if over:
        with pytest.raises(FreshnessFailure, match=r"^reply timestamp %d ms ahead of "
                           r"the clock \(window %d ms\)$" % (ahead, env.delta_t_ms)):
            baseline.finish(card_env, pending, reply)
    else:
        assert baseline.finish(card_env, pending, reply) == sk_server

def test_unregistered_identity_is_unknown():
    enr = enroll("baseline")
    enr.env.clock.advance(10)
    reading = perturb_within_tolerance(enr.template, enr.rng, 8)
    msg, _ = baseline.login(
        enr.env, enr.card, enr.user_id, enr.password, reading,
        enr.rng.exponent(enr.env.params),
    )
    # flip NID so the server unmasks a different identity
    altered = baseline.LoginMessage(
        msg.NID ^ Field128.from_int(1), msg.A1, msg.C_i, msg.T1
    )
    with pytest.raises(UnknownUser):
        enr.server.respond(altered, enr.rng.exponent(enr.env.params))


def test_replay_of_a_recorded_login_is_rejected_after_the_window():
    enr = enroll("baseline")
    run = run_session(enr)
    enr.env.clock.advance(enr.env.delta_t_ms + 1)
    with pytest.raises(FreshnessFailure):
        enr.server.respond(run.msg, enr.rng.exponent(enr.env.params))


def test_single_bit_tamper_on_each_login_field_is_rejected():
    enr = enroll("baseline")
    enr.env.clock.advance(60_000)
    for offset in range(0, 64, 16):
        reading = perturb_within_tolerance(enr.template, enr.rng, 8)
        msg, _ = baseline.login(
            enr.env, enr.card, enr.user_id, enr.password, reading,
            enr.rng.exponent(enr.env.params),
        )
        raw = bytearray(msg.encode())
        raw[offset] ^= 0x01
        tampered = baseline.LoginMessage.decode(bytes(raw))
        with pytest.raises((AuthFailure, UnknownUser, FreshnessFailure)):
            enr.server.respond(tampered, enr.rng.exponent(enr.env.params))
        enr.env.clock.advance(100)


def test_single_bit_tamper_on_each_reply_field_is_rejected():
    enr = enroll("baseline")
    for offset in range(0, 48, 16):
        enr.env.clock.advance(1000)
        reading = perturb_within_tolerance(enr.template, enr.rng, 8)
        msg, pending = baseline.login(
            enr.env, enr.card, enr.user_id, enr.password, reading,
            enr.rng.exponent(enr.env.params),
        )
        reply, _ = enr.server.respond(msg, enr.rng.exponent(enr.env.params))
        raw = bytearray(reply.encode())
        raw[offset] ^= 0x01
        tampered = baseline.ReplyMessage.decode(bytes(raw))
        with pytest.raises((AuthFailure, FreshnessFailure)):
            baseline.finish(enr.env, pending, tampered)


@pytest.mark.parametrize("bad", ["zero", "p"])
def test_group_elements_outside_the_group_are_auth_failures(bad):
    """A1 or A4 outside (0, p) is rejected as AuthFailure before any
    exponentiation is counted."""
    enr = enroll("baseline")
    value = Field128.from_int(0 if bad == "zero" else enr.env.params.p)
    enr.env.clock.advance(1000)
    reading = perturb_within_tolerance(enr.template, enr.rng, 8)
    msg, pending = baseline.login(
        enr.env, enr.card, enr.user_id, enr.password, reading,
        enr.rng.exponent(enr.env.params),
    )
    modexps = enr.env.ledger.modexp_total()
    with pytest.raises(AuthFailure, match="A1 is not a group element"):
        enr.server.respond(
            dataclasses.replace(msg, A1=value), enr.rng.exponent(enr.env.params)
        )
    assert enr.env.ledger.modexp_total() == modexps

    reply, _ = enr.server.respond(msg, enr.rng.exponent(enr.env.params))
    modexps = enr.env.ledger.modexp_total()
    with pytest.raises(AuthFailure, match="A4 is not a group element"):
        baseline.finish(enr.env, pending, dataclasses.replace(reply, A4=value))
    assert enr.env.ledger.modexp_total() == modexps


def test_stale_reply_is_rejected_by_the_user():
    enr = enroll("baseline")
    enr.env.clock.advance(500)
    reading = perturb_within_tolerance(enr.template, enr.rng, 8)
    msg, pending = baseline.login(
        enr.env, enr.card, enr.user_id, enr.password, reading,
        enr.rng.exponent(enr.env.params),
    )
    reply, _ = enr.server.respond(msg, enr.rng.exponent(enr.env.params))
    enr.env.clock.advance(enr.env.delta_t_ms + 1)
    with pytest.raises(FreshnessFailure):
        baseline.finish(enr.env, pending, reply)


def test_wire_encoding_round_trips():
    enr = enroll("baseline")
    run = run_session(enr)
    assert baseline.LoginMessage.decode(run.msg.encode()) == run.msg
    assert baseline.ReplyMessage.decode(run.reply.encode()) == run.reply
    assert len(run.msg.encode()) == 16 * len(baseline.LOGIN_WIRE)
    assert len(run.reply.encode()) == 16 * len(baseline.REPLY_WIRE)
    with pytest.raises(ValueError):
        baseline.LoginMessage.decode(b"\x00" * 63)
    with pytest.raises(ValueError):
        baseline.ReplyMessage.decode(b"\x00" * 64)


def test_login_timestamps_are_clock_readings():
    enr = enroll("baseline", start_ms=1_700_000_000_000)
    enr.env.clock.advance(1234)
    reading = perturb_within_tolerance(enr.template, enr.rng, 8)
    msg, _ = baseline.login(
        enr.env, enr.card, enr.user_id, enr.password, reading,
        enr.rng.exponent(enr.env.params),
    )
    assert msg.T1 == ms_to_field(1_700_000_000_000 + 10 + 1234)


def test_reply_timestamp_is_later_than_login_timestamp():
    """processing_ms must separate T3 from T1 or transpositions hide."""
    enr = enroll("baseline")
    run = run_session(enr)
    assert run.reply.T3 != run.msg.T1
