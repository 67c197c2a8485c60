"""Baseline scheme: what it alone does, on its bare timestamps and its
unmasked group elements.  Behaviour both schemes share is tested in
test_schemes.py."""

import dataclasses

import pytest

from support import clock_ahead, enroll, login, run_session
from triauth import baseline
from triauth.core import (
    AuthFailure,
    Field128,
    FreshnessFailure,
    UnknownUser,
    encode_text,
    field_to_ms,
    ms_to_field,
)


def test_card_contents_never_store_the_raw_password_or_identity():
    enr = enroll("baseline")
    stored = {bytes(enr.card.e), bytes(enr.card.L), bytes(enr.card.V),
              bytes(enr.card.Y)}
    assert bytes(encode_text(enr.password)) not in stored
    assert bytes(enr.user_id) not in stored


def test_each_freshness_rejection_says_why():
    """A malformed or stale stamp is refused, by name and with its
    numbers, before any exponentiation is counted."""
    enr = enroll("baseline")
    run = run_session(enr)
    garbage = Field128.from_int(1 << 127)
    bad_t1 = dataclasses.replace(run.msg, T1=garbage)
    bad_t3 = dataclasses.replace(run.reply, T3=garbage)
    r_s = enr.rng.exponent(enr.env.params)
    modexps = enr.env.ledger.modexp_total()
    with pytest.raises(FreshnessFailure, match="^malformed timestamp$") as malformed:
        enr.server.respond(bad_t1, r_s)
    assert (malformed.value.skew_ms, malformed.value.window_ms) == (None, None)
    with pytest.raises(FreshnessFailure, match="^malformed timestamp$"):
        baseline.finish(enr.env, run.pending, bad_t3)
    enr.env.clock.advance(enr.env.delta_t_ms + 1)
    now, window = enr.env.clock.now(), enr.env.delta_t_ms
    with pytest.raises(FreshnessFailure, match="^login timestamp outside the window$") as stale:
        enr.server.respond(run.msg, r_s)
    assert (stale.value.skew_ms, stale.value.window_ms) == (
        now - field_to_ms(run.msg.T1), window)
    with pytest.raises(FreshnessFailure, match="^reply timestamp outside the window$") as reply:
        baseline.finish(enr.env, run.pending, run.reply)
    assert (reply.value.skew_ms, reply.value.window_ms) == (
        now - field_to_ms(run.reply.T3), window)
    assert enr.env.ledger.modexp_total() == modexps


@pytest.mark.parametrize("over", [0, 1])
def test_a_reply_stamped_ahead_of_the_card_is_refused_past_the_window(over):
    enr = enroll("baseline")
    env = enr.env
    env.clock.advance(60_000)
    msg, pending = login(enr)
    reply, sk_server = enr.server.respond(msg, enr.rng.exponent(env.params))
    ahead = env.delta_t_ms + over
    card_env = clock_ahead(env, -ahead)  # the card's clock lags the server's
    if over:
        with pytest.raises(FreshnessFailure, match=r"^reply timestamp %d ms ahead of "
                           r"the clock \(window %d ms\)$" % (ahead, env.delta_t_ms)):
            baseline.finish(card_env, pending, reply)
    else:
        assert baseline.finish(card_env, pending, reply) == sk_server


def test_unregistered_identity_is_unknown():
    enr = enroll("baseline")
    enr.env.clock.advance(10)
    msg, _ = login(enr)
    # flip NID so the server unmasks a different identity
    altered = dataclasses.replace(msg, NID=msg.NID ^ Field128.from_int(1))
    with pytest.raises(UnknownUser):
        enr.server.respond(altered, enr.rng.exponent(enr.env.params))


@pytest.mark.parametrize("bad", ["zero", "p"])
def test_group_elements_outside_the_group_are_auth_failures(bad):
    """A1 or A4 outside (0, p) is rejected as AuthFailure before any
    exponentiation is counted."""
    enr = enroll("baseline")
    value = Field128.from_int(0 if bad == "zero" else enr.env.params.p)
    enr.env.clock.advance(1000)
    msg, pending = login(enr)
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


def test_login_timestamps_are_clock_readings():
    enr = enroll("baseline", start_ms=1_700_000_000_000)
    enr.env.clock.advance(1234)
    msg, _ = login(enr)
    assert msg.T1 == ms_to_field(1_700_000_000_000 + 10 + 1234)


def test_reply_timestamp_is_later_than_login_timestamp():
    """processing_ms must separate T3 from T1 or transpositions hide."""
    enr = enroll("baseline")
    run = run_session(enr)
    assert run.reply.T3 != run.msg.T1
