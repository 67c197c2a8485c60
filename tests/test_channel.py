"""Simulated wire: delivery, latency, recording, in-flight corruption."""

from dataclasses import fields, replace

import pytest

from support import enroll, other_scheme
from triauth.channel import (
    SERVER_TO_USER,
    USER_TO_SERVER,
    WIRE_TERMINATION,
    SimChannel,
)
from triauth.core import FreshnessFailure, ProtocolError, SimClock
from triauth.session import SCHEMES, Handshake, scheme_of, wire_message, wire_traffic


def make_channel(latency=0):
    clock = SimClock(1000)
    return clock, SimChannel(clock, latency_ms=latency, session_id="t1", rng_seed=9)


def test_messages_arrive_in_order_and_intact():
    _, ch = make_channel()
    ch.send(USER_TO_SERVER, "login", b"a" * 64)
    ch.send(USER_TO_SERVER, "login", b"b" * 64)
    assert ch.recv(USER_TO_SERVER) == b"a" * 64
    assert ch.recv(USER_TO_SERVER) == b"b" * 64


def test_directions_are_independent_queues():
    _, ch = make_channel()
    ch.send(USER_TO_SERVER, "login", b"up")
    ch.send(SERVER_TO_USER, "reply", b"down")
    assert ch.recv(SERVER_TO_USER) == b"down"
    assert ch.recv(USER_TO_SERVER) == b"up"


def test_latency_advances_the_clock_on_delivery():
    clock, ch = make_channel(latency=25)
    ch.send(USER_TO_SERVER, "login", b"x")
    assert clock.now() == 1000
    ch.recv(USER_TO_SERVER)
    assert clock.now() == 1025
    # a clock already past the delivery time is left alone
    ch.send(USER_TO_SERVER, "login", b"y")
    clock.advance(100)
    ch.recv(USER_TO_SERVER)
    assert clock.now() == 1125


def test_a_channel_delivers_at_the_send_instant_by_default():
    clock = SimClock(1000)
    ch = SimChannel(clock)
    ch.send(USER_TO_SERVER, "login", b"x")
    assert ch.recv(USER_TO_SERVER) == b"x"
    assert clock.now() == 1000


def test_negative_latency_is_refused():
    # a message cannot be delivered before it was sent
    with pytest.raises(ValueError, match="latency must not be negative"):
        make_channel(latency=-1)


def test_recv_on_an_empty_queue_is_an_error():
    _, ch = make_channel()
    with pytest.raises(LookupError):
        ch.recv(USER_TO_SERVER)


def test_unknown_direction_is_an_error():
    _, ch = make_channel()
    with pytest.raises(ValueError):
        ch.send("sideways", "login", b"x")


def test_transcript_records_send_times_and_bytes():
    clock, ch = make_channel(latency=10)
    ch.send(USER_TO_SERVER, "login", b"m1")
    clock.advance(50)
    ch.send(SERVER_TO_USER, "reply", b"m2")
    t = ch.transcript()
    assert [e.label for e in t.entries] == ["login", "reply"]
    assert t.entries[0].captured_at == 1000
    assert t.entries[1].captured_at == 1050
    assert t.session_id == "t1"
    assert t.rng_seed == 9


def test_transcript_copy_is_independent():
    _, ch = make_channel()
    ch.send(USER_TO_SERVER, "login", b"m1")
    t = ch.transcript()
    t.entries.clear()
    assert len(ch.transcript().entries) == 1


def test_corruption_applies_to_wire_and_record_alike():
    _, ch = make_channel()
    ch.send(USER_TO_SERVER, "login", bytes(8))
    ch.corrupt_in_flight(USER_TO_SERVER, 2, b"\xff")
    delivered = ch.recv(USER_TO_SERVER)
    assert delivered == bytes(2) + b"\xff" + bytes(5)
    assert ch.transcript().entries[0].data == delivered


def test_corruption_hits_the_message_in_flight_not_an_equal_delivered_one():
    _, ch = make_channel()
    ch.send(USER_TO_SERVER, "login", bytes(4))
    ch.send(USER_TO_SERVER, "login", bytes(4))  # same bytes, same clock reading
    assert ch.recv(USER_TO_SERVER) == bytes(4)
    ch.corrupt_in_flight(USER_TO_SERVER, 0, b"\x01")
    assert ch.recv(USER_TO_SERVER) == b"\x01" + bytes(3)
    assert [e.data.hex() for e in ch.transcript().entries] == ["00000000", "01000000"]


def test_zero_mask_corruption_changes_nothing():
    _, ch = make_channel()
    ch.send(USER_TO_SERVER, "login", b"payload")
    ch.corrupt_in_flight(USER_TO_SERVER, 0, bytes(7))
    assert ch.recv(USER_TO_SERVER) == b"payload"


def test_corruption_bounds_are_checked():
    _, ch = make_channel()
    ch.send(USER_TO_SERVER, "login", bytes(8))
    with pytest.raises(ValueError):
        ch.corrupt_in_flight(USER_TO_SERVER, 7, b"\x01\x02")
    with pytest.raises(LookupError):
        ch.corrupt_in_flight(SERVER_TO_USER, 0, b"\x01")


def test_termination_notice_is_uniform():
    _, ch = make_channel()
    ch.terminate(SERVER_TO_USER)
    entry = ch.transcript().entries[0]
    assert entry.label == "termination"
    assert entry.data == WIRE_TERMINATION.encode("ascii")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_server_rejection_leaves_the_login_then_the_termination_notice(scheme):
    enr = enroll(scheme)
    raised = []
    respond = enr.server.respond

    def respond_and_keep_the_error(*args, **kwargs):
        try:
            return respond(*args, **kwargs)
        except ProtocolError as exc:
            raised.append(exc)
            raise

    enr.server.respond = respond_and_keep_the_error
    handshake = Handshake(enr.env, enr.server)
    r_u, r_s = enr.rng.exponent(enr.env.params), enr.rng.exponent(enr.env.params)
    handshake.login(enr.card, enr.user_id, enr.password, enr.template, r_u)
    enr.env.clock.advance(enr.env.delta_t_ms + 1)  # the login goes stale
    with pytest.raises(FreshnessFailure) as exc_info:
        handshake.respond(r_s)
    assert raised == [exc_info.value]  # the server's own error, by identity
    assert [(e.direction, e.label) for e in handshake.channel.transcript().entries] == [
        (USER_TO_SERVER, "login"), (SERVER_TO_USER, "termination"),
    ]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("issued, why", [
    (dict(h="sha512"), "hash function"),
    (dict(p=0xA43A4BB686FF60C85D07F37F), "group"),  # a 96-bit safe prime, same g
    (dict(g=9), "group"),
], ids=["hash", "p", "g"])
def test_a_card_issued_under_another_hash_sends_and_counts_nothing(scheme, issued, why):
    enr = enroll(scheme)
    card = replace(enr.card, **issued)
    handshake = Handshake(enr.env, enr.server)
    ledger = enr.env.ledger
    counts = (ledger.hash_total(), ledger.modexp_total())
    with pytest.raises(ValueError, match="^card was issued under a different %s$" % why):
        handshake.login(card, enr.user_id, enr.password, enr.template,
                        enr.rng.exponent(enr.env.params))
    assert handshake.channel.transcript().entries == []
    assert (ledger.hash_total(), ledger.modexp_total()) == counts


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_card_of_the_other_scheme_is_refused_before_its_step_runs(scheme):
    card = enroll(scheme).card
    other = other_scheme(scheme)
    enr = enroll(other)
    handshake = Handshake(enr.env, enr.server)
    with pytest.raises(ValueError, match="^a card of the %s scheme cannot log in to a "
                       "server of the %s scheme$" % (scheme, other)):
        handshake.login(card, enr.user_id, enr.password, enr.template,
                        enr.rng.exponent(enr.env.params))
    assert handshake.channel.transcript().entries == []
    assert "login/user" not in enr.env.ledger.phase_table()


def _logged_in(scheme):
    """An enrollment and a handshake whose login is in flight."""
    enr = enroll(scheme)
    handshake = Handshake(enr.env, enr.server)
    handshake.login(enr.card, enr.user_id, enr.password, enr.template,
                    enr.rng.exponent(enr.env.params))
    return enr, handshake


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_handshake_holds_its_session_state_until_finish(scheme):
    enr, handshake = _logged_in(scheme)
    pending = handshake.pending
    assert isinstance(pending, SCHEMES[scheme].PendingLogin)
    assert handshake.r_u == pending.r_u
    assert (handshake.r_s, handshake.sk_user, handshake.sk_server) == (None,) * 3
    assert not handshake.keys_match()
    with pytest.raises(LookupError):  # no reply yet: the card keeps its state
        handshake.finish()
    assert handshake.pending is pending
    r_s = enr.rng.exponent(enr.env.params)
    handshake.respond(r_s)
    assert handshake.r_s == r_s and handshake.sk_server is not None
    assert not handshake.keys_match()  # the server's key alone
    assert handshake.finish() == handshake.sk_user == handshake.sk_server
    assert handshake.keys_match()
    assert handshake.pending is None


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_default_handshake_leaves_the_clock_where_it_started(scheme):
    """No latency and no processing time unless asked for:
    ``adversary.impersonate`` relies on both defaults."""
    enr = enroll(scheme)
    start = enr.env.clock.now()
    handshake = Handshake(enr.env, enr.server)
    handshake.login(enr.card, enr.user_id, enr.password, enr.template,
                    enr.rng.exponent(enr.env.params))
    handshake.respond(enr.rng.exponent(enr.env.params))
    handshake.finish()
    assert handshake.keys_match()
    assert enr.env.clock.now() == start


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_rejected_reply_destroys_the_pending_login(scheme):
    enr, handshake = _logged_in(scheme)
    handshake.respond(enr.rng.exponent(enr.env.params))
    offset = SCHEMES[scheme].ReplyMessage.OFFSETS["Cs"]
    handshake.channel.corrupt_in_flight(SERVER_TO_USER, offset, b"\x01")
    with pytest.raises(ProtocolError):
        handshake.finish()
    assert handshake.pending is None
    assert handshake.sk_user is None and not handshake.keys_match()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_r_s_is_set_once_the_server_step_runs_on_a_login(scheme):
    enr = enroll(scheme)
    handshake = Handshake(enr.env, enr.server)
    with pytest.raises(LookupError):  # nothing in flight: no server step ran
        handshake.respond(5)
    assert handshake.r_s is None
    handshake.login(enr.card, enr.user_id, enr.password, enr.template,
                    enr.rng.exponent(enr.env.params))
    enr.env.clock.advance(enr.env.delta_t_ms + 1)  # the login goes stale
    with pytest.raises(FreshnessFailure):
        handshake.respond(7)
    assert handshake.r_s == 7 and handshake.sk_server is None
    with pytest.raises(LookupError):  # a termination notice is no reply
        handshake.finish()
    assert handshake.pending is not None


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_negative_processing_time_is_refused_before_the_server_step(scheme):
    enr, handshake = _logged_in(scheme)
    ledger = enr.env.ledger
    counts = (dict(ledger.hash_calls), dict(ledger.modexp_calls))
    now = enr.env.clock.now()
    with pytest.raises(ValueError, match="processing_ms must not be negative, got -5"):
        handshake.respond(enr.rng.exponent(enr.env.params), processing_ms=-5)
    assert (dict(ledger.hash_calls), dict(ledger.modexp_calls)) == counts
    assert enr.env.clock.now() == now
    assert handshake.r_s is None
    assert [e.label for e in handshake.channel.transcript().entries] == ["login"]
    handshake.respond(enr.rng.exponent(enr.env.params))  # the login is still in flight
    handshake.finish()
    assert handshake.keys_match()


def test_scheme_of_refuses_what_is_no_card_or_server():
    with pytest.raises(TypeError, match="not a card or server"):
        scheme_of(object())


def test_wire_label_table_lookup():
    baseline, improved = SCHEMES["baseline"], SCHEMES["improved"]
    assert wire_message(baseline, "login") == (USER_TO_SERVER, baseline.LoginMessage)
    assert wire_message(improved, "reply") == (SERVER_TO_USER, improved.ReplyMessage)
    assert wire_message(baseline, "login")[1].WIRE == ("NID", "A1", "C_i", "T1")
    assert wire_message(improved, "reply")[1].WIRE == ("Cs", "A44", "P", "Q2")
    assert wire_message(baseline, "login")[1].OFFSETS["C_i"] == 32
    with pytest.raises(ValueError, match="no greeting message in the baseline scheme"):
        wire_message(baseline, "greeting")


@pytest.mark.parametrize("scheme, card, pending", [
    ("baseline", "e h p g Y P_i L V", "ID H A2 r_u T1"),
    ("improved", "e h p g Y P_i L V M Nmask T12", "ID H A22 r_u T1 T2 T3"),
], ids=["baseline", "improved"])
def test_protocol_records_are_named_as_the_equations_name_them(scheme, card, pending):
    mod = SCHEMES[scheme]
    names = lambda cls: tuple(f.name for f in fields(cls))
    assert names(mod.Card) == tuple(card.split())
    assert set(names(mod.Card)) == {"h", *mod.Card.FIELD_NAMES}
    assert names(mod.PendingLogin) == tuple(pending.split())
    assert names(mod.LoginMessage) == mod.LoginMessage.WIRE == mod.LOGIN_WIRE
    assert names(mod.ReplyMessage) == mod.ReplyMessage.WIRE == mod.REPLY_WIRE


def test_wire_traffic_is_the_protocol_messages_in_bits():
    _, ch = make_channel()
    ch.send(USER_TO_SERVER, "login", bytes(64))
    ch.terminate(SERVER_TO_USER)  # the uniform notice is no protocol message
    ch.send(SERVER_TO_USER, "reply", bytes(48))
    assert wire_traffic(ch.transcript()) == [("login", 512), ("reply", 384)]
