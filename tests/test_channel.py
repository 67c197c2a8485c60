"""Simulated wire: delivery, latency, recording, in-flight corruption."""

import pytest

from support import enroll
from triauth.channel import (
    SERVER_TO_USER,
    USER_TO_SERVER,
    WIRE_TERMINATION,
    SimChannel,
    Transcript,
    TranscriptEntry,
)
from triauth.core import FreshnessFailure, ProtocolError, SimClock
from triauth.session import SCHEMES, Handshake


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
    channel = SimChannel(enr.env.clock)
    handshake = Handshake(SCHEMES[scheme], enr.env, enr.server, channel)
    r_u, r_s = enr.rng.exponent(enr.env.params), enr.rng.exponent(enr.env.params)
    handshake.login(enr.card, enr.user_id, enr.password, enr.template, r_u)
    enr.env.clock.advance(enr.env.delta_t_ms + 1)  # the login goes stale
    with pytest.raises(FreshnessFailure) as exc_info:
        handshake.respond(r_s)
    assert raised == [exc_info.value]  # the server's own error, by identity
    assert [(e.direction, e.label) for e in channel.transcript().entries] == [
        (USER_TO_SERVER, "login"), (SERVER_TO_USER, "termination"),
    ]


def test_transcript_find():
    t = Transcript("s", entries=[TranscriptEntry(USER_TO_SERVER, "login", b"x", 0)])
    assert t.find("login").data == b"x"
    with pytest.raises(KeyError):
        t.find("reply")
