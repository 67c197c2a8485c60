"""Seeded fuzz of every message decoder and of both schemes' steps.

A decoder must accept exactly its layout's length and refuse any other
with a ValueError naming its class.  A server's ``respond`` and a
card's ``finish``, given well-formed messages of random words, must
refuse each with a ProtocolError and nothing else.
"""

import pytest

from support import enroll, login
from triauth.core import FIELD_BYTES, Field128, ProtocolError, SessionRng
from triauth.session import SCHEMES, WIRE_LABELS, wire_message

SAMPLES = 300


def _random_bytes(rng: SessionRng, n: int) -> bytes:
    return b"".join(rng.field() for _ in range(n // FIELD_BYTES + 1))[:n]


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("label", sorted(WIRE_LABELS))
def test_a_decoder_accepts_exactly_its_layout_length(scheme, label):
    cls = wire_message(SCHEMES[scheme], label)[1]
    size = len(cls.WIRE) * FIELD_BYTES
    rng = SessionRng(size)
    for n in range(81):
        raw = _random_bytes(rng, n)
        if n == size:
            assert cls.decode(raw).encode() == raw
        else:
            why = r"\.%s must be %d bytes" % (cls.__name__, size)
            with pytest.raises(ValueError, match=why):
                cls.decode(raw)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("label", sorted(WIRE_LABELS))
def test_decode_refuses_a_length_off_by_one_as_words_does(scheme, label):
    cls = wire_message(SCHEMES[scheme], label)[1]
    size = len(cls.WIRE) * FIELD_BYTES
    why = "triauth.%s.%s must be %d bytes" % (scheme, cls.__name__, size)
    for n in (0, size - 1, size + 1):
        for parse in (cls.decode, cls.words):
            with pytest.raises(ValueError) as refused:
                parse(bytes(n))
            assert str(refused.value) == why
    raw = _random_bytes(SessionRng(size), size)
    msg = cls.decode(raw)
    assert msg.encode() == raw
    assert {name: getattr(msg, name) for name in cls.WIRE} == cls.words(raw)
    assert {type(getattr(msg, name)) for name in cls.WIRE} == {Field128}


def _fuzzed(cls, honest, rng: SessionRng):
    """SAMPLES messages of random words; every other one keeps the honest
    message's last word: the baseline's stamp, the improved scheme's Q
    (login) or Q2 (reply)."""
    last = cls.WIRE[-1]
    for i in range(SAMPLES):
        words = {name: rng.field() for name in cls.WIRE}
        if i % 2:
            words[last] = getattr(honest, last)
        yield cls(**words)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_respond_and_finish_refuse_random_messages_with_a_protocol_error(scheme):
    enr = enroll(scheme)
    mod = SCHEMES[scheme]
    env, params = enr.env, enr.env.params
    msg, pending = login(enr, reading=enr.template)
    reply, _ = enr.server.respond(msg, enr.rng.exponent(params))
    rng = SessionRng(7)
    seen = set()
    for fake in _fuzzed(mod.LoginMessage, msg, rng):
        with pytest.raises(ProtocolError) as caught:
            enr.server.respond(fake, enr.rng.exponent(params))
        seen.add(caught.type.__name__)
    for fake in _fuzzed(mod.ReplyMessage, reply, rng):
        with pytest.raises(ProtocolError) as caught:
            mod.finish(env, pending, fake)
        seen.add(caught.type.__name__)
    # the kept words carry half the logins past the freshness check or the
    # record scan, to the group and verifier checks
    assert {"AuthFailure", "UnknownUser"} <= seen, seen
