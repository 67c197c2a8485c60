"""File formats: round-trips and pointed failure messages."""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

from support import enroll, full_leak, golden_vectors, load_server, run_session
from triauth import adversary, cli, improved
from triauth.channel import Transcript, TranscriptEntry
from triauth.core import (
    AuthFailure,
    Env,
    Field128,
    ProtocolConfig,
    RegistrationError,
    SessionRng,
    SimClock,
    encode_text,
)
from triauth.costs import cost_report
from triauth.files import (
    FileFormatError,
    json_report_bytes,
    load_card,
    load_config,
    load_dictionary,
    load_leak,
    load_template,
    load_transcript,
    save_card,
    save_server,
    save_template,
    save_transcript,
    transcript_bytes,
    write_json_report,
)
from triauth.fuzzy import BiometricTemplate
from triauth.session import SCHEMES


RECORDED_FILES = Path(__file__).parent / "recordings" / "files"


# ---------------------------------------------------------------------------
# Recorded card and server-state bytes
# ---------------------------------------------------------------------------

def _register_alice_and_bob(scheme, out):
    for user, password, seed in (("alice", "hunter-glacier", 7), ("bob", "other-pw", 8)):
        assert cli.main([
            "register", "--scheme", scheme, "--seed", str(seed),
            "--id", user, "--password", password,
            "--card-out", str(out / ("%s.card" % user)),
            "--server-state", str(out / "server.state"),
        ]) == 0


@pytest.mark.parametrize("scheme", ["baseline", "improved"])
def test_registration_writes_the_recorded_file_bytes(tmp_path, scheme):
    _register_alice_and_bob(scheme, tmp_path)
    for name in ("alice.card", "bob.card", "server.state"):
        assert (tmp_path / name).read_bytes() == (RECORDED_FILES / scheme / name).read_bytes()


@pytest.mark.parametrize("scheme", ["baseline", "improved"])
def test_recorded_cards_reload_and_resave_byte_for_byte(tmp_path, scheme):
    recorded = RECORDED_FILES / scheme
    for name in ("alice.card", "bob.card"):
        save_card(load_card(recorded / name), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (recorded / name).read_bytes()


@pytest.mark.parametrize("scheme", ["baseline", "improved"])
def test_recorded_server_state_reloads_and_resaves_byte_for_byte(tmp_path, scheme):
    recorded = RECORDED_FILES / scheme
    save_server(load_server(recorded / "server.state"), tmp_path / "server.state")
    assert (tmp_path / "server.state").read_bytes() == (recorded / "server.state").read_bytes()


# ---------------------------------------------------------------------------
# Cards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", SCHEMES)
def test_card_round_trips(tmp_path, scheme):
    enr = enroll(scheme)
    path = tmp_path / "u.card"
    save_card(enr.card, path)
    loaded = load_card(path)
    assert isinstance(loaded, SCHEMES[scheme].Card)
    assert loaded == enr.card


def _edited_copy(tmp_path, recorded, name, old: bytes, new: bytes):
    """A copy of a recorded file with the first `old` replaced by `new`."""
    data = (RECORDED_FILES / recorded).read_bytes()
    assert old in data
    path = tmp_path / name
    path.write_bytes(data.replace(old, new, 1))
    return path


def _raises_at(path, line, why):
    return pytest.raises(
        FileFormatError, match="^%s$" % re.escape("%s, line %d: %s" % (path, line, why))
    )


# the first two and the last field lines of the recorded baseline/alice.card
_E = b"e: f260b0365f9a77bb2ee940d34ca57ab1\n"
_H = b"h: 73686132353600000000000000000000\n"
_V = b"V: ef3ea49800df8db99d145e1ac5e1666b\n"


@pytest.mark.parametrize("old, new, line, why", [
    (b"triauth-card v1", b"not-a-card v9", 1, "bad magic, expected 'triauth-card v1'"),
    (_E + _H, _H + _E, 1, "fields out of order: h, e, p, g, Y, P_i, L, V"),
    (_V, _V + b"zz: " + b"0" * 32 + b"\n", 14, "unknown field 'zz'"),
    (b"Y: ", b"y: ", 10, "unknown field 'y'"),
    (_V, b"# " + _V, 1, "missing field 'V'"),
    (_V, _V + b"V: " + b"0" * 32 + b"\n", 14, "duplicate field V"),
    (_V, b"V: " + b"zz" * 16 + b"\n", 13, "field V is not valid hex"),
    (b"helper_bits: 512", b"helper_bits: 256", 11, "helper length does not match helper_bits"),
    (b"hash: sha256", b"hash: sha512", 7, "h field disagrees with header hash"),
    (b"p: ffffffffffffffffffffffffffffc3a7", b"p: " + b"0" * 31 + b"f", 8, "p is not prime"),
    (b"helper_bits: 512", b"helper_bits: abc", 4,
     "helper_bits must be a non-negative integer, got 'abc'"),
    (b"helper_bits: 512", b"helper_bits: 136", 4, "template bits must be a multiple of 128"),
    (b"fields: 8", b"fields: x", 5, "fields must be a non-negative integer, got 'x'"),
    (b"fields: 8", b"fields: -8", 5, "fields must be a non-negative integer, got '-8'"),
    (b"hash: sha256", b"hash: sha\xff256", 3, "not valid UTF-8"),
    (b"hash: sha256", b"hash: nonsense", 3, "unsupported hash type nonsense"),
    (b"hash: sha256", b"hash: shake_128", 3,
     "hash 'shake_128' cannot yield a 16-byte word"),
    (b"fields: 8\n", b"fields: 8\nhash: sha256\n", 6, "duplicate header line 'hash'"),
    (b"scheme: baseline", b"scheme: other", 2,
     "unknown scheme 'other': expected baseline or improved"),
    (b"h: 7368", b"h: ff68", 7,
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"e: f260", b"e: f2 60", 6, "field e is not valid hex"),
    (b"g: 00000000000000000000000000000004", b"g: 00000000000000000000000000000001", 8,
     "g out of range"),
    (b"e: f260", b"e f260", 6, "expected 'key: value'"),
    (b"fields: 8\n", b"", 1, "missing header line 'fields'"),
    (b"e: f260b0365f9a77bb2ee940d34ca57ab1", b"e: f260", 6, "field e must be 16 bytes, got 2"),
    (b"fields: 8", b"fields: 9", 1, "field count 9, expected 8"),
    (b"Y: de6cdc730959e4ad2ceedd68a30e694a", b"Y: " + b"0" * 32, 10,
     "field Y is not in (0, p)"),
    (b"Y: de6cdc730959e4ad2ceedd68a30e694a", b"Y: ffffffffffffffffffffffffffffc3a7", 10,
     "field Y is not in (0, p)"),
    (b"Y: de6cdc730959e4ad2ceedd68a30e694a", b"Y: " + b"f" * 32, 10,
     "field Y is not in (0, p)"),
])
def test_card_parse_errors_name_the_file_and_line(tmp_path, old, new, line, why):
    path = _edited_copy(tmp_path, "baseline/alice.card", "u.card", old, new)
    with _raises_at(path, line, why):
        load_card(path)


# ---------------------------------------------------------------------------
# Server state
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", SCHEMES)
def test_server_round_trips(tmp_path, scheme):
    enr = enroll(scheme)
    path = tmp_path / "srv.state"
    save_server(enr.server, path)
    loaded = load_server(path)
    assert loaded.x == enr.server.x
    assert loaded.y == enr.server.y  # recomputed, must agree
    assert loaded.user_ids == enr.server.user_ids
    assert loaded.records == enr.server.records


@pytest.mark.parametrize("scheme", SCHEMES)
def test_server_state_keeps_the_enrollment_order(tmp_path, scheme):
    enr = enroll(scheme, identity="bob")
    alice = encode_text("alice")
    template = BiometricTemplate.random(enr.rng, 512)
    SCHEMES[scheme].register(enr.env, enr.server, alice, "pw", template, enr.rng)
    order = [enr.user_id, alice]  # bob first, though alice sorts first
    path = tmp_path / "srv.state"
    save_server(enr.server, path)
    ids = [line.split()[1] for line in path.read_text().splitlines()
           if line.startswith("record:")]
    assert ids == [uid.hex() for uid in order]
    assert [rec[0] for rec in load_server(path).records] == order


def test_a_reloaded_improved_server_scans_its_records_in_enrollment_order(tmp_path):
    """Restored records and a record enrolled after the reload are each
    found by their tag hash, in enrollment order: the k-th user is
    accepted after k tag hashes, and a flipped C_i is refused after all
    of the records.  user-1 and user-2 share T1, so user-2's login also
    tries user-1's record."""
    env = Env.from_config(ProtocolConfig(), SimClock(1_700_000_000_000))
    rng = SessionRng(8)
    server = improved.Server(env, rng=rng)
    users = []

    def register(on_env, on_server, exchange_ms):
        name = "user-%d" % len(users)
        template = BiometricTemplate.random(rng, 512)
        card = improved.register(on_env, on_server, encode_text(name), "pw-" + name,
                                 template, rng, exchange_ms=exchange_ms)
        users.append((name, template, card))

    for exchange_ms in (10, 0, 5):
        if len(users) < 2:  # user-2 registers in user-1's millisecond
            env.clock.advance(1000)
        register(env, server, exchange_ms)
    path = tmp_path / "srv.state"
    save_server(server, path)
    env = Env.from_config(ProtocolConfig(), SimClock(env.clock.now() + 1000))
    loaded = load_server(path, env)
    register(env, loaded, 10)
    t1 = [rec.t1_ms for rec in loaded.records]
    assert t1[1] == t1[2] and len(set(t1)) == 3

    for k, (name, template, card) in enumerate(users, 1):
        env.clock.advance(1000)
        msg, pending = improved.login(env, card, encode_text(name), "pw-" + name,
                                      template, rng.exponent(env.params))
        hashes = env.ledger.hash_total()
        reply, sk_server = loaded.respond(msg, rng.exponent(env.params))
        # k tag hashes, 7 more for the accepted record, 3 for a record
        # passed on a shared T1
        assert env.ledger.hash_total() - hashes == k + 7 + 3 * (name == "user-2")
        assert improved.finish(env, pending, reply) == sk_server
        flipped = dataclasses.replace(msg, C_i=msg.C_i ^ Field128.from_int(1))
        with pytest.raises(AuthFailure) as bad:
            loaded.respond(flipped, rng.exponent(env.params))
        assert bad.value.records_tried == len(loaded.records) == 4


def test_server_group_must_match_the_config(tmp_path):
    enr = enroll("baseline")
    path = tmp_path / "srv.state"
    save_server(enr.server, path)
    good_g = Field128.from_int(enr.env.params.g).hex()
    path.write_text(path.read_text().replace("g: %s" % good_g, "g: %032x" % 9))
    with pytest.raises(FileFormatError, match="group parameters disagree"):
        load_server(path)


def test_server_hash_must_match_the_config(tmp_path):
    enr = enroll("baseline")
    path = tmp_path / "srv.state"
    save_server(enr.server, path)
    env = Env.from_config(ProtocolConfig(hash_name="sha512"), SimClock())
    with pytest.raises(FileFormatError, match="hash function disagrees"):
        load_server(path, env)


# the last line of each recorded server state
_BOB_BASELINE = b"record: 626f6200000000000000000000000000\n"
_BOB_IMPROVED = b"record: 626f6200000000000000000000000000 1700000000000 1700000000010\n"


@pytest.mark.parametrize("recorded, old, new, line, why", [
    ("improved", b"p: ffff", b"p: zzzz", 4, "field p is not valid hex"),
    ("improved", b"X: facf", b"X: xacf", 6, "field X is not valid hex"),
    ("improved", b" 1700000000000 ", b" 17000O0000000 ", 7,
     "record time must be a non-negative integer, got '17000O0000000'"),
    ("improved", b" 1700000000010\n", b" t2\n", 7,
     "record time must be a non-negative integer, got 't2'"),
    ("improved", b" 1700000000010\n", b"\n", 7, "record needs 'id t1 t2'"),
    ("improved", b"hash: sha256", b"hash: sh\xe4256", 3, "not valid UTF-8"),
    ("improved", b"X: ", b"hash: sha256\nX: ", 6, "duplicate header line 'hash'"),
    ("baseline", b"record: 616c", b"ercord: 616c", 7, "unknown line 'ercord'"),
    ("baseline", b"6f6200000000000000000000000000", b"6f6200000000000000000000000000 5", 8,
     "record needs 'id'"),
    ("baseline", _BOB_BASELINE, _BOB_BASELINE * 2, 9, "identity already registered"),
    ("improved", _BOB_IMPROVED, _BOB_IMPROVED * 2, 9, "identity already registered"),
    ("improved", b" 1700000000000 ", b" 99999999999999999999999 ", 7,
     "record time out of 64-bit range: 99999999999999999999999"),
    ("improved", b" 1700000000010\n", b" 18446744073709551616\n", 7,
     "record time out of 64-bit range: 18446744073709551616"),
    ("improved", b"X: facf", b"X: ", 6, "field X must be 16 bytes, got 14"),
    ("improved", b"X: facf01ff2c00f0c97be4beaa4d5c3fba", b"X: " + b"0" * 31 + b"1", 6,
     "X out of range"),
    ("baseline", b"record: 616c", b"record 616c", 7, "expected 'key: value'"),
    ("improved", b"X: facf01ff2c00f0c97be4beaa4d5c3fba\n", b"", 1, "missing header line 'X'"),
])
def test_server_parse_errors_name_the_file_and_line(tmp_path, recorded, old, new, line, why):
    path = _edited_copy(tmp_path, recorded + "/server.state", "srv.state", old, new)
    with _raises_at(path, line, why):
        load_server(path)


@pytest.mark.parametrize("scheme", ["baseline", "improved"])
@pytest.mark.parametrize("name, load, save", [
    ("alice.card", load_card, save_card),
    ("server.state", load_server, save_server),
], ids=["card", "server-state"])
def test_blank_and_comment_lines_are_skipped(tmp_path, scheme, name, load, save):
    recorded = RECORDED_FILES / scheme / name
    lines = recorded.read_bytes().split(b"\n")
    lines[1:1] = [b"# a comment", b""]
    lines[-2:-2] = [b"   ", b"  # another: comment"]
    path = tmp_path / name
    path.write_bytes(b"\n".join(lines))
    save(load(path), tmp_path / "resaved")
    assert (tmp_path / "resaved").read_bytes() == recorded.read_bytes()


@pytest.mark.parametrize("scheme", ["baseline", "improved"])
def test_enrolling_an_identity_restored_from_a_file_is_refused(scheme):
    server = load_server(RECORDED_FILES / scheme / "server.state")
    env = server.env
    rng = SessionRng(3)
    template = BiometricTemplate.random(rng, 512)
    with pytest.raises(RegistrationError, match="identity already registered"):
        SCHEMES[scheme].register(env, server, encode_text("bob"), "pw", template, rng)


def test_loaded_server_still_authenticates(tmp_path):
    enr = enroll("improved")
    path = tmp_path / "srv.state"
    save_server(enr.server, path)
    enr.server = load_server(path, enr.env)
    run = run_session(enr)
    assert run.sk_user == run.sk_server


# ---------------------------------------------------------------------------
# Transcripts
# ---------------------------------------------------------------------------

def sample_transcript():
    return Transcript(
        "sess-1",
        rng_seed=42,
        entries=[
            TranscriptEntry("user->server", "login", b"\x01" * 64, 1_700_000_000_123),
            TranscriptEntry("server->user", "reply", b"\x02" * 48, 1_700_000_000_456),
            TranscriptEntry("server->user", "termination", b"session terminated", 1_700_000_000_789),
        ],
    )


def test_transcript_round_trips(tmp_path):
    t = sample_transcript()
    path = tmp_path / "t.bin"
    save_transcript(t, path)
    loaded = load_transcript(path)
    assert loaded == t


def test_transcript_without_seed_round_trips(tmp_path):
    t = Transcript("anon", rng_seed=None, entries=[])
    path = tmp_path / "t.bin"
    save_transcript(t, path)
    assert load_transcript(path).rng_seed is None


def test_transcript_serialization_is_deterministic():
    t = sample_transcript()
    assert transcript_bytes(t) == transcript_bytes(sample_transcript())


@pytest.mark.parametrize("edit, why", [
    (lambda raw: b"NOTMAGIC" + raw[8:], "bad transcript magic"),
    (lambda raw: raw[:-5], "truncated at byte 204"),
    (lambda raw: raw + b"\x00", "1 trailing bytes"),
    (lambda raw: raw.replace(b"\x00\x05login", b"\x02\x05login"),
     "direction 2 at byte 29, expected 0 or 1"),
    (lambda raw: raw.replace(b"login", b"l\xf6gin"), "text at byte 31 is not valid UTF-8"),
    (lambda raw: raw.replace(b"sess-1", b"sess-\xff"), "text at byte 10 is not valid UTF-8"),
    (lambda raw: raw.replace(b"sess-1\x01", b"sess-1\x02"), "seed flag 2 with seed 42"),
    (lambda raw: raw.replace(b"sess-1\x01", b"sess-1\x00"), "seed flag 0 with seed 42"),
])
def test_transcript_parse_errors_name_the_file(tmp_path, edit, why):
    path = tmp_path / "t.bin"
    path.write_bytes(edit(transcript_bytes(sample_transcript())))
    with pytest.raises(FileFormatError, match="^%s$" % re.escape("%s: %s" % (path, why))):
        load_transcript(path)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_transcript_seed_reference_must_fit_in_64_bits(seed):
    with pytest.raises(ValueError, match="^transcript seed reference must fit in 64 bits$"):
        transcript_bytes(Transcript("sess-1", rng_seed=seed, entries=[]))


def test_transcript_session_id_must_fit_its_two_length_bytes(tmp_path):
    path = tmp_path / "t.bin"
    save_transcript(Transcript("s" * 0xFFFF, rng_seed=None, entries=[]), path)
    assert load_transcript(path).session_id == "s" * 0xFFFF
    with pytest.raises(ValueError, match="^session id of 65536 bytes: "
                                         "a transcript holds at most 65535$"):
        transcript_bytes(Transcript("s" * 0x10000, rng_seed=None, entries=[]))


# ---------------------------------------------------------------------------
# Templates, dictionaries, config
# ---------------------------------------------------------------------------

def test_template_round_trips(tmp_path):
    template = BiometricTemplate.random(SessionRng(3), 512)
    path = tmp_path / "u.tpl"
    save_template(template, path)
    assert load_template(path) == template


@pytest.mark.parametrize("text, line, why", [
    (b"512\n", 1, "expected '<bits> <hex>'"),
    (b"512 zz\n", 1, "field template is not valid hex"),
    (b"512 abcd\n", 1, "template length does not match bit count"),
    (b"5l2 abcd\n", 1, "bit count must be a non-negative integer, got '5l2'"),
    (b"16 ab cd\n", 1, "expected '<bits> <hex>'"),
    (b"16 abc\n", 1, "field template is not valid hex"),
    (b"16 \xab\xcd\n", 1, "not valid UTF-8"),
    (b"16\nabcd\n", 1, "expected '<bits> <hex>'"),
    (b"512\nzz\n", 1, "expected '<bits> <hex>'"),
    (b"16 abcd\n\n16 abcd\n", 3, "a template is one line"),
    (b"16 abcd\nzz\n", 2, "a template is one line"),
    (b"136 " + b"ab" * 17 + b"\n", 1, "template bits must be a multiple of 128"),
])
def test_template_parse_errors_name_the_file_and_line(tmp_path, text, line, why):
    path = tmp_path / "u.tpl"
    path.write_bytes(text)
    with _raises_at(path, line, why):
        load_template(path)


def test_a_template_may_end_in_blank_lines(tmp_path):
    path = tmp_path / "u.tpl"
    path.write_bytes(b"128 " + b"abcd" * 8 + b"\n\n  \n")
    assert load_template(path) == BiometricTemplate(bytes.fromhex("abcd" * 8), 128)


def test_dictionary_round_trips(tmp_path):
    words = ["alpha", "beta", "gamma delta", "p@ss w0rd"]
    path = tmp_path / "d.txt"
    path.write_text("alpha\nbeta\ngamma delta\np@ss w0rd\n", "utf-8")
    assert load_dictionary(path) == words


def test_dictionary_skips_blank_lines_but_rejects_empty(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("one\n\n  \ntwo\n")
    assert load_dictionary(path) == ["one", "two"]
    path.write_text("\n\n")
    with pytest.raises(FileFormatError, match="empty"):
        load_dictionary(path)


def test_config_round_trips(tmp_path):
    config = ProtocolConfig(delta_t_ms=5000, template_bits=256)
    path = tmp_path / "c.conf"
    path.write_text("# protocol configuration\np = ffffffffffffffffffffffffffffc3a7\n"
                    "g = 4\nhash = sha256\ndelta_t_ms = 5000\ntemplate_bits = 256\n",
                    "utf-8")
    assert load_config(path) == config


@pytest.mark.parametrize("text, line, why", [
    (b"surprise = 1\n", 1, "unknown config key 'surprise'"),
    (b"just a line\n", 1, "expected 'key = value'"),
    (b"p = 0x17\n", 1, "p must be hex, got '0x17'"),
    (b"g = 4\np = \n", 2, "p must be hex, got ''"),
    (b"g = four\n", 1, "g must be a non-negative integer, got 'four'"),
    (b"g = 4\ndelta_t_ms = -5\n", 2, "delta_t_ms must be a non-negative integer, got '-5'"),
    (b"g = 4\ng = 5\n", 2, "duplicate config key 'g'"),
    (b"# \xe9t\xe9\ng = 4\n", 1, "not valid UTF-8"),
    (b"g = 4\nhash = shake_128\n", 2, "hash 'shake_128' cannot yield a 16-byte word"),
    (b"hash = not-a-hash\n", 1, "unsupported hash type not-a-hash"),
    (b"template_bits = 136\n", 1, "template bits must be a multiple of 128"),
    (b"g = 4\ntemplate_bits = 0\n", 2, "template too short for a 128-bit key"),
    (b"g = 1\n", 1, "g out of range"),
    (b"p = 17\nhash = sha256\ng = 5\n", 3, "subgroup order must exceed 2**64"),
    (b"# protocol configuration\nseed = 1\n", 2, "unknown config key 'seed'"),
])
def test_config_parse_errors_name_the_file_and_line(tmp_path, text, line, why):
    path = tmp_path / "c.conf"
    path.write_bytes(text)
    with _raises_at(path, line, why):
        load_config(path)


# ---------------------------------------------------------------------------
# Golden vectors, reports, leaks
# ---------------------------------------------------------------------------

def test_the_golden_vectors_parse_and_verify():
    vectors = golden_vectors()
    assert len(vectors) >= 8
    for blocks, digest in vectors:
        assert all(len(b) == 16 for b in blocks)
        assert hashlib.sha256(b"".join(blocks)).digest()[:16] == digest


def test_json_report_bytes_are_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json_report({"z": 1, "a": [2, 3]}, a)
    write_json_report({"a": [2, 3], "z": 1}, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().endswith("\n")


def _outcome_report() -> dict:
    """An improved attack's report: gaps, each naming its unknowns."""
    enr = enroll("improved")
    knowledge = full_leak(enr, run_session(enr), ["guess", enr.password])
    return adversary.outcome_report("improved", adversary.attack(knowledge))


_STDLIB_CASES = {
    "baseline-costs": lambda: cost_report("baseline"),
    "improved-costs": lambda: cost_report("improved"),
    "outcome": _outcome_report,
    "leak": lambda: {"session": "s001", "seed": 7, "r_u": 123456789, "r_s": 987654321},
    "empty-object": lambda: {},
    "empty-list": lambda: [],
    "nested-empty": lambda: {"a": [], "b": {}, "c": [[], {}, [[]]], "d": {"e": {"f": []}}},
    "non-ascii": lambda: {"na\u00efve \u2603 \U0001d11e": ["\u00e9", "\u2028", "\t\"\\\x00\x7f"]},
    "lone-surrogate": lambda: ["\ud800", {"\udfff": "x\ud834"}],
    "ints-tuples-bools": lambda: {"n": [-1, 0, -(2 ** 70), 2 ** 64], "t": (1, (True, 1), ()),
                                  "b": [True, 1, False, 0, None], "1": True, "one": 1},
}
_REFUSED_CASES = {
    "float": lambda: {"x": 1.5},
    "bytes": lambda: [b"raw"],
    "int-key": lambda: {1: "one"},
}


@pytest.mark.parametrize("case", [*_STDLIB_CASES, *_REFUSED_CASES])
def test_json_report_bytes_are_the_stdlib_encoding(case):
    """The direct writer's bytes are `json.dumps`'s for every type a
    report holds; a float, bytes or a non-str key is refused."""
    if case in _REFUSED_CASES:
        with pytest.raises(TypeError):
            json_report_bytes(_REFUSED_CASES[case]())
        return
    obj = _STDLIB_CASES[case]()
    expected = json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    assert json_report_bytes(obj) == expected.encode()


def test_leak_round_trips(tmp_path):
    leak = {"session": "s001", "r_u": 123456789, "r_s": 987654321, "seed": 7}
    path = tmp_path / "leak.json"
    write_json_report(leak, path)
    assert load_leak(path) == leak


@pytest.mark.parametrize("text", [
    b"[1, 2]",
    b'{"r_u": "12", "r_s": 3}',
    b'{"r_u": -1, "r_s": 3}',
    b'{"r_u": true, "r_s": 3}',
    b'{"r_u": 1.5, "r_s": 3}',
    b'{"r_u": 12}',
])
def test_leak_must_be_an_object_of_non_negative_ints(tmp_path, text):
    path = tmp_path / "leak.json"
    path.write_bytes(text)
    why = "a leak must be an object with non-negative integers r_u and r_s"
    with pytest.raises(FileFormatError, match="^%s$" % re.escape("%s: %s" % (path, why))):
        load_leak(path)


@pytest.mark.parametrize("text", [
    b"not json", b'{"r_u": 1, "r_s": 2', b'{"r_u": "\xff"}',
    pytest.param(b"[" * 100000, id="nested-too-deep"),
    pytest.param('{"r_u": 1, "r_s": 2}'.encode("utf-16"), id="utf-16"),
    pytest.param('{"r_u": 1, "r_s": 2}'.encode("utf-8-sig"), id="utf-8-bom"),
])
def test_leak_that_is_not_json_names_the_file(tmp_path, text):
    path = tmp_path / "leak.json"
    path.write_bytes(text)
    with pytest.raises(FileFormatError, match="^%s: not a JSON leak file" % re.escape(str(path))):
        load_leak(path)
