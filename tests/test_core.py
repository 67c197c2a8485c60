"""Primitives: words, clocks, ledger, hash engine, group math, RNG."""

import hashlib
import random

import pytest

from support import HASH_NAMES, enroll, golden_vectors
from triauth import core
from triauth.channel import USER_TO_SERVER
from triauth.core import (
    BaseServer,
    DEFAULT_G,
    DEFAULT_P,
    CostLedger,
    Env,
    Field128,
    FreshnessFailure,
    GroupParams,
    HashEngine,
    MALFORMED_TIMESTAMP,
    ProtocolConfig,
    ProtocolError,
    SessionRng,
    SimClock,
    decode_text,
    derive_seed,
    encode_text,
    field_to_ms,
    is_probable_prime,
    mod_exp,
    ms_to_field,
    text_block,
)
from triauth.fuzzy import BiometricTemplate
from triauth.session import SCHEMES, Handshake

DEFAULT_GROUP = GroupParams(DEFAULT_P, DEFAULT_G)  # the group every default config uses

# ---------------------------------------------------------------------------
# Field128
# ---------------------------------------------------------------------------

def test_field_requires_exactly_16_bytes():
    Field128(b"\x00" * 16)
    with pytest.raises(ValueError):
        Field128(b"\x00" * 15)
    with pytest.raises(ValueError):
        Field128(b"\x00" * 17)


def test_field_xor_is_an_involution():
    rng = SessionRng(7)
    for _ in range(50):
        a, b = rng.field(), rng.field()
        assert (a ^ b) ^ b == a
        assert a ^ b == b ^ a
        assert a ^ Field128(bytes(16)) == a


def test_field_xor_rejects_wrong_length():
    with pytest.raises(ValueError):
        Field128(bytes(16)) ^ b"\x01"


def test_word_operations_return_exact_16_byte_words():
    rng = SessionRng(8)
    a, b = rng.field(), rng.field()
    engine = HashEngine("sha256")
    for word in (a ^ b, bytes(b) ^ a, a ^ bytes(b), engine(a, b)):
        assert type(word) is Field128
        assert len(word) == 16
    assert a ^ b == bytes(x ^ y for x, y in zip(a, b))


def test_field_int_round_trip():
    for value in (0, 1, 255, 1 << 64, (1 << 128) - 1):
        assert Field128.from_int(value).to_int() == value
    with pytest.raises(ValueError):
        Field128.from_int(1 << 128)
    with pytest.raises(ValueError):
        Field128.from_int(-1)


def test_field_repr_is_hex():
    assert repr(Field128.from_int(0xAB)) == "Field128(%s)" % ("0" * 30 + "ab")


# ---------------------------------------------------------------------------
# Text encoding
# ---------------------------------------------------------------------------

def test_encode_text_pads_and_round_trips():
    word = encode_text("alice")
    assert len(word) == 16
    assert word.startswith(b"alice")
    assert decode_text(word) == "alice"


def test_encode_text_rejects_overlong():
    encode_text("x" * 16)  # boundary fits
    with pytest.raises(ValueError):
        encode_text("x" * 17)
    # multibyte characters count in bytes, not characters
    with pytest.raises(ValueError):
        encode_text("é" * 9)  # 18 UTF-8 bytes


@pytest.mark.parametrize("text, raw", [
    ("alice", b"alice"),
    ("pässwörd-€", "pässwörd-€".encode("utf-8")),  # 14 bytes from 10 characters
    ("x" * 16, b"x" * 16),
])
def test_text_block_is_the_bytes_of_encode_text(text, raw):
    block = text_block(text)
    assert type(block) is bytes
    assert block == encode_text(text) == raw.ljust(16, b"\x00")


@pytest.mark.parametrize("text", ["x" * 17, "\ud800"])  # too long; no UTF-8 form
def test_text_block_and_encode_text_refuse_the_same_text(text):
    with pytest.raises(ValueError):
        text_block(text)
    with pytest.raises(ValueError):
        encode_text(text)


def test_distinct_texts_encode_distinctly():
    assert encode_text("bob") != encode_text("bob ")


# ---------------------------------------------------------------------------
# Timestamps and clocks
# ---------------------------------------------------------------------------

def test_timestamp_round_trip():
    for ms in (0, 1, 1_700_000_000_000, (1 << 64) - 1):
        assert field_to_ms(ms_to_field(ms)) == ms


def test_timestamp_rejects_out_of_range():
    with pytest.raises(ValueError):
        ms_to_field(1 << 64)
    with pytest.raises(ValueError):
        ms_to_field(-1)


def test_malformed_timestamp_word_is_rejected():
    # any nonzero high half means the word is not a timestamp
    garbage = Field128.from_int(1 << 64)
    with pytest.raises(ValueError):
        field_to_ms(garbage)


def test_sim_clock_only_moves_forward():
    clock = SimClock(1000)
    assert clock.now() == 1000
    clock.advance(25)
    assert clock.now() == 1025
    with pytest.raises(ValueError):
        clock.advance(-1)


def test_sim_clock_stays_within_64_bits():
    # a clock reading must stay a protocol timestamp
    clock = SimClock((1 << 64) - 1000)
    clock.advance(999)
    assert clock.now() == (1 << 64) - 1
    with pytest.raises(ValueError, match=r"clock would reach 2\*\*64 ms"):
        clock.advance(1)
    assert clock.now() == (1 << 64) - 1
    clock.advance(0)
    for start in (-1, 1 << 64):
        with pytest.raises(ValueError, match=r"clock start must be in \[0, 2\*\*64\)"):
            SimClock(start)


# ---------------------------------------------------------------------------
# Cost ledger
# ---------------------------------------------------------------------------

def test_ledger_attributes_counts_to_the_active_scope():
    ledger = CostLedger()
    ledger.count_hash()  # unscoped
    with ledger.scope("login", "user") as opened:
        assert opened is ledger
        ledger.count_hash()
        with ledger.scope("authentication", "server"):
            ledger.count_modexp()
        ledger.count_hash()  # the outer scope again
    assert ledger.hash_calls[CostLedger.UNSCOPED] == 1
    assert ledger.hash_calls[("login", "user")] == 2
    assert ledger.modexp_calls[("authentication", "server")] == 1
    assert ledger.hash_total() == 3
    assert ledger.modexp_total() == 1


def test_ledger_scope_pops_on_exception():
    ledger = CostLedger()
    with ledger.scope("authentication", "server"):
        with pytest.raises(RuntimeError):
            with ledger.scope("login", "user"):
                raise RuntimeError("boom")
        ledger.count_hash()  # the outer scope again
    ledger.count_hash()
    assert ledger.hash_calls == {
        ("authentication", "server"): 1, CostLedger.UNSCOPED: 1}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_refused_respond_leaves_no_ledger_scope_open(scheme):
    enr = enroll(scheme)
    enr.env.clock.advance(60_000)
    handshake = Handshake(enr.env, enr.server, latency_ms=10)
    handshake.login(enr.card, enr.user_id, enr.password, enr.template,
                    enr.rng.exponent(enr.env.params))
    handshake.channel.corrupt_in_flight(USER_TO_SERVER, 0, b"\x01")
    with pytest.raises(ProtocolError):
        handshake.respond(enr.rng.exponent(enr.env.params))
    ledger = enr.env.ledger
    assert ledger._stack == []
    ledger.count_hash()
    assert ledger.hash_calls[CostLedger.UNSCOPED] == 1


def test_ledger_phase_table():
    ledger = CostLedger()
    with ledger.scope("registration", "user"):
        ledger.count_hash()
    with ledger.scope("registration", "server"):
        ledger.count_hash()
        ledger.count_hash()
    with ledger.scope("login", "user"):
        ledger.count_hash()
    assert ledger.phase_table() == {
        "login/user": 1,
        "registration/server": 2,
        "registration/user": 1,
    }



# ---------------------------------------------------------------------------
# Hash engine
# ---------------------------------------------------------------------------

def test_hash_matches_frozen_golden_vectors():
    """The engine must agree with the vectors frozen at design time."""
    engine = HashEngine("sha256")
    for blocks, digest in golden_vectors():
        assert engine(*blocks) == digest


def test_hash_engine_is_plain_truncated_sha256():
    engine = HashEngine("sha256")
    a, b = encode_text("one"), encode_text("two")
    assert engine(a, b) == hashlib.sha256(bytes(a) + bytes(b)).digest()[:16]


def test_hash_engine_enforces_block_width():
    engine = HashEngine("sha256")
    with pytest.raises(ValueError):
        engine(b"short")
    with pytest.raises(ValueError):
        engine()


def test_env_h_counts_into_its_ledger():
    env = Env.from_config()
    env.h(Field128(bytes(16)))
    env.h(Field128(bytes(16)), Field128(bytes(16)))
    assert env.ledger.hash_total() == 2
    # a refused block counts nothing
    with pytest.raises(ValueError):
        env.h(b"short")
    assert env.ledger.hash_total() == 2


def test_hash_engine_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        HashEngine("not-a-hash")


@pytest.mark.parametrize("name", ["shake_128", "shake_256"])
def test_hash_engine_refuses_algorithms_without_a_16_byte_word(name):
    with pytest.raises(ValueError, match="cannot yield a 16-byte word"):
        HashEngine(name)


@pytest.mark.parametrize("name", HASH_NAMES)
@pytest.mark.parametrize("nblocks", [1, 5, 7])
def test_hash_engine_matches_raw_hashlib(name, nblocks):
    rng = SessionRng(nblocks)
    engine = HashEngine(name)
    for _ in range(20):
        blocks = [rng.field() for _ in range(nblocks)]
        full = hashlib.new(name, b"".join(blocks)).digest()
        assert engine(*blocks) == full[:16]
        assert engine(*blocks) == full[:16]  # the engine keeps no state between calls
        h = engine.new()  # a fresh hash object of the algorithm, fed block by block
        for block in blocks:
            h.update(block)
        assert h.digest() == full


def test_alternate_digest_is_also_truncated_to_one_word():
    engine = HashEngine("sha512")
    out = engine(Field128(bytes(16)))
    assert len(out) == 16
    assert out == hashlib.sha512(bytes(16)).digest()[:16]


# ---------------------------------------------------------------------------
# Primality and group parameters
# ---------------------------------------------------------------------------

def test_miller_rabin_agrees_with_small_primes():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    for n in range(2, 60):
        assert is_probable_prime(n) == (n in primes)
    assert not is_probable_prime(1)
    assert not is_probable_prime(0)
    assert not is_probable_prime(-7)


def test_miller_rabin_catches_carmichael_numbers():
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
        assert not is_probable_prime(n)


def test_default_group_is_a_safe_prime_group():
    DEFAULT_GROUP.verify()  # must not raise
    q = (DEFAULT_P - 1) // 2
    assert is_probable_prime(q)
    # g = 4 is a square, so it sits in the order-q subgroup
    assert pow(DEFAULT_G, q, DEFAULT_P) == 1


def test_from_values_rejects_bad_groups():
    with pytest.raises(ValueError, match="p is not prime"):
        GroupParams.from_values(DEFAULT_P + 2, 4)  # odd, but composite
    with pytest.raises(ValueError, match="g out of range"):
        GroupParams.from_values(DEFAULT_P, 1)  # g too small
    with pytest.raises(ValueError, match="g out of range"):
        GroupParams.from_values(DEFAULT_P, DEFAULT_P - 1)  # order 2, caught by the range
    # 2^129-ish prime would not fit a wire word
    with pytest.raises(ValueError, match="p must fit in 128 bits"):
        GroupParams.from_values((1 << 130) + 1, 2)
    # prime, but (13 - 1) / 2 = 6 is not
    with pytest.raises(ValueError, match="p is not a safe prime"):
        GroupParams.from_values(13, 4)
    # small safe prime: subgroup too small for the exponent space
    with pytest.raises(ValueError, match="subgroup order must exceed 2"):
        GroupParams.from_values(23, 4)


# ---------------------------------------------------------------------------
# Modular exponentiation
# ---------------------------------------------------------------------------

def test_mod_exp_accepts_ints_and_wire_words():
    params = DEFAULT_GROUP
    from_int = mod_exp(params.g, 12345, params)
    from_word = mod_exp(Field128.from_int(params.g), 12345, params)
    assert from_int == from_word == Field128.from_int(pow(params.g, 12345, params.p))


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty comb tables and an empty server-key registry for one test."""
    monkeypatch.setattr(core, "_COMB_TABLES", {})
    monkeypatch.setattr(core, "_KEY_TABLES", {})


def _server_key(params: GroupParams, seed: int = 7) -> tuple[Env, int]:
    """An Env on `params` and the public Y, as an int, of a server built in it."""
    env = Env.from_config(ProtocolConfig(p=params.p, g=params.g))
    return env, BaseServer(env, rng=SessionRng(seed)).y.to_int()


def test_mod_exp_rejects_out_of_group_bases(fresh_tables):
    env, y = _server_key(DEFAULT_GROUP)
    params = env.params
    core._COMB_TABLES.clear()
    for base, exponent in ((0, 3), (params.p, 3), (3, -1), (params.g, -1), (y, -1)):
        with pytest.raises(ValueError):
            env.mod_exp(base, exponent)
    # a refused call counts no modexp, builds no table and is no use of a key
    assert env.ledger.modexp_total() == 0
    assert core._COMB_TABLES == {}
    assert core._KEY_TABLES == {(y, params.p): 0}


def test_env_mod_exp_counts_into_its_ledger(fresh_tables):
    env, y = _server_key(DEFAULT_GROUP)
    params = env.params
    core._COMB_TABLES.clear()
    env.mod_exp(params.g, (1 << 128) - 1)  # from the comb table
    assert env.ledger.modexp_total() == 1
    assert list(core._COMB_TABLES) == [(params.g, params.p)]
    env.mod_exp(3, 2)  # from pow
    assert env.ledger.modexp_total() == 2
    for _ in range(3):  # the key's first use, the one that builds its table, a table read
        env.mod_exp(y, (1 << 128) - 1)
    assert isinstance(core._KEY_TABLES[(y, params.p)], tuple)
    assert env.ledger.modexp_total() == 5


# the default group and a 96-bit safe-prime group with its own comb table
_COMB_GROUPS = [DEFAULT_GROUP, GroupParams.from_values(0xA43A4BB686FF60C85D07F37F, 4)]


def _comb_exponents(params: GroupParams) -> list[int]:
    rng = SessionRng(2024)
    exponents = [rng.below(1 << 128) for _ in range(1000)]
    return exponents + [0, 1, params.p - 2, params.p - 1, (1 << 128) - 1]


@pytest.mark.parametrize("params", _COMB_GROUPS, ids=["default", "p96"])
def test_fixed_base_comb_agrees_with_pow(params, fresh_tables):
    for g in (params.g, Field128.from_int(params.g)):
        for e in _comb_exponents(params):
            assert mod_exp(g, e, params) == Field128.from_int(pow(params.g, e, params.p))
    assert list(core._COMB_TABLES) == [(params.g, params.p)]


@pytest.mark.parametrize("params", _COMB_GROUPS, ids=["default", "p96"])
def test_a_server_keys_table_agrees_with_pow(params, fresh_tables):
    _, y = _server_key(params)
    for base in (y, Field128.from_int(y)):
        for e in _comb_exponents(params):
            assert mod_exp(base, e, params) == Field128.from_int(pow(y, e, params.p))
    assert isinstance(core._KEY_TABLES[(y, params.p)], tuple)


@pytest.mark.parametrize("params", _COMB_GROUPS, ids=["default", "p96"])
def test_exponents_of_2_to_the_128_or_more_fall_back_to_pow(params, fresh_tables):
    _, y = _server_key(params)
    core._COMB_TABLES.clear()
    for base in (params.g, y):
        for e in (1 << 128, 1 << 200):
            assert mod_exp(base, e, params) == Field128.from_int(pow(base, e, params.p))
    assert core._COMB_TABLES == {}
    assert core._KEY_TABLES == {(y, params.p): 0}  # no use of the key's table


def test_a_server_key_gets_its_table_on_its_second_use(fresh_tables):
    env, y = _server_key(DEFAULT_GROUP)
    key = (y, env.params.p)
    assert core._KEY_TABLES == {key: 0}
    env.mod_exp(Field128.from_int(y), 12345)  # a card's Y is a wire word
    assert core._KEY_TABLES == {key: 1}  # used once: still no table
    env.mod_exp(y, 12345)
    table = core._KEY_TABLES[key]
    assert len(table) == 16 and {len(row) for pair in table for row in pair} == {16}
    env.mod_exp(y, 54321)
    assert core._KEY_TABLES[key] is table  # built once


def test_an_unregistered_base_never_gets_a_table(fresh_tables):
    params = DEFAULT_GROUP
    _, y = _server_key(params)
    for _ in range(3):
        for base in (3, y + 1, mod_exp(params.g, 99, params)):
            mod_exp(base, 12345, params)
    assert core._KEY_TABLES == {(y, params.p): 0}


def test_the_key_registry_holds_the_last_8_keys(fresh_tables):
    params = DEFAULT_GROUP
    envs_keys = [_server_key(params, seed) for seed in range(20)]
    keys = [(y, params.p) for _, y in envs_keys]
    assert list(core._KEY_TABLES) == keys[-8:]
    # registering a held key again keeps its state and makes it the newest
    env, y = envs_keys[12]
    env.mod_exp(y, 5)
    core.register_key(y, params.p)
    assert list(core._KEY_TABLES) == keys[13:] + [keys[12]]
    assert core._KEY_TABLES[keys[12]] == 1
    # a dropped key is a base like any other
    env, y = envs_keys[0]
    env.mod_exp(y, 5)
    env.mod_exp(y, 5)
    assert keys[0] not in core._KEY_TABLES


def test_diffie_hellman_commutes_over_random_exponents():
    params = DEFAULT_GROUP
    rng = SessionRng(99)
    for _ in range(20):
        a = rng.exponent(params)
        b = rng.exponent(params)
        ga = mod_exp(params.g, a, params)
        gb = mod_exp(params.g, b, params)
        assert mod_exp(gb, a, params) == mod_exp(ga, b, params)


def test_server_computes_its_public_value_from_x():
    env = Env.from_config()
    params = env.params
    server = BaseServer(env, x=31337)
    assert (server.x, server.x_word) == (31337, Field128.from_int(31337))
    assert server.y == mod_exp(params.g, 31337, params)
    for x in (1, params.p - 1):
        with pytest.raises(ValueError, match="X out of range"):
            BaseServer(env, x=x)
    drawn = BaseServer(env, rng=SessionRng(5))
    assert drawn.x == SessionRng(5).exponent(params)
    assert drawn.y == mod_exp(params.g, drawn.x, params)
    assert env.ledger.modexp_total() == 0  # the server's own Y is not a counted step


def test_server_needs_x_or_an_rng():
    with pytest.raises(ValueError, match="need X or an rng"):
        BaseServer(Env.from_config())


# ---------------------------------------------------------------------------
# Deterministic randomness
# ---------------------------------------------------------------------------

def test_session_rng_streams_are_reproducible():
    a, b = SessionRng(123), SessionRng(123)
    assert [a.field() for _ in range(5)] == [b.field() for _ in range(5)]
    assert a.below(1000) == b.below(1000)


@pytest.mark.parametrize("seed", [-5, -1, 1 << 64])
def test_session_rng_refuses_seeds_outside_64_bits(seed):
    # Random folds -5 onto 5: the two streams would be one
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        SessionRng(seed)
    assert SessionRng(0).seed == 0
    assert SessionRng((1 << 64) - 1).seed == (1 << 64) - 1


def test_session_rng_below_stays_in_range():
    rng = SessionRng(3)
    for bound in (1, 2, 17, 1000):
        for _ in range(100):
            assert 0 <= rng.below(bound) < bound
    with pytest.raises(ValueError):
        rng.below(0)


def test_session_rng_exponent_range():
    params = DEFAULT_GROUP
    rng = SessionRng(4)
    for _ in range(50):
        assert 2 <= rng.exponent(params) <= params.p - 2


def test_session_rng_positions_are_distinct():
    rng = SessionRng(5)
    for _ in range(20):
        picks = rng.positions(128, 16)
        assert len(picks) == len(set(picks)) == 16
        assert all(0 <= p < 128 for p in picks)
    assert rng.positions(10, 0) == []
    assert sorted(rng.positions(10, 10)) == list(range(10))
    with pytest.raises(ValueError):
        rng.positions(10, 11)


# The seeded streams, drawn as the draw contract in SessionRng's docstring
# states it, on random.Random alone: a faster path must keep them draw
# for draw, or every recording changes.

def _contract_below(rnd: random.Random, bound: int) -> int:
    while True:
        x = rnd.getrandbits(bound.bit_length())
        if x < bound:
            return x


def _contract_positions(rnd: random.Random, n: int, k: int) -> list[int]:
    pool = list(range(n))
    for i in range(k):
        j = i + _contract_below(rnd, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


STREAM_SEEDS = (0, 1, 9, 2**64 - 1)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_session_rng_below_keeps_the_contract_stream(seed):
    rng, rnd = SessionRng(seed), random.Random(seed)
    for bound in (1, 2, 255, 256, 257, 2**16, DEFAULT_P - 3):
        assert [rng.below(bound) for _ in range(40)] == [
            _contract_below(rnd, bound) for _ in range(40)]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_session_rng_exponent_and_positions_keep_the_contract_stream(seed):
    rng, rnd = SessionRng(seed), random.Random(seed)
    assert [rng.exponent(DEFAULT_GROUP) for _ in range(20)] == [
        2 + _contract_below(rnd, DEFAULT_P - 3) for _ in range(20)]
    for k in (0, 1, 16, 128):
        assert rng.positions(128, k) == _contract_positions(rnd, 128, k)
    assert rng.below(1000) == _contract_below(rnd, 1000)  # nothing drawn past


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_the_template_draw_keeps_the_contract_stream(seed):
    rnd = random.Random(seed)
    expected = bytes(_contract_below(rnd, 256) for _ in range(64))
    rng = SessionRng(seed)
    assert BiometricTemplate.random(rng, 512) == BiometricTemplate(expected, 512)
    assert rng.below(1000) == _contract_below(rnd, 1000)  # nothing drawn past
    assert SessionRng(seed).random_bytes(64) == expected
    assert SessionRng(seed).random_bytes(0) == b""


def test_derive_seed_separates_roles():
    assert derive_seed(1, "server") != derive_seed(1, "template")
    assert derive_seed(1, "server") != derive_seed(2, "server")
    assert derive_seed(1, "server") == derive_seed(1, "server")
    assert 0 <= derive_seed(1, "server") < (1 << 64)


# ---------------------------------------------------------------------------
# Config and Env
# ---------------------------------------------------------------------------

def test_default_config_builds_a_working_env():
    env = Env.from_config()
    assert env.params == DEFAULT_GROUP
    assert env.delta_t_ms == 2000
    assert isinstance(env.clock, SimClock)
    # hash and modexp run through the shared ledger
    env.h(Field128(bytes(16)))
    env.mod_exp(env.params.g, 2)
    assert env.ledger.hash_total() == 1
    assert env.ledger.modexp_total() == 1


def test_config_group_rejects_invalid_overrides():
    config = ProtocolConfig(p=15, g=4)
    with pytest.raises(ValueError):
        config.group()


def test_now_field_matches_clock():
    env = Env.from_config(clock=SimClock(5000))
    ms, word = env.now_field()
    assert ms == 5000
    assert field_to_ms(word) == 5000


def test_freshness_fault_is_the_window_check():
    env = Env.from_config(ProtocolConfig(), SimClock())
    now = env.clock.now()
    edge = now - env.delta_t_ms
    assert env.freshness_fault(ms_to_field(edge), now, "login") is None
    stale = env.freshness_fault(ms_to_field(edge - 1), now, "reply")
    assert str(stale) == "reply timestamp outside the window"
    assert (stale.skew_ms, stale.window_ms) == (2001, 2000)
    high_bit = Field128.from_int(1 << 64 | now)
    malformed = env.freshness_fault(high_bit, now, "login")
    assert str(malformed) == MALFORMED_TIMESTAMP
    assert (malformed.skew_ms, malformed.window_ms) == (None, None)
    # the one window bounds a stamp ahead of the clock too
    ahead = now + env.delta_t_ms
    assert env.freshness_fault(ms_to_field(ahead), now, "login") is None
    early = env.freshness_fault(ms_to_field(now + 10_000_000), now, "login")
    assert str(early) == "login timestamp 10000000 ms ahead of the clock (window 2000 ms)"
    assert (early.skew_ms, early.window_ms) == (-10_000_000, 2000)
    for fault in (stale, malformed, early):
        assert isinstance(fault, FreshnessFailure) and fault.code == "freshness"
