"""Primitives: words, clocks, ledger, hash engine, group math, RNG."""

import hashlib
from dataclasses import dataclass

import pytest

from triauth import core
from triauth.core import (
    DEFAULT_G,
    DEFAULT_P,
    CostLedger,
    Env,
    Field128,
    GroupParams,
    HashEngine,
    MALFORMED_TIMESTAMP,
    ProtocolConfig,
    ServerSecret,
    SessionRng,
    SimClock,
    WireMessage,
    decode_text,
    derive_seed,
    encode_text,
    field_to_ms,
    is_probable_prime,
    mod_exp,
    ms_to_field,
)
from triauth.files import load_golden_vectors


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
        assert a ^ Field128.zero() == a


def test_field_xor_rejects_wrong_length():
    with pytest.raises(ValueError):
        Field128.zero() ^ b"\x01"


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

def test_wire_message_fields_must_follow_the_layout():
    with pytest.raises(TypeError, match="fields must be a, b"):
        @dataclass(frozen=True)
        class Swapped(WireMessage, wire=("A", "B")):
            b: Field128
            a: Field128


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


# ---------------------------------------------------------------------------
# Cost ledger
# ---------------------------------------------------------------------------

def test_ledger_attributes_counts_to_the_active_scope():
    ledger = CostLedger()
    ledger.count_hash()  # unscoped
    with ledger.scope("login", "user"):
        ledger.count_hash()
        ledger.count_hash()
        with ledger.scope("authentication", "server"):
            ledger.count_modexp()
    assert ledger.hash_calls[CostLedger.UNSCOPED] == 1
    assert ledger.hash_calls[("login", "user")] == 2
    assert ledger.modexp_calls[("authentication", "server")] == 1
    assert ledger.hash_total() == 3
    assert ledger.modexp_total() == 1


def test_ledger_scope_pops_on_exception():
    ledger = CostLedger()
    with pytest.raises(RuntimeError):
        with ledger.scope("login", "user"):
            raise RuntimeError("boom")
    ledger.count_hash()
    assert ledger.hash_calls[CostLedger.UNSCOPED] == 1


def test_ledger_selectors_and_phase_table():
    ledger = CostLedger()
    with ledger.scope("registration", "user"):
        ledger.count_hash()
    with ledger.scope("registration", "server"):
        ledger.count_hash()
        ledger.count_hash()
    with ledger.scope("login", "user"):
        ledger.count_hash()
    assert ledger.hashes_in(phase="registration") == 3
    assert ledger.hashes_in(principal="user") == 2
    assert ledger.hashes_in(phase="registration", principal="server") == 2
    assert ledger.phase_table() == {
        "login/user": 1,
        "registration/server": 2,
        "registration/user": 1,
    }


def test_ledger_wire_and_storage():
    ledger = CostLedger()
    ledger.record_wire("login", 64)
    ledger.record_wire("reply", 48)
    ledger.record_storage("card", 8)
    assert ledger.wire_bits_total() == (64 + 48) * 8
    assert ledger.storage["card"] == 8


# ---------------------------------------------------------------------------
# Hash engine
# ---------------------------------------------------------------------------

def test_hash_matches_frozen_golden_vectors():
    """The engine must agree with the vectors frozen at design time."""
    engine = HashEngine("sha256")
    for blocks, digest in load_golden_vectors():
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


def test_hash_engine_counts_into_ledger():
    ledger = CostLedger()
    engine = HashEngine("sha256", ledger)
    engine(Field128.zero())
    engine(Field128.zero(), Field128.zero())
    assert ledger.hash_total() == 2


def test_hash_engine_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        HashEngine("not-a-hash")


@pytest.mark.parametrize("name", ["shake_128", "shake_256"])
def test_hash_engine_refuses_algorithms_without_a_16_byte_word(name):
    with pytest.raises(ValueError, match="cannot yield a 16-byte word"):
        HashEngine(name)


@pytest.mark.parametrize("name", ["sha256", "sha512", "blake2b"])
@pytest.mark.parametrize("nblocks", [1, 5, 7])
def test_hash_engine_matches_raw_hashlib(name, nblocks):
    rng = SessionRng(nblocks)
    engine = HashEngine(name)
    for _ in range(20):
        blocks = [rng.field() for _ in range(nblocks)]
        raw = hashlib.new(name, b"".join(blocks)).digest()[:16]
        assert engine(*blocks) == raw
        assert engine(*blocks) == raw  # the engine keeps no state between calls


def test_alternate_digest_is_also_truncated_to_one_word():
    engine = HashEngine("sha512")
    out = engine(Field128.zero())
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
    params = GroupParams.default()
    assert params.p == DEFAULT_P
    assert params.g == DEFAULT_G
    params.verify()  # must not raise
    q = (params.p - 1) // 2
    assert is_probable_prime(q)
    # g = 4 is a square, so it sits in the order-q subgroup
    assert pow(params.g, q, params.p) == 1


def test_from_values_rejects_bad_groups():
    with pytest.raises(ValueError):
        GroupParams.from_values(DEFAULT_P + 2, 4)  # even, not prime
    with pytest.raises(ValueError):
        GroupParams.from_values(DEFAULT_P, 1)  # g too small
    with pytest.raises(ValueError):
        GroupParams.from_values(DEFAULT_P, DEFAULT_P - 1)  # order 2
    # 2^129-ish prime would not fit a wire word
    with pytest.raises(ValueError):
        GroupParams.from_values((1 << 130) + 1, 2)
    # small safe prime: subgroup too small for the exponent space
    with pytest.raises(ValueError):
        GroupParams.from_values(23, 4)


def test_group_encode_bounds():
    params = GroupParams.default()
    assert params.encode(1).to_int() == 1
    with pytest.raises(ValueError):
        params.encode(params.p)


# ---------------------------------------------------------------------------
# Modular exponentiation
# ---------------------------------------------------------------------------

def test_mod_exp_accepts_ints_and_wire_words():
    params = GroupParams.default()
    from_int = mod_exp(params.g, 12345, params)
    from_word = mod_exp(Field128.from_int(params.g), 12345, params)
    assert from_int == from_word == Field128.from_int(pow(params.g, 12345, params.p))


def test_mod_exp_rejects_out_of_group_bases(monkeypatch):
    monkeypatch.setattr(core, "_COMB_TABLES", {})
    params = GroupParams.default()
    ledger = CostLedger()
    for base, exponent in ((0, 3), (params.p, 3), (3, -1), (params.g, -1)):
        with pytest.raises(ValueError):
            mod_exp(base, exponent, params, ledger)
    # a refused call counts no modexp and builds no table
    assert ledger.modexp_total() == 0
    assert core._COMB_TABLES == {}


def test_mod_exp_counts_into_ledger(monkeypatch):
    monkeypatch.setattr(core, "_COMB_TABLES", {})
    params = GroupParams.default()
    ledger = CostLedger()
    mod_exp(params.g, (1 << 128) - 1, params, ledger)  # from the comb table
    assert ledger.modexp_total() == 1
    assert list(core._COMB_TABLES) == [(params.g, params.p)]
    mod_exp(3, 2, params, ledger)  # from pow
    assert ledger.modexp_total() == 2


# the default group and a 96-bit safe-prime group with its own comb table
_COMB_GROUPS = [GroupParams.default(), GroupParams.from_values(0xA43A4BB686FF60C85D07F37F, 4)]


@pytest.mark.parametrize("params", _COMB_GROUPS, ids=["default", "p96"])
def test_fixed_base_comb_agrees_with_pow(params, monkeypatch):
    monkeypatch.setattr(core, "_COMB_TABLES", {})
    rng = SessionRng(2024)
    exponents = [rng.below(1 << 128) for _ in range(1000)]
    exponents += [0, 1, params.p - 2, params.p - 1, (1 << 128) - 1]
    for g in (params.g, Field128.from_int(params.g)):
        for e in exponents:
            assert mod_exp(g, e, params) == Field128.from_int(pow(params.g, e, params.p))
    assert list(core._COMB_TABLES) == [(params.g, params.p)]


@pytest.mark.parametrize("params", _COMB_GROUPS, ids=["default", "p96"])
def test_exponents_of_2_to_the_128_or_more_fall_back_to_pow(params, monkeypatch):
    monkeypatch.setattr(core, "_COMB_TABLES", {})
    for e in (1 << 128, 1 << 200):
        assert mod_exp(params.g, e, params) == Field128.from_int(pow(params.g, e, params.p))
    assert core._COMB_TABLES == {}


def test_diffie_hellman_commutes_over_random_exponents():
    params = GroupParams.default()
    rng = SessionRng(99)
    for _ in range(20):
        a = rng.exponent(params)
        b = rng.exponent(params)
        ga = mod_exp(params.g, a, params)
        gb = mod_exp(params.g, b, params)
        assert mod_exp(gb, a, params) == mod_exp(ga, b, params)


def test_server_secret_recomputes_public_value():
    params = GroupParams.default()
    secret = ServerSecret.from_x(params, 31337)
    assert secret.y == mod_exp(params.g, 31337, params)
    with pytest.raises(ValueError):
        ServerSecret.from_x(params, 1)
    generated = ServerSecret.generate(params, SessionRng(5))
    assert 2 <= generated.x <= params.p - 2


# ---------------------------------------------------------------------------
# Deterministic randomness
# ---------------------------------------------------------------------------

def test_session_rng_streams_are_reproducible():
    a, b = SessionRng(123), SessionRng(123)
    assert [a.field() for _ in range(5)] == [b.field() for _ in range(5)]
    assert a.below(1000) == b.below(1000)


def test_session_rng_below_stays_in_range():
    rng = SessionRng(3)
    for bound in (1, 2, 17, 1000):
        for _ in range(100):
            assert 0 <= rng.below(bound) < bound
    with pytest.raises(ValueError):
        rng.below(0)


def test_session_rng_exponent_range():
    params = GroupParams.default()
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
    assert env.params.p == DEFAULT_P
    assert env.delta_t_ms == 2000
    assert isinstance(env.clock, SimClock)
    # hash and modexp run through the shared ledger
    env.h(Field128.zero())
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
    assert (env.freshness_fault(ms_to_field(edge - 1), now, "reply")
            == "reply timestamp outside the window")
    malformed = Field128.from_int(1 << 64 | now)  # a high bit set
    assert env.freshness_fault(malformed, now, "login") == MALFORMED_TIMESTAMP
