"""Cost instrumentation against the nominal comparison figures."""

import dataclasses
from contextlib import nullcontext
from pathlib import Path

import pytest

from support import count_digests
from triauth import improved
from triauth.core import (
    AuthFailure,
    Env,
    Field128,
    FreshnessFailure,
    ProtocolConfig,
    SessionRng,
    SimClock,
    UnknownUser,
    encode_text,
    ms_to_field,
)
from triauth.costs import (
    NOMINAL,
    cost_report,
    format_cost_report,
    run_instrumented_session,
)
from triauth.files import json_report_bytes
from triauth.fuzzy import BiometricTemplate

RECORDED_COSTS = Path(__file__).parent / "recordings" / "costs"


def test_instrumented_sessions_are_healthy():
    for scheme in ("baseline", "improved"):
        env, handshake = run_instrumented_session(scheme)
        assert handshake.sk_user == handshake.sk_server


def test_wire_bits_match_nominal_exactly():
    for scheme, units in (("baseline", 7), ("improved", 8)):
        report = cost_report(scheme)
        assert report["wire"]["total_bits"] == 128 * units
        assert report["wire"]["nominal_bits"] == 128 * units
        assert report["wire"]["matches_nominal"] is True


def test_wire_is_split_into_login_and_reply():
    report = cost_report("baseline")
    assert report["wire"]["messages"] == [["login", 512], ["reply", 384]]
    report = cost_report("improved")
    assert report["wire"]["messages"] == [["login", 512], ["reply", 512]]


def test_storage_units_match_nominal_exactly():
    for scheme, units in (("baseline", 8), ("improved", 10)):
        report = cost_report(scheme)
        assert report["storage"]["card_units"] == units
        assert report["storage"]["matches_nominal"] is True


def test_measured_hash_counts_and_the_documented_discrepancy():
    """The per-phase counts are exact; neither rollup equals the nominal
    total, and the report must say so rather than fudge it."""
    report = cost_report("baseline")
    assert report["hash"]["by_phase"] == {
        "registration/user": 2,     # W, V
        "registration/server": 1,   # h(ID || X)
        "login/user": 3,            # V check, H unmask, C_i
        "authentication/server": 4,  # h(ID || X), C_i check, SK, Cs
        "authentication/user": 2,    # SK, Cs check
    }
    assert report["hash"]["total"] == 12
    assert report["hash"]["total_excluding_registration"] == 9
    assert report["hash"]["nominal_total"] == 11
    assert report["hash"]["matches_nominal"] is False
    assert any("hash totals measured" in note for note in report["notes"])

    report = cost_report("improved")
    assert report["hash"]["by_phase"] == {
        "registration/user": 4,
        "registration/server": 1,
        "login/user": 7,
        "authentication/server": 8,
        "authentication/user": 4,
    }
    assert report["hash"]["total"] == 24
    assert report["hash"]["total_excluding_registration"] == 19
    assert report["hash"]["nominal_total"] == 21
    assert report["hash"]["matches_nominal"] is False


def test_modexp_counts_per_phase():
    report = cost_report("baseline")
    assert report["modexp"]["by_phase"] == {
        "login/user": 2,           # A1, A2
        "authentication/server": 3,  # A3, A4, A5
        "authentication/user": 1,    # A6
    }
    report = cost_report("improved")
    assert report["modexp"]["by_phase"] == {
        "login/user": 2,
        "authentication/server": 3,
        "authentication/user": 1,
    }


def test_report_is_reproducible_for_a_seed():
    config = ProtocolConfig(seed=5)
    assert cost_report("baseline", config) == cost_report("baseline", config)


def test_nominal_table_contents():
    assert NOMINAL["baseline"] == {
        "hash_total": 11, "wire_units": 7, "storage_units": 8,
    }
    assert NOMINAL["improved"] == {
        "hash_total": 21, "wire_units": 8, "storage_units": 10,
    }


def test_text_rendering_carries_the_verdicts():
    text = format_cost_report(cost_report("improved"))
    assert "cost report: improved scheme" in text
    assert "session healthy: yes" in text
    assert "DISCREPANCY" in text  # hash totals
    assert "nominal 1024 -> match" in text  # wire
    assert "10 units of 128 bits, nominal 10 -> match" in text


@pytest.mark.parametrize("scheme", ["baseline", "improved"])
def test_report_matches_its_committed_recording(scheme):
    """The committed `cost-report --out` files pin every byte of the
    JSON report; test_cli compares the command's output with them."""
    recorded = (RECORDED_COSTS / ("%s.json" % scheme)).read_bytes()
    assert json_report_bytes(cost_report(scheme)) == recorded


@pytest.mark.parametrize("scheme", ["baseline", "improved"])
@pytest.mark.parametrize("bits", [128, 256])
def test_a_report_runs_where_template_blocks_cannot_correct_a_flip(scheme, bits):
    # blocks of 1 or 2 bits: the probe reads the template clean
    report = cost_report(scheme, ProtocolConfig(template_bits=bits))
    assert report["session_healthy"] is True


@pytest.mark.parametrize("scheme", ["baseline", "improved"])
@pytest.mark.parametrize("delta_t_ms", [0, 20])
def test_a_report_runs_under_a_window_shorter_than_the_probe_hop(scheme, delta_t_ms):
    # the probe's hop shrinks to the window; the counts do not move
    report = cost_report(scheme, ProtocolConfig(delta_t_ms=delta_t_ms))
    assert report["session_healthy"] is True
    assert json_report_bytes(report) == json_report_bytes(cost_report(scheme))


_SERVER = ("authentication", "server")


def _server_counts(env):
    """The (hashes, modexps) counted so far in authentication/server."""
    return env.ledger.hash_calls.get(_SERVER, 0), env.ledger.modexp_calls.get(_SERVER, 0)


def _crowded_server():
    """One server, four users; u1 and u2 register in the same millisecond,
    so they share T1 but not T2.  Returns a new env, the rng, the server
    and each user's (template, card)."""
    env = Env.from_config(ProtocolConfig(), SimClock(1_700_000_000_000))
    rng = SessionRng(3)
    server = improved.Server(env, rng=rng)
    users = {}
    for name, exchange_ms in (("u0", 10), ("u1", 0), ("u2", 5), ("u3", 10)):
        if name != "u2":  # u2 registers in u1's millisecond
            env.clock.advance(1000)
        template = BiometricTemplate.random(rng, 512)
        card = improved.register(env, server, encode_text(name), "pw-" + name,
                                 template, rng, exchange_ms=exchange_ms)
        users[name] = (template, card)
    t1 = [rec.t1_ms for rec in server.records]
    assert t1[1] == t1[2] and len(set(t1)) == 3
    return env, rng, server, users


def test_the_improved_scan_counts_one_hash_per_record_it_passes():
    """Each record the scan passes costs its tag hash h(T1); a record
    whose T1 is the user's also unmasks A1 (one modexp) and tries C_i
    (three more hashes) before it is passed."""
    env, rng, server, users = _crowded_server()

    # the k-th user: (k - 1) tag hashes, then 8 hashes and 3 modexps of
    # its own; u2 pays 3 hashes and 1 modexp more for u1's record
    expected = {"u0": (0 + 8, 3), "u1": (1 + 8, 3), "u2": (2 + 3 + 8, 1 + 3),
                "u3": (3 + 8, 3)}
    for name, (template, card) in users.items():
        env.clock.advance(1000)
        msg, pending = improved.login(env, card, encode_text(name), "pw-" + name,
                                      template, rng.exponent(env.params))
        hashes, modexps = _server_counts(env)
        with env.ledger.scope(*_SERVER):
            reply, sk_server = server.respond(msg, rng.exponent(env.params))
        after = _server_counts(env)
        assert (after[0] - hashes, after[1] - modexps) == expected[name]
        assert improved.finish(env, pending, reply) == sk_server

    # random bytes: one tag hash per record, no group work
    noise = improved.LoginMessage.decode(b"".join(rng.field() for _ in range(4)))
    hashes, modexps = _server_counts(env)
    with env.ledger.scope(*_SERVER), pytest.raises(UnknownUser):
        server.respond(noise, rng.exponent(env.params))
    after = _server_counts(env)
    assert (after[0] - hashes, after[1] - modexps) == (len(server.records), 0)


def test_the_improved_server_counts_exactly_the_hashes_it_computes(monkeypatch):
    """However respond ends, the hashes counted under authentication/server
    are the hashes computed: the scan's tag hashes are counted in one call."""
    computed = count_digests(monkeypatch)  # before the users enroll
    env, rng, server, users = _crowded_server()

    def respond(msg, fails=None):
        before, counted = computed["digest"], _server_counts(env)[0]
        with env.ledger.scope(*_SERVER), pytest.raises(fails) if fails else nullcontext():
            server.respond(msg, rng.exponent(env.params))
        assert _server_counts(env)[0] - counted == computed["digest"] - before > 0

    def login(name):
        template, card = users[name]
        env.clock.advance(1000)
        return improved.login(env, card, encode_text(name), "pw-" + name,
                              template, rng.exponent(env.params))[0]

    for name in users:  # the k-th user accepted
        respond(login(name))
    stale = login("u3")
    env.clock.advance(env.delta_t_ms + 1)
    respond(stale, FreshnessFailure)
    msg = login("u2")
    respond(dataclasses.replace(msg, C_i=msg.C_i ^ Field128.from_int(1)), AuthFailure)
    respond(improved.LoginMessage.decode(b"".join(rng.field() for _ in range(4))),
            UnknownUser)
    # fresh and tagged under u0's record, whose A1 unmasks to 0 there
    u0 = server.records[0]
    _, t3 = env.now_field()
    zero = Field128(bytes(16))
    t1, t2 = ms_to_field(u0.t1_ms), ms_to_field(u0.t2_ms)
    respond(improved.LoginMessage(NID=zero, A11=t2 ^ t3, C_i=zero,
                                  Q=t3 ^ env.hasher(t1)), UnknownUser)
