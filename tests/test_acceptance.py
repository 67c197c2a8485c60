"""Acceptance gate: eight scripted checks, one summary line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-check
summary lines alongside the verdicts.  Every check is independent;
expensive shared material (the hundred attacked victims) is computed
once and cached at module level.
"""

import random
import subprocess
import sys
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

from support import enroll, full_leak, login, run_session

from triauth import adversary
from triauth.core import DEFAULT_EPOCH_MS, LocalAuthFailure, ProtocolError, SessionRng
from triauth.costs import cost_report
from triauth.files import transcript_bytes
from triauth.fuzzy import BiometricTemplate, gen, perturb_within_tolerance, rep
from triauth.scenario import compare_with_recording, load_scenario, run_scenario
from triauth.session import SCHEMES, wire_message

SCENARIO_DIR = Path(str(resources.files("triauth"))) / "scenarios"
DAY_MS = 86_400_000


def _criterion(n: int, ok: bool, detail: str) -> None:
    print("criterion %d: %s - %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (n, detail)


# -- shared expensive material (built lazily, cached per test run) ----------

_CACHE: dict = {}


def _attacked_baseline_victims():
    """100 randomized victims, each attacked over a 10,000-word dictionary."""
    if "baseline-victims" not in _CACHE:
        rnd = random.Random(0xD1C7)
        filler = ["cand-%06d" % i for i in range(10_000)]
        trials = []
        t0 = time.monotonic()
        for i in range(100):
            enr = enroll(
                "baseline",
                seed=3_000 + i,
                identity="v%05d" % i,
                password="secret-%06x" % rnd.getrandbits(24),
            )
            run = run_session(enr)
            words = list(filler)
            words.insert(rnd.randrange(len(words) + 1), enr.password)
            outcome = adversary.attack_baseline(full_leak(enr, run, words))
            trials.append((enr, run, outcome))
        _CACHE["baseline-victims"] = (trials, time.monotonic() - t0)
    return _CACHE["baseline-victims"]


def _blocked_improved_victims():
    """100 improved-scheme victims under the same full leak: all blocked."""
    if "improved-victims" not in _CACHE:
        trials = []
        for i in range(100):
            enr = enroll(
                "improved",
                seed=5_000 + i,
                identity="w%05d" % i,
                password="secret-%05d" % i,
            )
            run = run_session(enr)
            knowledge = full_leak(enr, run, ["secret-%05d" % i, "other"])
            trials.append((enr, run, knowledge, adversary.attack_improved(knowledge)))
        _CACHE["improved-victims"] = trials
    return _CACHE["improved-victims"]


# -- the eight checks --------------------------------------------------------

def test_criterion_1_honest_sessions_always_agree_on_the_key():
    rnd = random.Random(0xACC1)
    agreed = total = 0
    t0 = time.monotonic()
    for scheme in SCHEMES:
        for _ in range(1_000):
            enr = enroll(
                scheme,
                seed=rnd.getrandbits(32),
                identity="u%08x" % rnd.getrandbits(32),
                password="pw-%08x" % rnd.getrandbits(32),
            )
            run = run_session(
                enr,
                noise_blocks=rnd.randrange(0, 129),
                gap_ms=rnd.randrange(0, 10_000_000),
                network_ms=rnd.randrange(0, 1_990),
                processing_ms=rnd.randrange(0, 8),
            )
            total += 1
            agreed += bytes(run.sk_user) == bytes(run.sk_server)
    elapsed = time.monotonic() - t0
    _criterion(
        1,
        agreed == total == 2_000 and elapsed < 10.0,
        "%d/%d randomized sessions agreed on the session key (%.1fs)"
        % (agreed, total, elapsed),
    )


def test_criterion_2_leaked_ephemerals_break_every_baseline_victim():
    trials, elapsed = _attacked_baseline_victims()
    complete = sum(
        1
        for enr, run, outcome in trials
        if outcome.status == adversary.RECOVERED
        and outcome.password == enr.password
        and bytes(outcome.identity) == bytes(enr.user_id)
        and bytes(outcome.session_key) == bytes(run.sk_user)
    )
    _criterion(
        2,
        complete == len(trials) == 100 and elapsed < 30.0,
        "%d/%d victims lost password, identity and session key to a "
        "10,000-word dictionary (%.1fs)" % (complete, len(trials), elapsed),
    )


def test_criterion_3_recovery_enables_impersonation_only_where_it_succeeded():
    trials, _ = _attacked_baseline_victims()
    accepted = sum(
        1
        for i, (enr, run, outcome) in enumerate(trials)
        if adversary.impersonate(
            enr.env, enr.server, full_leak(enr, run, []), outcome,
            SessionRng(9_000 + i),
        )
        == adversary.ACCEPT
    )
    blocked = _blocked_improved_victims()
    rejected = sum(
        1
        for i, (enr, run, knowledge, outcome) in enumerate(blocked)
        if outcome.status == adversary.INSUFFICIENT
        and adversary.impersonate(
            enr.env, enr.server, knowledge, outcome, SessionRng(9_500 + i)
        )
        == adversary.REJECT
    )
    _criterion(
        3,
        accepted == len(trials) == 100 and rejected == len(blocked) == 100,
        "%d/%d impersonations accepted after recovery; %d/%d rejected "
        "where the attack was blocked" % (accepted, len(trials),
                                          rejected, len(blocked)),
    )


def test_criterion_4_hardened_scheme_blocks_the_same_leak():
    enr = enroll("improved", seed=404, identity="victim-4",
                 password="real-pw-4")
    run = run_session(enr)
    knowledge = full_leak(enr, run, ["real-pw-4", "decoy-1", "decoy-2"])

    outcome = adversary.attack_improved(knowledge)
    blocked = (
        outcome.status == adversary.INSUFFICIENT
        and outcome.work == 0
        and outcome.session_key is None
    )

    rec = next(
        r for r in enr.server.records if bytes(r.user_id) == bytes(enr.user_id)
    )
    # a forgery is the granted attack over the true password alone: it
    # gives a key only when the guessed instants make C_i verify
    true_password = replace(knowledge, dictionary=(enr.password,))
    rnd = random.Random(0x404)
    matches = 0
    for _ in range(10_000):
        while True:
            guess = (
                rnd.randrange(DEFAULT_EPOCH_MS - DAY_MS, DEFAULT_EPOCH_MS + DAY_MS),
                rnd.randrange(DEFAULT_EPOCH_MS - DAY_MS, DEFAULT_EPOCH_MS + DAY_MS),
            )
            if guess != (rec.t1_ms, rec.t2_ms):
                break
        forged = adversary.attack_improved(true_password, guess).session_key
        matches += forged == run.sk_user

    white_box = adversary.attack_improved(knowledge, (rec.t1_ms, rec.t2_ms))
    flipped = (
        white_box.status == adversary.RECOVERED
        and white_box.out_of_model
        and white_box.password == enr.password
        and bytes(white_box.session_key) == bytes(run.sk_user)
    )
    _criterion(
        4,
        blocked and matches == 0 and flipped,
        "full leak blocked in-model; %d/10000 guessed-timestamp forgeries "
        "matched; granting the true instants flips the outcome to recovered"
        % matches,
    )


def test_criterion_5_measured_costs_reconcile_with_the_nominal_table():
    rb, ri = cost_report("baseline"), cost_report("improved")
    documented = all(
        r["hash"]["matches_nominal"]
        or any("per-phase" in note for note in r["notes"])
        for r in (rb, ri)
    )
    ok = (
        rb["wire"]["total_bits"] == 128 * 7
        and ri["wire"]["total_bits"] == 128 * 8
        and rb["wire"]["matches_nominal"]
        and ri["wire"]["matches_nominal"]
        and rb["storage"]["card_units"] == 8
        and ri["storage"]["card_units"] == 10
        and rb["storage"]["matches_nominal"]
        and ri["storage"]["matches_nominal"]
        and rb["hash"]["nominal_total"] == 11
        and ri["hash"]["nominal_total"] == 21
        and rb["hash"]["by_phase"]
        and ri["hash"]["by_phase"]
        and documented
    )
    _criterion(
        5,
        ok,
        "wire %d/%d bits exact; storage %d/%d units exact; hash totals "
        "%d vs 11 and %d vs 21 with a per-phase discrepancy note"
        % (
            rb["wire"]["total_bits"], ri["wire"]["total_bits"],
            rb["storage"]["card_units"], ri["storage"]["card_units"],
            rb["hash"]["total"], ri["hash"]["total"],
        ),
    )


def test_criterion_6_biometric_tolerance_and_stranger_rejection():
    rnd = random.Random(0xB10)
    rng = SessionRng(0xB10)
    recovered = 0
    for _ in range(1_000):
        template = BiometricTemplate.random(rng, 512)
        key, helper = gen(template, rng)
        reading = perturb_within_tolerance(template, rng, rnd.randrange(0, 129))
        recovered += rep(reading, helper) == key

    enr = enroll("baseline", seed=606)
    rejected = 0
    for _ in range(1_000):
        stranger = BiometricTemplate.random(rng, 512)
        try:
            login(enr, reading=stranger)
        except LocalAuthFailure:
            rejected += 1
    _criterion(
        6,
        recovered == 1_000 and rejected >= 999,
        "%d/1000 in-tolerance readings reproduced the key; %d/1000 "
        "stranger templates rejected" % (recovered, rejected),
    )


def test_criterion_7_tampering_replay_and_staleness_are_all_rejected():
    rnd = random.Random(0x7A3)
    tampered_rejected = tampered_total = 0
    replay_ok = stale_without_modexp = True
    for scheme in SCHEMES:
        mod = SCHEMES[scheme]
        enr = enroll(scheme, seed=707)
        run = run_session(enr)
        raws = {
            "login": run.msg.encode(),
            "reply": run.reply.encode(),
        }
        for _ in range(1_000):
            which = rnd.choice(("login", "reply"))
            names = wire_message(mod, which)[1].WIRE
            bit = rnd.randrange(128 * len(names))
            raw = bytearray(raws[which])
            raw[bit // 8] ^= 0x80 >> (bit % 8)
            tampered_total += 1
            try:
                if which == "login":
                    enr.server.respond(
                        mod.LoginMessage.decode(bytes(raw)),
                        enr.rng.exponent(enr.env.params),
                    )
                else:
                    mod.finish(
                        enr.env, run.pending, mod.ReplyMessage.decode(bytes(raw))
                    )
            except ProtocolError:
                tampered_rejected += 1

        # replay of the recorded login after the freshness window, and
        # no exponentiation spent on the stale rejection
        enr.env.clock.advance(enr.env.delta_t_ms + 1)
        before = enr.env.ledger.modexp_total()
        try:
            enr.server.respond(run.msg, enr.rng.exponent(enr.env.params))
            replay_ok = False
        except ProtocolError:
            pass
        stale_without_modexp &= enr.env.ledger.modexp_total() == before
    _criterion(
        7,
        tampered_rejected == tampered_total == 2_000
        and replay_ok
        and stale_without_modexp,
        "%d/%d single-bit tampers rejected; late replays rejected with "
        "no exponentiation spent" % (tampered_rejected, tampered_total),
    )


def test_criterion_8_shipped_scenarios_replay_byte_identically(tmp_path):
    identical = True
    for name in ("baseline-attack", "improved-attack"):
        path = SCENARIO_DIR / (name + ".scenario")
        first = run_scenario(load_scenario(path))
        second = run_scenario(load_scenario(path))
        identical &= first.report == second.report and first.text == second.text
        identical &= all(
            transcript_bytes(first.transcripts[sid])
            == transcript_bytes(second.transcripts[sid])
            for sid in first.transcripts
        )
        # a separate interpreter records; this process must reproduce it
        recording = tmp_path / name
        subprocess.run(
            [
                sys.executable, "-m", "triauth.cli", "replay",
                "--scenario", str(path), "--out", str(recording),
            ],
            check=True,
            capture_output=True,
        )
        identical &= compare_with_recording(first, recording) == []
    _criterion(
        8,
        identical,
        "both shipped scenarios byte-identical across repeat runs and "
        "across interpreter processes",
    )
