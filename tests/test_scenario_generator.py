"""Generated scenarios: well-formed scripts drawn from fixed seeds.

Each script registers users, moves the clock, runs sessions (some with
a tampered login or reply), leaks a random subset of ``LEAKABLE`` from
one untampered session and attacks with the victim's password planted
in the dictionary or not.  The checks hold for every such script:
replay is byte-identical, an untampered session agrees on its key, a
tampered one fails, and the attack recovers the password exactly when
it is in the dictionary and the leak leaves no gap in the plan.  Its
work is the planted word's position on recovery, nothing on a gap, and
every drawn word when the dictionary runs out.
"""

import json
import random

import pytest

from triauth import adversary
from triauth.files import json_report_bytes
from triauth.scenario import (
    LEAKABLE,
    _Runner,
    compare_with_recording,
    load_scenario,
    run_scenario,
    write_result,
)
from triauth.session import SCHEMES

SCRIPTS_PER_SCHEME = 40


def _generate(scheme: str, seed: int) -> tuple[dict, dict]:
    """(scenario document, what the test needs to know about it)."""
    rnd = random.Random("%s-%d" % (scheme, seed))
    mod = SCHEMES[scheme]
    users = ["u%d" % i for i in range(rnd.randint(1, 3))]
    steps = []
    for name in users:
        steps.append({"op": "register", "user": name, "id": "%s-%d" % (name, seed),
                      "password": "pw-%s-%08x" % (name, rnd.getrandbits(32)),
                      "seed": rnd.getrandbits(32)})
        steps.append({"op": "advance-clock", "ms": rnd.randrange(120_000)})
    n_sessions = rnd.randint(1, 4)
    tampered = [rnd.random() < 0.3 for _ in range(n_sessions)]
    tampered[rnd.randrange(n_sessions)] = False  # one session can leak
    leak_at = rnd.choice([s for s in range(n_sessions) if not tampered[s]])
    leaked = [value for value in LEAKABLE if rnd.random() < 0.75]
    for s in range(n_sessions):
        steps.append({"op": "advance-clock", "ms": rnd.randrange(1, 120_000)})
        steps.append({"op": "login", "user": rnd.choice(users),
                      "seed": rnd.getrandbits(32), "noise_blocks": rnd.randint(0, 16)})
        tamper = None
        if tampered[s]:
            label = rnd.choice(("login", "reply"))
            fields = mod.LOGIN_WIRE if label == "login" else mod.REPLY_WIRE
            mask = bytearray(rnd.getrandbits(8) for _ in range(rnd.randint(1, 16)))
            mask[rnd.randrange(len(mask))] |= 1 << rnd.randrange(8)  # nonzero
            tamper = {"op": "tamper", "message": label,
                      "field": rnd.choice(fields), "mask": mask.hex()}
        if tamper and tamper["message"] == "login":
            steps.append(tamper)
        steps.append({"op": "respond", "seed": rnd.getrandbits(32)})
        if tamper and tamper["message"] == "reply":
            steps.append(tamper)
        steps.append({"op": "finish"})
        if s == leak_at:
            steps.append({"op": "leak", "values": leaked})
    size = rnd.randint(0, 30)
    plant_at = rnd.randint(0, size) if rnd.random() < 0.6 else None
    dictionary = {"size": size, "seed": rnd.getrandbits(32)}
    if plant_at is not None:
        dictionary["plant_at"] = plant_at
    steps.append({"op": "attack", "dictionary": dictionary})
    doc = {"name": "gen-%s-%02d" % (scheme, seed), "scheme": scheme,
           "seed": rnd.getrandbits(32), "latency_ms": rnd.randint(0, 50),
           "steps": steps}
    facts = {"tampered": tampered, "leak_at": leak_at, "leaked": leaked,
             "plant_at": plant_at, "words": size + (plant_at is not None)}
    return doc, facts


def _expected_plan(runner: _Runner, facts: dict) -> adversary.AttackPlan:
    """The plan for what the leak step handed over, built from the
    leaked session and its user as the test sees them."""
    session = runner.sessions[facts["leak_at"]]
    user = runner.users[session.user]
    given = {"card": user.card, "biometric": user.template,
             "r_u": session.handshake.r_u, "r_s": session.handshake.r_s}
    leaked = facts["leaked"]
    knowledge = adversary.AdversaryKnowledge.assemble(
        runner.script.scheme,
        transcripts=((session.handshake.channel.transcript(),)
                     if "transcript" in leaked else ()),
        **{name: value for name, value in given.items() if name in leaked},
    )
    return adversary.compile_plan(knowledge)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("seed", range(SCRIPTS_PER_SCHEME))
def test_a_generated_scenario_replays_and_attacks_as_its_leaks_predict(
    tmp_path, scheme, seed
):
    doc, facts = _generate(scheme, seed)
    path = tmp_path / "gen.scenario"
    path.write_text(json.dumps(doc))
    script = load_scenario(path)

    runner = _Runner(script)
    recorded = runner.run()
    write_result(recorded, tmp_path / "rec")
    assert compare_with_recording(run_scenario(script), tmp_path / "rec") == []

    report = recorded.report
    assert json_report_bytes(report) == (json.dumps(
        report, sort_keys=True, indent=2, separators=(",", ": ")) + "\n").encode()
    assert all(step["ok"] for step in report["steps"]
               if step["op"] not in ("respond", "finish"))
    sessions = list(report["sessions"].values())
    assert len(sessions) == len(facts["tampered"])
    for info, tampered in zip(sessions, facts["tampered"]):
        if tampered:
            assert info["error"] is not None
        else:
            assert info["keys_match"] is True and info["error"] is None

    (attack,) = report["attacks"]
    plan = _expected_plan(runner, facts)
    planted = facts["plant_at"] is not None
    assert (attack["status"] == adversary.RECOVERED) == (planted and not plan.gaps)
    if attack["status"] == adversary.RECOVERED:
        assert attack["work"] == facts["plant_at"] + 1
    elif attack["status"] == adversary.INSUFFICIENT:
        assert attack["work"] == 0
    else:
        assert attack["status"] == adversary.EXHAUSTED
        assert attack["work"] == facts["words"]
