"""Generated scenarios: well-formed scripts drawn from fixed seeds.

Each script registers users, moves the clock, runs sessions (some with
a tampered login or reply), leaks a random subset of ``LEAKABLE`` from
one session and attacks with the victim's password planted in the
dictionary or not.  A tampered session that leaks has its verifier
flipped: C_i in its login or Cs in its reply.  The checks hold for
every such script: replay is byte-identical, an untampered session
agrees on its key, a tampered one fails, and the attack recovers the
password exactly when it is in the dictionary and the leak leaves no
gap in the plan.  Its work is the planted word's position on recovery,
nothing on a gap, and every drawn word when the dictionary runs out.
A leak from a session whose login was flipped gives no reply words, so
its attack is short of knowledge; one whose reply was flipped attacks
as the same script without the tamper does.

Each script is also run once more with one step value made malformed
or out of range: the run must refuse it as ``step N (op): ...``, and
``replay`` must exit 2 and write nothing.
"""

import json
import random
import re

import pytest

from triauth import adversary
from triauth.cli import main
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
    leak_at = rnd.randrange(n_sessions)
    leak_tamper = None  # the tamper step of the leaked session
    leaked = [value for value in LEAKABLE if rnd.random() < 0.75]
    for s in range(n_sessions):
        steps.append({"op": "advance-clock", "ms": rnd.randrange(1, 120_000)})
        steps.append({"op": "login", "user": rnd.choice(users),
                      "seed": rnd.getrandbits(32), "noise_blocks": rnd.randint(0, 16)})
        tamper = None
        if tampered[s]:
            label = rnd.choice(("login", "reply"))
            fields = mod.LOGIN_WIRE if label == "login" else mod.REPLY_WIRE
            if s == leak_at:  # the attack is predicted for a flipped verifier
                fields = ("C_i",) if label == "login" else ("Cs",)
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
            leak_tamper = tamper
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
             "leak_tamper": leak_tamper,
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

    tamper = facts["leak_tamper"]
    if tamper and tamper["message"] == "login":
        # the server sent the termination notice: SK lacks the reply's words
        assert (attack["status"], attack["work"]) == (adversary.INSUFFICIENT, 0)
    elif tamper:
        # the card refused the flipped Cs, and the reply's other words
        # arrived as sent: the attack reports as if nothing was flipped
        path.write_text(json.dumps(
            dict(doc, steps=[step for step in doc["steps"] if step is not tamper])))
        assert run_scenario(load_scenario(path)).report["attacks"] == [attack]


_MISSING = object()  # the key is taken out of the step
_BAD_INTS = [-1, 1 << 64, "7", 1.5, True, None]
_BAD_TEXT = [7, None, "\ud800"]  # a lone surrogate has no UTF-8 encoding

# Per op, per key, values each of which the step must refuse; a key
# ("dictionary", k) is the attack's dictionary's.  A finish takes none.
_BAD_VALUES = {
    "register": {"user": [_MISSING, *_BAD_TEXT], "id": ["x" * 17, *_BAD_TEXT],
                 "password": [_MISSING, "x" * 17, *_BAD_TEXT], "seed": [_MISSING, *_BAD_INTS]},
    "advance-clock": {"ms": [_MISSING, *_BAD_INTS]},
    "login": {"user": [_MISSING, "nobody", *_BAD_TEXT], "seed": [_MISSING, *_BAD_INTS],
              "noise_blocks": [-1, 129, "4", 1.5, None]},
    "respond": {"seed": [_MISSING, *_BAD_INTS], "processing_ms": [-1, "3", 1.5, None]},
    "tamper": {"message": [_MISSING, *_BAD_TEXT], "field": [_MISSING, *_BAD_TEXT],
               "mask": [_MISSING, "zz", "abc", 1, None]},
    "leak": {"values": ["card", 5, {}, None]},
    "attack": {"dictionary": ["x", 5, [], None], "grant_timestamps": ["yes", 1, None],
               ("dictionary", "size"): [-1, (1 << 20) + 1, 1 << 64, "3", 1.5, None],
               ("dictionary", "seed"): [-1, 1 << 64, "3"],
               ("dictionary", "plant_at"): [-1, 1 << 20, "0"]},
}


def _malformed(doc: dict, seed: int) -> tuple[int, str, str]:
    """Make one value of one of `doc`'s steps malformed or out of range;
    (the step's number, its op, what was done)."""
    rnd = random.Random("malformed-%s-%d" % (doc["scheme"], seed))
    number = rnd.choice([i for i, step in enumerate(doc["steps"], 1)
                         if step["op"] != "finish"])
    step = doc["steps"][number - 1]
    key = rnd.choice(list(_BAD_VALUES[step["op"]]))
    value = rnd.choice(_BAD_VALUES[step["op"]][key])
    where = step
    if isinstance(key, tuple):
        where, key = step["dictionary"], key[1]
    if value is _MISSING:
        where.pop(key, None)
    else:
        where[key] = value
    return number, step["op"], "%s = %s" % (key, "missing" if value is _MISSING else repr(value))


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("seed", range(SCRIPTS_PER_SCHEME))
def test_a_malformed_step_value_is_refused_naming_its_step(tmp_path, capsys, scheme, seed):
    doc, _ = _generate(scheme, seed)
    number, op, change = _malformed(doc, seed)
    path = tmp_path / "bad.scenario"
    path.write_text(json.dumps(doc))
    prefix = "step %d (%s): " % (number, op)
    with pytest.raises(ValueError, match="^" + re.escape(prefix)):
        run_scenario(load_scenario(path))
    assert main(["replay", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2, change
    assert "error: " + prefix in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # nothing is written
