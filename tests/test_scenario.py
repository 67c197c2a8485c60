"""Scenario runner: scripted sessions, determinism, recording, replay."""

import json
import re
from importlib import resources
from pathlib import Path

import pytest

from triauth.cli import main
from triauth.core import ProtocolConfig
from triauth.files import load_transcript, transcript_bytes
from triauth.scenario import (
    ScenarioScript,
    compare_with_recording,
    load_scenario,
    run_scenario,
    write_result,
)

SCENARIO_DIR = Path(str(resources.files("triauth"))) / "scenarios"
BASELINE_ATTACK = SCENARIO_DIR / "baseline-attack.scenario"
IMPROVED_ATTACK = SCENARIO_DIR / "improved-attack.scenario"
RECORDINGS = Path(__file__).parent / "recordings"


def test_shipped_scenarios_parse():
    for path in (BASELINE_ATTACK, IMPROVED_ATTACK):
        script = load_scenario(path)
        assert script.steps
        script.validate()


def test_scenario_validation_catches_unknown_ops():
    script = ScenarioScript("x", "baseline", 1, [{"op": "teleport"}])
    with pytest.raises(ValueError, match="unknown op"):
        script.validate()
    with pytest.raises(ValueError, match="baseline or improved"):
        ScenarioScript("x", "quantum", 1, []).validate()


def test_load_scenario_requires_the_header_keys(tmp_path):
    path = tmp_path / "s.scenario"
    path.write_text('{"name": "x", "scheme": "baseline", "steps": []}')
    with pytest.raises(ValueError, match="missing 'seed'"):
        load_scenario(path)
    path.write_text("{nope")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_scenario(path)


def test_baseline_attack_scenario_recovers_the_password():
    result = run_scenario(load_scenario(BASELINE_ATTACK))
    report = result.report
    (session,) = report["sessions"].values()
    assert session["keys_match"] is True
    (attack,) = report["attacks"]
    assert attack["status"] == "recovered"
    assert attack["password"] == "glacier-42"
    assert attack["work"] == 418  # planted at index 417
    assert attack["session_key"] == session["sk_user"]
    assert attack["out_of_model"] is False


def test_improved_attack_scenario_blocks_then_unlocks():
    result = run_scenario(load_scenario(IMPROVED_ATTACK))
    report = result.report
    (session,) = report["sessions"].values()
    assert session["keys_match"] is True
    in_model, white_box = report["attacks"]
    assert in_model["status"] == "insufficient_knowledge"
    assert in_model["out_of_model"] is False
    assert in_model["gaps"][0]["unknown"] == [
        "A22", "H", "ID", "SK", "T1w", "T3w",
    ]
    assert white_box["status"] == "recovered"
    assert white_box["out_of_model"] is True
    assert white_box["session_key"] == session["sk_user"]


def test_scenario_runs_are_deterministic():
    script = load_scenario(BASELINE_ATTACK)
    a = run_scenario(script)
    b = run_scenario(load_scenario(BASELINE_ATTACK))
    assert a.report == b.report
    assert a.text == b.text
    assert set(a.transcripts) == set(b.transcripts)
    for sid in a.transcripts:
        assert transcript_bytes(a.transcripts[sid]) == transcript_bytes(
            b.transcripts[sid]
        )


def test_recording_round_trip_and_drift_detection(tmp_path):
    script = load_scenario(IMPROVED_ATTACK)
    result = run_scenario(script)
    out = tmp_path / "rec"
    write_result(result, out)

    fresh = run_scenario(load_scenario(IMPROVED_ATTACK))
    assert compare_with_recording(fresh, out) == []

    # perturb one recorded transcript byte: replay must notice
    tfile = next((out / "transcripts").iterdir())
    blob = bytearray(tfile.read_bytes())
    blob[-1] ^= 0xFF
    tfile.write_bytes(bytes(blob))
    mismatches = compare_with_recording(fresh, out)
    assert mismatches == ["transcripts/%s differs" % tfile.name]


@pytest.mark.parametrize("path", [BASELINE_ATTACK, IMPROVED_ATTACK], ids=lambda p: p.stem)
def test_shipped_scenarios_replay_their_committed_recordings(path):
    """The committed recordings pin every report and transcript byte, so a
    change anywhere on the scenario path shows up as drift here."""
    result = run_scenario(load_scenario(path))
    assert compare_with_recording(result, RECORDINGS / path.stem) == []


def test_recorded_transcripts_reload_byte_exactly(tmp_path):
    result = run_scenario(load_scenario(BASELINE_ATTACK))
    out = tmp_path / "rec"
    write_result(result, out)
    for sid, transcript in result.transcripts.items():
        loaded = load_transcript(out / "transcripts" / ("%s.bin" % sid))
        assert loaded == transcript


def test_report_json_is_stable_on_disk(tmp_path):
    result = run_scenario(load_scenario(BASELINE_ATTACK))
    out = tmp_path / "rec"
    write_result(result, out)
    parsed = json.loads((out / "report.json").read_text())
    assert parsed == result.report


def _script(scheme, steps, latency_ms=10):
    script = ScenarioScript(
        name="inline", scheme=scheme, seed=5, steps=steps,
        latency_ms=latency_ms,
    )
    script.validate()
    return script


def test_tampered_login_is_rejected_and_terminated():
    steps = [
        {"op": "register", "user": "u", "password": "pw-1", "seed": 11},
        {"op": "advance-clock", "ms": 1000},
        {"op": "login", "user": "u", "seed": 12},
        {"op": "tamper", "message": "login", "field": "C_i", "mask": "01"},
        {"op": "respond", "seed": 13},
        {"op": "finish"},
    ]
    result = run_scenario(_script("baseline", steps))
    report = result.report
    respond_step = report["steps"][4]
    assert respond_step["ok"] is False
    assert respond_step["error"] == "bad-auth"
    finish_step = report["steps"][5]
    assert finish_step["ok"] is False
    assert "terminated" in finish_step["error"]
    (session,) = report["sessions"].values()
    assert session["keys_match"] is False
    # the wire shows only the uniform termination notice
    (transcript,) = result.transcripts.values()
    labels = [e.label for e in transcript.entries]
    assert labels == ["login", "termination"]


def test_stale_login_scenario_reports_freshness():
    steps = [
        {"op": "register", "user": "u", "password": "pw-1", "seed": 11},
        {"op": "advance-clock", "ms": 1000},
        {"op": "login", "user": "u", "seed": 12},
        {"op": "advance-clock", "ms": 60_000},  # past the window in flight
        {"op": "respond", "seed": 13},
    ]
    result = run_scenario(_script("improved", steps))
    respond_step = result.report["steps"][4]
    assert respond_step["ok"] is False
    assert respond_step["error"] == "freshness"


def test_leak_step_refuses_unknown_values():
    steps = [
        {"op": "register", "user": "u", "password": "pw-1", "seed": 11},
        {"op": "login", "user": "u", "seed": 12},
        {"op": "leak", "values": ["server_secret"]},
    ]
    result = run_scenario(_script("baseline", steps))
    leak_step = result.report["steps"][2]
    assert leak_step["ok"] is False
    assert "cannot leak" in leak_step["error"]


def test_generated_dictionary_plants_the_victim_password():
    steps = [
        {"op": "register", "user": "u", "password": "pw-hidden", "seed": 11},
        {"op": "advance-clock", "ms": 500},
        {"op": "login", "user": "u", "seed": 12},
        {"op": "respond", "seed": 13},
        {"op": "finish"},
        {"op": "leak"},
        {"op": "attack", "dictionary": {"size": 20, "seed": 14, "plant_at": 6}},
    ]
    result = run_scenario(_script("baseline", steps))
    (attack,) = result.report["attacks"]
    assert attack["status"] == "recovered"
    assert attack["work"] == 7
    assert attack["password"] == "pw-hidden"
    assert attack["dictionary"] == {"size": 20, "seed": 14, "plant_at": 6}


@pytest.mark.parametrize("second_leak", [
    ["r_u", "r_s", "transcript"],  # the attack must read session 2's wire
    ["transcript"],  # it still holds session 1's exponents and wire
])
def test_an_attack_after_two_leaks_reads_the_wire_of_its_exponents(second_leak):
    steps = [
        {"op": "register", "user": "u", "password": "pw-twice", "seed": 11},
        {"op": "login", "user": "u", "seed": 12},
        {"op": "respond", "seed": 13},
        {"op": "finish"},
        {"op": "leak"},
        {"op": "advance-clock", "ms": 60_000},
        {"op": "login", "user": "u", "seed": 14},
        {"op": "respond", "seed": 15},
        {"op": "finish"},
        {"op": "leak", "values": second_leak},
        {"op": "attack", "dictionary": {"size": 100, "plant_at": 41}},
    ]
    result = run_scenario(_script("baseline", steps))
    (attack,) = result.report["attacks"]
    assert attack["status"] == "recovered"
    assert attack["work"] == 42
    assert attack["password"] == "pw-twice"
    session = "s002" if "r_u" in second_leak else "s001"
    assert attack["session_key"] == result.report["sessions"][session]["sk_user"]


def test_an_attack_without_the_wire_of_its_exponents_names_the_gap():
    steps = [
        {"op": "register", "user": "u", "password": "pw-twice", "seed": 11},
        {"op": "login", "user": "u", "seed": 12},
        {"op": "respond", "seed": 13},
        {"op": "finish"},
        {"op": "leak"},
        {"op": "advance-clock", "ms": 60_000},
        {"op": "login", "user": "u", "seed": 14},
        {"op": "respond", "seed": 15},
        {"op": "finish"},
        {"op": "leak", "values": ["r_u", "r_s"]},  # session 2's wire never leaks
        {"op": "attack", "dictionary": {"size": 100, "plant_at": 41}},
    ]
    result = run_scenario(_script("baseline", steps))
    (attack,) = result.report["attacks"]
    assert attack["status"] == "insufficient_knowledge"
    assert attack["work"] == 0
    assert attack["gaps"] == [
        {"equation": "C_i", "unknown": ["A1", "C_i", "ID", "SK", "T1w"]}
    ]


def test_a_transcript_leaked_again_is_read_in_full():
    steps = [
        {"op": "register", "user": "u", "password": "pw-again", "seed": 11},
        {"op": "login", "user": "u", "seed": 12},
        {"op": "leak"},  # the login is on the wire, the reply is not yet
        {"op": "respond", "seed": 13},
        {"op": "finish"},
        {"op": "leak", "values": ["transcript"]},
        {"op": "attack", "dictionary": {"size": 20, "plant_at": 6}},
    ]
    result = run_scenario(_script("baseline", steps))
    (attack,) = result.report["attacks"]
    assert attack["status"] == "recovered"
    assert attack["work"] == 7
    assert attack["session_key"] == result.report["sessions"]["s001"]["sk_user"]


def test_attack_step_can_read_a_dictionary_file(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("alpha\npw-filed\nomega\n")
    steps = [
        {"op": "register", "user": "u", "password": "pw-filed", "seed": 11},
        {"op": "advance-clock", "ms": 500},
        {"op": "login", "user": "u", "seed": 12},
        {"op": "respond", "seed": 13},
        {"op": "finish"},
        {"op": "leak"},
        {"op": "attack", "dictionary": {"file": str(words)}},
    ]
    result = run_scenario(_script("baseline", steps))
    (attack,) = result.report["attacks"]
    assert attack["status"] == "recovered"
    assert attack["work"] == 2


def test_final_clock_accounts_for_latency_and_processing():
    steps = [
        {"op": "register", "user": "u", "password": "pw-1", "seed": 11},
        {"op": "login", "user": "u", "seed": 12},
        {"op": "respond", "seed": 13, "processing_ms": 7},
        {"op": "finish"},
    ]
    result = run_scenario(_script("baseline", steps, latency_ms=10))
    # registration hop 10, login hop 10, processing 7, reply hop 10
    epoch = 1_700_000_000_000
    assert result.report["final_clock_ms"] == epoch + 10 + 10 + 7 + 10


_REGISTER_U = {"op": "register", "user": "u", "password": "pw-1", "seed": 11}


@pytest.mark.parametrize("steps, message", [
    ([_REGISTER_U, {"op": "login", "user": "nobody", "seed": 12}],
     "step 2 (login): no user 'nobody' is defined"),
    ([{"op": "register", "user": "u", "password": "pw-1"}],
     "step 1 (register): missing 'seed'"),
    ([_REGISTER_U, {"op": "attack", "dictionary": {"size": 5, "plant_at": 2}}],
     "step 2 (attack): missing 'user'"),
], ids=["undefined-user", "missing-seed", "plant-before-leak"])
def test_bad_scenario_input_names_its_step_and_replay_exits_2(
    tmp_path, capsys, steps, message
):
    path = tmp_path / "bad.scenario"
    path.write_text(json.dumps(
        {"name": "bad", "scheme": "baseline", "seed": 5, "steps": steps}
    ))
    with pytest.raises(ValueError, match=re.escape(message)):
        run_scenario(load_scenario(path))
    assert main(["replay", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


_GOOD_HEADER = {"name": "bad", "scheme": "baseline", "seed": 5, "steps": []}


@pytest.mark.parametrize("doc, message", [
    ("name scheme seed steps", "not a JSON object"),
    ({**_GOOD_HEADER, "steps": ["register"]}, "step 1 is not an object"),
    ({**_GOOD_HEADER, "steps": {"op": "login"}}, "'steps' must be a list of steps"),
    ({**_GOOD_HEADER, "seed": "1"}, "'seed' must be an integer"),
    ({**_GOOD_HEADER, "seed": True}, "'seed' must be an integer"),
    ({**_GOOD_HEADER, "scheme": ["baseline"]}, "'scheme' must be a string"),
    ({**_GOOD_HEADER, "latency_ms": "10"}, "'latency_ms' must be an integer"),
], ids=["string-document", "string-step", "steps-object", "string-seed",
        "bool-seed", "list-scheme", "string-latency"])
def test_malformed_scenario_documents_name_the_file_and_replay_exits_2(
    tmp_path, capsys, doc, message
):
    path = tmp_path / "bad.scenario"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape("%s: %s" % (path, message))):
        load_scenario(path)
    assert main(["replay", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_a_tamper_mask_longer_than_a_field_is_refused():
    steps = [
        _REGISTER_U,
        {"op": "login", "user": "u", "seed": 12},
        {"op": "tamper", "message": "login", "field": "NID", "mask": "01" * 17},
        {"op": "respond", "seed": 13},
    ]
    result = run_scenario(_script("baseline", steps))
    tamper_step, respond_step = result.report["steps"][2:]
    assert tamper_step == {"step": 3, "op": "tamper", "ok": False,
                           "error": "mask longer than a field"}
    assert respond_step["ok"] is True  # A1, next to NID, was left alone


def test_a_scenario_window_leaves_the_callers_config_alone():
    config = ProtocolConfig()
    steps = [_REGISTER_U, {"op": "login", "user": "u", "seed": 12},
             {"op": "respond", "seed": 13}]
    script = _script("baseline", steps)
    script.delta_t_ms = 5  # shorter than the 10 ms hop: the login goes stale
    result = run_scenario(script, config)
    assert result.report["steps"][2]["error"] == "freshness"
    assert config.delta_t_ms == 2000
