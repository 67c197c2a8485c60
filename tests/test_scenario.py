"""Scenario runner: scripted sessions, determinism, recording, replay."""

import json
import os
import re
from importlib import resources
from pathlib import Path

import pytest

from triauth.channel import SERVER_TO_USER, USER_TO_SERVER
from triauth.cli import main
from triauth.core import SessionRng, encode_text
from triauth.files import (
    FileFormatError,
    load_card,
    load_transcript,
    save_card,
    transcript_bytes,
)
from triauth.scenario import (
    DEFAULT_EPOCH_MS,
    ScenarioScript,
    _Runner,
    compare_with_recording,
    load_scenario,
    run_scenario,
    write_result,
)
from triauth.session import SCHEMES

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
    for op in ("teleport", "advance_clock"):
        script = ScenarioScript("x", "baseline", 1, [{"op": op}])
        with pytest.raises(ValueError, match="unknown op %r" % op):
            script.validate()
    with pytest.raises(ValueError, match="baseline or improved"):
        ScenarioScript("x", "quantum", 1, []).validate()


@pytest.mark.parametrize("steps, message", [
    ([{"op": "teleport"}], "step 1: unknown op 'teleport'"),
    (["nope"], "step 1 is not an object"),
], ids=["unknown-op", "string-step"])
def test_a_script_built_in_code_is_checked_as_a_file_is(steps, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        run_scenario(ScenarioScript("x", "baseline", 1, steps))


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


def test_recording_round_trip_and_drift_detection(tmp_path, capsys):
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

    # a deleted artifact is missing; a transcript the run did not make is
    # unexpected, and `replay` reports both as drift
    (out / "report.txt").unlink()
    (out / "transcripts" / "s999.bin").write_bytes(tfile.read_bytes())
    assert compare_with_recording(fresh, out) == [
        "report.txt missing",
        "transcripts/%s differs" % tfile.name,
        "transcripts/s999.bin unexpected",
    ]
    assert main(["replay", "--scenario", str(IMPROVED_ATTACK), "--out", str(out)]) == 5
    assert capsys.readouterr().out.splitlines()[-1] == (
        "replay drift: transcripts/s999.bin unexpected")


def _files(root: Path) -> dict[str, bytes]:
    """Every file under `root`, by its path relative to `root`."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("path", [BASELINE_ATTACK, IMPROVED_ATTACK], ids=lambda p: p.stem)
def test_shipped_scenarios_replay_their_committed_recordings(tmp_path, capsys, path):
    """The committed recordings pin every report and transcript byte, so a
    change anywhere on the scenario path shows up as drift here.  `replay`
    writes the same files, and a second `replay` finds no drift in them."""
    result = run_scenario(load_scenario(path))
    assert compare_with_recording(result, RECORDINGS / path.stem) == []
    out = tmp_path / "rec"
    for _ in range(2):
        assert main(["replay", "--scenario", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith(
        "\nreplay of %s is byte-identical to the recording\n" % path.stem)
    assert _files(out) == _files(RECORDINGS / path.stem)


def test_a_recording_holds_a_transcripts_folder_only_for_a_run_with_a_session(tmp_path):
    result = run_scenario(_script("baseline", [_REGISTER_U]))
    out = tmp_path / "new" / "rec"
    write_result(result, out)
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "report.txt"]
    assert compare_with_recording(result, out) == []


def _record(out: Path) -> dict[str, bytes]:
    """Record the improved attack in `out`; the files it should hold."""
    write_result(run_scenario(load_scenario(IMPROVED_ATTACK)), out)
    return _files(RECORDINGS / IMPROVED_ATTACK.stem)


def _save_card(out: Path) -> dict[str, bytes]:
    """Resave a recorded card in `out`; the file it should hold."""
    card = RECORDINGS / "files" / "improved" / "alice.card"
    out.mkdir(exist_ok=True)
    save_card(load_card(card), out / card.name)
    return {card.name: card.read_bytes()}


_EACH_WRITER = pytest.mark.parametrize("write", [_record, _save_card], ids=["recording", "card"])


@_EACH_WRITER
def test_a_short_write_is_finished(tmp_path, monkeypatch, write):
    """Each file is written whole, though os.write takes 100 bytes at a
    time, and each descriptor written to is closed."""
    real_write, real_close = os.write, os.close
    written, closed = set(), set()

    def short_write(fd, data):
        written.add(fd)
        return real_write(fd, data[:100])

    def close(fd):
        closed.add(fd)
        real_close(fd)

    with monkeypatch.context() as patch:
        patch.setattr(os, "write", short_write)
        patch.setattr(os, "close", close)
        expected = write(tmp_path / "out")
    assert _files(tmp_path / "out") == expected
    assert written and written <= closed


@_EACH_WRITER
def test_writing_over_longer_files_truncates_them(tmp_path, write):
    out = tmp_path / "out"
    for name, data in write(out).items():
        (out / name).write_bytes(data + b"stale tail")
    assert write(out) == _files(out)


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


def test_granted_timestamps_are_the_leaked_users_own():
    """With two improved users on the server, the grant is the record of
    the user whose session leaked, not the first one enrolled: the first
    user's T1 and T2 would let no word of the dictionary verify."""
    steps = [
        {"op": "register", "user": "alice", "password": "pw-alice", "seed": 11},
        {"op": "advance-clock", "ms": 5_000},
        {"op": "register", "user": "bob", "password": "pw-bob", "seed": 12},
        {"op": "advance-clock", "ms": 1_000},
        {"op": "login", "user": "bob", "seed": 13},
        {"op": "respond", "seed": 14},
        {"op": "finish"},
        {"op": "leak", "values": ["card", "biometric", "r_u", "r_s", "transcript"]},
        {"op": "attack", "dictionary": {"size": 20, "seed": 15, "plant_at": 6},
         "grant_timestamps": True},
    ]
    result = run_scenario(_script("improved", steps))
    (attack,) = result.report["attacks"]
    assert attack["status"] == "recovered"
    assert attack["password"] == "pw-bob"
    assert attack["identity"] == encode_text("bob").hex()
    (session,) = result.report["sessions"].values()
    assert attack["session_key"] == session["sk_user"]


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


_LEAKED_SESSION = [
    {"op": "register", "user": "u", "password": "pw-filed", "seed": 11},
    {"op": "advance-clock", "ms": 500},
    {"op": "login", "user": "u", "seed": 12},
    {"op": "respond", "seed": 13},
    {"op": "finish"},
    {"op": "leak"},
]


def test_attack_step_can_read_a_dictionary_file(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("alpha\npw-filed\nomega\n")
    steps = _LEAKED_SESSION + [{"op": "attack", "dictionary": {"file": str(words)}}]
    result = run_scenario(_script("baseline", steps))
    (attack,) = result.report["attacks"]
    assert attack["status"] == "recovered"
    assert attack["work"] == 2


def test_a_dictionary_file_is_read_beside_its_scenario_from_any_directory(
    tmp_path, monkeypatch, capsys
):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "words.txt").write_text("alpha\npw-filed\nomega\n")
    steps = _LEAKED_SESSION + [{"op": "attack", "dictionary": {"file": "words.txt"}}]
    (sub / "s.scenario").write_text(json.dumps(
        {"name": "filed", "scheme": "baseline", "seed": 5, "steps": steps}
    ))
    monkeypatch.chdir(tmp_path)
    assert main(["replay", "--scenario", "sub/s.scenario", "--out", "rec"]) == 0
    (attack,) = json.loads((tmp_path / "rec" / "report.json").read_text())["attacks"]
    assert attack["status"] == "recovered"
    assert attack["dictionary"] == {"file": "words.txt"}  # the path as written
    capsys.readouterr()
    monkeypatch.chdir(sub)
    assert main(["replay", "--scenario", "s.scenario", "--out", "../rec"]) == 0
    assert "replay of filed is byte-identical to the recording" in capsys.readouterr().out
    # a missing file is named as written and as resolved
    (sub / "words.txt").unlink()
    monkeypatch.chdir(tmp_path)
    assert main(["replay", "--scenario", "sub/s.scenario", "--out", "rec"]) == 2
    assert ("step 7 (attack): [Errno 2] No such file or directory: 'words.txt' "
            "(resolved to 'sub/words.txt')") in capsys.readouterr().err


def test_a_script_built_in_code_reads_its_dictionary_file_from_the_working_directory(
    tmp_path, monkeypatch
):
    (tmp_path / "words.txt").write_text("alpha\npw-filed\nomega\n")
    script = _script("baseline", _LEAKED_SESSION + [
        {"op": "attack", "dictionary": {"file": "words.txt"}}])
    monkeypatch.chdir(tmp_path)
    (attack,) = run_scenario(script).report["attacks"]
    assert attack["status"] == "recovered"
    monkeypatch.chdir(tmp_path.parent)
    with pytest.raises(ValueError, match=re.escape(
            "step 7 (attack): [Errno 2] No such file or directory: 'words.txt'") + "$"):
        run_scenario(script)


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
_LOGIN_U = {"op": "login", "user": "u", "seed": 12}


@pytest.mark.parametrize("steps, message", [
    ([_REGISTER_U, {"op": "login", "user": "nobody", "seed": 12}],
     "step 2 (login): no user 'nobody' is defined"),
    ([{"op": "register", "user": "u", "password": "pw-1"}],
     "step 1 (register): missing 'seed'"),
    ([_REGISTER_U, {"op": "attack", "dictionary": {"size": 5, "plant_at": 2}}],
     "step 2 (attack): missing 'user'"),
    ([{"op": "advance-clock", "ms": "10"}],
     "step 1 (advance-clock): 'ms' must be an integer"),
    ([{"op": "advance-clock", "ms": -5}],
     "step 1 (advance-clock): clock cannot move backwards"),
    ([_REGISTER_U, dict(_LOGIN_U, noise_blocks="4")],
     "step 2 (login): 'noise_blocks' must be an integer"),
    ([_REGISTER_U, _LOGIN_U,
      {"op": "tamper", "message": "login", "field": "C_i", "mask": 1}],
     "step 3 (tamper): 'mask' must be a string"),
    ([_REGISTER_U, _LOGIN_U,
      {"op": "tamper", "message": "login", "field": "C_i", "mask": "zz"}],
     "step 3 (tamper): non-hexadecimal number found in fromhex()"),
    ([_REGISTER_U, {"op": "attack", "dictionary": "x"}],
     "step 2 (attack): 'dictionary' must be an object"),
    ([dict(_REGISTER_U, seed="5")], "step 1 (register): 'seed' must be an integer"),
    ([dict(_REGISTER_U, seed=True)], "step 1 (register): 'seed' must be an integer"),
    ([_REGISTER_U, _LOGIN_U, {"op": "leak", "values": "card"}],
     "step 3 (leak): 'values' must be a list"),
    ([_REGISTER_U, {"op": "attack", "dictionary": {"size": -1}}],
     "step 2 (attack): 'size' must not be negative"),
    ([_REGISTER_U, {"op": "attack", "dictionary": {"size": 1 << 64}}],
     "step 2 (attack): 'size' must be at most 1048576"),
    ([_REGISTER_U, {"op": "attack", "dictionary": {"size": 5, "plant_at": 9}}],
     "step 2 (attack): 'plant_at' must be in 0..5"),
    ([_REGISTER_U, {"op": "attack", "dictionary": {"size": 5, "plant_at": -1}}],
     "step 2 (attack): 'plant_at' must be in 0..5"),
    ([_REGISTER_U, {"op": "attack", "dictionary": {"file": "no-such-words.txt"}}],
     "step 2 (attack): [Errno 2] No such file or directory: 'no-such-words.txt'"),
    ([_REGISTER_U, dict(_LOGIN_U, seed=-5)],
     "step 2 (login): seed must be in [0, 2**64), got -5"),
    ([_REGISTER_U, dict(_LOGIN_U, seed=1 << 64)],
     "step 2 (login): seed must be in [0, 2**64), got 18446744073709551616"),
    ([dict(_REGISTER_U, seed=-1)],
     "step 1 (register): seed must be in [0, 2**64), got -1"),
    ([_REGISTER_U, _LOGIN_U, {"op": "respond", "seed": -13}],
     "step 3 (respond): seed must be in [0, 2**64), got -13"),
    ([_REGISTER_U, {"op": "attack", "dictionary": {"size": 5, "seed": -9}}],
     "step 2 (attack): seed must be in [0, 2**64), got -9"),
    ([_REGISTER_U, {"op": "advance-clock", "ms": 1 << 64}, _LOGIN_U],
     "step 2 (advance-clock): clock would reach 2**64 ms"),
    ([{"op": "advance-clock", "ms": (1 << 64) - DEFAULT_EPOCH_MS}],
     "step 1 (advance-clock): clock would reach 2**64 ms"),
    ([_REGISTER_U, {"op": "respond", "seed": 13}],
     "step 2 (respond): no session yet: login must come first"),
    ([_REGISTER_U, {"op": "finish"}],
     "step 2 (finish): no session yet: login must come first"),
    ([_REGISTER_U, {"op": "leak"}],
     "step 2 (leak): no session yet: login must come first"),
    ([_REGISTER_U, {"op": "attack", "user": "u", "grant_timestamps": True,
                    "dictionary": {"size": 5}}],
     "step 2 (attack): granted timestamps apply to the improved scheme only"),
    ([_REGISTER_U, _LOGIN_U, {"op": "respond", "seed": 13, "processing_ms": -1}],
     "step 3 (respond): processing_ms must not be negative, got -1"),
    ([dict(_REGISTER_U, user="\ud800", id="u")],
     "step 1 (register): 'user' is not text a recording can hold: it has no UTF-8 encoding"),
    ([_REGISTER_U, _LOGIN_U,
      {"op": "tamper", "message": "\ud800", "field": "C_i", "mask": "01"}],
     "step 3 (tamper): 'message' is not text a recording can hold: it has no UTF-8 encoding"),
], ids=["undefined-user", "missing-seed", "plant-before-leak", "string-ms",
        "negative-ms", "string-noise-blocks", "int-mask", "non-hex-mask",
        "string-dictionary", "string-seed", "bool-seed", "string-values",
        "negative-size", "size-past-2^20", "plant-past-the-end", "negative-plant",
        "missing-file",
        "negative-login-seed", "login-seed-past-64-bits", "negative-register-seed",
        "negative-respond-seed", "negative-dictionary-seed",
        "clock-past-64-bits-before-a-login", "clock-reaching-2^64",
        "respond-before-login", "finish-before-login", "leak-before-login",
        "grant-on-a-baseline-record", "negative-processing-ms",
        "user-with-a-lone-surrogate", "tamper-message-with-a-lone-surrogate"])
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
    assert not (tmp_path / "o").exists()  # nothing is written


_RESPOND = {"op": "respond", "seed": 13}
_TAMPER_REPLY = {"op": "tamper", "message": "reply", "field": "Cs", "mask": "01"}


@pytest.mark.parametrize("steps, lines", [
    ([_REGISTER_U, dict(_REGISTER_U, seed=21)],
     ["step 02 register       FAILED error=user already defined"]),
    ([_REGISTER_U, {"op": "register", "user": "v", "id": "u", "password": "pw-2",
                    "seed": 21}],
     ["step 02 register       FAILED error=registration"]),
    ([_REGISTER_U, _LOGIN_U, _RESPOND, {"op": "respond", "seed": 14}],
     ["step 04 respond        FAILED session=s001 error=nothing in flight",
      "session s001 user=u keys_match=False error=None"]),
    ([_REGISTER_U, _LOGIN_U, _RESPOND, _TAMPER_REPLY, {"op": "finish"}],
     ["step 04 tamper         ok message=reply field=Cs mask=01",
      "step 05 finish         FAILED session=s001 error=bad-auth",
      "session s001 user=u keys_match=False error=bad-auth"]),
    ([_REGISTER_U, _LOGIN_U, _RESPOND, {"op": "finish"}, _TAMPER_REPLY],
     ["step 04 finish         ok session=s001 keys_match=True",
      "step 05 tamper         FAILED error=nothing in flight"]),
], ids=["user-defined-twice", "id-registered-twice", "second-respond",
        "tampered-reply", "tamper-after-delivery"])
def test_a_failed_step_reports_its_reason_in_report_txt(tmp_path, steps, lines):
    result = run_scenario(_script("baseline", steps))
    write_result(result, tmp_path)
    text = (tmp_path / "report.txt").read_text().splitlines()
    for line in lines:
        assert line in text


def test_a_respond_with_nothing_in_flight_keeps_the_server_exponent():
    steps = [_REGISTER_U, _LOGIN_U, _RESPOND, {"op": "respond", "seed": 14},
             {"op": "leak", "values": ["r_s"]}]
    runner = _Runner(_script("baseline", steps))
    runner.run()
    r_s = SessionRng(13).exponent(runner.env.params)
    assert runner.sessions[-1].handshake.r_s == r_s
    assert runner.leaked == {"r_s": r_s}


_GOOD_HEADER = {"name": "bad", "scheme": "baseline", "seed": 5, "steps": []}


@pytest.mark.parametrize("doc, message", [
    ("name scheme seed steps", "not a JSON object"),
    ({**_GOOD_HEADER, "steps": ["register"]}, "step 1 is not an object"),
    ({**_GOOD_HEADER, "steps": {"op": "login"}}, "'steps' must be a list of steps"),
    ({**_GOOD_HEADER, "seed": "1"}, "'seed' must be an integer"),
    ({**_GOOD_HEADER, "seed": True}, "'seed' must be an integer"),
    ({**_GOOD_HEADER, "scheme": ["baseline"]}, "'scheme' must be a string"),
    ({**_GOOD_HEADER, "latency_ms": "10"}, "'latency_ms' must be an integer"),
    ({**_GOOD_HEADER, "delta_t_ms": -5}, "'delta_t_ms' must not be negative"),
    ({**_GOOD_HEADER, "latency_ms": -1}, "'latency_ms' must not be negative"),
    ({**_GOOD_HEADER, "latency_ms": 1 << 64}, "'latency_ms' must be below 2**64"),
    ({**_GOOD_HEADER, "epoch_ms": -1}, "'epoch_ms' must be in [0, 2**64)"),
    ({**_GOOD_HEADER, "epoch_ms": 1 << 64}, "'epoch_ms' must be in [0, 2**64)"),
    ({**_GOOD_HEADER, "seed": -5}, "'seed' must be in [0, 2**64)"),
    ({**_GOOD_HEADER, "seed": 1 << 64}, "'seed' must be in [0, 2**64)"),
    ({**_GOOD_HEADER, "name": "n" * 70000},
     "'name' is too long: its session ids reach 70005 bytes"),
    ({**_GOOD_HEADER, "name": "a\ud800"},
     "'name' is not text a recording can hold: it has no UTF-8 encoding"),
], ids=["string-document", "string-step", "steps-object", "string-seed",
        "bool-seed", "list-scheme", "string-latency", "negative-window",
        "negative-latency", "latency-past-64-bits", "negative-epoch",
        "epoch-past-64-bits", "negative-seed", "seed-past-64-bits",
        "name-too-long", "name-with-a-lone-surrogate"])
def test_malformed_scenario_documents_name_the_file_and_replay_exits_2(
    tmp_path, capsys, doc, message
):
    path = tmp_path / "bad.scenario"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match=re.escape("%s: %s" % (path, message))):
        load_scenario(path)
    assert main(["replay", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name, status", [
    ("n" * 65530, 0), ("n" * 65531, 2), ("\u00e9" * 32765, 0), ("\u00e9" * 32766, 2),
], ids=["longest", "one-byte-over", "longest-in-two-byte-letters", "two-bytes-over"])
def test_a_scenario_name_is_refused_unless_its_session_ids_fit_a_transcript(
    tmp_path, capsys, name, status
):
    steps = [{"op": "register", "user": "u", "password": "pw-1", "seed": 11},
             {"op": "login", "user": "u", "seed": 12}]
    path = tmp_path / "long.scenario"
    path.write_text(json.dumps({**_GOOD_HEADER, "name": name, "steps": steps}))
    assert main(["replay", "--scenario", str(path), "--out", str(tmp_path / "o")]) == status
    if status:
        assert "%s: 'name' is too long" % path in capsys.readouterr().err
    else:
        transcript = load_transcript(tmp_path / "o" / "transcripts" / "s001.bin")
        assert transcript.session_id == name + "-s001"


@pytest.mark.parametrize("text", [b'{"name": "\xff"}', b"{nope", b"[" * 100000],
                         ids=["not-utf-8", "not-json", "nested-too-deep"])
def test_a_scenario_that_is_not_utf8_json_names_the_file_and_replay_exits_2(
    tmp_path, capsys, text
):
    path = tmp_path / "bad.scenario"
    path.write_bytes(text)
    why = "%s: not valid JSON (" % path
    with pytest.raises(FileFormatError, match="^" + re.escape(why)):
        load_scenario(path)
    assert main(["replay", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "error: " + why in capsys.readouterr().err


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


@pytest.mark.parametrize("message, field, error", [
    ("login", "Q", "message 'login' has no field 'Q'"),
    ("greeting", "NID", "no greeting message in the baseline scheme"),
], ids=["unknown-field", "unknown-message"])
def test_a_tamper_step_naming_no_such_word_fails_with_the_reason(message, field, error):
    steps = [_REGISTER_U, _LOGIN_U,
             {"op": "tamper", "message": message, "field": field, "mask": "01"}]
    result = run_scenario(_script("baseline", steps))
    assert result.report["steps"][2] == {"step": 3, "op": "tamper", "ok": False,
                                         "error": error}


def _in_flight(scheme, steps, direction):
    """Run `steps`, then deliver the message left in flight on `direction`:
    (the bytes delivered, the bytes the transcript records for it)."""
    runner = _Runner(_script(scheme, steps))
    runner.run()
    channel = runner.sessions[-1].handshake.channel
    delivered = channel.recv(direction)
    return delivered, channel.transcript().entries[-1].data


_LAYOUTS = {  # label -> (its layout attribute on a scheme module, direction)
    "login": ("LOGIN_WIRE", USER_TO_SERVER),
    "reply": ("REPLY_WIRE", SERVER_TO_USER),
}


@pytest.mark.parametrize("scheme, label, name", [
    (scheme, label, name)
    for scheme, mod in SCHEMES.items()
    for label, (layout, _) in _LAYOUTS.items()
    for name in getattr(mod, layout)
])
def test_a_tamper_step_flips_exactly_the_named_field(scheme, label, name):
    layout, direction = _LAYOUTS[label]
    steps = [_REGISTER_U, _LOGIN_U]
    if label == "reply":
        steps.append({"op": "respond", "seed": 13})
    original, recorded = _in_flight(scheme, steps, direction)
    assert recorded == original
    start = 16 * getattr(SCHEMES[scheme], layout).index(name)
    flipped = (original[:start] + bytes(b ^ 0xFF for b in original[start:start + 16])
               + original[start + 16:])
    for mask, expected in (("ff" * 16, flipped), ("00" * 16, original)):
        tamper = {"op": "tamper", "message": label, "field": name, "mask": mask}
        assert _in_flight(scheme, steps + [tamper], direction) == (expected, expected)


def test_the_scenario_header_sets_the_freshness_window():
    steps = [_REGISTER_U, {"op": "login", "user": "u", "seed": 12},
             {"op": "respond", "seed": 13}]
    script = _script("baseline", steps)
    assert run_scenario(script).report["steps"][2]["ok"] is True
    script.delta_t_ms = 5  # shorter than the 10 ms hop: the login goes stale
    result = run_scenario(script)
    assert result.report["steps"][2]["error"] == "freshness"
