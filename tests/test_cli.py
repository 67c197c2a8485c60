"""End-to-end command-line flows driven through cli.main()."""

import json
from importlib import resources
from pathlib import Path

import pytest

from triauth import baseline, cli
from triauth.core import DEFAULT_EPOCH_MS, AuthFailure

SCENARIO_DIR = Path(str(resources.files("triauth"))) / "scenarios"
RECORDED_COSTS = Path(__file__).parent / "recordings" / "costs"


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def register(tmp_path, scheme, user="alice", password="hunter-glacier", seed=7):
    paths = {
        "card": tmp_path / ("%s.card" % user),
        "server": tmp_path / "server.state",
        "template": tmp_path / ("%s.template" % user),
    }
    code = run_cli(
        "register", "--scheme", scheme, "--seed", seed,
        "--id", user, "--password", password,
        "--card-out", paths["card"],
        "--server-state", paths["server"],
        "--template-out", paths["template"],
    )
    assert code == 0
    return paths


def login(tmp_path, paths, user="alice", password="hunter-glacier",
          seed=7, extra=()):
    return run_cli(
        "login-run", "--seed", seed,
        "--id", user, "--password", password,
        "--card", paths["card"], "--template", paths["template"],
        "--server-state", paths["server"], *extra,
    )


def write_words(tmp_path, password, position=17, filler=40):
    words = ["word%04d" % i for i in range(filler)]
    words.insert(position, password)
    path = tmp_path / "words.txt"
    path.write_text("\n".join(words) + "\n")
    return path, position + 1  # expected verifier evaluations on recovery


def test_register_writes_the_three_files(tmp_path, capsys):
    paths = register(tmp_path, "baseline")
    out = capsys.readouterr().out
    assert "registered alice under the baseline scheme" in out
    for p in paths.values():
        assert p.exists()


def test_register_takes_the_seed_from_the_config_file(tmp_path):
    config = tmp_path / "seed9.cfg"
    config.write_text("seed = 9\n")
    cards = {}
    for name, options in (("config", ("--config", config)), ("flag", ("--seed", 9))):
        cards[name] = tmp_path / ("%s.card" % name)
        assert run_cli(
            "register", "--scheme", "improved", *options,
            "--id", "alice", "--password", "pw",
            "--card-out", cards[name],
            "--server-state", tmp_path / ("%s.state" % name),
        ) == 0
    assert cards["config"].read_bytes() == cards["flag"].read_bytes()


def test_register_rejects_a_duplicate_identity(tmp_path, capsys):
    paths = register(tmp_path, "baseline")
    code = run_cli(
        "register", "--scheme", "baseline", "--seed", "8",
        "--id", "alice", "--password", "other",
        "--card-out", tmp_path / "again.card",
        "--server-state", paths["server"],
    )
    assert code == 2
    assert "registration" in capsys.readouterr().err


def test_register_rejects_an_overlong_identity(tmp_path, capsys):
    code = run_cli(
        "register", "--scheme", "baseline",
        "--id", "x" * 17, "--password", "pw",
        "--card-out", tmp_path / "x.card",
        "--server-state", tmp_path / "server.state",
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_register_with_a_negative_latency_runs_nothing(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_load_config", lambda args: calls.append(args))
    code = run_cli(
        "register", "--scheme", "baseline", "--latency", "-5",
        "--id", "alice", "--password", "pw",
        "--card-out", tmp_path / "alice.card",
        "--server-state", tmp_path / "server.state",
    )
    assert code == 2
    assert "--latency must not be negative, got -5 ms" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scheme", ["baseline", "improved"])
def test_register_enrolls_a_template_file(tmp_path, capsys, scheme):
    (tmp_path / "first").mkdir()
    template = register(tmp_path / "first", scheme)["template"]
    before = template.read_bytes()
    paths = {"card": tmp_path / "alice.card", "server": tmp_path / "server.state",
             "template": template}
    assert run_cli(
        "register", "--scheme", scheme, "--seed", 8,
        "--id", "alice", "--password", "hunter-glacier",
        "--card-out", paths["card"], "--server-state", paths["server"],
        "--template", template,
    ) == 0
    assert template.read_bytes() == before
    capsys.readouterr()
    assert login(tmp_path, paths, seed=8) == 0
    assert "keys match: yes" in capsys.readouterr().out


@pytest.mark.parametrize("scheme", ["baseline", "improved"])
def test_full_login_run_succeeds(tmp_path, capsys, scheme):
    paths = register(tmp_path, scheme)
    assert login(tmp_path, paths) == 0
    out = capsys.readouterr().out
    assert "keys match: yes" in out
    assert "session key (user)" in out


def test_second_user_shares_the_server_state(tmp_path, capsys):
    paths = register(tmp_path, "improved")
    bob = register(tmp_path, "improved", user="bob", password="other-pw", seed=9)
    assert bob["server"] == paths["server"]
    assert login(tmp_path, bob, user="bob",
                 password="other-pw", seed=9) == 0
    assert "keys match: yes" in capsys.readouterr().out


def test_register_refuses_server_state_of_another_scheme(tmp_path, capsys):
    paths = register(tmp_path, "baseline")
    before = paths["server"].read_bytes()
    code = run_cli(
        "register", "--scheme", "improved", "--seed", "8",
        "--id", "bob", "--password", "other-pw",
        "--card-out", tmp_path / "bob.card",
        "--server-state", paths["server"],
    )
    assert code == 2
    assert "holds baseline server state" in capsys.readouterr().err
    assert paths["server"].read_bytes() == before
    assert not (tmp_path / "bob.card").exists()


def test_login_run_refuses_a_card_and_state_of_different_schemes(tmp_path, capsys):
    for scheme in ("baseline", "improved"):
        (tmp_path / scheme).mkdir()
    alice = register(tmp_path / "baseline", "baseline")
    improved = register(tmp_path / "improved", "improved")
    code = login(tmp_path, {**alice, "server": improved["server"]})
    assert code == 2
    err = capsys.readouterr().err
    assert "is a baseline card;" in err
    assert "holds improved server state" in err


def test_wrong_password_exits_with_the_auth_code(tmp_path, capsys):
    paths = register(tmp_path, "baseline")
    code = login(tmp_path, paths, password="not-it")
    assert code == 4
    out = capsys.readouterr().out
    assert "session rejected locally" in out
    assert "local-auth" in out
    # the card refused its holder: no login left it, so no notice came back
    assert "wire view: nothing was sent" in out
    assert "session terminated" not in out


def test_excessive_latency_exits_with_the_freshness_code(tmp_path, capsys):
    paths = register(tmp_path, "baseline")
    code = login(tmp_path, paths, extra=("--latency", "5000"))
    assert code == 3
    out = capsys.readouterr().out
    assert "freshness" in out
    assert "wire view: session terminated" in out  # the server refused the login


def test_a_reply_the_card_refuses_shows_both_messages_and_no_notice(
        tmp_path, capsys, monkeypatch):
    paths = register(tmp_path, "baseline")

    def refuse(env, pending, reply):
        raise AuthFailure("server authenticator mismatch")

    monkeypatch.setattr(baseline, "finish", refuse)
    assert login(tmp_path, paths) == 4
    out = capsys.readouterr().out
    assert "wire view: login and reply sent, no notice followed" in out
    assert "session terminated" not in out


def _absent_files(tmp_path):
    return ("--card", tmp_path / "absent.card", "--template", tmp_path / "absent.template",
            "--server-state", tmp_path / "absent.state")


@pytest.mark.parametrize("command", ["register", "login-run", "cost-report"])
@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_a_seed_outside_64_bits_is_refused_naming_the_option(
    tmp_path, capsys, command, seed
):
    options = {
        "register": ("--scheme", "baseline", "--id", "alice", "--password", "pw",
                     "--card-out", tmp_path / "alice.card",
                     "--server-state", tmp_path / "server.state"),
        "login-run": ("--id", "alice", "--password", "pw", *_absent_files(tmp_path),
                      "--out", tmp_path / "cap", "--leak"),
        "cost-report": ("--scheme", "baseline", "--out", tmp_path / "cost.json"),
    }[command]
    assert run_cli(command, *options, "--seed", seed) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: --seed must be in [0, 2**64), got %d" % seed in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option, value, why", [
    ("--latency", -5, "--latency must not be negative, got -5 ms"),
    ("--advance-ms", -1, "--advance-ms must not be negative, got -1 ms"),
    ("--noise-blocks", 129, "--noise-blocks must be in 0..128, got 129"),
    ("--noise-blocks", -1, "--noise-blocks must be in 0..128, got -1"),
], ids=["negative-latency", "negative-advance", "noise-past-128", "negative-noise"])
def test_login_run_refuses_a_bad_option_before_reading_any_file(
    tmp_path, capsys, option, value, why
):
    code = run_cli("login-run", "--id", "alice", "--password", "pw",
                   *_absent_files(tmp_path), "--out", tmp_path / "cap", option, value)
    assert code == 2
    assert capsys.readouterr() == ("", "error: %s\n" % why)
    assert list(tmp_path.iterdir()) == []


def test_login_run_refuses_leak_without_out_before_reading_any_file(tmp_path, capsys):
    # without --out the leak would be dropped silently
    code = run_cli("login-run", "--id", "alice", "--password", "pw",
                   *_absent_files(tmp_path), "--leak")
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --leak needs --out: the leak is written there\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("noise_blocks", [0, 128])
def test_login_run_takes_noise_in_no_block_or_every_block(tmp_path, capsys, noise_blocks):
    paths = register(tmp_path, "improved")
    assert login(tmp_path, paths, extra=("--noise-blocks", noise_blocks)) == 0
    assert "keys match: yes" in capsys.readouterr().out


def test_a_256_bit_template_logs_in_only_without_noise(tmp_path, capsys):
    config = tmp_path / "t256.cfg"
    config.write_text("template_bits = 256\n")
    paths = {"card": tmp_path / "alice.card", "template": tmp_path / "alice.template",
             "server": tmp_path / "server.state"}
    assert run_cli(
        "register", "--scheme", "baseline", "--config", config,
        "--id", "alice", "--password", "hunter-glacier", "--card-out", paths["card"],
        "--server-state", paths["server"], "--template-out", paths["template"],
    ) == 0
    capsys.readouterr()
    assert login(tmp_path, paths, extra=("--config", config)) == 2
    assert "noise in a 256-bit template cannot be corrected" in capsys.readouterr().err
    assert login(tmp_path, paths, extra=("--config", config, "--noise-blocks", 0)) == 0
    assert "keys match: yes" in capsys.readouterr().out


def test_login_run_advancing_the_clock_past_64_bits_names_the_clock(
    tmp_path, capsys
):
    paths = register(tmp_path, "baseline")
    capsys.readouterr()
    code = login(tmp_path, paths, extra=("--advance-ms", str(1 << 64)))
    assert code == 2
    err = capsys.readouterr().err
    assert "clock would reach 2**64 ms" in err
    assert "timestamp" not in err


def test_wrong_card_for_the_identity_is_rejected(tmp_path, capsys):
    paths = register(tmp_path, "baseline")
    code = login(tmp_path, paths, user="mallory")
    assert code == 4
    assert "local-auth" in capsys.readouterr().out


def test_baseline_attack_recovers_from_a_full_leak(tmp_path, capsys):
    paths = register(tmp_path, "baseline")
    capture = tmp_path / "capture"
    assert login(tmp_path, paths,
                 extra=("--out", str(capture), "--leak")) == 0
    honest = capsys.readouterr().out
    sk_line = next(l for l in honest.splitlines() if "(user)" in l)
    honest_sk = sk_line.split()[-1]

    words, expected_work = write_words(tmp_path, "hunter-glacier")
    report = tmp_path / "attack.json"
    code = run_cli(
        "attack",
        "--card", paths["card"],
        "--transcript", capture / "transcript.bin",
        "--template", paths["template"],
        "--leak", capture / "leak.json",
        "--dict", words, "--out", report,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "attack outcome: recovered" in out.splitlines()
    assert "password: hunter-glacier" in out
    assert "verifier evaluations: %d" % expected_work in out
    doc = json.loads(report.read_text())
    assert doc["status"] == "recovered"
    assert doc["session_key"] == honest_sk
    assert doc["identity"] == b"alice".ljust(16, b"\x00").hex()


def test_improved_attack_is_blocked_in_model(tmp_path, capsys):
    paths = register(tmp_path, "improved")
    capture = tmp_path / "capture"
    assert login(tmp_path, paths,
                 extra=("--out", str(capture), "--leak")) == 0
    words, _ = write_words(tmp_path, "hunter-glacier")
    capsys.readouterr()
    code = run_cli(
        "attack",
        "--card", paths["card"],
        "--transcript", capture / "transcript.bin",
        "--template", paths["template"],
        "--leak", capture / "leak.json",
        "--dict", words,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "attack outcome: insufficient_knowledge" in out.splitlines()
    assert "verifier evaluations: 0" in out
    assert "equation C_i blocked" in out


def test_improved_attack_flips_with_granted_timestamps(tmp_path, capsys):
    paths = register(tmp_path, "improved")
    capture = tmp_path / "capture"
    assert login(tmp_path, paths,
                 extra=("--out", str(capture), "--leak")) == 0
    honest = capsys.readouterr().out
    sk_line = next(l for l in honest.splitlines() if "(user)" in l)
    honest_sk = sk_line.split()[-1]

    words, _ = write_words(tmp_path, "hunter-glacier")
    # registration instants for the default simulated clock and latency
    grant = "%d,%d" % (DEFAULT_EPOCH_MS, DEFAULT_EPOCH_MS + 10)
    code = run_cli(
        "attack",
        "--card", paths["card"],
        "--transcript", capture / "transcript.bin",
        "--template", paths["template"],
        "--leak", capture / "leak.json",
        "--dict", words, "--grant-timestamps", grant,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "attack outcome: recovered" in out
    assert "out-of-model timestamps granted" in out
    assert "forged session key: %s" % honest_sk in out


def test_grant_timestamps_is_refused_for_the_baseline_scheme(tmp_path, capsys):
    paths = register(tmp_path, "baseline")
    capture = tmp_path / "capture"
    assert login(tmp_path, paths,
                 extra=("--out", str(capture), "--leak")) == 0
    words, _ = write_words(tmp_path, "hunter-glacier")
    code = run_cli(
        "attack",
        "--card", paths["card"],
        "--transcript", capture / "transcript.bin",
        "--dict", words, "--grant-timestamps", "1,2",
    )
    assert code == 2
    assert "improved scheme" in capsys.readouterr().err


@pytest.mark.parametrize("card_scheme, capture_scheme, reply_bytes", [
    ("baseline", "improved", 48), ("improved", "baseline", 64),
])
def test_a_transcript_of_the_other_scheme_is_refused(
    tmp_path, capsys, card_scheme, capture_scheme, reply_bytes
):
    """The reply gives the other scheme away: the replies differ in length.
    A transcript that holds only a login could not be told apart, since
    both schemes' logins are 64 bytes."""
    for scheme in (card_scheme, capture_scheme):
        (tmp_path / scheme).mkdir()
    card = register(tmp_path / card_scheme, card_scheme)["card"]
    capture = tmp_path / capture_scheme / "capture"
    assert login(tmp_path, register(tmp_path / capture_scheme, capture_scheme),
                 extra=("--out", str(capture))) == 0
    words, _ = write_words(tmp_path, "hunter-glacier")
    capsys.readouterr()
    code = run_cli("attack", "--card", card,
                   "--transcript", capture / "transcript.bin", "--dict", words)
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "triauth.%s.ReplyMessage must be %d bytes" % (card_scheme, reply_bytes) in err


@pytest.mark.parametrize("grant", ["", "5", "1,2,3", "a,b", "-5,3", "3,-5",
                                   "99999999999999999999999,3"])
def test_a_malformed_grant_is_refused_before_the_attack_runs(tmp_path, capsys, grant):
    paths = register(tmp_path, "improved")
    capture = tmp_path / "capture"
    assert login(tmp_path, paths,
                 extra=("--out", str(capture), "--leak")) == 0
    words, _ = write_words(tmp_path, "hunter-glacier")
    capsys.readouterr()
    code = run_cli(
        "attack",
        "--card", paths["card"],
        "--transcript", capture / "transcript.bin",
        "--dict", words, "--grant-timestamps=" + grant,  # "=": "-5,3" is no flag
    )
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--grant-timestamps must be T1,T2" in err
    assert "[0, 2**64)" in err


@pytest.mark.parametrize("scheme", ["baseline", "improved"])
def test_cost_report_prints_the_comparison_table(tmp_path, capsys, scheme):
    report = tmp_path / "costs.json"
    assert run_cli("cost-report", "--scheme", scheme, "--out", report) == 0
    out = capsys.readouterr().out
    assert "DISCREPANCY" in out  # measured hash totals differ from nominal
    assert "match" in out
    doc = json.loads(report.read_text())
    assert doc["scheme"] == scheme
    assert report.read_bytes() == (RECORDED_COSTS / ("%s.json" % scheme)).read_bytes()
    assert doc["session_healthy"] is True
    assert doc["wire"]["matches_nominal"] is True
    assert doc["storage"]["matches_nominal"] is True


def test_replay_records_then_verifies_then_detects_drift(tmp_path, capsys):
    scenario = SCENARIO_DIR / "baseline-attack.scenario"
    out = tmp_path / "recording"

    assert run_cli("replay", "--scenario", scenario, "--out", out) == 0
    assert "recorded scenario baseline-attack" in capsys.readouterr().out

    assert run_cli("replay", "--scenario", scenario, "--out", out) == 0
    assert "byte-identical" in capsys.readouterr().out

    with (out / "report.txt").open("a") as fh:
        fh.write("tampered\n")
    code = run_cli("replay", "--scenario", scenario, "--out", out)
    assert code == 5
    assert "replay drift: report.txt differs" in capsys.readouterr().out


def test_replay_against_a_recording_without_its_text_report_is_drift(tmp_path, capsys):
    scenario = SCENARIO_DIR / "baseline-attack.scenario"
    out = tmp_path / "recording"
    assert run_cli("replay", "--scenario", scenario, "--out", out) == 0
    capsys.readouterr()

    (out / "report.txt").unlink()
    assert run_cli("replay", "--scenario", scenario, "--out", out) == 5
    assert capsys.readouterr().out == "replay drift: report.txt missing\n"


def test_replay_compares_a_recording_that_lost_its_json_report(tmp_path, capsys):
    """An empty directory is recorded into; one that holds any recorded
    file is compared with, never recorded over, so the tampered text
    report is both reported and kept."""
    scenario = SCENARIO_DIR / "baseline-attack.scenario"
    out = tmp_path / "recording"
    out.mkdir()
    assert run_cli("replay", "--scenario", scenario, "--out", out) == 0
    assert "recorded scenario baseline-attack" in capsys.readouterr().out

    (out / "report.json").unlink()
    with (out / "report.txt").open("a") as fh:
        fh.write("tampered\n")
    assert run_cli("replay", "--scenario", scenario, "--out", out) == 5
    assert capsys.readouterr().out == (
        "replay drift: report.json missing\nreplay drift: report.txt differs\n")
    assert (out / "report.txt").read_text().endswith("\ntampered\n")
    assert not (out / "report.json").exists()


def test_verify_card_describes_a_good_card(tmp_path, capsys):
    paths = register(tmp_path, "improved")
    assert run_cli("verify-card", "--card", paths["card"]) == 0
    out = capsys.readouterr().out
    assert "card OK: improved scheme" in out
    assert "helper bits: 512" in out
    assert "declared fields: 10" in out


def test_verify_card_rejects_a_non_card_file(tmp_path, capsys):
    bogus = tmp_path / "bogus.card"
    bogus.write_text("not a card at all\n")
    assert run_cli("verify-card", "--card", bogus) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("hash_name, why", [
    ("nonsense", "unsupported hash type nonsense"),
    ("shake_128", "hash 'shake_128' cannot yield a 16-byte word"),
])
def test_verify_card_rejects_a_card_whose_hash_is_unusable(
    tmp_path, capsys, hash_name, why
):
    paths = register(tmp_path, "improved")  # its card stores no h field
    card = paths["card"]
    card.write_text(card.read_text().replace("hash: sha256", "hash: " + hash_name))
    capsys.readouterr()
    assert run_cli("verify-card", "--card", card) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "%s, line 3: %s" % (card, why) in err


def test_missing_input_file_is_a_precondition_failure(tmp_path, capsys):
    code = run_cli(
        "login-run", "--id", "a", "--password", "p",
        "--card", tmp_path / "absent.card",
        "--template", tmp_path / "absent.template",
        "--server-state", tmp_path / "absent.state",
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_config_hash_without_a_16_byte_word_is_a_precondition_failure(tmp_path, capsys):
    config = tmp_path / "shake.cfg"
    config.write_text("hash = shake_128\n")
    code = run_cli(
        "register", "--scheme", "improved", "--config", config,
        "--id", "alice", "--password", "pw",
        "--card-out", tmp_path / "alice.card",
        "--server-state", tmp_path / "server.state",
    )
    assert code == 2
    assert "line 1: hash 'shake_128' cannot yield a 16-byte word" in capsys.readouterr().err
    assert not (tmp_path / "alice.card").exists()


@pytest.mark.parametrize("text, status, why", [
    ("fast_mode = yes\n", 2, "line 1: unknown config key 'fast_mode'"),
    ("seed = 99999999999999999999999\n", 2, "line 1: seed must be in [0, 2**64)"),
    ("template_bits = 128\n", 0, None),  # 1-bit blocks: the probe reads them clean
], ids=["unknown-key", "seed-past-64-bits", "128-bit-template"])
def test_cost_report_reads_its_config_file(tmp_path, capsys, text, status, why):
    config = tmp_path / "c.cfg"
    config.write_text(text)
    assert run_cli("cost-report", "--scheme", "baseline", "--config", config) == status
    err = capsys.readouterr().err
    if why:
        assert "error: %s, %s" % (config, why) in err
    else:
        assert err == ""
