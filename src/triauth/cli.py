"""Command-line interface.

Subcommands::

    register      enroll a user: writes card, template and server state
    login-run     full handshake over the simulated channel
    attack        offline dictionary attack from captured material
    cost-report   instrumented run vs the nominal cost figures
    replay        run a scenario; record it, or verify byte-identity
    verify-card   structural check of a card file

Exit codes: 0 success; 2 precondition or file-format problem;
3 freshness rejection; 4 authentication rejection (verifier or
unknown identity); 5 replay drift; 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import adversary
from .channel import WIRE_TERMINATION
from .core import (
    AuthFailure,
    Env,
    FreshnessFailure,
    LocalAuthFailure,
    ProtocolConfig,
    ProtocolError,
    RegistrationError,
    SessionRng,
    UnknownUser,
    derive_seed,
    encode_text,
)
from .costs import cost_report, format_cost_report
from .files import (
    FileFormatError,
    load_card,
    load_config,
    load_dictionary,
    load_leak,
    load_server,
    load_template,
    load_transcript,
    save_card,
    save_server,
    save_template,
    save_transcript,
    write_json_report,
)
from .fuzzy import KEY_BITS, BiometricTemplate, perturb_within_tolerance
from .scenario import (
    compare_with_recording,
    load_scenario,
    run_scenario,
    write_result,
)
from .session import SCHEMES, Handshake, scheme_of

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_PRECONDITION = 2
EXIT_FRESHNESS = 3
EXIT_AUTH = 4
EXIT_REPLAY_DRIFT = 5


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, FreshnessFailure):
        return EXIT_FRESHNESS
    if isinstance(exc, (AuthFailure, LocalAuthFailure, UnknownUser)):
        return EXIT_AUTH
    if isinstance(exc, RegistrationError):
        return EXIT_PRECONDITION
    return EXIT_UNEXPECTED


def _load_config(args) -> ProtocolConfig:
    """The --config file (or the defaults), its seed overridden by --seed;
    a --seed outside [0, 2**64) is refused before the file is read."""
    if args.seed is not None and not 0 <= args.seed < 1 << 64:
        raise ValueError("--seed must be in [0, 2**64), got %d" % args.seed)
    config = load_config(args.config) if args.config else ProtocolConfig()
    if args.seed is not None:
        config.seed = args.seed
    return config


def _print(line: str) -> None:
    sys.stdout.write(line + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _refuse_negative(option: str, ms: int) -> None:
    if ms < 0:
        raise ValueError("%s must not be negative, got %d ms" % (option, ms))


def _cmd_register(args) -> int:
    _refuse_negative("--latency", args.latency)  # checked before anything runs
    config = _load_config(args)
    env = Env.from_config(config)
    mod = SCHEMES[args.scheme]
    seed = config.seed
    rng = SessionRng(seed)

    state = Path(args.server_state)
    if state.exists():
        server = load_server(state, env)
        if scheme_of(server) != args.scheme:
            raise ValueError("%s holds %s server state" % (state, scheme_of(server)))
    else:
        server = mod.Server(env, rng=SessionRng(derive_seed(seed, "server-secret")))

    if args.template:
        template = load_template(args.template)
    else:
        template = BiometricTemplate.random(
            SessionRng(derive_seed(seed, "template")), config.template_bits
        )
    user_id = encode_text(args.id)
    card = mod.register(
        env, server, user_id, args.password, template, rng,
        exchange_ms=args.latency,
    )
    save_card(card, args.card_out)
    save_server(server, state)
    if args.template_out:
        save_template(template, args.template_out)
    _print("registered %s under the %s scheme" % (args.id, args.scheme))
    _print("card -> %s" % args.card_out)
    _print("server state -> %s" % args.server_state)
    if args.template_out:
        _print("template -> %s" % args.template_out)
    return EXIT_OK


def _cmd_login_run(args) -> int:
    if args.leak and not args.out:  # checked before any file is read
        raise ValueError("--leak needs --out: the leak is written there")
    _refuse_negative("--latency", args.latency)
    _refuse_negative("--advance-ms", args.advance_ms)
    if not 0 <= args.noise_blocks <= KEY_BITS:
        raise ValueError("--noise-blocks must be in 0..%d, got %d"
                         % (KEY_BITS, args.noise_blocks))
    config = _load_config(args)
    env = Env.from_config(config)
    server = load_server(args.server_state, env)
    card = load_card(args.card)
    scheme = scheme_of(card)
    if scheme_of(server) != scheme:
        raise ValueError("%s is a %s card; %s holds %s server state"
                         % (args.card, scheme, args.server_state, scheme_of(server)))
    template = load_template(args.template)
    seed = config.seed
    rng = SessionRng(seed)
    if args.advance_ms:
        env.clock.advance(args.advance_ms)

    session_id = "cli-%d" % seed
    handshake = Handshake(SCHEMES[scheme], env, server, latency_ms=args.latency,
                          session_id=session_id, rng_seed=seed)
    reading = perturb_within_tolerance(template, rng, args.noise_blocks)
    r_s = SessionRng(derive_seed(seed, "server-ephemeral")).exponent(env.params)

    try:
        handshake.login(card, encode_text(args.id), args.password, reading,
                        rng.exponent(env.params))
        handshake.respond(r_s, processing_ms=3)
        handshake.finish()
    except ProtocolError as exc:
        _print("session rejected locally: %s (%s)" % (exc, exc.code))
        _print("wire view: %s" % WIRE_TERMINATION)
        return _exit_code_for(exc)

    match = handshake.keys_match()
    _print("session %s complete" % session_id)
    _print("session key (user):   %s" % handshake.sk_user.hex())
    _print("session key (server): %s" % handshake.sk_server.hex())
    _print("keys match: %s" % ("yes" if match else "NO"))
    for where, n in env.ledger.phase_table().items():
        _print("hash %-24s %d" % (where, n))

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_transcript(handshake.channel.transcript(), out / "transcript.bin")
        _print("transcript -> %s" % (out / "transcript.bin"))
        if args.leak:
            leak = {
                "session": session_id,
                "seed": seed,
                "r_u": handshake.r_u,
                "r_s": handshake.r_s,
            }
            write_json_report(leak, out / "leak.json")
            _print("leaked session randomness -> %s" % (out / "leak.json"))
    return EXIT_OK if match else EXIT_UNEXPECTED


def _cmd_attack(args) -> int:
    granted = None
    if args.grant_timestamps is not None:  # checked before anything runs
        try:
            t1_ms, t2_ms = map(int, args.grant_timestamps.split(","))
            in_range = 0 <= t1_ms < 1 << 64 and 0 <= t2_ms < 1 << 64
        except ValueError:
            in_range = False
        if not in_range:
            raise ValueError("--grant-timestamps must be T1,T2 (two integers "
                             "in [0, 2**64) ms), got %r" % args.grant_timestamps)
        granted = (t1_ms, t2_ms)
    card = load_card(args.card)
    scheme = scheme_of(card)
    transcript = load_transcript(args.transcript)
    template = load_template(args.template) if args.template else None
    leak = load_leak(args.leak) if args.leak else {}
    words = load_dictionary(args.dict)

    knowledge = adversary.AdversaryKnowledge.assemble(
        scheme,
        card=card,
        transcripts=(transcript,),
        biometric=template,
        r_u=leak.get("r_u"),
        r_s=leak.get("r_s"),
        dictionary=words,
    )
    outcome = adversary.attack(knowledge, granted)

    _print("attack outcome: %s" % outcome.status)
    _print("verifier evaluations: %d" % outcome.work)
    if outcome.out_of_model:
        _print("NOTE: ran with out-of-model timestamps granted")
    if outcome.status == adversary.RECOVERED:
        _print("password: %s" % outcome.password)
        _print("identity: %s" % outcome.identity.hex())
        _print("forged session key: %s" % outcome.session_key.hex())
    for line in adversary.explain_gaps(outcome):
        _print(line)

    if args.out:
        write_json_report(adversary.outcome_report(scheme, outcome), args.out)
        _print("report -> %s" % args.out)
    return EXIT_OK


def _cmd_cost_report(args) -> int:
    config = _load_config(args)
    report = cost_report(args.scheme, config)
    _print(format_cost_report(report))
    if args.out:
        write_json_report(report, args.out)
        _print("report -> %s" % args.out)
    return EXIT_OK


def _cmd_replay(args) -> int:
    script = load_scenario(args.scenario)
    result = run_scenario(script)
    out = Path(args.out)
    if (out / "report.json").exists():
        mismatches = compare_with_recording(result, out)
        if mismatches:
            for m in mismatches:
                _print("replay drift: %s" % m)
            return EXIT_REPLAY_DRIFT
        _print("replay of %s is byte-identical to the recording" % script.name)
        return EXIT_OK
    write_result(result, out)
    _print("recorded scenario %s -> %s" % (script.name, out))
    for line in result.text.splitlines():
        _print(line)
    return EXIT_OK


def _cmd_verify_card(args) -> int:
    card = load_card(args.card)
    _print("card OK: %s scheme" % scheme_of(card))
    _print("hash: %s" % card.h)
    _print("group: p=%032x g=%d (verified safe prime)" % (card.p, card.g))
    _print("helper bits: %d" % card.P_i.nbits)
    _print("declared fields: %d" % len(card.FIELD_NAMES))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triauth",
        description="three-factor authentication scheme simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scheme_option(p):
        p.add_argument(
            "--scheme", choices=sorted(SCHEMES), required=True,
            help="which scheme variant",
        )

    def common(p):
        p.add_argument("--config", help="config file (key = value lines)")
        p.add_argument("--seed", type=int,
                       help="deterministic seed (default: the config's, else 1)")

    p = sub.add_parser("register", help="enroll a user and issue a card")
    scheme_option(p)
    common(p)
    p.add_argument("--id", required=True, help="identity (at most 16 UTF-8 bytes)")
    p.add_argument("--password", required=True)
    p.add_argument("--card-out", default="user.card")
    p.add_argument("--server-state", default="server.state")
    p.add_argument("--template", help="existing template file to enroll")
    p.add_argument("--template-out", help="where to save the enrolled template")
    p.add_argument("--latency", type=int, default=10,
                   help="secure-channel hop in ms")
    p.set_defaults(func=_cmd_register)

    p = sub.add_parser("login-run", help="run one full authentication")
    common(p)
    p.add_argument("--id", required=True)
    p.add_argument("--password", required=True)
    p.add_argument("--card", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--server-state", required=True)
    p.add_argument("--noise-blocks", type=int, default=16,
                   help="biometric reading noise (1 flip in this many blocks)")
    p.add_argument("--latency", type=int, default=10)
    p.add_argument("--advance-ms", type=int, default=60_000,
                   help="simulated time between registration and login")
    p.add_argument("--out", help="directory for transcript (and leak)")
    p.add_argument("--leak", action="store_true",
                   help="export session randomness for the attack command")
    p.set_defaults(func=_cmd_login_run)

    p = sub.add_parser("attack", help="offline dictionary attack")
    p.add_argument("--card", required=True, help="captured card file")
    p.add_argument("--transcript", required=True, help="captured transcript")
    p.add_argument("--template", help="victim's biometric template")
    p.add_argument("--leak", help="leak.json with session randomness")
    p.add_argument("--dict", required=True, help="password dictionary file")
    p.add_argument("--grant-timestamps",
                   help="T1,T2 in ms: explicit out-of-model grant "
                        "(improved scheme white-box control)")
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("cost-report", help="measured vs nominal costs")
    scheme_option(p)
    common(p)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=_cmd_cost_report)

    p = sub.add_parser("replay", help="record or verify a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True,
                   help="recording directory (created on first run)")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("verify-card", help="structural card file check")
    p.add_argument("--card", required=True)
    p.set_defaults(func=_cmd_verify_card)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProtocolError as exc:
        sys.stderr.write("rejected: %s (%s)\n" % (exc, exc.code))
        return _exit_code_for(exc)
    except (FileFormatError, ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_PRECONDITION
    except Exception as exc:  # pragma: no cover - last resort
        sys.stderr.write("unexpected error: %r\n" % exc)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
