"""Scripted end-to-end runs: parse, execute, record, replay.

A scenario file is JSON describing a deterministic sequence of steps —
registrations, logins, server responses, clock movement, leaks to the
adversary, tampering, and attacks.  Every random draw comes from a
seed written in the file, every timestamp from the simulated clock, so
running the same scenario twice (or on another machine) produces
byte-identical transcripts and reports.  That identity is what the
replay command checks.

Step vocabulary::

    {"op": "register", "user": "alice", "id": "alice",
     "password": "...", "seed": 101}
    {"op": "advance-clock", "ms": 60000}
    {"op": "login", "user": "alice", "seed": 102, "noise_blocks": 16}
    {"op": "respond", "seed": 103}
    {"op": "finish"}
    {"op": "leak", "values": ["card", "biometric", "r_u", "r_s",
                              "transcript"]}
    {"op": "tamper", "message": "login", "field": "C_i", "mask": "01"}
    {"op": "attack", "dictionary": {"size": 1000, "seed": 9,
                                    "plant_at": 417}}

An attack step may instead reference {"file": "words.txt"}, and for
the improved scheme may set "grant_timestamps": true to run the
documented out-of-model control alongside the in-model attack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from . import adversary
from .channel import SERVER_TO_USER, USER_TO_SERVER, SimChannel, Transcript
from .core import (
    Env,
    ProtocolConfig,
    ProtocolError,
    SessionRng,
    SimClock,
    encode_text,
)
from .files import (
    json_report_bytes,
    load_dictionary,
    save_transcript,
    transcript_bytes,
    write_json_report,
)
from .fuzzy import BiometricTemplate, perturb_within_tolerance
from .session import Handshake, scheme_module

KNOWN_OPS = (
    "register",
    "login",
    "respond",
    "finish",
    "leak",
    "attack",
    "tamper",
    "advance-clock",
)

DEFAULT_EPOCH_MS = 1_700_000_000_000
LEAKABLE = ("card", "biometric", "r_u", "r_s", "transcript")

# The type of each top-level key of a scenario file, checked on load.
_HEADER_TYPES = {"name": str, "scheme": str, "seed": int, "steps": list,
                 "latency_ms": int, "epoch_ms": int, "delta_t_ms": int}
_KIND_NAMES = {str: "a string", int: "an integer", list: "a list of steps"}


@dataclass
class ScenarioScript:
    name: str
    scheme: str
    seed: int
    steps: list[dict]
    latency_ms: int = 10
    epoch_ms: int = DEFAULT_EPOCH_MS
    delta_t_ms: int | None = None

    def validate(self) -> None:
        scheme_module(self.scheme)
        for i, step in enumerate(self.steps, 1):
            op = step.get("op")
            if op not in KNOWN_OPS:
                raise ValueError("step %d: unknown op %r" % (i, op))


def load_scenario(path) -> ScenarioScript:
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError("%s: not valid JSON (%s)" % (path, exc)) from None
    if not isinstance(doc, dict):
        raise ValueError("%s: not a JSON object" % path)
    for need in ("name", "scheme", "seed", "steps"):
        if need not in doc:
            raise ValueError("%s: missing %r" % (path, need))
    for key, kind in _HEADER_TYPES.items():
        # bool is an int subclass, but true is no seed or latency
        if key in doc and (type(doc[key]) is bool or not isinstance(doc[key], kind)):
            raise ValueError("%s: %r must be %s" % (path, key, _KIND_NAMES[kind]))
    for i, step in enumerate(doc["steps"], 1):
        if not isinstance(step, dict):
            raise ValueError("%s: step %d is not an object" % (path, i))
    script = ScenarioScript(
        name=doc["name"],
        scheme=doc["scheme"],
        seed=doc["seed"],
        steps=doc["steps"],
        latency_ms=doc.get("latency_ms", 10),
        epoch_ms=doc.get("epoch_ms", DEFAULT_EPOCH_MS),
        delta_t_ms=doc.get("delta_t_ms"),
    )
    script.validate()
    return script


@dataclass
class ScenarioResult:
    report: dict
    text: str
    transcripts: dict[str, Transcript]


@dataclass
class _User:
    user_id: "bytes"
    password: str
    template: BiometricTemplate
    card: object = None


@dataclass
class _Session:
    session_id: str
    user: str
    seed: int
    handshake: Handshake
    pending: object = None
    r_u: int | None = None
    r_s: int | None = None
    sk_user: bytes | None = None
    sk_server: bytes | None = None
    error: str | None = None


class _Runner:
    def __init__(self, script: ScenarioScript, config: ProtocolConfig | None):
        self.script = script
        config = replace(config or ProtocolConfig())  # the caller's stays as it is
        if script.delta_t_ms is not None:
            config.delta_t_ms = script.delta_t_ms
        self.config = config
        self.env = Env.from_config(config, SimClock(script.epoch_ms))
        self.mod = scheme_module(script.scheme)
        self.server = self.mod.Server(self.env, rng=SessionRng(script.seed))
        self.users: dict[str, _User] = {}
        self.sessions: list[_Session] = []
        # transcripts by session: a later leak of a session replaces its copy
        self.pool: dict[str, object] = {"transcripts": {}}
        self.step_reports: list[dict] = []
        self.attack_reports: list[dict] = []
        self.at = ""  # "step N (op)" of the step being run, for error messages

    # -- step handlers --------------------------------------------------

    def run(self) -> ScenarioResult:
        for i, step in enumerate(self.script.steps, 1):
            self.at = "step %d (%s)" % (i, step["op"])
            handler = getattr(self, "_op_" + step["op"].replace("-", "_"))
            outcome = {"step": i, "op": step["op"]}
            outcome.update(handler(step))
            self.step_reports.append(outcome)
        return self._result()

    def _op_register(self, step) -> dict:
        rng = SessionRng(self._need(step, "seed"))
        name = self._need(step, "user")
        if name in self.users:
            return {"ok": False, "error": "user already defined"}
        user = _User(
            user_id=encode_text(step.get("id", name)),
            password=self._need(step, "password"),
            template=BiometricTemplate.random(rng, self.config.template_bits),
        )
        try:
            user.card = self.mod.register(
                self.env, self.server, user.user_id, user.password,
                user.template, rng, exchange_ms=self.script.latency_ms,
            )
        except ProtocolError as exc:
            return {"ok": False, "error": exc.code}
        self.users[name] = user
        return {"ok": True, "user": name}

    def _op_advance_clock(self, step) -> dict:
        self.env.clock.advance(self._need(step, "ms"))
        return {"ok": True, "now_ms": self.env.clock.now()}

    def _op_login(self, step) -> dict:
        user = self._user(self._need(step, "user"))
        seed = self._need(step, "seed")
        rng = SessionRng(seed)
        channel = SimChannel(
            self.env.clock,
            latency_ms=self.script.latency_ms,
            session_id="%s-s%03d" % (self.script.name, len(self.sessions) + 1),
            rng_seed=seed,
        )
        session = _Session(
            session_id="s%03d" % (len(self.sessions) + 1),
            user=step["user"],
            seed=seed,
            handshake=Handshake(self.mod, self.env, self.server, channel),
        )
        self.sessions.append(session)
        reading = perturb_within_tolerance(
            user.template, rng, step.get("noise_blocks", 16)
        )
        session.r_u = rng.exponent(self.env.params)
        try:
            _, session.pending = session.handshake.login(
                user.card, user.user_id, user.password, reading, session.r_u
            )
        except ProtocolError as exc:
            session.error = exc.code
            return {"ok": False, "session": session.session_id, "error": exc.code}
        return {"ok": True, "session": session.session_id}

    def _op_respond(self, step) -> dict:
        session = self._current()
        rng = SessionRng(self._need(step, "seed"))
        session.r_s = rng.exponent(self.env.params)
        try:
            _, session.sk_server = session.handshake.respond(
                session.r_s, processing_ms=step.get("processing_ms", 3)
            )
        except LookupError:
            return {"ok": False, "session": session.session_id,
                    "error": "nothing in flight"}
        except ProtocolError as exc:
            session.error = exc.code
            return {"ok": False, "session": session.session_id, "error": exc.code}
        return {"ok": True, "session": session.session_id}

    def _op_finish(self, step) -> dict:
        session = self._current()
        try:
            session.sk_user = session.handshake.finish(session.pending)
        except LookupError:
            # nothing arrived, so the session secrets are still unused
            return {"ok": False, "session": session.session_id,
                    "error": "no reply: session terminated"}
        except ProtocolError as exc:
            session.error = exc.code
            session.pending = None  # session secrets destroyed either way
            return {"ok": False, "session": session.session_id, "error": exc.code}
        session.pending = None
        match = (
            session.sk_server is not None and session.sk_user == session.sk_server
        )
        return {"ok": True, "session": session.session_id, "keys_match": match}

    def _op_leak(self, step) -> dict:
        session = self._current()
        user = self.users[session.user]
        values = step.get("values", list(LEAKABLE))
        for value in values:
            if value not in LEAKABLE:
                return {"ok": False, "error": "cannot leak %r" % value}
        if "card" in values:
            self.pool["card"] = user.card
        if "biometric" in values:
            self.pool["biometric"] = user.template
        if "r_u" in values:
            self.pool["r_u"] = session.r_u
            self.pool["r_u_session"] = session.session_id
        if "r_s" in values:
            self.pool["r_s"] = session.r_s
        if "transcript" in values:
            transcript = session.handshake.channel.transcript()
            self.pool["transcripts"][session.session_id] = transcript
        self.pool["victim"] = session.user
        return {"ok": True, "leaked": sorted(values), "session": session.session_id}

    def _op_tamper(self, step) -> dict:
        session = self._current()
        label = self._need(step, "message")
        direction = USER_TO_SERVER if label == "login" else SERVER_TO_USER
        fieldname = self._need(step, "field")
        mask = bytes.fromhex(self._need(step, "mask"))
        try:
            offset = adversary.field_offset(self.script.scheme, label, fieldname, mask)
        except ValueError as exc:
            return {"ok": False, "error": str(exc)}
        try:
            session.handshake.channel.corrupt_in_flight(direction, offset, mask)
        except LookupError:
            return {"ok": False, "error": "nothing in flight"}
        return {"ok": True, "message": label, "field": fieldname,
                "mask": mask.hex()}

    def _op_attack(self, step) -> dict:
        words, dict_note = self._dictionary(step)
        # the adversary reads the wire from the first transcript: with an
        # r_u held, only the wire of its own session can match it
        held = self.pool.get("r_u_session")
        transcripts = tuple(t for sid, t in self.pool["transcripts"].items()
                            if held in (None, sid))
        knowledge = adversary.AdversaryKnowledge.assemble(
            self.script.scheme,
            card=self.pool.get("card"),
            transcripts=transcripts,
            biometric=self.pool.get("biometric"),
            r_u=self.pool.get("r_u"),
            r_s=self.pool.get("r_s"),
            dictionary=words,
        )
        granted = None
        # the grant is the improved scheme's white-box control, the victim's
        # (T1, T2); a baseline record has none, so the plain attack runs
        if step.get("grant_timestamps"):
            victim = self._victim(step)
            granted = next(
                (tuple(ints) for uid, *ints in self.server.state_records()
                 if uid == victim.user_id and ints),
                None,
            )
        outcome = adversary.attack(knowledge, granted)
        entry = adversary.outcome_report(self.script.scheme, outcome)
        entry["dictionary"] = dict_note
        self.attack_reports.append(entry)
        return {"ok": True, "status": outcome.status, "work": outcome.work,
                "out_of_model": outcome.out_of_model}

    # -- helpers ---------------------------------------------------------

    def _need(self, step, key):
        """step[key]; ValueError naming the step if the script omits it."""
        if key not in step:
            raise ValueError("%s: missing %r" % (self.at, key))
        return step[key]

    def _user(self, name) -> _User:
        if name not in self.users:
            raise ValueError("%s: no user %r is defined" % (self.at, name))
        return self.users[name]

    def _victim(self, step) -> _User:
        """The user of the last leaked session, else the step's "user"."""
        name = self.pool["victim"] if "victim" in self.pool else self._need(step, "user")
        return self._user(name)

    def _current(self) -> _Session:
        if not self.sessions:
            raise ValueError("%s: no session yet: login must come first" % self.at)
        return self.sessions[-1]

    def _dictionary(self, step) -> tuple[list[str], dict]:
        spec = step.get("dictionary", {})
        if "file" in spec:
            return load_dictionary(spec["file"]), {"file": spec["file"]}
        size = spec.get("size", 1000)
        rng = SessionRng(spec.get("seed", self.script.seed))
        words = ["w%05d%04x" % (i, rng.below(1 << 16)) for i in range(size)]
        plant_at = spec.get("plant_at")
        note = {"size": size, "seed": spec.get("seed", self.script.seed)}
        if plant_at is not None:
            words.insert(plant_at, self._victim(step).password)
            note["plant_at"] = plant_at
        return words, note

    def _result(self) -> ScenarioResult:
        ledger = self.env.ledger
        sessions = {}
        transcripts = {}
        for s in self.sessions:
            sessions[s.session_id] = {
                "user": s.user,
                "seed": s.seed,
                "sk_user": s.sk_user.hex() if s.sk_user else None,
                "sk_server": s.sk_server.hex() if s.sk_server else None,
                "keys_match": bool(
                    s.sk_user and s.sk_server and s.sk_user == s.sk_server
                ),
                "error": s.error,
            }
            transcripts[s.session_id] = s.handshake.channel.transcript()
        report = {
            "name": self.script.name,
            "scheme": self.script.scheme,
            "seed": self.script.seed,
            "steps": self.step_reports,
            "sessions": sessions,
            "attacks": self.attack_reports,
            "costs": {
                "hash_by_phase": ledger.phase_table(),
                "hash_total": ledger.hash_total(),
                "modexp_total": ledger.modexp_total(),
                "wire_bits": ledger.wire_bits_total(),
            },
            "final_clock_ms": self.env.clock.now(),
        }
        return ScenarioResult(report, _render_text(report, transcripts), transcripts)


def _render_text(report: dict, transcripts: dict[str, Transcript]) -> str:
    lines = [
        "scenario %s (%s scheme, seed %d)"
        % (report["name"], report["scheme"], report["seed"])
    ]
    for step in report["steps"]:
        detail = " ".join(
            "%s=%s" % (k, v)
            for k, v in step.items()
            if k not in ("step", "op", "ok")
        )
        lines.append(
            "step %02d %-14s %s%s"
            % (
                step["step"],
                step["op"],
                "ok" if step["ok"] else "FAILED",
                (" " + detail) if detail else "",
            )
        )
    for sid, info in report["sessions"].items():
        lines.append(
            "session %s user=%s keys_match=%s error=%s"
            % (sid, info["user"], info["keys_match"], info["error"])
        )
    for i, attack in enumerate(report["attacks"], 1):
        lines.append(
            "attack %d status=%s work=%d out_of_model=%s"
            % (i, attack["status"], attack["work"], attack["out_of_model"])
        )
        if attack["password"]:
            lines.append(
                "  recovered password=%s identity=%s sk=%s"
                % (attack["password"], attack["identity"], attack["session_key"])
            )
        for gap in attack["gaps"]:
            lines.append(
                "  gap: equation %s unknown %s"
                % (gap["equation"], ",".join(gap["unknown"]))
            )
    for sid, transcript in transcripts.items():
        for entry in transcript.entries:
            lines.append(
                "wire %s %s %s at %d: %s"
                % (sid, entry.direction, entry.label, entry.captured_at,
                   entry.data.hex())
            )
    costs = report["costs"]
    lines.append(
        "costs hash_total=%d modexp_total=%d wire_bits=%d"
        % (costs["hash_total"], costs["modexp_total"], costs["wire_bits"])
    )
    return "\n".join(lines) + "\n"


def run_scenario(
    script: ScenarioScript, config: ProtocolConfig | None = None
) -> ScenarioResult:
    return _Runner(script, config).run()


def write_result(result: ScenarioResult, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json_report(result.report, out / "report.json")
    (out / "report.txt").write_text(result.text, "utf-8")
    tdir = out / "transcripts"
    tdir.mkdir(exist_ok=True)
    for sid, transcript in result.transcripts.items():
        save_transcript(transcript, tdir / ("%s.bin" % sid))


def compare_with_recording(result: ScenarioResult, out_dir) -> list[str]:
    """Byte-compare a fresh run against a recorded one; [] means identical."""
    out = Path(out_dir)
    mismatches = []
    if (out / "report.json").read_bytes() != json_report_bytes(result.report):
        mismatches.append("report.json differs")
    if (out / "report.txt").read_bytes() != result.text.encode("utf-8"):
        mismatches.append("report.txt differs")
    for sid, transcript in result.transcripts.items():
        path = out / "transcripts" / ("%s.bin" % sid)
        if not path.exists():
            mismatches.append("transcripts/%s.bin missing" % sid)
        elif path.read_bytes() != transcript_bytes(transcript):
            mismatches.append("transcripts/%s.bin differs" % sid)
    return mismatches
