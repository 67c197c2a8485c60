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
    {"op": "respond", "seed": 103, "processing_ms": 3}
    {"op": "finish"}
    {"op": "leak", "values": ["card", "biometric", "r_u", "r_s",
                              "transcript"]}
    {"op": "tamper", "message": "login", "field": "C_i", "mask": "01"}
    {"op": "attack", "dictionary": {"size": 1000, "seed": 9,
                                    "plant_at": 417}}

An attack step may instead reference {"file": "words.txt"}, read
relative to the directory of the scenario file (to the working
directory for a script built in code), and for the improved scheme may
set "grant_timestamps": true to run the documented out-of-model
control alongside the in-model attack.

The ops are the runner's ``_op_*`` handlers (``advance-clock`` runs
``_op_advance_clock``), and ``KNOWN_OPS`` is read from them.  Leaks are
held as ``AdversaryKnowledge.assemble``'s keyword arguments, plus the
leaked transcripts by session.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from . import adversary
from .channel import Transcript
from .core import (
    DEFAULT_DELTA_T_MS,
    DEFAULT_EPOCH_MS,
    FIELD_BYTES,
    Env,
    ProtocolConfig,
    ProtocolError,
    SessionRng,
    SimClock,
    encode_text,
)
from .files import (
    MAX_SESSION_ID_BYTES,
    FileFormatError,
    json_report_bytes,
    load_dictionary,
    read_file,
    read_json,
    transcript_bytes,
    write_file,
)
from .fuzzy import BiometricTemplate, perturb_within_tolerance
from .session import Handshake, scheme_module, wire_message, wire_traffic

LEAKABLE = ("card", "biometric", "r_u", "r_s", "transcript")

_KIND_NAMES = {str: "a string", int: "an integer", list: "a list",
               dict: "an object", bool: "true or false"}


@dataclass
class ScenarioScript:
    name: str
    scheme: str
    seed: int
    steps: list[dict]
    latency_ms: int = 10
    epoch_ms: int = DEFAULT_EPOCH_MS
    delta_t_ms: int = DEFAULT_DELTA_T_MS
    # the file the script was read from, beside which a relative
    # {"file": ...} dictionary is read; None: read from the working directory
    source: str | Path | None = None

    def validate(self) -> None:
        scheme_module(self.scheme)
        for key in ("seed", "epoch_ms"):
            if not 0 <= getattr(self, key) < (1 << 64):
                raise ValueError("%r must be in [0, 2**64)" % key)
        for key in ("latency_ms", "delta_t_ms"):
            if getattr(self, key) < 0:
                raise ValueError("%r must not be negative" % key)
        if self.latency_ms >= 1 << 64:  # no hop fits the clock's range
            raise ValueError("'latency_ms' must be below 2**64")
        try:
            longest = len(_channel_session_id(self.name, len(self.steps)).encode("utf-8"))
        except UnicodeEncodeError:  # a lone surrogate, which JSON can spell
            raise ValueError("'name' is not text a transcript can hold: "
                             "it has no UTF-8 encoding") from None
        if longest > MAX_SESSION_ID_BYTES:
            raise ValueError("'name' is too long: its session ids reach %d bytes, "
                             "a transcript holds at most %d"
                             % (longest, MAX_SESSION_ID_BYTES))
        for i, step in enumerate(self.steps, 1):
            if not isinstance(step, dict):
                raise ValueError("step %d is not an object" % i)
            if step.get("op") not in KNOWN_OPS:
                raise ValueError("step %d: unknown op %r" % (i, step.get("op")))


def _channel_session_id(name: str, number: int) -> str:
    """The transcript's session id of the scenario's `number`th login."""
    return "%s-s%03d" % (name, number)


def load_scenario(path) -> ScenarioScript:
    doc = read_json(path, "valid JSON")
    if not isinstance(doc, dict):
        raise FileFormatError("%s: not a JSON object" % path)
    if not isinstance(doc.get("steps", []), list):
        raise FileFormatError("%s: 'steps' must be a list of steps" % path)
    try:
        script = ScenarioScript(
            name=_need(doc, "name", str),
            scheme=_need(doc, "scheme", str),
            seed=_need(doc, "seed", int),
            steps=_need(doc, "steps", list),
            source=path,
            # the optional keys the file holds; ScenarioScript has the defaults
            **{key: _need(doc, key, int)
               for key in ("latency_ms", "epoch_ms", "delta_t_ms") if key in doc},
        )
        script.validate()
    except ValueError as exc:
        raise FileFormatError("%s: %s" % (path, exc)) from None
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
    error: str | None = None


class _Runner:
    def __init__(self, script: ScenarioScript):
        script.validate()  # a script built in code is checked as a file's is
        self.script = script
        self.config = ProtocolConfig(delta_t_ms=script.delta_t_ms)
        self.env = Env.from_config(self.config, SimClock(script.epoch_ms))
        self.mod = scheme_module(script.scheme)
        self.server = self.mod.Server(self.env, rng=SessionRng(script.seed))
        self.users: dict[str, _User] = {}
        self.sessions: list[_Session] = []
        # what the leaks gave the adversary: `assemble`'s keyword arguments,
        # and transcripts by session (a later leak of one replaces its copy)
        self.leaked: dict[str, object] = {}
        self.transcripts: dict[str, Transcript] = {}
        self.r_u_session: str | None = None  # the session r_u is from
        self.victim: str | None = None  # the user of the last leaked session
        self.step_reports: list[dict] = []
        self.attack_reports: list[dict] = []

    # -- step handlers --------------------------------------------------

    def run(self) -> ScenarioResult:
        for i, step in enumerate(self.script.steps, 1):
            handler = _HANDLERS[step["op"]]
            outcome = {"step": i, "op": step["op"]}
            try:
                outcome.update(handler(self, step))
            except ValueError as exc:  # a fault of the script: name its step
                raise ValueError("step %d (%s): %s" % (i, step["op"], exc)) from None
            self.step_reports.append(outcome)
        return self._result()

    def _op_register(self, step) -> dict:
        rng = SessionRng(_need(step, "seed", int))
        name = _need(step, "user", str)
        if name in self.users:
            return {"ok": False, "error": "user already defined"}
        user = _User(
            user_id=encode_text(_get(step, "id", str, name)),
            password=_need(step, "password", str),
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
        self.env.clock.advance(_need(step, "ms", int))
        return {"ok": True, "now_ms": self.env.clock.now()}

    def _op_login(self, step) -> dict:
        user = self._user(_need(step, "user", str))
        seed = _need(step, "seed", int)
        rng = SessionRng(seed)
        number = len(self.sessions) + 1
        session = _Session(
            session_id="s%03d" % number,
            user=step["user"],
            seed=seed,
            handshake=Handshake(
                self.env, self.server,
                latency_ms=self.script.latency_ms,
                session_id=_channel_session_id(self.script.name, number),
                rng_seed=seed,
            ),
        )
        self.sessions.append(session)
        reading = perturb_within_tolerance(
            user.template, rng, _get(step, "noise_blocks", int, 16)
        )
        # the user's own password, card and a correctable reading: the card
        # always accepts its holder
        session.handshake.login(user.card, user.user_id, user.password, reading,
                                rng.exponent(self.env.params))
        return {"ok": True, "session": session.session_id}

    def _op_respond(self, step) -> dict:
        session = self._current()
        r_s = SessionRng(_need(step, "seed", int)).exponent(self.env.params)
        try:
            session.handshake.respond(
                r_s, processing_ms=_get(step, "processing_ms", int, 3)
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
            session.handshake.finish()
        except LookupError:
            return {"ok": False, "session": session.session_id,
                    "error": "no reply: session terminated"}
        except ProtocolError as exc:
            session.error = exc.code
            return {"ok": False, "session": session.session_id, "error": exc.code}
        return {"ok": True, "session": session.session_id,
                "keys_match": session.handshake.keys_match()}

    def _op_leak(self, step) -> dict:
        values = _get(step, "values", list, list(LEAKABLE))
        session = self._current()
        for value in values:
            if value not in LEAKABLE:
                return {"ok": False, "error": "cannot leak %r" % value}
        user = self.users[session.user]
        handshake = session.handshake
        table = {"card": user.card, "biometric": user.template,
                 "r_u": handshake.r_u, "r_s": handshake.r_s}
        self.leaked.update((name, table[name]) for name in values if name in table)
        if "r_u" in values:
            self.r_u_session = session.session_id
        if "transcript" in values:
            self.transcripts[session.session_id] = handshake.channel.transcript()
        self.victim = session.user
        return {"ok": True, "leaked": sorted(values), "session": session.session_id}

    def _op_tamper(self, step) -> dict:
        label = _need(step, "message", str)
        fieldname = _need(step, "field", str)
        mask = bytes.fromhex(_need(step, "mask", str))
        session = self._current()
        try:
            direction, message = wire_message(self.mod, label)
        except ValueError as exc:
            return {"ok": False, "error": str(exc)}
        offset = message.OFFSETS.get(fieldname)
        if offset is None:
            return {"ok": False,
                    "error": "message %r has no field %r" % (label, fieldname)}
        if len(mask) > FIELD_BYTES:
            return {"ok": False, "error": "mask longer than a field"}
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
        transcripts = tuple(t for sid, t in self.transcripts.items()
                            if self.r_u_session in (None, sid))
        knowledge = adversary.AdversaryKnowledge.assemble(
            self.script.scheme, transcripts=transcripts, dictionary=words,
            **self.leaked,
        )
        granted = None
        # the grant is the victim's record times; adversary.attack refuses
        # the empty grant of a baseline record
        if _get(step, "grant_timestamps", bool, False):
            victim = self._victim(step)
            granted = next(
                (tuple(ints) for uid, *ints in self.server.records
                 if uid == victim.user_id),
                None,
            )
        outcome = adversary.attack(knowledge, granted)
        entry = adversary.outcome_report(self.script.scheme, outcome)
        entry["dictionary"] = dict_note
        self.attack_reports.append(entry)
        return {"ok": True, "status": outcome.status, "work": outcome.work,
                "out_of_model": outcome.out_of_model}

    # -- helpers ---------------------------------------------------------

    def _user(self, name) -> _User:
        if name not in self.users:
            raise ValueError("no user %r is defined" % name)
        return self.users[name]

    def _victim(self, step) -> _User:
        """The user of the last leaked session, else the step's "user"."""
        return self._user(self.victim if self.victim is not None
                          else _need(step, "user", str))

    def _current(self) -> _Session:
        if not self.sessions:
            raise ValueError("no session yet: login must come first")
        return self.sessions[-1]

    def _dictionary(self, step) -> tuple[list[str], dict]:
        spec = _get(step, "dictionary", dict, {})
        if "file" in spec:
            path = _need(spec, "file", str)  # recorded as written
            source = self.script.source
            full = str(Path(source).parent / path) if source is not None else path
            try:
                return load_dictionary(full), {"file": path}
            except OSError as exc:  # a file the script names is its fault too
                # named as the script writes it, then where that led
                reason = str(OSError(exc.errno, exc.strerror, path))
                if full != path:
                    reason += " (resolved to %r)" % full
                raise ValueError(reason) from None
        size = _get(spec, "size", int, 1000)
        seed = _get(spec, "seed", int, self.script.seed)
        plant_at = _get(spec, "plant_at", int, None)
        if size < 0:
            raise ValueError("'size' must not be negative")
        if plant_at is not None and not 0 <= plant_at <= size:
            raise ValueError("'plant_at' must be in 0..%d" % size)
        rng = SessionRng(seed)
        words = ["w%05d%04x" % (i, rng.below(1 << 16)) for i in range(size)]
        note = {"size": size, "seed": seed}
        if plant_at is not None:
            words.insert(plant_at, self._victim(step).password)
            note["plant_at"] = plant_at
        return words, note

    def _result(self) -> ScenarioResult:
        ledger = self.env.ledger
        sessions = {}
        transcripts = {}
        for s in self.sessions:
            handshake = s.handshake
            sessions[s.session_id] = {
                "user": s.user,
                "seed": s.seed,
                "sk_user": handshake.sk_user.hex() if handshake.sk_user else None,
                "sk_server": handshake.sk_server.hex() if handshake.sk_server else None,
                "keys_match": handshake.keys_match(),
                "error": s.error,
            }
            transcripts[s.session_id] = handshake.channel.transcript()
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
                "wire_bits": sum(bits for t in transcripts.values()
                                 for _, bits in wire_traffic(t)),
            },
            "final_clock_ms": self.env.clock.now(),
        }
        return ScenarioResult(report, _render_text(report, transcripts), transcripts)


# Each op's handler: "advance-clock" is _Runner._op_advance_clock
_HANDLERS = {name[len("_op_"):].replace("_", "-"): handler
             for name, handler in vars(_Runner).items() if name.startswith("_op_")}
KNOWN_OPS = tuple(_HANDLERS)


def _need(doc: dict, key: str, kind: type):
    """doc[key], checked as `_get` does; ValueError if it is missing."""
    if key not in doc:
        raise ValueError("missing %r" % key)
    return _get(doc, key, kind, None)


def _get(doc: dict, key: str, kind: type, default):
    """doc[key], or `default` if it is absent; ValueError if it is
    not a `kind` (bool is no integer, though Python makes it one)."""
    if key not in doc:
        return default
    value = doc[key]
    if (type(value) is bool and kind is not bool) or not isinstance(value, kind):
        raise ValueError("%r must be %s" % (key, _KIND_NAMES[kind]))
    return value


def _render_text(report: dict, transcripts: dict[str, Transcript]) -> str:
    lines = [
        "scenario %s (%s scheme, seed %d)"
        % (report["name"], report["scheme"], report["seed"])
    ]
    for step in report["steps"]:
        detail = "".join([" %s=%s" % item for item in step.items()
                          if item[0] not in ("step", "op", "ok")])
        lines.append(
            "step %02d %-14s %s%s"
            % (step["step"], step["op"], "ok" if step["ok"] else "FAILED", detail)
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


def run_scenario(script: ScenarioScript) -> ScenarioResult:
    """Run `script` under the default protocol settings and its header's
    freshness window: the file is the whole input."""
    return _Runner(script).run()


def _artifacts(result: ScenarioResult) -> list[tuple[str, bytes]]:
    """What a recording holds: (path relative to its directory, bytes)."""
    return [
        ("report.json", json_report_bytes(result.report)),
        ("report.txt", result.text.encode("utf-8")),
        *(("transcripts/%s.bin" % sid, transcript_bytes(t))
          for sid, t in result.transcripts.items()),
    ]


def write_result(result: ScenarioResult, out_dir) -> None:
    """Record `result` in `out_dir`, one open and write per file; the
    transcripts/ folder is made only when the run has a session."""
    out = os.fspath(out_dir)
    os.makedirs(os.path.join(out, "transcripts") if result.transcripts else out,
                exist_ok=True)
    for name, data in _artifacts(result):
        write_file(os.path.join(out, name), data)


def compare_with_recording(result: ScenarioResult, out_dir) -> list[str]:
    """Byte-compare a fresh run against a recorded one; [] means identical.

    Each artifact is missing or differs, in the order it is written; then
    each transcript in the recording that the run did not produce is
    unexpected, by name."""
    out = os.fspath(out_dir)
    artifacts = _artifacts(result)
    mismatches = []
    for name, data in artifacts:
        try:
            if read_file(os.path.join(out, name)) != data:
                mismatches.append("%s differs" % name)
        except FileNotFoundError:
            mismatches.append("%s missing" % name)
    try:
        listed = os.listdir(os.path.join(out, "transcripts"))
    except FileNotFoundError:
        listed = []
    produced = {name for name, _ in artifacts}
    mismatches.extend(
        "transcripts/%s unexpected" % name for name in sorted(listed)
        if name.endswith(".bin") and "transcripts/" + name not in produced
    )
    return mismatches


def record_or_compare(result: ScenarioResult, out_dir) -> list[str] | None:
    """Record `result` in `out_dir` when that directory is missing or
    empty, returning None; otherwise compare it with what the directory
    holds (:func:`compare_with_recording`), so a recording that lost any
    of its files is reported, never recorded over."""
    out = os.fspath(out_dir)
    try:
        recorded = os.listdir(out)
    except FileNotFoundError:
        recorded = []
    if recorded:
        return compare_with_recording(result, out)
    write_result(result, out)
    return None
