"""The four benchmark workloads.

Each workload is a closed loop with one client: the next operation is
generated (untimed) and run (timed) only after the previous one
returned.  A workload object holds the inputs generated from its seed;
``setup`` builds the system state from them (timed as ``setup_s``),
``ops`` yields the operation inputs in a fixed order, and ``run``
performs one operation and returns whether its checked result was
right.  Expected rejections count as right when the expected error is
raised.

Every input comes from ``random.Random`` seeded with the workload
seed, so one seed always gives the same inputs and the same
operations; the program only ever sees the generated values.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field, replace
from itertools import count
from pathlib import Path

import speed
from triauth import adversary, baseline, improved, scenario
from triauth.channel import SERVER_TO_USER, USER_TO_SERVER, SimChannel
from triauth.core import (
    DEFAULT_P,
    AuthFailure,
    Env,
    Field128,
    FreshnessFailure,
    LocalAuthFailure,
    ProtocolConfig,
    ProtocolError,
    SessionRng,
    SimClock,
    UnknownUser,
    encode_text,
)
from triauth.fuzzy import BiometricTemplate, perturb_within_tolerance

EPOCH_MS = 1_700_000_000_000
LATENCY_MS = 10
TEMPLATE_BITS = 512
SCHEMES = {
    baseline.SCHEME: (baseline, baseline.BaselineServer),
    improved.SCHEME: (improved, improved.ImprovedServer),
}

# An expected rejection whose error type the program does not fix yet:
# a baseline A1 or A4 pushed outside (0, p) is rejected today with a
# bare ValueError, not a ProtocolError.  Any rejection passes; the bare
# ValueErrors are counted so the defect stays visible.
ANY_REJECTION = object()

# Expected verdict of a single-bit flip per (scheme, message, field),
# given the bit lies where the generator puts it.  Timestamp-like
# fields are flipped only in their high half, where the result is
# never a well-formed timestamp.
_FLIP_VERDICT = {
    (baseline.SCHEME, "login", "NID"): UnknownUser,  # AuthFailure if ID' enrolled
    (baseline.SCHEME, "login", "A1"): UnknownUser,
    (baseline.SCHEME, "login", "C_i"): AuthFailure,
    (baseline.SCHEME, "login", "T1"): FreshnessFailure,
    (baseline.SCHEME, "reply", "Cs"): AuthFailure,
    (baseline.SCHEME, "reply", "A4"): AuthFailure,
    (baseline.SCHEME, "reply", "T3"): FreshnessFailure,
    (improved.SCHEME, "login", "NID"): AuthFailure,
    (improved.SCHEME, "login", "A11"): AuthFailure,
    (improved.SCHEME, "login", "C_i"): AuthFailure,
    (improved.SCHEME, "login", "Q"): UnknownUser,
    (improved.SCHEME, "reply", "Cs"): AuthFailure,
    (improved.SCHEME, "reply", "A44"): AuthFailure,
    (improved.SCHEME, "reply", "P"): AuthFailure,
    (improved.SCHEME, "reply", "Q2"): AuthFailure,
}
_HIGH_HALF_ONLY = {"T1", "T3", "Q"}
_WIRE = {
    (baseline.SCHEME, "login"): baseline.LOGIN_WIRE,
    (baseline.SCHEME, "reply"): baseline.REPLY_WIRE,
    (improved.SCHEME, "login"): improved.LOGIN_WIRE,
    (improved.SCHEME, "reply"): improved.REPLY_WIRE,
}


def _rng(seed: int, label: str) -> random.Random:
    return random.Random("%d:%s" % (seed, label))


def _template(rnd: random.Random) -> BiometricTemplate:
    return BiometricTemplate(rnd.randbytes(TEMPLATE_BITS // 8), TEMPLATE_BITS)


def _password(rnd: random.Random) -> str:
    # dictionary words are bare hex, so a password never collides with one
    return "pw-%08x" % rnd.getrandbits(32)


def _exponent(rnd: random.Random) -> int:
    return 2 + rnd.randrange(DEFAULT_P - 3)


@dataclass
class User:
    uid: Field128
    password: str
    template: BiometricTemplate
    seed: int  # registration randomness (N and the extractor key)
    gap_ms: int = 1  # clock advance before registering
    card: object = None


def _register(mod, env, server, user: User, exchange_ms: int = LATENCY_MS):
    env.clock.advance(user.gap_ms)
    return mod.register(
        env, server, user.uid, user.password, user.template,
        SessionRng(user.seed), exchange_ms=exchange_ms,
    )


@dataclass
class Party:
    """One scheme's server side, its environment and enrolled users."""

    scheme: str
    mod: object
    env: Env
    server: object
    users: list[User] = field(default_factory=list)


def _party(scheme: str, secret_seed: int) -> Party:
    mod, server_cls = SCHEMES[scheme]
    env = Env.from_config(ProtocolConfig(), SimClock(EPOCH_MS))
    return Party(scheme, mod, env, server_cls(env, rng=SessionRng(secret_seed)))


# ---------------------------------------------------------------------------
# Sessions: login -> channel -> respond -> channel -> finish
# ---------------------------------------------------------------------------

@dataclass
class Tamper:
    message: str  # "login" or "reply"
    index: int  # field position in the message's wire layout
    mask: bytes | None  # bits to flip; None sets the field to p + offset
    offset: int = 0


@dataclass
class Login:
    party: int  # index into the state's parties
    user: int
    password: str
    reading: BiometricTemplate
    r_u: int
    r_s: int
    gap_ms: int
    tamper: Tamper | None = None
    expect: object = None  # None: keys agree; else the rejection


@dataclass
class Garbage:
    """Random bytes sent as a login message."""

    party: int
    raw: bytes
    r_s: int
    gap_ms: int
    expect: object = UnknownUser


@dataclass
class Stats:
    bare_valueerror_rejects: int = 0


def _tamper_in_flight(channel, direction, raw, tamper: Tamper):
    mask = tamper.mask
    if mask is None:
        word = raw[16 * tamper.index: 16 * tamper.index + 16]
        target = (DEFAULT_P + tamper.offset).to_bytes(16, "big")
        mask = bytes(a ^ b for a, b in zip(word, target))
    channel.corrupt_in_flight(direction, 16 * tamper.index, mask)


def _verdict(party: Party, stats: Stats, expect, exc) -> bool:
    if isinstance(exc, ProtocolError):
        return expect is ANY_REJECTION or type(exc) is expect
    if party.scheme == baseline.SCHEME:
        stats.bare_valueerror_rejects += 1
        return expect is not None
    return False


def run_session(party: Party, stats: Stats, item) -> bool:
    mod, env, server = party.mod, party.env, party.server
    env.clock.advance(item.gap_ms)
    channel = SimChannel(env.clock, latency_ms=LATENCY_MS)
    try:
        if isinstance(item, Garbage):
            channel.send(USER_TO_SERVER, "login", item.raw)
        else:
            user = party.users[item.user]
            with env.ledger.scope("login", "user"):
                msg, pending = mod.login(
                    env, user.card, user.uid, item.password, item.reading, item.r_u
                )
            raw = msg.encode()
            channel.send(USER_TO_SERVER, "login", raw)
            if item.tamper and item.tamper.message == "login":
                _tamper_in_flight(channel, USER_TO_SERVER, raw, item.tamper)
        try:
            with env.ledger.scope("authentication", "server"):
                reply, sk_server = server.respond(
                    mod.LoginMessage.decode(channel.recv(USER_TO_SERVER)), item.r_s
                )
        except (ProtocolError, ValueError):
            channel.terminate(SERVER_TO_USER)
            raise
        if isinstance(item, Garbage):
            return False
        raw = reply.encode()
        channel.send(SERVER_TO_USER, "reply", raw)
        if item.tamper and item.tamper.message == "reply":
            _tamper_in_flight(channel, SERVER_TO_USER, raw, item.tamper)
        with env.ledger.scope("authentication", "user"):
            sk_user = mod.finish(
                env, pending, mod.ReplyMessage.decode(channel.recv(SERVER_TO_USER))
            )
    except (ProtocolError, ValueError) as exc:
        return _verdict(party, stats, item.expect, exc)
    return item.expect is None and sk_user == sk_server


def _login_item(rnd, party_ix, party: Party, user_ix: int, reject: str | None) -> Login:
    """An honest login, or the expected rejection named by ``reject``."""
    user = party.users[user_ix]
    item = Login(
        party=party_ix,
        user=user_ix,
        password=user.password,
        reading=perturb_within_tolerance(
            user.template, SessionRng(rnd.getrandbits(64)), rnd.randint(4, 16)
        ),
        r_u=_exponent(rnd),
        r_s=_exponent(rnd),
        gap_ms=60_000 + rnd.randrange(1000),
    )
    if reject == "password":
        item.password = user.password + "!"
        item.expect = LocalAuthFailure
    elif reject == "range":  # baseline only: A1 or A4 at or above p
        message = rnd.choice(("login", "reply"))
        index = _WIRE[(party.scheme, message)].index("A1" if message == "login" else "A4")
        item.tamper = Tamper(message, index, None, rnd.randrange((1 << 128) - DEFAULT_P))
        item.expect = ANY_REJECTION
    elif reject in ("login", "reply", "forge"):
        message = "login" if reject == "forge" else reject
        names = _WIRE[(party.scheme, message)]
        name = "C_i" if reject == "forge" else rnd.choice(names)
        bit = rnd.randrange(64 if name in _HIGH_HALF_ONLY else 128)
        mask = (1 << (127 - bit)).to_bytes(16, "big")
        item.tamper = Tamper(message, names.index(name), mask)
        item.expect = _FLIP_VERDICT[(party.scheme, message, name)]
        if (party.scheme, name) == (baseline.SCHEME, "NID"):
            flipped = user.uid ^ mask
            if any(u.uid == flipped for u in party.users):
                item.expect = AuthFailure  # another enrolled identity
    return item


class Workload:
    """Interface shared by the four workloads (see the module docstring)."""

    name = ""
    setup_repeats = 5
    count_ops = 100  # operations in the exact-count pass
    epoch_ops = None  # operations before the loop rebuilds the state

    def __init__(self, seed: int, small: bool, scratch: Path):
        self.seed = seed
        self.small = small
        self.scratch = scratch

    def setup(self):
        raise NotImplementedError

    def ops(self, state, epoch: int):
        """Operation inputs for one epoch; the same for the same seed."""
        raise NotImplementedError

    def run(self, state, item) -> bool:
        raise NotImplementedError

    def ledgers(self, state):
        """(scheme, CostLedger) pairs that the operations count into."""
        return [(p.scheme, p.env.ledger) for p in state.parties]

    def loop_extras(self, state, latencies_ns) -> dict:
        """Workload-specific figures from an untraced loop's scaled latencies."""
        return {}

    def count_extras(self, state, op_hashes, hash_count) -> dict:
        """Workload-specific exact counts, taken with tracing installed.

        ``op_hashes`` holds the hash calls of each counted operation;
        ``hash_count()`` reads the running total.
        """
        return {}

    def close(self) -> None:
        pass


@dataclass
class PartiesState:
    parties: list[Party]
    stats: Stats = field(default_factory=Stats)


# ---------------------------------------------------------------------------
# honest-sessions
# ---------------------------------------------------------------------------

class HonestSessions(Workload):
    """Full sessions alternating between the schemes, ~8 users each.

    About one operation in ten is an expected rejection: a wrong
    password, a single-bit flip of a login or reply field, or (baseline
    only) an A1/A4 pushed outside (0, p).
    """

    name = "honest-sessions"
    setup_repeats = 15
    count_ops = 600  # enough for a few bare ValueError rejections at seed 0
    users_per_scheme = 8
    reject_share = 0.1
    _rejects = {
        baseline.SCHEME: ("password", "login", "reply", "range"),
        improved.SCHEME: ("password", "login", "reply"),
    }

    def __init__(self, seed, small, scratch):
        super().__init__(seed, small, scratch)
        rnd = _rng(seed, self.name)
        self.users = {
            scheme: [
                User(
                    encode_text("%s-%02d" % (scheme[0], i)), _password(rnd),
                    _template(rnd), rnd.getrandbits(64), 1 + rnd.randrange(5000),
                )
                for i in range(self.users_per_scheme)
            ]
            for scheme in SCHEMES
        }
        self.secret_seeds = {scheme: rnd.getrandbits(64) for scheme in SCHEMES}

    def setup(self):
        parties = []
        for scheme in SCHEMES:
            party = _party(scheme, self.secret_seeds[scheme])
            for user in self.users[scheme]:
                user = replace(user)
                user.card = _register(party.mod, party.env, party.server, user)
                party.users.append(user)
            parties.append(party)
        return PartiesState(parties)

    def ops(self, state, epoch):
        rnd = _rng(self.seed, "%s/ops/%d" % (self.name, epoch))
        for i in count():
            party_ix = i % 2
            party = state.parties[party_ix]
            reject = None
            if rnd.random() < self.reject_share:
                reject = rnd.choice(self._rejects[party.scheme])
            yield _login_item(
                rnd, party_ix, party, rnd.randrange(len(party.users)), reject
            )

    def run(self, state, item) -> bool:
        return run_session(state.parties[item.party], state.stats, item)


# ---------------------------------------------------------------------------
# crowded-server
# ---------------------------------------------------------------------------

@dataclass
class Register:
    user: User


class CrowdedServer(Workload):
    """The improved server with ~1000 enrolled users.

    Mix: 80% honest logins by random users, 10% new registrations
    (who may log in afterwards), 10% rejected logins: half random
    bytes, half honest logins with one C_i bit flipped.  One enrolled
    user in twenty shares the registration millisecond (T1) with the
    previous one.
    """

    name = "crowded-server"
    setup_repeats = 7
    # registrations grow the population; a fresh one every 500 operations
    # keeps the records scanned per login the same however fast the host
    epoch_ops = 500
    shared_t1_share = 0.05

    def __init__(self, seed, small, scratch):
        super().__init__(seed, small, scratch)
        self.population = 40 if small else 1000
        rnd = _rng(seed, self.name)
        self.secret_seed = rnd.getrandbits(64)
        self.users = [self._new_user(rnd, i) for i in range(self.population)]
        # a user whose exchange takes 0 ms leaves the clock where it was,
        # so the next user with no clock gap registers in the same ms
        self.same_ms = [False] + [
            rnd.random() < self.shared_t1_share for _ in range(1, self.population)
        ]
        for i, shared in enumerate(self.same_ms):
            if shared:
                self.users[i].gap_ms = 0

    @staticmethod
    def _new_user(rnd, i) -> User:
        return User(
            encode_text("c-%06d" % i), _password(rnd), _template(rnd),
            rnd.getrandbits(64), 1 + rnd.randrange(50),
        )

    def setup(self):
        party = _party(improved.SCHEME, self.secret_seed)
        for i, user in enumerate(self.users):
            user = replace(user)
            exchange = 0 if i + 1 < len(self.users) and self.same_ms[i + 1] else LATENCY_MS
            user.card = _register(improved, party.env, party.server, user, exchange)
            party.users.append(user)
        return PartiesState([party])

    def ops(self, state, epoch):
        rnd = _rng(self.seed, "%s/ops/%d" % (self.name, epoch))
        party = state.parties[0]
        enrolled = len(self.users)
        for _ in count():
            r = rnd.random()
            if r < 0.8:
                yield _login_item(rnd, 0, party, rnd.randrange(enrolled), None)
            elif r < 0.9:
                user = self._new_user(rnd, enrolled)
                enrolled += 1
                yield Register(user)
            elif r < 0.95:
                yield Garbage(0, rnd.randbytes(64), _exponent(rnd), 60_000)
            else:
                yield _login_item(rnd, 0, party, rnd.randrange(enrolled), "forge")

    def run(self, state, item) -> bool:
        party = state.parties[0]
        if isinstance(item, Register):
            try:
                item.user.card = _register(improved, party.env, party.server, item.user)
            except ProtocolError:
                return False
            party.users.append(item.user)
            return isinstance(item.user.card, improved.ImprovedCard)
        return run_session(party, state.stats, item)


# ---------------------------------------------------------------------------
# dictionary-attack
# ---------------------------------------------------------------------------

@dataclass
class Victim:
    scheme: str
    user: User
    card: object
    transcript: object
    r_u: int
    r_s: int
    session_key: Field128
    t1_ms: int | None = None
    t2_ms: int | None = None


@dataclass
class Attack:
    victim: Victim
    knowledge: adversary.AdversaryKnowledge
    granted: tuple[int, int] | None
    expect: str


@dataclass
class AttackState:
    victims: list[Victim]
    log: list[tuple[Victim, str, int]] = field(default_factory=list)  # per op: status, work


# the documented mutual lock: T1 needs ID, ID needs T1 and T3, T3 needs T1
IMPROVED_GAPS = (
    adversary.EquationGap("C_i", ("A22", "H", "ID", "SK", "T1w", "T3w")),
)


class DictionaryAttack(Workload):
    """Offline dictionary attacks on pre-built, fully leaked victims.

    Mix: 70% baseline attacks with the password planted at a seeded
    position, 15% baseline attacks without it (must end exhausted),
    10% in-model attacks on the improved scheme (must end insufficient,
    with the documented gaps), 5% improved attacks with the
    registration instants granted (must recover the victim).
    """

    name = "dictionary-attack"
    setup_repeats = 9
    victims_per_scheme = 6

    def __init__(self, seed, small, scratch):
        super().__init__(seed, small, scratch)
        self.words = 20 if small else 300
        rnd = _rng(seed, self.name)
        self.plan = []
        for scheme in SCHEMES:
            for i in range(self.victims_per_scheme):
                user = User(
                    encode_text("v-%s-%02d" % (scheme[0], i)), _password(rnd),
                    _template(rnd), rnd.getrandbits(64), 1 + rnd.randrange(5000),
                )
                session = [
                    perturb_within_tolerance(
                        user.template, SessionRng(rnd.getrandbits(64)), 16
                    ),
                    _exponent(rnd), _exponent(rnd),
                ]
                self.plan.append((scheme, rnd.getrandbits(64), user, session))

    def setup(self):
        victims = []
        for scheme, secret_seed, user, (reading, r_u, r_s) in self.plan:
            party = _party(scheme, secret_seed)
            user = replace(user)
            user.card = _register(party.mod, party.env, party.server, user)
            party.users.append(user)
            party.env.clock.advance(86_400_000)
            channel = SimChannel(party.env.clock, latency_ms=LATENCY_MS)
            msg, pending = party.mod.login(
                party.env, user.card, user.uid, user.password, reading, r_u
            )
            channel.send(USER_TO_SERVER, "login", msg.encode())
            reply, sk = party.server.respond(
                party.mod.LoginMessage.decode(channel.recv(USER_TO_SERVER)), r_s
            )
            channel.send(SERVER_TO_USER, "reply", reply.encode())
            sk_user = party.mod.finish(
                party.env, pending,
                party.mod.ReplyMessage.decode(channel.recv(SERVER_TO_USER)),
            )
            if sk_user != sk:
                raise RuntimeError("victim session did not agree on a key")
            victim = Victim(
                scheme, user, user.card, adversary.intercept(channel), r_u, r_s, sk
            )
            if scheme == improved.SCHEME:
                rec = party.server.records[0]
                victim.t1_ms, victim.t2_ms = rec.t1_ms, rec.t2_ms
            victims.append(victim)
        return AttackState(victims)

    def ledgers(self, state):
        return []  # the adversary's tools carry no ledger

    def knowledge(self, victim: Victim, words) -> adversary.AdversaryKnowledge:
        return adversary.AdversaryKnowledge.assemble(
            victim.scheme, card=victim.card, transcripts=(victim.transcript,),
            biometric=victim.user.template, r_u=victim.r_u, r_s=victim.r_s,
            dictionary=words,
        )

    def ops(self, state, epoch):
        rnd = _rng(self.seed, "%s/ops/%d" % (self.name, epoch))
        by_scheme = {
            s: [v for v in state.victims if v.scheme == s] for s in SCHEMES
        }
        for _ in count():
            r = rnd.random()
            scheme = baseline.SCHEME if r < 0.85 else improved.SCHEME
            victim = rnd.choice(by_scheme[scheme])
            words = ["%010x" % rnd.getrandbits(40) for _ in range(self.words)]
            granted = None
            if r < 0.7 or r >= 0.95:
                words.insert(rnd.randrange(len(words) + 1), victim.user.password)
                expect = adversary.RECOVERED
                if scheme == improved.SCHEME:
                    granted = (victim.t1_ms, victim.t2_ms)
            elif r < 0.85:
                expect = adversary.EXHAUSTED
            else:
                expect = adversary.INSUFFICIENT
            yield Attack(victim, self.knowledge(victim, words), granted, expect)

    def run(self, state, item) -> bool:
        if item.victim.scheme == baseline.SCHEME:
            outcome = adversary.attack_baseline(item.knowledge)
        else:
            outcome = adversary.attack_improved(item.knowledge, item.granted)
        state.log.append((item.victim, outcome.status, outcome.work))
        return self.check(item, outcome)

    def survey_us(self, state, repeats: int = 20) -> float:
        """Median time of a baseline attack with a zero-word dictionary."""
        samples = []
        for victim in state.victims:
            if victim.scheme != baseline.SCHEME:
                continue
            knowledge = self.knowledge(victim, ())
            for _ in range(repeats):
                samples.append(speed.timed(lambda: adversary.attack_baseline(knowledge)))
        return statistics.median(samples) / 1e3

    def loop_extras(self, state, latencies_ns) -> dict:
        survey = self.survey_us(state)
        words = sum(work for _, _, work in state.log)
        base_ns = base_words = base_ops = 0
        for lat, (victim, _, work) in zip(latencies_ns, state.log):
            if victim.scheme == baseline.SCHEME:
                base_ns += lat
                base_words += work
                base_ops += 1
        return {
            "words_tested": words,
            "us_per_word": sum(latencies_ns) / 1e3 / words,
            "adversary.survey_us": survey,
            "adversary.loop_us_per_word": (base_ns / 1e3 - base_ops * survey) / base_words,
        }

    def count_extras(self, state, op_hashes, hash_count) -> dict:
        # exhausted baseline attacks run no post-hit rules, so their
        # hashes beyond the zero-word attack's are all per-word hashes
        hashes = words = 0
        for (victim, status, work), op in zip(state.log, op_hashes):
            if victim.scheme == baseline.SCHEME and status == adversary.EXHAUSTED:
                before = hash_count()
                adversary.attack_baseline(self.knowledge(victim, ()))
                hashes += op - (hash_count() - before)
                words += work
        return {"adversary.hashes_per_word": hashes / words if words else 0}

    @staticmethod
    def check(item: Attack, outcome) -> bool:
        if outcome.status != item.expect:
            return False
        victim = item.victim
        if item.expect == adversary.RECOVERED:
            return (
                outcome.password == victim.user.password
                and outcome.identity == victim.user.uid
                and outcome.session_key == victim.session_key
                and outcome.work == item.knowledge.dictionary.index(victim.user.password) + 1
            )
        if item.expect == adversary.EXHAUSTED:
            return outcome.password is None and outcome.work == len(item.knowledge.dictionary)
        return outcome.gaps == IMPROVED_GAPS and outcome.work == 0


# ---------------------------------------------------------------------------
# scenario-replay
# ---------------------------------------------------------------------------

@dataclass
class Replay:
    script: scenario.ScenarioScript
    expect: dict
    out_dir: Path


@dataclass
class ReplayState:
    scripts: list[tuple[scenario.ScenarioScript, dict]]


class ScenarioReplay(Workload):
    """Record a generated scenario, replay it, byte-compare the two.

    A pool of scripts, half per scheme, each with two registrations,
    four sessions (one with a tampered login or reply), one leak and a
    small attack (the improved scripts add the granted-timestamps
    control).  Set-up loads the pool from scenario files.
    """

    name = "scenario-replay"
    setup_repeats = 15
    count_ops = 40
    scripts_per_scheme = 64
    sessions = 4

    def __init__(self, seed, small, scratch):
        super().__init__(seed, small, scratch)
        rnd = _rng(seed, self.name)
        self.dir = Path(tempfile.mkdtemp(prefix="scenario-replay-", dir=scratch))
        self.files = []
        for i in range(self.scripts_per_scheme):
            for scheme in SCHEMES:
                doc, expect = self._script(rnd, scheme, i)
                path = self.dir / ("%s-%02d.scenario" % (scheme, i))
                path.write_text(json.dumps(doc, indent=1), "utf-8")
                self.files.append((path, expect))

    def _script(self, rnd, scheme, index):
        users = {"u0": _password(rnd), "u1": _password(rnd)}
        steps = []
        for name, password in users.items():
            steps.append({"op": "register", "user": name, "id": "%s-%d" % (name, index),
                          "password": password, "seed": rnd.getrandbits(32)})
            steps.append({"op": "advance-clock", "ms": 1 + rnd.randrange(5000)})
        tampered = rnd.randrange(self.sessions - 1)  # the last session leaks
        victim = None
        errors = []
        for s in range(self.sessions):
            victim = rnd.choice(sorted(users))
            steps.append({"op": "advance-clock", "ms": 60_000})
            steps.append({"op": "login", "user": victim, "seed": rnd.getrandbits(32),
                          "noise_blocks": rnd.randint(4, 16)})
            message = rnd.choice(("login", "reply")) if s == tampered else None
            if message == "login":
                steps.append({"op": "tamper", "message": "login", "field": "C_i",
                              "mask": "%02x" % (1 << rnd.randrange(8))})
            steps.append({"op": "respond", "seed": rnd.getrandbits(32)})
            if message == "reply":
                steps.append({"op": "tamper", "message": "reply", "field": "Cs",
                              "mask": "%02x" % (1 << rnd.randrange(8))})
            steps.append({"op": "finish"})
            errors.append(AuthFailure.code if message else None)
        steps.append({"op": "leak", "values": list(scenario.LEAKABLE)})
        size = 12 if self.small else 24
        attack = {"op": "attack", "dictionary": {
            "size": size, "seed": rnd.getrandbits(32), "plant_at": rnd.randrange(size + 1)}}
        steps.append(attack)
        statuses = [adversary.RECOVERED]
        if scheme == improved.SCHEME:
            steps.append(dict(attack, grant_timestamps=True))
            statuses = [adversary.INSUFFICIENT, adversary.RECOVERED]
        doc = {"name": "bench-%s-%02d" % (scheme, index), "scheme": scheme,
               "seed": rnd.getrandbits(32), "latency_ms": LATENCY_MS, "steps": steps}
        expect = {"errors": errors, "statuses": statuses, "password": users[victim]}
        return doc, expect

    def setup(self):
        return ReplayState(
            [(scenario.load_scenario(path), expect) for path, expect in self.files]
        )

    def ledgers(self, state):
        return []  # each run builds its own environment and ledger

    def ops(self, state, epoch):
        runs = self.dir / "runs"
        for i in count():
            script, expect = state.scripts[i % len(state.scripts)]
            out_dir = runs / ("e%d-op%d" % (epoch, i))
            yield Replay(script, expect, out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)

    def run(self, state, item) -> bool:
        recorded = scenario.run_scenario(item.script)
        scenario.write_result(recorded, item.out_dir)
        replayed = scenario.run_scenario(item.script)
        if scenario.compare_with_recording(replayed, item.out_dir) != []:
            return False
        report = replayed.report
        sessions = list(report["sessions"].values())
        attacks = report["attacks"]
        return (
            [s["error"] for s in sessions] == item.expect["errors"]
            and all(s["keys_match"] for s in sessions if s["error"] is None)
            and [a["status"] for a in attacks] == item.expect["statuses"]
            and attacks[-1]["password"] == item.expect["password"]
        )

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    cls.name: cls
    for cls in (HonestSessions, CrowdedServer, DictionaryAttack, ScenarioReplay)
}
