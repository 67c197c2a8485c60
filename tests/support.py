"""Shared test fixtures: enrollments, card-side logins and honest
sessions for both schemes, leaks, clocks, server files, the golden
hash vectors and a count of the hashes computed."""

from dataclasses import dataclass, replace
from pathlib import Path

from triauth import adversary
from triauth.adversary import AdversaryKnowledge
from triauth.channel import Transcript
from triauth.core import (
    DEFAULT_DELTA_T_MS,
    DEFAULT_EPOCH_MS,
    Env,
    Field128,
    HashEngine,
    ProtocolConfig,
    SessionRng,
    SimClock,
    encode_text,
)
from triauth.files import load_server as _load_server
from triauth.fuzzy import BiometricTemplate, perturb_within_tolerance
from triauth.session import SCHEMES, Handshake

# Hash algorithms the engine is checked under, one with a 64-byte digest
HASH_NAMES = ("sha256", "sha512", "blake2b")


def golden_vectors() -> list[tuple[list[bytes], bytes]]:
    """(blocks, digest) of each `<block hex> ... -> <digest hex>` line of
    the hash vectors frozen at design time; blank lines and `#` comments
    are skipped."""
    vectors = []
    for line in (Path(__file__).parent / "golden-hashes.txt").read_text("utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            blocks, digest = line.split("->")
            vectors.append(([bytes.fromhex(b) for b in blocks.split()], bytes.fromhex(digest)))
    return vectors


@dataclass
class Enrollment:
    scheme: str
    env: Env
    server: object
    card: object
    user_id: Field128
    password: str
    template: BiometricTemplate
    rng: SessionRng


@dataclass
class SessionRun:
    msg: object
    pending: object
    reply: object
    sk_user: Field128
    sk_server: Field128
    r_u: int
    r_s: int
    transcript: Transcript  # the wire view an eavesdropper recorded


def enroll(
    scheme: str,
    seed: int = 1,
    identity: str = "alice",
    password: str = "correct-horse",
    delta_t_ms: int = DEFAULT_DELTA_T_MS,
    exchange_ms: int = 10,
    start_ms: int = DEFAULT_EPOCH_MS,
    hash_name: str = "sha256",
) -> Enrollment:
    mod = SCHEMES[scheme]
    config = ProtocolConfig(delta_t_ms=delta_t_ms, hash_name=hash_name)
    env = Env.from_config(config, SimClock(start_ms))
    rng = SessionRng(seed)
    server = mod.Server(env, rng=rng)
    user_id = encode_text(identity)
    template = BiometricTemplate.random(rng, config.template_bits)
    card = mod.register(
        env, server, user_id, password, template, rng, exchange_ms=exchange_ms
    )
    return Enrollment(scheme, env, server, card, user_id, password, template, rng)


def login(enr: Enrollment, *, password: str | None = None,
          user_id: Field128 | None = None, reading: BiometricTemplate | None = None,
          env: Env | None = None) -> tuple:
    """(msg, pending) of the card-side login step called directly, on
    `env` (the enrollment's by default).  Unless given, the holder is the
    enrolled one and the reading is drawn with noise in 8 blocks; the
    reading is drawn before the fresh r_u."""
    if reading is None:
        reading = perturb_within_tolerance(enr.template, enr.rng, 8)
    r_u = enr.rng.exponent(enr.env.params)
    return SCHEMES[enr.scheme].login(
        enr.env if env is None else env, enr.card,
        enr.user_id if user_id is None else user_id,
        enr.password if password is None else password,
        reading, r_u,
    )


def run_session(
    enr: Enrollment,
    noise_blocks: int = 16,
    gap_ms: int = 60_000,
    network_ms: int = 10,
    processing_ms: int = 3,
    password: str | None = None,
) -> SessionRun:
    """One full honest handshake over a channel `network_ms` long each way."""
    env = enr.env
    env.clock.advance(gap_ms)
    reading = perturb_within_tolerance(enr.template, enr.rng, noise_blocks)
    r_u = enr.rng.exponent(env.params)
    r_s = enr.rng.exponent(env.params)
    handshake = Handshake(env, enr.server, latency_ms=network_ms)
    msg = handshake.login(
        enr.card, enr.user_id,
        password if password is not None else enr.password,
        reading, r_u,
    )
    pending = handshake.pending  # finish destroys the handshake's copy
    reply = handshake.respond(r_s, processing_ms=processing_ms)
    handshake.finish()
    return SessionRun(
        msg, pending, reply, handshake.sk_user, handshake.sk_server, r_u, r_s,
        handshake.channel.transcript(),
    )


def full_leak(enr: Enrollment, run: SessionRun, dictionary) -> AdversaryKnowledge:
    """What an adversary knows who holds everything one session can leak:
    the card, the transcript, the biometric, r_u and r_s, and `dictionary`."""
    return AdversaryKnowledge.assemble(
        enr.scheme,
        card=enr.card,
        transcripts=(run.transcript,),
        biometric=enr.template,
        r_u=run.r_u,
        r_s=run.r_s,
        dictionary=dictionary,
    )


def other_scheme(scheme: str) -> str:
    """The scheme of SCHEMES that is not `scheme`."""
    return next(name for name in SCHEMES if name != scheme)


def clock_ahead(env: Env, ms: int) -> Env:
    """`env` with a clock of its own, `ms` ahead of env's (behind if negative)."""
    return replace(env, clock=SimClock(env.clock.now() + ms))


def load_server(path, env: Env | None = None):
    """The server saved at `path`, loaded on `env` (by default a fresh Env
    of the default config)."""
    if env is None:
        env = Env.from_config(ProtocolConfig(), SimClock())
    return _load_server(path, env)


class _CountedHash:
    """A hash object whose finished digests are counted."""

    def __init__(self, counts: dict, hash_object):
        self.counts, self.hash_object = counts, hash_object

    def update(self, data):
        self.hash_object.update(data)

    def digest(self):
        self.counts["digest"] += 1
        return self.hash_object.digest()


def count_digests(monkeypatch) -> dict:
    """Counts whose "digest" goes up by one for each hash finished, from
    now on, by a HashEngine built after this call: each ``digest()`` of
    an object its ``new`` returned, whether the engine's call, a record
    tag staged at enrollment or a generated search finishes it.  The
    adversary's kept card tools are dropped, so an attack builds its
    engine anew and is counted too."""
    counts = {"digest": 0}
    monkeypatch.setattr(adversary, "_TOOLS", {})
    real_init = HashEngine.__init__

    def counting_init(self, name):
        real_init(self, name)
        real_new = self.new
        self.new = lambda: _CountedHash(counts, real_new())

    monkeypatch.setattr(HashEngine, "__init__", counting_init)
    return counts
