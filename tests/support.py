"""Shared test fixtures: enrollments and honest sessions for both schemes."""

from dataclasses import dataclass

from triauth.channel import Transcript
from triauth.core import Env, Field128, ProtocolConfig, SessionRng, SimClock, encode_text
from triauth.fuzzy import BiometricTemplate, perturb_within_tolerance
from triauth.session import SCHEMES, Handshake


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
    delta_t_ms: int = 2000,
    exchange_ms: int = 10,
    start_ms: int = 1_700_000_000_000,
) -> Enrollment:
    mod = SCHEMES[scheme]
    config = ProtocolConfig(delta_t_ms=delta_t_ms)
    env = Env.from_config(config, SimClock(start_ms))
    rng = SessionRng(seed)
    server = mod.Server(env, rng=rng)
    user_id = encode_text(identity)
    template = BiometricTemplate.random(rng, config.template_bits)
    card = mod.register(
        env, server, user_id, password, template, rng, exchange_ms=exchange_ms
    )
    return Enrollment(scheme, env, server, card, user_id, password, template, rng)


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
    handshake = Handshake(SCHEMES[enr.scheme], env, enr.server, latency_ms=network_ms)
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
