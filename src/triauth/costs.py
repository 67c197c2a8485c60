"""Cost instrumentation: measured counts against the nominal figures.

Each scheme is specified against nominal efficiency numbers: total
hash invocations for one authentication, wire traffic in 128-bit
units, and card storage in 128-bit units.  This module runs one fully
instrumented honest session and reports every cell side by side with
its nominal value: hashes and modexps from the ledger, wire traffic
from the channel transcript, storage from the card's declared fields.
Wire and storage match exactly.  The measured hash totals do not
reproduce the nominal ones under either natural reading (with or
without the registration phase), so the report prints the per-phase
breakdown and flags the difference rather than massaging it.
"""

from __future__ import annotations

from . import baseline, improved
from .core import Env, ProtocolConfig, SessionRng, SimClock, encode_text
from .fuzzy import KEY_BITS, BiometricTemplate, perturb_within_tolerance
from .session import Handshake, scheme_module, wire_traffic

NOMINAL = {
    baseline.SCHEME: {"hash_total": 11, "wire_units": 7, "storage_units": 8},
    improved.SCHEME: {"hash_total": 21, "wire_units": 8, "storage_units": 10},
}


def run_instrumented_session(scheme: str, config: ProtocolConfig | None = None):
    """One honest registration + authentication with full accounting,
    seeded by ``config.seed``.

    Returns (env, handshake): the env's ledger carries the operation
    counts, and the handshake both keys and, in its channel's
    transcript, the authentication's wire traffic.
    """
    mod = scheme_module(scheme)
    config = config or ProtocolConfig()
    env = Env.from_config(config, SimClock())
    rng = SessionRng(config.seed)
    server = mod.Server(env, rng=rng)
    user_id = encode_text("cost-probe")
    template = BiometricTemplate.random(rng, config.template_bits)

    env.clock.advance(31)
    card = mod.register(
        env, server, user_id, "probe-password", template, rng, exchange_ms=10
    )

    env.clock.advance(60_000)
    # one flip in each of 16 blocks, which a block corrects once it holds
    # 3 bits; a template of 1- or 2-bit blocks is read clean
    noise_blocks = 16 if config.template_bits >= 3 * KEY_BITS else 0
    noisy = perturb_within_tolerance(template, rng, noise_blocks)
    # 25 ms each way between card and server, or the freshness window if
    # that is shorter, so that each message arrives inside it
    handshake = Handshake(env, server, latency_ms=min(25, config.delta_t_ms))
    handshake.login(card, user_id, "probe-password", noisy, rng.exponent(env.params))
    handshake.respond(rng.exponent(env.params), processing_ms=3)
    handshake.finish()
    return env, handshake


def cost_report(scheme: str, config: ProtocolConfig | None = None) -> dict:
    env, handshake = run_instrumented_session(scheme, config)
    ledger = env.ledger
    nominal = NOMINAL[scheme]

    total = ledger.hash_total()
    reg = sum(n for (phase, _), n in ledger.hash_calls.items()
              if phase == "registration")
    messages = wire_traffic(handshake.channel.transcript())
    wire_bits = sum(bits for _, bits in messages)
    storage_units = len(scheme_module(scheme).Card.FIELD_NAMES)

    report = {
        "scheme": scheme,
        "session_healthy": handshake.keys_match(),
        "hash": {
            "by_phase": ledger.phase_table(),
            "total": total,
            "total_excluding_registration": total - reg,
            "nominal_total": nominal["hash_total"],
            "matches_nominal": total == nominal["hash_total"]
            or total - reg == nominal["hash_total"],
        },
        "modexp": {
            "by_phase": ledger.phase_table(ledger.modexp_calls),
            "total": ledger.modexp_total(),
        },
        "wire": {
            "messages": [[label, bits] for label, bits in messages],
            "total_bits": wire_bits,
            "nominal_bits": 128 * nominal["wire_units"],
            "matches_nominal": wire_bits == 128 * nominal["wire_units"],
        },
        "storage": {
            "card_units": storage_units,
            "nominal_units": nominal["storage_units"],
            "matches_nominal": storage_units == nominal["storage_units"],
        },
        "notes": [
            "storage counts declared card fields in 128-bit units; the "
            "biometric helper P_i is one declared field although the "
            "helper string itself is template-length",
        ],
    }
    if not report["hash"]["matches_nominal"]:
        report["notes"].append(
            "hash totals measured %d (%d excluding registration) vs "
            "nominal %d; neither reading reproduces the nominal figure — "
            "see the per-phase table" % (total, total - reg, nominal["hash_total"])
        )
    return report


def format_cost_report(report: dict) -> str:
    """The line-oriented rendering the CLI prints."""
    h = report["hash"]
    w = report["wire"]
    s = report["storage"]
    lines = [
        "cost report: %s scheme" % report["scheme"],
        "  session healthy: %s" % ("yes" if report["session_healthy"] else "NO"),
        "  hash calls by phase:",
    ]
    for where, n in h["by_phase"].items():
        lines.append("    %-24s %d" % (where, n))
    lines.append(
        "  hash total: %d (excluding registration: %d), nominal %d -> %s"
        % (
            h["total"],
            h["total_excluding_registration"],
            h["nominal_total"],
            "match" if h["matches_nominal"] else "DISCREPANCY",
        )
    )
    lines.append("  modexp by phase:")
    for where, n in report["modexp"]["by_phase"].items():
        lines.append("    %-24s %d" % (where, n))
    for label, bits in w["messages"]:
        lines.append("  wire %-8s %4d bits" % (label, bits))
    lines.append(
        "  wire total: %d bits, nominal %d -> %s"
        % (
            w["total_bits"],
            w["nominal_bits"],
            "match" if w["matches_nominal"] else "DISCREPANCY",
        )
    )
    lines.append(
        "  card storage: %d units of 128 bits, nominal %d -> %s"
        % (
            s["card_units"],
            s["nominal_units"],
            "match" if s["matches_nominal"] else "DISCREPANCY",
        )
    )
    for note in report["notes"]:
        lines.append("  note: %s" % note)
    return "\n".join(lines)
