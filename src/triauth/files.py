"""On-disk formats: cards, server state, transcripts, dictionaries,
config files, golden hash vectors, and report writing.

Text formats are line-oriented with a versioned first line so a wrong
or truncated file fails with a pointed message instead of garbage
downstream.  The transcript format is binary (length-prefixed records)
because byte-exactness is the whole point of a transcript.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import baseline, improved
from .core import (
    Field128,
    GroupParams,
    ProtocolConfig,
    ServerSecret,
    decode_text,
    encode_text,
)
from .channel import Transcript, TranscriptEntry
from .fuzzy import HelperData

CARD_MAGIC = "triauth-card v1"
SERVER_MAGIC = "triauth-server v1"
TRANSCRIPT_MAGIC = b"TRIAUTH\x01"


class FileFormatError(ValueError):
    """Raised for structural problems, with the offending line number."""


def _fail(path, lineno: int, why: str) -> "FileFormatError":
    return FileFormatError("%s, line %d: %s" % (path, lineno, why))


# ---------------------------------------------------------------------------
# Line-oriented "key: value" scaffolding
# ---------------------------------------------------------------------------

def _read_tagged_lines(path) -> list[tuple[int, str, str]]:
    """All "key: value" lines as (lineno, key, value), comments skipped."""
    out = []
    for lineno, raw in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if lineno == 1:
            out.append((1, "", line))  # magic line has no key
            continue
        if ":" not in line:
            raise _fail(path, lineno, "expected 'key: value'")
        key, _, value = line.partition(":")
        out.append((lineno, key.strip(), value.strip()))
    return out


def _parse_hex_field(path, lineno: int, name: str, value: str) -> Field128:
    try:
        raw = bytes.fromhex(value)
    except ValueError:
        raise _fail(path, lineno, "field %s is not valid hex" % name) from None
    if len(raw) != 16:
        raise _fail(path, lineno, "field %s must be 16 bytes, got %d" % (name, len(raw)))
    return Field128(raw)


# ---------------------------------------------------------------------------
# Smart card files
# ---------------------------------------------------------------------------

def save_card(card, path) -> None:
    """Write a card file: versioned header, then fixed-order hex fields."""
    lines = [CARD_MAGIC]
    if isinstance(card, baseline.BaselineCard):
        scheme = baseline.SCHEME
        fields = [
            ("e", card.e.hex()),
            ("h", encode_text(card.hash_name).hex()),
            ("p", Field128.from_int(card.params.p).hex()),
            ("g", Field128.from_int(card.params.g).hex()),
            ("Y", card.y.hex()),
            ("P_i", card.helper.offset.hex()),
            ("L", card.l.hex()),
            ("V", card.v.hex()),
        ]
    elif isinstance(card, improved.ImprovedCard):
        scheme = improved.SCHEME
        fields = [
            ("e", card.e.hex()),
            ("p", Field128.from_int(card.params.p).hex()),
            ("g", Field128.from_int(card.params.g).hex()),
            ("Y", card.y.hex()),
            ("P_i", card.helper.offset.hex()),
            ("L", card.l.hex()),
            ("V", card.v.hex()),
            ("M", card.m.hex()),
            ("Nmask", card.nmask.hex()),
            ("T12", card.t12.hex()),
        ]
    else:
        raise TypeError("not a card: %r" % (card,))
    lines.append("scheme: %s" % scheme)
    lines.append("hash: %s" % card.hash_name)
    lines.append("helper_bits: %d" % card.helper.nbits)
    lines.append("fields: %d" % len(fields))
    lines.extend("%s: %s" % pair for pair in fields)
    Path(path).write_text("\n".join(lines) + "\n", "utf-8")


def load_card(path):
    """Parse a card file back into a BaselineCard or ImprovedCard."""
    tagged = _read_tagged_lines(path)
    if not tagged or tagged[0][2] != CARD_MAGIC:
        raise _fail(path, 1, "bad magic, expected %r" % CARD_MAGIC)
    header: dict[str, str] = {}
    fields: dict[str, tuple[int, str]] = {}
    order: list[str] = []
    for lineno, key, value in tagged[1:]:
        if key in ("scheme", "hash", "helper_bits", "fields"):
            header[key] = value
        else:
            if key in fields:
                raise _fail(path, lineno, "duplicate field %s" % key)
            fields[key] = (lineno, value)
            order.append(key)

    for need in ("scheme", "hash", "helper_bits", "fields"):
        if need not in header:
            raise _fail(path, 1, "missing header line %r" % need)
    scheme = header["scheme"]
    expected_order = {
        baseline.SCHEME: list(baseline.BaselineCard.FIELD_NAMES),
        improved.SCHEME: list(improved.ImprovedCard.FIELD_NAMES),
    }.get(scheme)
    if expected_order is None:
        raise _fail(path, 2, "unknown scheme %r" % scheme)
    if int(header["fields"]) != len(expected_order):
        raise _fail(path, 1, "field count %s, expected %d" % (header["fields"], len(expected_order)))
    if order != expected_order:
        raise _fail(path, 1, "fields out of order: %s" % ", ".join(order))

    def word(name: str) -> Field128:
        lineno, value = fields[name]
        return _parse_hex_field(path, lineno, name, value)

    helper_bits = int(header["helper_bits"])
    lineno, helper_hex = fields["P_i"]
    try:
        helper_raw = bytes.fromhex(helper_hex)
    except ValueError:
        raise _fail(path, lineno, "field P_i is not valid hex") from None
    if len(helper_raw) != helper_bits // 8:
        raise _fail(path, lineno, "helper length does not match helper_bits")
    helper = HelperData(helper_raw, helper_bits)
    params = GroupParams.from_values(word("p").to_int(), word("g").to_int())

    if scheme == baseline.SCHEME:
        stored_hash = decode_text(word("h"))
        if stored_hash != header["hash"]:
            raise _fail(path, fields["h"][0], "h field disagrees with header hash")
        return baseline.BaselineCard(
            e=word("e"),
            hash_name=header["hash"],
            params=params,
            y=word("Y"),
            helper=helper,
            l=word("L"),
            v=word("V"),
        )
    return improved.ImprovedCard(
        e=word("e"),
        hash_name=header["hash"],
        params=params,
        y=word("Y"),
        helper=helper,
        l=word("L"),
        v=word("V"),
        m=word("M"),
        nmask=word("Nmask"),
        t12=word("T12"),
    )


# ---------------------------------------------------------------------------
# Server state files
# ---------------------------------------------------------------------------

def save_server(server, path) -> None:
    if isinstance(server, baseline.BaselineServer):
        scheme = baseline.SCHEME
        records = ["record: %s" % uid.hex() for uid in sorted(server.registered)]
    elif isinstance(server, improved.ImprovedServer):
        scheme = improved.SCHEME
        records = [
            "record: %s %d %d" % (rec.user_id.hex(), rec.t1_ms, rec.t2_ms)
            for rec in server.records
        ]
    else:
        raise TypeError("not a server: %r" % (server,))
    env = server.env
    lines = [
        SERVER_MAGIC,
        "scheme: %s" % scheme,
        "hash: %s" % env.hasher.name,
        "p: %s" % Field128.from_int(env.params.p).hex(),
        "g: %s" % Field128.from_int(env.params.g).hex(),
        "X: %s" % Field128.from_int(server.secret.x).hex(),
    ]
    lines.extend(records)
    Path(path).write_text("\n".join(lines) + "\n", "utf-8")


def load_server(path, env):
    """Rebuild a server from its state file.

    Y is recomputed from X, never read from disk; the env must use the
    same group the file declares.
    """
    tagged = _read_tagged_lines(path)
    if not tagged or tagged[0][2] != SERVER_MAGIC:
        raise _fail(path, 1, "bad magic, expected %r" % SERVER_MAGIC)
    header: dict[str, str] = {}
    records: list[tuple[int, str]] = []
    for lineno, key, value in tagged[1:]:
        if key == "record":
            records.append((lineno, value))
        else:
            header[key] = value
    for need in ("scheme", "hash", "p", "g", "X"):
        if need not in header:
            raise _fail(path, 1, "missing header line %r" % need)
    p = int(header["p"], 16)
    g = int(header["g"], 16)
    if (p, g) != (env.params.p, env.params.g):
        raise FileFormatError("%s: group parameters disagree with the config" % path)
    if header["hash"] != env.hasher.name:
        raise FileFormatError("%s: hash function disagrees with the config" % path)
    secret = ServerSecret.from_x(env.params, int(header["X"], 16))

    if header["scheme"] == baseline.SCHEME:
        server = baseline.BaselineServer(env, secret=secret)
        for lineno, value in records:
            server.registered.add(_parse_hex_field(path, lineno, "record", value))
        return server
    if header["scheme"] == improved.SCHEME:
        server = improved.ImprovedServer(env, secret=secret)
        for lineno, value in records:
            parts = value.split()
            if len(parts) != 3:
                raise _fail(path, lineno, "record needs 'id t1 t2'")
            uid = _parse_hex_field(path, lineno, "record", parts[0])
            server.records.append(
                improved.ServerRecord(uid, int(parts[1]), int(parts[2]))
            )
        return server
    raise _fail(path, 2, "unknown scheme %r" % header["scheme"])


# ---------------------------------------------------------------------------
# Transcript files (binary, length-prefixed)
# ---------------------------------------------------------------------------

def transcript_bytes(transcript: Transcript) -> bytes:
    out = bytearray(TRANSCRIPT_MAGIC)
    sid = transcript.session_id.encode("utf-8")
    out += struct.pack(">H", len(sid)) + sid
    if transcript.rng_seed is None:
        out += struct.pack(">BQ", 0, 0)
    else:
        if not 0 <= transcript.rng_seed < (1 << 64):
            raise ValueError("transcript seed reference must fit in 64 bits")
        out += struct.pack(">BQ", 1, transcript.rng_seed)
    out += struct.pack(">I", len(transcript.entries))
    for entry in transcript.entries:
        label = entry.label.encode("utf-8")
        direction = 0 if entry.direction == "user->server" else 1
        out += struct.pack(">BB", direction, len(label)) + label
        out += struct.pack(">QI", entry.captured_at, len(entry.data))
        out += entry.data
    return bytes(out)


def save_transcript(transcript: Transcript, path) -> None:
    Path(path).write_bytes(transcript_bytes(transcript))


def load_transcript(path) -> Transcript:
    raw = Path(path).read_bytes()
    if raw[:8] != TRANSCRIPT_MAGIC:
        raise FileFormatError("%s: bad transcript magic" % path)
    view = memoryview(raw)
    pos = 8

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise FileFormatError("%s: truncated at byte %d" % (path, pos))
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    (sid_len,) = struct.unpack(">H", take(2))
    session_id = bytes(take(sid_len)).decode("utf-8")
    has_seed, seed = struct.unpack(">BQ", take(9))
    (count,) = struct.unpack(">I", take(4))
    entries = []
    for _ in range(count):
        direction_code, label_len = struct.unpack(">BB", take(2))
        label = bytes(take(label_len)).decode("utf-8")
        captured_at, data_len = struct.unpack(">QI", take(12))
        data = bytes(take(data_len))
        direction = "user->server" if direction_code == 0 else "server->user"
        entries.append(TranscriptEntry(direction, label, data, captured_at))
    if pos != len(view):
        raise FileFormatError("%s: %d trailing bytes" % (path, len(view) - pos))
    return Transcript(session_id, seed if has_seed else None, entries)


# ---------------------------------------------------------------------------
# Dictionaries, config, golden vectors, reports
# ---------------------------------------------------------------------------

def save_template(template, path) -> None:
    Path(path).write_text(
        "%d %s\n" % (template.nbits, template.bits.hex()), "utf-8"
    )


def load_template(path):
    from .fuzzy import BiometricTemplate

    line = Path(path).read_text("utf-8").strip()
    parts = line.split()
    if len(parts) != 2:
        raise FileFormatError("%s: expected '<bits> <hex>'" % path)
    try:
        nbits, raw = int(parts[0]), bytes.fromhex(parts[1])
    except ValueError:
        raise FileFormatError("%s: template is not valid hex" % path) from None
    return BiometricTemplate(raw, nbits)


def load_dictionary(path) -> list[str]:
    """Candidate passwords, one per line, order preserved."""
    words = []
    for raw in Path(path).read_text("utf-8").splitlines():
        word = raw.strip()
        if word:
            words.append(word)
    if not words:
        raise FileFormatError("%s: dictionary is empty" % path)
    return words


def save_dictionary(words: list[str], path) -> None:
    Path(path).write_text("\n".join(words) + "\n", "utf-8")


def load_config(path) -> ProtocolConfig:
    """"key = value" lines; unknown keys are an error, not a surprise."""
    config = ProtocolConfig()
    for lineno, raw in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _fail(path, lineno, "expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "p":
            config.p = int(value, 16)
        elif key == "g":
            config.g = int(value)
        elif key == "hash":
            config.hash_name = value
        elif key == "delta_t_ms":
            config.delta_t_ms = int(value)
        elif key == "template_bits":
            config.template_bits = int(value)
        elif key == "seed":
            config.seed = int(value)
        else:
            raise _fail(path, lineno, "unknown config key %r" % key)
    return config


def save_config(config: ProtocolConfig, path) -> None:
    lines = [
        "# protocol configuration",
        "p = %x" % config.p,
        "g = %d" % config.g,
        "hash = %s" % config.hash_name,
        "delta_t_ms = %d" % config.delta_t_ms,
        "template_bits = %d" % config.template_bits,
        "seed = %d" % config.seed,
    ]
    Path(path).write_text("\n".join(lines) + "\n", "utf-8")


def load_golden_vectors(path=None) -> list[tuple[list[bytes], bytes]]:
    """The frozen hash vectors; defaults to the copy shipped in-package."""
    if path is None:
        text = (
            resources.files("triauth").joinpath("data/golden-hashes.txt").read_text("utf-8")
        )
        path = "<packaged golden-hashes.txt>"
    else:
        text = Path(path).read_text("utf-8")
    vectors = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            raise _fail(path, lineno, "expected 'blocks -> digest'")
        left, _, right = line.partition("->")
        blocks = [bytes.fromhex(tok) for tok in left.split()]
        vectors.append((blocks, bytes.fromhex(right.strip())))
    if not vectors:
        raise FileFormatError("%s: no vectors" % path)
    return vectors


def json_report_bytes(obj) -> bytes:
    """Stable JSON: sorted keys, fixed separators, trailing newline."""
    return (
        json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    ).encode("utf-8")


def write_json_report(obj, path) -> None:
    Path(path).write_bytes(json_report_bytes(obj))


# Leak files: how the harness hands session secrets to the attack CLI.
# This models the adversary's assumed knowledge; nothing in the package
# reads one of these except the attack entry points.

def save_leak(leak: dict, path) -> None:
    write_json_report(leak, path)


def load_leak(path) -> dict:
    return json.loads(Path(path).read_text("utf-8"))
