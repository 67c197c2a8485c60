"""On-disk formats: cards, server state, transcripts, dictionaries,
config files, and report writing.  Every file the package reads or
writes goes through `read_file` and `write_file`.

Text formats are line-oriented with a versioned first line so a wrong
or truncated file fails with a pointed message instead of garbage
downstream.  The transcript format is binary (length-prefixed records)
because byte-exactness is the whole point of a transcript.

Every keyed text format (card, server state, config) is read through
`_entries` and every JSON input through `read_json`, so a malformed
file is refused with a FileFormatError that names it.
"""

from __future__ import annotations

import json
import os
import struct
from json.encoder import encode_basestring_ascii as _json_str

from .core import (
    Field128,
    GroupParams,
    HashEngine,
    ProtocolConfig,
    decode_text,
    encode_text,
)
from .channel import SERVER_TO_USER, USER_TO_SERVER, Transcript, TranscriptEntry
from .fuzzy import BiometricTemplate, HelperData, _repetition_factor
from .session import card_from_fields, scheme_module, scheme_of

CARD_MAGIC = "triauth-card v1"
SERVER_MAGIC = "triauth-server v1"
TRANSCRIPT_MAGIC = b"TRIAUTH\x01"
MAX_SESSION_ID_BYTES = 0xFFFF  # a transcript writes the length in 2 bytes

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class FileFormatError(ValueError):
    """Raised for structural problems, with the offending line number."""


def _fail(path, lineno: int, why: str) -> "FileFormatError":
    return FileFormatError("%s, line %d: %s" % (path, lineno, why))


# ---------------------------------------------------------------------------
# Whole-file reads and writes, line-oriented scaffolding and strict
# value parsers
# ---------------------------------------------------------------------------

_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def write_file(path, data: bytes) -> None:
    """Replace the file's bytes with `data`, in one open."""
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        done = os.write(fd, data)
        while done < len(data):  # a short write is finished, not dropped
            done += os.write(fd, data[done:])
    finally:
        os.close(fd)


def read_file(path) -> bytes:
    """The file's bytes, in one unbuffered open; FileNotFoundError when
    there is no such file."""
    with open(path, "rb", buffering=0) as file:
        return file.read()


def _read_lines(path) -> list[str]:
    """The file's lines of UTF-8 text."""
    raw = read_file(path)
    try:
        return raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise _fail(path, raw.count(b"\n", 0, exc.start) + 1, "not valid UTF-8") from None


def _write_lines(path, lines: list[str]) -> None:
    write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _entries(path, sep: str, form: str, magic: str | None = None):
    """Check the magic first line, if one is given; then yield
    (lineno, key, value) for each line that is not blank or a "#"
    comment, split at its first `sep`.  A line without `sep` is
    refused as not `form`."""
    lines = iter(_read_lines(path))
    if magic is not None and next(lines, "").strip() != magic:
        raise _fail(path, 1, "bad magic, expected %r" % magic)
    for lineno, raw in enumerate(lines, 1 if magic is None else 2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, found, value = line.partition(sep)
        if not found:
            raise _fail(path, lineno, "expected '%s'" % form)
        yield lineno, key.strip(), value.strip()


def _read_tagged(path, magic: str, header_keys: tuple[str, ...]):
    """Check the magic line; return the header {key: (lineno, value)},
    each of `header_keys` once, and the other "key: value" lines as
    (lineno, key, value) in file order."""
    header: dict[str, tuple[int, str]] = {}
    body: list[tuple[int, str, str]] = []
    for lineno, key, value in _entries(path, ":", "key: value", magic):
        if key not in header_keys:
            body.append((lineno, key, value))
        elif key in header:
            raise _fail(path, lineno, "duplicate header line %r" % key)
        else:
            header[key] = (lineno, value)
    for need in header_keys:
        if need not in header:
            raise _fail(path, 1, "missing header line %r" % need)
    return header, body


def read_json(path, what: str):
    """The JSON document in `path`, which should be `what`.  Bytes that
    are not UTF-8 JSON are refused naming the file, also UTF-16, UTF-32
    and a byte-order mark, which `json.loads` would take from bytes."""
    try:
        return json.loads(read_file(path).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or too deep
        raise FileFormatError("%s: not %s (%s)" % (path, what, exc)) from None


def _parse_int(path, lineno: int, value: str, name: str) -> int:
    """A non-negative decimal integer: ASCII digits only."""
    if not (value.isascii() and value.isdigit()):
        raise _fail(path, lineno, "%s must be a non-negative integer, got %r"
                    % (name, value))
    return int(value)


def _parse_hex(path, lineno: int, value: str, name: str) -> bytes:
    if len(value) % 2 or not _HEX_DIGITS.issuperset(value):
        raise _fail(path, lineno, "field %s is not valid hex" % name)
    return bytes.fromhex(value)


def _parse_hex_field(path, lineno: int, value: str, name: str) -> Field128:
    raw = _parse_hex(path, lineno, value, name)
    if len(raw) != 16:
        raise _fail(path, lineno, "field %s must be 16 bytes, got %d" % (name, len(raw)))
    return Field128(raw)


def _checked(path, lineno: int, fn, *args):
    """fn(*args), a ValueError from it reported at `lineno` of `path`."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise _fail(path, lineno, str(exc)) from None


# ---------------------------------------------------------------------------
# Smart card files
# ---------------------------------------------------------------------------

_CARD_HEADER = ("scheme", "hash", "helper_bits", "fields")


def _card_field_hex(name: str, value) -> str:
    if name == "h":
        return encode_text(value).hex()
    if name in ("p", "g"):
        return Field128.from_int(value).hex()
    if name == "P_i":
        return value.offset.hex()
    return value.hex()


def _card_field_value(path, lineno: int, value: str, name: str, helper_bits: int):
    if name == "P_i":
        raw = _parse_hex(path, lineno, value, name)
        if len(raw) * 8 != helper_bits:
            raise _fail(path, lineno, "helper length does not match helper_bits")
        return HelperData(raw, helper_bits)
    word = _parse_hex_field(path, lineno, value, name)
    if name in ("p", "g"):
        return word.to_int()
    if name == "h":
        return _checked(path, lineno, decode_text, word)
    return word


def save_card(card, path) -> None:
    """Write a card file: versioned header, then fixed-order hex fields."""
    lines = [
        CARD_MAGIC,
        "scheme: %s" % scheme_of(card),
        "hash: %s" % card.h,
        "helper_bits: %d" % card.P_i.nbits,
        "fields: %d" % len(card.FIELD_NAMES),
    ]
    lines.extend(
        "%s: %s" % (name, _card_field_hex(name, getattr(card, name)))
        for name in card.FIELD_NAMES
    )
    _write_lines(path, lines)


def load_card(path):
    """Parse a card file back into its scheme's card."""
    header, body = _read_tagged(path, CARD_MAGIC, _CARD_HEADER)
    lineno, scheme = header["scheme"]
    expected_order = list(_checked(path, lineno, scheme_module, scheme).Card.FIELD_NAMES)
    count = _parse_int(path, *header["fields"], "fields")
    if count != len(expected_order):
        raise _fail(path, 1, "field count %d, expected %d" % (count, len(expected_order)))
    lineno, text = header["helper_bits"]
    helper_bits = _parse_int(path, lineno, text, "helper_bits")
    _checked(path, lineno, _repetition_factor, helper_bits)
    lineno, hash_name = header["hash"]
    _checked(path, lineno, HashEngine, hash_name)
    fields = {"h": hash_name}
    lines: dict[str, int] = {}
    for lineno, key, value in body:
        if key not in expected_order:
            raise _fail(path, lineno, "unknown field %r" % key)
        if key in lines:
            raise _fail(path, lineno, "duplicate field %s" % key)
        lines[key] = lineno
        fields[key] = _card_field_value(path, lineno, value, key, helper_bits)
    for need in expected_order:
        if need not in lines:
            raise _fail(path, 1, "missing field %r" % need)
    if list(lines) != expected_order:
        raise _fail(path, 1, "fields out of order: %s" % ", ".join(lines))
    if fields["h"] != hash_name:
        raise _fail(path, lines["h"], "h field disagrees with header hash")
    card = _checked(path, lines["p"], card_from_fields, scheme, fields)
    if not 0 < card.Y.to_int() < card.p:
        raise _fail(path, lines["Y"], "field Y is not in (0, p)")
    return card


# ---------------------------------------------------------------------------
# Server state files
# ---------------------------------------------------------------------------

_SERVER_HEADER = ("scheme", "hash", "p", "g", "X")


def save_server(server, path) -> None:
    env = server.env
    lines = [
        SERVER_MAGIC,
        "scheme: %s" % scheme_of(server),
        "hash: %s" % env.hasher.name,
        "p: %s" % Field128.from_int(env.params.p).hex(),
        "g: %s" % Field128.from_int(env.params.g).hex(),
        "X: %s" % server.x_word.hex(),
    ]
    for uid, *ints in server.records:
        lines.append(" ".join(["record:", uid.hex(), *map(str, ints)]))
    _write_lines(path, lines)


def load_server(path, env):
    """Rebuild a server from its state file.

    Y is recomputed from X, never read from disk; the env must use the
    same group the file declares.
    """
    header, body = _read_tagged(path, SERVER_MAGIC, _SERVER_HEADER)
    lineno, scheme = header["scheme"]
    server_class = _checked(path, lineno, scheme_module, scheme).Server
    p, g, x = (
        _parse_hex_field(path, *header[name], name).to_int() for name in ("p", "g", "X")
    )
    if (p, g) != (env.params.p, env.params.g):
        raise FileFormatError("%s: group parameters disagree with the config" % path)
    if header["hash"][1] != env.hasher.name:
        raise FileFormatError("%s: hash function disagrees with the config" % path)
    server = _checked(path, header["X"][0], server_class, env, x)
    for lineno, key, value in body:
        if key != "record":
            raise _fail(path, lineno, "unknown line %r" % key)
        uid, _, times = value.partition(" ")
        uid = _parse_hex_field(path, lineno, uid, "record")
        ints = [_parse_int(path, lineno, t, "record time") for t in times.split()]
        _checked(path, lineno, server.restore_record, uid, *ints)
    return server


# ---------------------------------------------------------------------------
# Transcript files (binary, length-prefixed)
# ---------------------------------------------------------------------------

# A transcript entry's direction byte indexes this tuple.
_DIRECTIONS = (USER_TO_SERVER, SERVER_TO_USER)


def transcript_bytes(transcript: Transcript) -> bytes:
    out = bytearray(TRANSCRIPT_MAGIC)
    sid = transcript.session_id.encode("utf-8")
    if len(sid) > MAX_SESSION_ID_BYTES:
        raise ValueError("session id of %d bytes: a transcript holds at most %d"
                         % (len(sid), MAX_SESSION_ID_BYTES))
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
        direction = _DIRECTIONS.index(entry.direction)
        out += struct.pack(">BB", direction, len(label)) + label
        out += struct.pack(">QI", entry.captured_at, len(entry.data))
        out += entry.data
    return bytes(out)


def save_transcript(transcript: Transcript, path) -> None:
    write_file(path, transcript_bytes(transcript))


def load_transcript(path) -> Transcript:
    raw = read_file(path)
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

    def text(n: int) -> str:
        start = pos
        try:
            return bytes(take(n)).decode("utf-8")
        except UnicodeDecodeError:
            raise FileFormatError(
                "%s: text at byte %d is not valid UTF-8" % (path, start)
            ) from None

    (sid_len,) = struct.unpack(">H", take(2))
    session_id = text(sid_len)
    has_seed, seed = struct.unpack(">BQ", take(9))
    if has_seed > 1 or not has_seed and seed:
        raise FileFormatError("%s: seed flag %d with seed %d" % (path, has_seed, seed))
    (count,) = struct.unpack(">I", take(4))
    entries = []
    for _ in range(count):
        direction_code, label_len = struct.unpack(">BB", take(2))
        if direction_code >= len(_DIRECTIONS):
            raise FileFormatError("%s: direction %d at byte %d, expected 0 or 1"
                                  % (path, direction_code, pos - 2))
        label = text(label_len)
        captured_at, data_len = struct.unpack(">QI", take(12))
        data = bytes(take(data_len))
        entries.append(
            TranscriptEntry(_DIRECTIONS[direction_code], label, data, captured_at)
        )
    if pos != len(view):
        raise FileFormatError("%s: %d trailing bytes" % (path, len(view) - pos))
    return Transcript(session_id, seed if has_seed else None, entries)


# ---------------------------------------------------------------------------
# Templates, dictionaries, config, reports
# ---------------------------------------------------------------------------

def save_template(template, path) -> None:
    _write_lines(path, ["%d %s" % (template.nbits, template.bits.hex())])


def load_template(path):
    """One line, '<bits> <hex>'; every line after it must be blank."""
    first, *rest = _read_lines(path) or [""]
    parts = first.split()
    if len(parts) != 2:
        raise _fail(path, 1, "expected '<bits> <hex>'")
    nbits = _parse_int(path, 1, parts[0], "bit count")
    raw = _parse_hex(path, 1, parts[1], "template")
    template = _checked(path, 1, BiometricTemplate, raw, nbits)
    for lineno, line in enumerate(rest, 2):
        if line.strip():
            raise _fail(path, lineno, "a template is one line")
    _checked(path, 1, _repetition_factor, nbits)
    return template


def load_dictionary(path) -> list[str]:
    """Candidate passwords, one per line, order preserved."""
    words = []
    for raw in _read_lines(path):
        word = raw.strip()
        if word:
            words.append(word)
    if not words:
        raise FileFormatError("%s: dictionary is empty" % path)
    return words


def load_config(path) -> ProtocolConfig:
    """"key = value" lines; unknown keys are an error, not a surprise."""
    config = ProtocolConfig()
    seen: dict[str, int] = {}  # key -> the line that set it
    for lineno, key, value in _entries(path, "=", "key = value"):
        if key in seen:
            raise _fail(path, lineno, "duplicate config key %r" % key)
        seen[key] = lineno
        if key == "p":
            if not value or not _HEX_DIGITS.issuperset(value):
                raise _fail(path, lineno, "p must be hex, got %r" % value)
            config.p = int(value, 16)
        elif key == "hash":
            _checked(path, lineno, HashEngine, value)
            config.hash_name = value
        elif key == "template_bits":
            config.template_bits = _parse_int(path, lineno, value, key)
            _checked(path, lineno, _repetition_factor, config.template_bits)
        elif key in ("g", "delta_t_ms"):
            setattr(config, key, _parse_int(path, lineno, value, key))
        else:
            raise _fail(path, lineno, "unknown config key %r" % key)
    group_lines = [seen[key] for key in ("p", "g") if key in seen]
    if group_lines:
        _checked(path, max(group_lines), GroupParams.from_values, config.p, config.g)
    return config


def json_report_bytes(obj) -> bytes:
    """Stable JSON: sorted keys, fixed separators, trailing newline.

    The bytes are those of ``json.dumps(obj, sort_keys=True, indent=2,
    separators=(",", ": ")) + "\\n"``, written directly: with `indent`
    the stdlib takes its pure-Python encoder, which costs about 1.6
    times as much.  A report holds dicts with str keys, lists, tuples,
    str, int, bool and None; anything else is a TypeError."""
    out: list[str] = []
    _json_into(out, obj, "\n")
    out.append("\n")
    return "".join(out).encode("ascii")


def _json_into(out: list[str], obj, newline: str) -> None:
    """Append `obj`'s JSON to `out`; `newline` starts a line at its
    own indent.  The type tests run in `json.encoder`'s order."""
    if isinstance(obj, str):
        out.append(_json_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _json_into(out, value, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + _json_str(key) + ": ")  # a TypeError if not a str
            _json_into(out, value, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError("a report holds no %s" % type(obj).__name__)


def write_json_report(obj, path) -> None:
    write_file(path, json_report_bytes(obj))


# Leak files: how the harness hands session secrets to the attack CLI.
# This models the adversary's assumed knowledge; nothing in the package
# reads one of these except the attack entry points.

def load_leak(path) -> dict:
    """A leak file: a JSON object with non-negative integers r_u and r_s."""
    leak = read_json(path, "a JSON leak file")
    if not isinstance(leak, dict) or not all(
        type(leak.get(name)) is int and leak[name] >= 0 for name in ("r_u", "r_s")
    ):
        raise FileFormatError(
            "%s: a leak must be an object with non-negative integers r_u and r_s" % path
        )
    return leak
