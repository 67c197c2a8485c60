"""Shared primitives for the authentication schemes.

Everything protocol-visible travels as a 128-bit word (:class:`Field128`):
identities, password blocks, timestamps, truncated hash outputs, and
group elements in masked/wire form.  Keeping a single word type is what
lets the schemes XOR heterogeneous values together the way their
equations are written.

The module also owns the hash engine and modular exponentiation (both
pure: :class:`Env` is the one place that counts them into its
:class:`CostLedger`), the deterministic per-session RNG, the simulated
clock with its freshness window, and the server role both schemes
share (:class:`BaseServer`).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from operator import attrgetter


FIELD_BYTES = 16
DEFAULT_DELTA_T_MS = 2000
DEFAULT_EPOCH_MS = 1_700_000_000_000  # where a SimClock starts
MALFORMED_TIMESTAMP = "malformed timestamp"

# Largest 128-bit safe prime: p = 2q + 1 with q prime.  g = 4 is a
# quadratic residue, so its order is exactly q (~2**127).
DEFAULT_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFC3A7
DEFAULT_G = 4


# ---------------------------------------------------------------------------
# Protocol errors
# ---------------------------------------------------------------------------

class ProtocolError(Exception):
    """Base class for runtime protocol rejections.

    Each subclass carries a short local code.  On the wire every
    rejection looks the same (see channel.WIRE_TERMINATION); the codes
    exist for local logs, reports, and CLI exit statuses.
    """

    code = "protocol-error"


class RegistrationError(ProtocolError):
    code = "registration"


class LocalAuthFailure(ProtocolError):
    """Smart card refused the holder (V mismatch) before anything was sent."""

    code = "local-auth"


class FreshnessFailure(ProtocolError):
    """Timestamp outside the allowed transmission window.  ``skew_ms`` is
    the receiver's clock minus the stamp (negative for a stamp ahead of
    it) and ``window_ms`` the window it missed; both are None for a
    malformed stamp."""

    code = "freshness"

    def __init__(self, message: str, skew_ms: int | None = None,
                 window_ms: int | None = None):
        super().__init__(message)
        self.skew_ms = skew_ms
        self.window_ms = window_ms


class _ScanRejection(ProtocolError):
    """A rejection the improved server's record scan can end in;
    ``records_tried`` is how many records it tried (None where no scan
    ran)."""

    def __init__(self, message: str, records_tried: int | None = None):
        super().__init__(message)
        self.records_tried = records_tried


class UnknownUser(_ScanRejection):
    code = "unknown-user"


class AuthFailure(_ScanRejection):
    """Verifier mismatch (C_i or Cs) — message rejected."""

    code = "bad-auth"


# ---------------------------------------------------------------------------
# The 128-bit protocol word
# ---------------------------------------------------------------------------

_from_bytes = int.from_bytes
# bytes.__new__ builds a Field128 from bytes already known to be 16 long,
# skipping the length check of Field128.__new__
_new_bytes = bytes.__new__


class Field128(bytes):
    """A 16-byte protocol word with XOR.

    Subclassing ``bytes`` keeps hashing/serialization free; the only
    added behaviour is length enforcement and ``^``.
    """

    __slots__ = ()

    def __new__(cls, data: bytes) -> "Field128":
        if len(data) != FIELD_BYTES:
            raise ValueError(
                "Field128 needs exactly %d bytes, got %d" % (FIELD_BYTES, len(data))
            )
        return super().__new__(cls, data)

    def __xor__(self, other: bytes) -> "Field128":
        if len(other) != FIELD_BYTES:
            raise ValueError("xor operand must be 16 bytes")
        word = _from_bytes(self, "big") ^ _from_bytes(other, "big")
        return _new_bytes(Field128, word.to_bytes(FIELD_BYTES, "big"))

    __rxor__ = __xor__

    def __repr__(self) -> str:
        return "Field128(%s)" % self.hex()

    def to_int(self) -> int:
        return int.from_bytes(self, "big")

    @classmethod
    def from_int(cls, value: int) -> "Field128":
        if not 0 <= value < (1 << 128):
            raise ValueError("value out of 128-bit range")
        return _new_bytes(cls, value.to_bytes(FIELD_BYTES, "big"))


class WireMessage:
    """A protocol message: one 128-bit word per field.

    Subclasses are frozen dataclasses whose fields, in order, are the
    wire layout, each named as its scheme's equations name it.  Only
    the codec knows where a word sits in the bytes: ``WIRE`` is the
    layout, ``OFFSETS`` maps each name to its byte offset, and
    :meth:`words` gives an encoded message's words by name.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.WIRE = tuple(cls.__dict__["__annotations__"])
        cls._words = attrgetter(*cls.WIRE)
        cls.OFFSETS = {name: FIELD_BYTES * i for i, name in enumerate(cls.WIRE)}
        cls._nbytes = FIELD_BYTES * len(cls.WIRE)

    def encode(self) -> bytes:
        return b"".join(self._words(self))

    @classmethod
    def words(cls, raw: bytes) -> dict[str, Field128]:
        """The words of an encoded message by layout name, without
        building the message; ValueError if `raw` has the wrong length."""
        return dict(zip(cls.WIRE, cls._split(raw)))

    @classmethod
    def decode(cls, raw: bytes):
        """The message `raw` encodes; ValueError as :meth:`words` gives."""
        return cls(*cls._split(raw))

    @classmethod
    def _split(cls, raw: bytes) -> list[Field128]:
        """`raw`'s words in layout order, after one length check."""
        if len(raw) != cls._nbytes:
            raise ValueError("%s.%s must be %d bytes" % (
                cls.__module__, cls.__name__, cls._nbytes))
        # every slice is a whole word, so Field128's check is skipped
        return [_new_bytes(Field128, raw[i : i + FIELD_BYTES])
                for i in range(0, len(raw), FIELD_BYTES)]


def encode_text(text: str) -> Field128:
    """An identity or password string as one protocol word: the 16 plain
    bytes it is hashed as.

    UTF-8, zero-padded on the right.  Anything longer than 16 bytes is
    rejected rather than truncated (truncation would silently alias
    distinct passwords), and so is text UTF-8 cannot encode (a lone
    surrogate): both with ValueError.
    """
    raw = text.encode("utf-8")
    if len(raw) > FIELD_BYTES:
        raise ValueError("text too long for a 128-bit word: %r" % text)
    return _new_bytes(Field128, raw.ljust(FIELD_BYTES, b"\x00"))


def decode_text(word: Field128) -> str:
    return bytes(word).rstrip(b"\x00").decode("utf-8")


# ---------------------------------------------------------------------------
# Timestamps and clocks
# ---------------------------------------------------------------------------

def ms_to_field(ms: int) -> Field128:
    """Millisecond count -> protocol word (zero-extended to 128 bits)."""
    if not 0 <= ms < (1 << 64):
        raise ValueError("timestamp out of 64-bit range: %d" % ms)
    return _new_bytes(Field128, ms.to_bytes(FIELD_BYTES, "big"))


def field_to_ms(word: Field128) -> int:
    """Inverse of :func:`ms_to_field`.

    Raises ValueError when the high 64 bits are nonzero — the word is
    then not a well-formed timestamp (e.g. an unmasking with a wrong
    key produced garbage).
    """
    if any(word[:8]):
        raise ValueError("not a well-formed timestamp word")
    return int.from_bytes(word[8:], "big")


class SimClock:
    """Deterministic millisecond clock for tests and scenarios.

    Time only moves when something calls :meth:`advance`, and it stays
    in [0, 2**64) ms, the range a protocol timestamp can carry.
    """

    def __init__(self, start_ms: int = DEFAULT_EPOCH_MS):
        if not 0 <= start_ms < (1 << 64):
            raise ValueError("clock start must be in [0, 2**64) ms, got %d" % start_ms)
        self._now = start_ms

    def now(self) -> int:
        return self._now

    def advance(self, ms: int) -> None:
        if ms < 0:
            raise ValueError("clock cannot move backwards")
        if self._now + ms >= (1 << 64):
            raise ValueError("clock would reach 2**64 ms: %d + %d" % (self._now, ms))
        self._now += ms


# ---------------------------------------------------------------------------
# Cost ledger
# ---------------------------------------------------------------------------

class CostLedger:
    """Counts hash calls and modular exponentiations.

    Counters are attributed to a (phase, principal) scope, e.g.
    ("login", "user"), managed as a stack so harness code can wrap
    whole protocol steps::

        with ledger.scope("authentication", "server"):
            reply, sk = server.respond(msg, r_s)
    """

    UNSCOPED = ("-", "-")

    def __init__(self) -> None:
        self.hash_calls: dict[tuple[str, str], int] = {}
        self.modexp_calls: dict[tuple[str, str], int] = {}
        self._stack: list[tuple[str, str]] = []

    def scope(self, phase: str, principal: str) -> "_LedgerScope":
        """A context that attributes counts to (phase, principal) while
        it is open, and restores the outer scope when it closes."""
        return _LedgerScope(self, (phase, principal))

    # the scope is read inline: these run once per counted operation

    def count_hash(self, n: int = 1) -> None:
        """Count `n` hashes under the current scope (n > 0)."""
        key = self._stack[-1] if self._stack else self.UNSCOPED
        self.hash_calls[key] = self.hash_calls.get(key, 0) + n

    def count_modexp(self) -> None:
        key = self._stack[-1] if self._stack else self.UNSCOPED
        self.modexp_calls[key] = self.modexp_calls.get(key, 0) + 1

    # -- rollups ------------------------------------------------------

    def hash_total(self) -> int:
        return sum(self.hash_calls.values())

    def modexp_total(self) -> int:
        return sum(self.modexp_calls.values())

    def phase_table(self, calls: dict | None = None) -> dict[str, int]:
        """`calls` (the hash counts by default, or ``modexp_calls``) keyed
        "phase/principal", sorted for stable reports."""
        calls = self.hash_calls if calls is None else calls
        return {"%s/%s" % key: n for key, n in sorted(calls.items())}


class _LedgerScope:
    """:meth:`CostLedger.scope`'s context, a class rather than a generator
    because every protocol step opens one."""

    __slots__ = ("ledger", "key")

    def __init__(self, ledger: CostLedger, key: tuple[str, str]):
        self.ledger = ledger
        self.key = key

    def __enter__(self) -> CostLedger:
        self.ledger._stack.append(self.key)
        return self.ledger

    def __exit__(self, *exc_info) -> None:
        self.ledger._stack.pop()


# ---------------------------------------------------------------------------
# Hash engine
# ---------------------------------------------------------------------------

class HashEngine:
    """h(x1 || x2 || ...) truncated to 128 bits.

    Every input block must be a full 16-byte word: fixed-width
    concatenation is what makes h(a||b) unambiguous.  The digest is the
    configured algorithm's output truncated to the first 16 bytes.

    ``new()`` returns a fresh hash object of the algorithm; every hash
    the engine computes starts from it, and a caller that already holds
    whole words may feed one directly, checked and joined by
    :meth:`join`, and truncate its digest itself.
    """

    def __init__(self, name: str):
        # fail fast on unknown algorithms and on those that cannot yield
        # a 16-byte word (shake_* has digest_size 0: its digest needs a length)
        empty = hashlib.new(name)
        if empty.digest_size < FIELD_BYTES:
            raise ValueError(
                "hash %r cannot yield a %d-byte word" % (name, FIELD_BYTES)
            )
        self.name = name
        self.new = empty.copy

    def __call__(self, *parts: bytes) -> Field128:
        data = _hash_input(parts)
        h = self.new()
        h.update(data)
        return _new_bytes(Field128, h.digest()[:FIELD_BYTES])

    @staticmethod
    def join(*parts: bytes) -> bytes:
        """The blocks as one hash input, checked as a hash's are: a
        caller that feeds ``new()`` itself joins its blocks here."""
        return _hash_input(parts)


def _hash_input(parts: tuple[bytes, ...]) -> bytes:
    """ValueError unless there is at least one block and each is a full
    16-byte word; else the blocks joined."""
    if not parts:
        raise ValueError("hash of zero blocks is undefined")
    for part in parts:
        if len(part) != FIELD_BYTES:
            raise ValueError(
                "hash input block must be 16 bytes, got %d" % len(part)
            )
    return b"".join(parts)


# ---------------------------------------------------------------------------
# Group parameters and modular exponentiation
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Below this bound the 13 fixed Miller-Rabin bases are a proven
# deterministic primality test.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_FIXED_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin.  Deterministic below ~3.3e24, 40 extra seeded
    rounds above it (error < 4**-40; construction-time check only)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witnesses():
        yield from _MR_FIXED_BASES
        if n >= _MR_DETERMINISTIC_BOUND:
            rnd = random.Random(n)  # deterministic per n
            for _ in range(40):
                yield 2 + rnd.getrandbits(n.bit_length()) % (n - 3)

    for a in witnesses():
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GroupParams:
    """A safe-prime group (p = 2q + 1) with generator g of order q or 2q.

    p fits in 128 bits so every group element encodes as one protocol
    word.  Construct via :meth:`from_values`, which verifies the group.
    """

    p: int
    g: int

    @classmethod
    def from_values(cls, p: int, g: int) -> "GroupParams":
        """Build params from user-supplied values.

        Verifies that p is a 128-bit-or-smaller safe prime and that g
        generates a subgroup of order > 2**64 (the default group was
        verified once, at import).
        """
        params = cls(p, g)
        if params != _DEFAULT_GROUP:
            params.verify()
        return params

    def verify(self) -> None:
        if self.p.bit_length() > 128:
            raise ValueError("p must fit in 128 bits")
        if self.p < 7 or not is_probable_prime(self.p):
            raise ValueError("p is not prime")
        q = (self.p - 1) // 2
        if self.p != 2 * q + 1 or not is_probable_prime(q):
            raise ValueError("p is not a safe prime (p = 2q+1, q prime)")
        if q.bit_length() <= 64:
            raise ValueError("subgroup order must exceed 2**64")
        if not 2 <= self.g <= self.p - 2:
            raise ValueError("g out of range")
        # the order of g divides 2q and is not 1 or 2: modulo a prime the
        # only square roots of 1 are 1 and p-1, both excluded above, so g
        # has order q or 2q


_DEFAULT_GROUP = GroupParams(DEFAULT_P, DEFAULT_G)
_DEFAULT_GROUP.verify()

# Fixed-base comb for g: one row per byte of a 128-bit exponent, row i
# holding g**(d * 2**(8*i)) mod p for every byte value d, so g**e is one
# multiplication per byte of e.  The tables are keyed by (g, p) at module
# level, not kept on GroupParams, because every Env builds its own
# GroupParams; a table depends on (g, p) alone, so sharing it is safe.
_COMB_ROWS = FIELD_BYTES
_COMB_LIMIT = 1 << (8 * _COMB_ROWS)  # exponents below this use a table
_COMB_TABLES: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}

# Server keys: every BaseServer registers its Y, keyed by (Y, p).  From
# its second use as a base, a registered key's powers come from a 4-bit
# comb: a (lo, hi) pair of rows per exponent byte, holding
# Y**(d * 16**(2i)) and Y**(d * 16**(2i+1)) for every nibble d.  It is
# far smaller than g's 8-bit table and builds in about the time of five
# pow calls, a cost it wins back within about seven reads, where an
# 8-bit table would need some forty; a key used once (a server that
# sees one login) builds nothing.  An entry is the number of uses so
# far (0 or 1) until the table replaces it.  Registering again keeps the
# entry and moves it to the end; past _KEY_LIMIT keys the oldest
# registration is dropped.
_KEY_LIMIT = 8
_KEY_TABLES: dict[tuple[int, int], int | tuple[tuple[tuple[int, ...], ...], ...]] = {}


def _comb_table(g: int, p: int) -> tuple[tuple[int, ...], ...]:
    table = _COMB_TABLES.get((g, p))
    if table is None:
        rows = []
        base = g  # g**(2**(8*i)) for the row being built
        for _ in range(_COMB_ROWS):
            row = [1]
            for _ in range(255):
                row.append(row[-1] * base % p)
            rows.append(tuple(row))
            base = row[-1] * base % p
        table = _COMB_TABLES[(g, p)] = tuple(rows)
    return table


def _nibble_table(y: int, p: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """(lo, hi) per exponent byte: y**(d * 16**(2i)) and y**(d * 16**(2i+1))."""
    rows = []
    base = y  # y**(16**j) for the row being built
    for _ in range(2 * _COMB_ROWS):
        row = [1]
        for _ in range(15):
            row.append(row[-1] * base % p)
        rows.append(tuple(row))
        base = row[-1] * base % p
    return tuple(zip(rows[0::2], rows[1::2]))


def register_key(y: int, p: int) -> None:
    """Mark y as a server's public key in the group of p, so that powers
    of it come from a table from its second use on."""
    key = (y, p)
    _KEY_TABLES[key] = _KEY_TABLES.pop(key, 0)
    if len(_KEY_TABLES) > _KEY_LIMIT:
        del _KEY_TABLES[next(iter(_KEY_TABLES))]


def _key_table(y: int, p: int) -> tuple[tuple[tuple[int, ...], ...], ...] | None:
    """The table of y if it is a registered key used before, building it
    on that second use, else None; counts the use of a registered key."""
    entry = _KEY_TABLES.get((y, p))
    if entry is None or isinstance(entry, tuple):
        return entry
    if not entry:
        _KEY_TABLES[(y, p)] = 1
        return None
    table = _KEY_TABLES[(y, p)] = _nibble_table(y, p)
    return table


def mod_exp(base: int | bytes, exponent: int, params: GroupParams) -> Field128:
    """base**exponent mod p as a protocol word.

    ``base`` may be an int or a Field128/bytes wire word.  Bases outside
    (0, p) are a domain error: they cannot be honest group elements and
    rejecting them is how garbage unmaskings surface.  With an exponent
    below 2**128, powers of g come from g's comb table and powers of a
    registered server key from its table once it is used a second time.
    """
    b = int.from_bytes(base, "big") if isinstance(base, bytes) else base
    p = params.p
    if not 0 < b < p:
        raise ValueError("modexp base outside (0, p)")
    if exponent < 0:
        raise ValueError("negative exponent")
    if exponent < _COMB_LIMIT:
        if b == params.g:
            r = 1
            for row, d in zip(_comb_table(b, p), exponent.to_bytes(_COMB_ROWS, "little")):
                r = r * row[d] % p
            return Field128.from_int(r)
        if (table := _key_table(b, p)) is not None:
            r = 1
            for (lo, hi), d in zip(table, exponent.to_bytes(_COMB_ROWS, "little")):
                r = r * lo[d & 15] * hi[d >> 4] % p
            return Field128.from_int(r)
    return Field128.from_int(pow(b, exponent, p))


# ---------------------------------------------------------------------------
# Deterministic randomness
# ---------------------------------------------------------------------------

def derive_seed(seed: int, label: str) -> int:
    """Disjoint deterministic seed stream for a named role."""
    material = ("%d:%s" % (seed, label)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


class SessionRng:
    """Seeded RNG built on getrandbits only.

    getrandbits is the one Random primitive whose output stream is
    stable across Python versions and platforms, which is what makes
    recorded scenarios replayable byte-for-byte.  The seed must fit in
    64 bits, the width a transcript records a seed in (Random would also
    fold a negative seed onto its absolute value).

    The draw contract, which every method keeps and any faster path
    must keep draw for draw:

    - a draw below a bound is ``getrandbits(bound.bit_length())``,
      repeated until the value is under the bound;
    - :meth:`field` is one ``getrandbits(128)``;
    - each byte of :meth:`random_bytes` is one draw below 256;
    - :meth:`positions` is a partial Fisher-Yates shuffle of
      ``range(n)``: its i-th swap partner is i plus a draw below n - i.
    """

    def __init__(self, seed: int):
        if not 0 <= seed < (1 << 64):
            raise ValueError("seed must be in [0, 2**64), got %d" % seed)
        self._rng = random.Random(seed)

    def field(self) -> Field128:
        return Field128.from_int(self._rng.getrandbits(128))

    def below(self, bound: int) -> int:
        """Uniform int in [0, bound) by rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        draw = self._rng.getrandbits
        k = bound.bit_length()
        x = draw(k)
        while x >= bound:
            x = draw(k)
        return x

    def random_bytes(self, n: int) -> bytes:
        """n bytes, each one draw below 256, as ``below(256)`` draws it."""
        draw = self._rng.getrandbits
        out = []
        for _ in range(n):
            x = draw(9)
            while x >= 256:
                x = draw(9)
            out.append(x)
        return bytes(out)

    def exponent(self, params: GroupParams) -> int:
        """Ephemeral exponent in [2, p-2]."""
        return 2 + self.below(params.p - 3)

    def positions(self, n: int, k: int) -> list[int]:
        """k distinct positions out of n (partial Fisher-Yates)."""
        if not 0 <= k <= n:
            raise ValueError("cannot pick %d of %d positions" % (k, n))
        draw = self._rng.getrandbits
        pool = list(range(n))
        for i in range(k):
            left = n - i  # j is i + a draw below `left`
            bits = left.bit_length()
            j = draw(bits)
            while j >= left:
                j = draw(bits)
            j += i
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


# ---------------------------------------------------------------------------
# Configuration, the execution context and the server role
# ---------------------------------------------------------------------------

@dataclass
class ProtocolConfig:
    """Tunable knobs shared by CLI, scenarios and tests."""

    p: int = DEFAULT_P
    g: int = DEFAULT_G
    hash_name: str = "sha256"
    delta_t_ms: int = DEFAULT_DELTA_T_MS
    template_bits: int = 512
    seed: int = 1


@dataclass
class Env:
    """Execution context for one protocol run.

    Bundles the group, the hash, the ledger and the clock so scheme
    functions don't take five plumbing arguments each.  It is the one
    place that counts: :meth:`h` and :meth:`mod_exp` count into
    ``ledger`` once the primitive returns, so a refused input counts
    nothing.
    """

    params: GroupParams
    hasher: HashEngine
    ledger: CostLedger
    clock: SimClock
    delta_t_ms: int

    @classmethod
    def from_config(
        cls,
        config: ProtocolConfig | None = None,
        clock: SimClock | None = None,
    ) -> "Env":
        config = config or ProtocolConfig()
        return cls(
            params=GroupParams.from_values(config.p, config.g),
            hasher=HashEngine(config.hash_name),
            ledger=CostLedger(),
            clock=clock if clock is not None else SimClock(),
            delta_t_ms=config.delta_t_ms,
        )

    def h(self, *parts: bytes) -> Field128:
        word = self.hasher(*parts)
        self.ledger.count_hash()
        return word

    def mod_exp(self, base: int | bytes, exponent: int) -> Field128:
        word = mod_exp(base, exponent, self.params)
        self.ledger.count_modexp()
        return word

    def now_field(self) -> tuple[int, Field128]:
        ms = self.clock.now()
        return ms, ms_to_field(ms)

    def freshness_fault(
        self, stamp: Field128, now_ms: int, label: str
    ) -> FreshnessFailure | None:
        """None if the timestamp word `stamp` is within delta_t_ms of `now_ms`
        either way, else the unraised FreshnessFailure: MALFORMED_TIMESTAMP,
        "<label> timestamp outside the window" (too old) or "<label>
        timestamp <n> ms ahead of the clock (window <delta_t_ms> ms)"."""
        if any(stamp[:8]):  # field_to_ms would refuse it; raising costs more
            return FreshnessFailure(MALFORMED_TIMESTAMP)
        age = now_ms - field_to_ms(stamp)
        window = self.delta_t_ms
        if age > window:
            return FreshnessFailure(
                "%s timestamp outside the window" % label, age, window)
        if -age > window:
            return FreshnessFailure(
                "%s timestamp %d ms ahead of the clock (window %d ms)"
                % (label, -age, window), age, window)
        return None


class BaseServer:
    """The server role both schemes share: the long-term secret X, drawn
    from ``rng`` when not given (``x_word`` is X as a protocol word, for
    h(ID || X)), its public Y = g^X, and one record per registered
    identity, in enrollment order, holding just what its state-file
    line holds.  A subclass defines ``enroll`` and ``respond``; one that
    stores more than the identity sets ``RECORD_FIELDS`` (the state
    file's names for a record's values) and ``Record`` (builds a record
    from (ID, ints...)).
    """

    RECORD_FIELDS: tuple[str, ...] = ("id",)
    Record = tuple

    def __init__(self, env: Env, x: int | None = None, rng: SessionRng | None = None):
        params = env.params
        if x is None:
            if rng is None:
                raise ValueError("need X or an rng to draw it")
            x = rng.exponent(params)
        elif not 2 <= x <= params.p - 2:
            raise ValueError("X out of range")
        self.env = env
        self.x = x
        self.y = mod_exp(params.g, x, params)  # from X, never read from a file
        register_key(self.y.to_int(), params.p)
        self.x_word = Field128.from_int(x)
        self.user_ids: set[Field128] = set()
        self.records: list = []  # in enrollment order

    @staticmethod
    def check_processing_ms(ms: int) -> None:
        """ValueError if `ms`, a respond step's simulated compute time, is
        negative: the clock cannot move backwards."""
        if ms < 0:
            raise ValueError("processing_ms must not be negative, got %d" % ms)

    def restore_record(self, user_id: Field128, *ints: int) -> None:
        """Re-enroll a user from one of the state file's records."""
        if len(ints) != len(self.RECORD_FIELDS) - 1:
            raise ValueError("record needs '%s'" % " ".join(self.RECORD_FIELDS))
        if user_id in self.user_ids:
            raise ValueError("identity already registered")
        for ms in ints:  # a record's values are millisecond times
            if not 0 <= ms < (1 << 64):
                raise ValueError("record time out of 64-bit range: %d" % ms)
        self._add(user_id, *ints)

    def _add(self, user_id: Field128, *ints: int) -> tuple:
        """Store and return a new identity's record; RegistrationError if
        it is known."""
        if user_id in self.user_ids:
            raise RegistrationError("identity already registered")
        self.user_ids.add(user_id)
        rec = self.Record((user_id, *ints))
        self.records.append(rec)
        return rec
