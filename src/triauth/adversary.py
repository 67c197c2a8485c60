"""Adversary engine: what leaks, what follows from it, and the attack.

The threat model is a network adversary with insider extras: it holds
everything stored on a captured smart card, byte-exact transcripts of
the victim's sessions, the victim's biometric template and helper
string, the per-session exponents r_u and r_s (the "temporary
information" whose exposure the schemes are judged against), and a
password dictionary.  It does NOT hold the identity, the password, the
server secret X, or any raw protocol timestamp — and the
:class:`AdversaryKnowledge` constructor refuses to smuggle those in.

The attack itself is not hard-coded per scheme.  A small derivation
engine closes the adversary's atoms under per-scheme rewrite rules
(XORs, hashes, exponentiations — each rule is an executable fact about
the scheme's public structure).  An atom ends up *known*, *derivable
per password candidate*, or *unknown*.  :func:`compile_plan` does that
closure once per attack and orders the chosen rules into an
:class:`AttackPlan`: steps run once, per candidate, and on a hit.  A
dictionary attack runs iff every block of some verifier equation is
known or candidate-derivable; otherwise the outcome reports, per
equation, exactly which atoms stay unknown.  Against the baseline the
closure reaches C_i and the loop recovers the password, identity and
session key.  Against the hardened scheme T1, T3 and ID lock each
other (T1 needs ID, ID needs T1 and T3, T3 needs T1) and every equation
keeps at least two unknowns — the attack cannot start.  Granting
(T1, T2) through the explicit out-of-model hook unlocks the same
pipeline, which is the white-box control showing the engine is honest
about *why* the attack fails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

from . import baseline, improved
from .core import (
    CostLedger,
    Field128,
    GroupParams,
    HashEngine,
    ProtocolError,
    SessionRng,
    encode_text,
    ms_to_field,
)
from .channel import SimChannel, Transcript, TranscriptEntry
from .fuzzy import BiometricTemplate, rep
from .session import Handshake, card_fields, card_from_fields, scheme_module

# Atoms the model says the adversary never holds.  Checked
# case-insensitively against every externally supplied mapping key.
FORBIDDEN_ATOMS = frozenset(
    {"id", "pw", "password", "x", "t1", "t2", "t3", "t4", "t5", "t12"}
)

RECOVERED = "recovered"
INSUFFICIENT = "insufficient_knowledge"
EXHAUSTED = "dictionary_exhausted"

ACCEPT = "accept"
REJECT = "reject"

# Closure statuses, ordered: an atom's level is the min over any rule's
# inputs, and PW itself sits at CANDIDATE.
_UNKNOWN, _CANDIDATE, _KNOWN = 0, 1, 2


@dataclass(frozen=True)
class AdversaryKnowledge:
    """Exactly the assumed-leak set, nothing more.

    ``card_view`` is the adversary's copy of the card contents — for
    the hardened scheme this omits T12 (= T1 xor T2), which the model
    does not grant even though the physical card stores it.  Build via
    :meth:`assemble` to get the stripping right.  The wire words come
    from ``transcripts[0]``: the session that ``r_u`` and ``r_s`` are from.
    """

    scheme: str
    card_view: Mapping[str, object] | None = None
    transcripts: tuple[Transcript, ...] = ()
    biometric: BiometricTemplate | None = None
    r_u: int | None = None
    r_s: int | None = None
    dictionary: tuple[str, ...] = ()

    def __post_init__(self):
        scheme_module(self.scheme)
        if self.card_view is not None:
            for key in self.card_view:
                if key.lower() in FORBIDDEN_ATOMS:
                    raise ValueError(
                        "knowledge model forbids atom %r" % key
                    )
        object.__setattr__(self, "transcripts", tuple(self.transcripts))
        object.__setattr__(self, "dictionary", tuple(self.dictionary))

    @classmethod
    def assemble(
        cls,
        scheme: str,
        card=None,
        transcripts=(),
        biometric: BiometricTemplate | None = None,
        r_u: int | None = None,
        r_s: int | None = None,
        dictionary=(),
    ) -> "AdversaryKnowledge":
        view = None
        if card is not None:
            view = {"h": card.hash_name, **card_fields(card)}
            view.pop("T12", None)  # on the card, but outside the model
        return cls(
            scheme=scheme,
            card_view=view,
            transcripts=tuple(transcripts),
            biometric=biometric,
            r_u=r_u,
            r_s=r_s,
            dictionary=tuple(dictionary),
        )


@dataclass(frozen=True)
class EquationGap:
    """One verifier equation and the atoms that keep it unusable."""

    equation: str
    unknown: tuple[str, ...]


@dataclass(frozen=True)
class AttackOutcome:
    status: str
    work: int = 0  # verifier evaluations performed
    password: str | None = None
    identity: Field128 | None = None
    session_key: Field128 | None = None
    gaps: tuple[EquationGap, ...] = ()
    out_of_model: bool = False

    def __post_init__(self):
        if self.status == RECOVERED:
            if None in (self.password, self.identity, self.session_key):
                raise ValueError("a recovery must carry PW, ID and SK")
        if self.status == INSUFFICIENT and not self.gaps:
            raise ValueError("an insufficiency must explain itself")


# ---------------------------------------------------------------------------
# Derivation rules: executable facts about each scheme's public shape
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Derivation:
    target: str
    needs: tuple[str, ...]
    how: str
    fn: Callable


@dataclass(frozen=True)
class Verifier:
    """A published hash whose preimage blocks the adversary may test."""

    name: str
    preimage: tuple[str, ...]


class _Ctx:
    """The adversary's own tools: the card's hash and group, no ledger."""

    def __init__(self, hash_name: str, params: GroupParams):
        self.h = HashEngine(hash_name)
        self.params = params

    def exp(self, base: Field128, exponent: int) -> Field128:
        # the attacker is not bound by protocol domain checks; pow's
        # implicit reduction is what an attacker would compute anyway
        return Field128.from_int(pow(base.to_int(), exponent, self.params.p))


def _baseline_rules(ctx: _Ctx) -> list[Derivation]:
    return [
        Derivation("R", ("B", "P_i"), "R = Rep(B, P_i)", lambda b, p: rep(b, p)),
        Derivation("N", ("L", "R"), "N = L xor R", lambda l, r: l ^ r),
        Derivation("A2", ("Y", "r_u"), "A2 = Y^r_u", ctx.exp),
        Derivation("ID", ("NID", "A2"), "ID = NID xor A2", lambda nid, a2: nid ^ a2),
        Derivation(
            "H", ("e", "PW", "N"), "H = e xor h(PW||N)",
            lambda e, pw, n: e ^ ctx.h(pw, n),
        ),
        Derivation("A6", ("A4", "r_u"), "A6 = A4^r_u", ctx.exp),
        Derivation(
            "SK",
            ("ID", "A2", "A6", "H", "T1w", "T3w"),
            "SK = h(ID||A2||A6||H||T1||T3)",
            lambda *blocks: ctx.h(*blocks),
        ),
    ]


def _improved_rules(ctx: _Ctx) -> list[Derivation]:
    return [
        Derivation("R", ("B", "P_i"), "R = Rep(B, P_i)", lambda b, p: rep(b, p)),
        Derivation(
            "T2w", ("Nmask", "PW", "R"), "T2 = Nmask xor h(PW||R)",
            lambda nm, pw, r: nm ^ ctx.h(pw, r),
        ),
        Derivation(
            "T1w", ("M", "ID", "T2w"), "T1 = M xor h(ID xor T2)",
            lambda m, uid, t2: m ^ ctx.h(uid ^ t2),
        ),
        Derivation(
            "T3w", ("Q", "T1w"), "T3 = Q xor h(T1)",
            lambda q, t1: q ^ ctx.h(t1),
        ),
        Derivation("A2", ("Y", "r_u"), "A2 = Y^r_u", ctx.exp),
        Derivation("A22", ("A2", "T3w"), "A22 = A2 xor T3", lambda a2, t3: a2 ^ t3),
        Derivation(
            "ID",
            ("NID", "A22", "T1w", "T3w", "T2w"),
            "ID = NID xor A22 xor h(T1||T3||T2)",
            lambda nid, a22, t1, t3, t2: nid ^ a22 ^ ctx.h(t1, t3, t2),
        ),
        Derivation(
            "N", ("R", "L", "T1w"), "N = R xor L xor T1",
            lambda r, l, t1: r ^ l ^ t1,
        ),
        Derivation(
            "H", ("e", "PW", "N", "T1w"), "H = e xor h(PW||N||T1)",
            lambda e, pw, n, t1: e ^ ctx.h(pw, n, t1),
        ),
        Derivation(
            "T4w", ("P", "T1w", "ID", "T3w"), "T4 = P xor h(T1||ID||T3)",
            lambda p, t1, uid, t3: p ^ ctx.h(t1, uid, t3),
        ),
        Derivation(
            "T5w", ("Q2", "T2w", "ID", "T3w"), "T5 = Q2 xor h(T2||ID||T3)",
            lambda q2, t2, uid, t3: q2 ^ ctx.h(t2, uid, t3),
        ),
        Derivation(
            "A4", ("A44", "T3w", "T4w"), "A4 = A44 xor T3 xor T4",
            lambda a44, t3, t4: a44 ^ t3 ^ t4,
        ),
        Derivation("A5", ("A4", "r_u"), "A5 = A4^r_u", ctx.exp),
        Derivation(
            "A55", ("A5", "T3w", "T5w"), "A55 = A5 xor T3 xor T5",
            lambda a5, t3, t5: a5 ^ t3 ^ t5,
        ),
        Derivation(
            "SK",
            ("ID", "A22", "A55", "H", "T1w", "T3w", "T5w"),
            "SK = h(ID||A22||A55||H||T1||T3||T5)",
            lambda *blocks: ctx.h(*blocks),
        ),
    ]


# Per scheme: its rule builder and the published hash the attack tests.
_MODELS = {
    baseline.SCHEME: (
        _baseline_rules, Verifier("C_i", ("ID", "H", "A1", "A2", "T1w")),
    ),
    improved.SCHEME: (
        _improved_rules,
        Verifier("C_i", ("ID", "H", "A22", "A11", "T1w", "T3w", "T2w")),
    ),
}

# What a successful attack must produce besides the password.
_TARGETS = ("ID", "SK")


# ---------------------------------------------------------------------------
# Assembling the adversary's initial atoms
# ---------------------------------------------------------------------------

def _wire_atoms(scheme: str, transcript: Transcript) -> dict[str, Field128]:
    atoms: dict[str, Field128] = {}
    for entry in transcript.entries:
        try:
            names = wire_layout(scheme, entry.label)
        except ValueError:
            continue  # a termination notice carries no fields
        if len(entry.data) != 16 * len(names):
            continue
        for i, name in enumerate(names):
            # timestamps captured off the wire are words, not clock
            # readings the adversary can trust; keep the 'w' marker
            atom = name + "w" if name in ("T1", "T3") else name
            atoms.setdefault(atom, Field128(entry.data[16 * i : 16 * i + 16]))
    return atoms


def _initial_atoms(knowledge: AdversaryKnowledge) -> dict[str, object]:
    atoms: dict[str, object] = {}
    if knowledge.card_view:
        for key, value in knowledge.card_view.items():
            if key in ("h", "p", "g"):
                continue  # tooling, not equation material
            atoms[key] = value
    if knowledge.transcripts:
        atoms.update(_wire_atoms(knowledge.scheme, knowledge.transcripts[0]))
    if knowledge.biometric is not None:
        atoms["B"] = knowledge.biometric
    if knowledge.r_u is not None:
        atoms["r_u"] = knowledge.r_u
    if knowledge.r_s is not None:
        atoms["r_s"] = knowledge.r_s
    return atoms


def _ctx_from_knowledge(knowledge: AdversaryKnowledge) -> _Ctx | None:
    view = knowledge.card_view
    if not view:
        return None
    try:
        return _Ctx(view["h"], GroupParams(view["p"], view["g"]))
    except (KeyError, ValueError, TypeError):
        return None


# ---------------------------------------------------------------------------
# The compiled plan and its execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackPlan:
    """One attack, planned once: ``known`` runs once, ``per_word`` per
    candidate (only what the verifier needs), ``on_hit`` on a match.

    Each tuple is in dependency order, and so is their concatenation.
    With ``gaps`` the attack cannot start and the tuples are empty.
    """

    ctx: _Ctx | None
    atoms: dict[str, object]
    verifier: Verifier
    known: tuple[Derivation, ...] = ()
    per_word: tuple[Derivation, ...] = ()
    on_hit: tuple[Derivation, ...] = ()
    gaps: tuple[EquationGap, ...] = ()


def compile_plan(
    knowledge: AdversaryKnowledge, granted: dict[str, Field128] | None = None
) -> AttackPlan:
    """Close the atoms under the scheme's rules, then order the steps."""
    ctx = _ctx_from_knowledge(knowledge)
    atoms = _initial_atoms(knowledge)
    if granted:
        atoms.update(granted)
    rules_for, verifier = _MODELS[knowledge.scheme]
    rules = rules_for(ctx) if ctx is not None else []

    # fixed point: an atom's level is the best over the rules reaching it
    level = dict.fromkeys(atoms, _KNOWN)
    level["PW"] = _CANDIDATE
    chosen: dict[str, Derivation] = {}
    changed = True
    while changed:
        changed = False
        for rule in rules:
            reachable = min(level.get(a, _UNKNOWN) for a in rule.needs)
            if reachable > level.get(rule.target, _UNKNOWN):
                level[rule.target] = reachable
                chosen[rule.target] = rule
                changed = True

    needed = {*verifier.preimage, verifier.name, *_TARGETS}
    if ctx is not None:  # without the card's tools, all of them are missing
        needed = {a for a in needed if level.get(a, _UNKNOWN) == _UNKNOWN}
    if needed:
        gap = EquationGap(verifier.name, tuple(sorted(needed)))
        return AttackPlan(ctx, atoms, verifier, gaps=(gap,))

    # one depth-first walk: the verifier's preimage first, so per_word
    # holds only what the loop needs, then the targets for on_hit
    known: list[Derivation] = []
    per_word: list[Derivation] = []
    on_hit: list[Derivation] = []

    def visit(atom: str, steps: list[Derivation]) -> None:
        rule = chosen.pop(atom, None)  # popped, so each rule is placed once
        if rule is not None:
            for need in rule.needs:
                visit(need, steps)
            (known if level[rule.target] == _KNOWN else steps).append(rule)

    for atom in verifier.preimage:
        visit(atom, per_word)
    for atom in _TARGETS:
        visit(atom, on_hit)
    return AttackPlan(
        ctx, atoms, verifier, tuple(known), tuple(per_word), tuple(on_hit)
    )


def _execute(steps: tuple[Derivation, ...], values: dict[str, object]) -> None:
    for rule in steps:
        values[rule.target] = rule.fn(*(values[a] for a in rule.needs))


def _run_dictionary(
    knowledge: AdversaryKnowledge, granted: dict[str, Field128] | None = None
) -> AttackOutcome:
    out_of_model = bool(granted)
    plan = compile_plan(knowledge, granted)
    if plan.gaps:
        return AttackOutcome(
            status=INSUFFICIENT, gaps=plan.gaps, out_of_model=out_of_model
        )

    base_values = dict(plan.atoms)
    _execute(plan.known, base_values)
    verifier = plan.verifier

    work = 0
    for word in knowledge.dictionary:
        try:
            pw = encode_text(word)
        except ValueError:
            work += 1  # tested and rejected: cannot encode to a block
            continue
        values = dict(base_values)
        values["PW"] = pw
        _execute(plan.per_word, values)
        work += 1
        if plan.ctx.h(*(values[a] for a in verifier.preimage)) == values[verifier.name]:
            _execute(plan.on_hit, values)
            return AttackOutcome(
                status=RECOVERED,
                work=work,
                password=word,
                identity=values["ID"],
                session_key=values["SK"],
                out_of_model=out_of_model,
            )
    return AttackOutcome(status=EXHAUSTED, work=work, out_of_model=out_of_model)


# ---------------------------------------------------------------------------
# Public attack operations
# ---------------------------------------------------------------------------

def attack_baseline(knowledge: AdversaryKnowledge) -> AttackOutcome:
    """Offline dictionary attack against the baseline scheme.

    With the modeled leak set the C_i equation is a pure password
    oracle; expect RECOVERED whenever the true password is in the
    dictionary, with the identity unmasked and the victim session's
    key forged byte-for-byte.
    """
    if knowledge.scheme != baseline.SCHEME:
        raise ValueError("knowledge is not about the baseline scheme")
    return _run_dictionary(knowledge)


def attack_improved(
    knowledge: AdversaryKnowledge,
    out_of_model_timestamps: tuple[int, int] | None = None,
) -> AttackOutcome:
    """Same engine pointed at the hardened scheme.

    In-model this returns INSUFFICIENT_KNOWLEDGE with the per-equation
    unknown atoms.  `out_of_model_timestamps` is the white-box control:
    granting the registration instants (T1, T2), which the model
    forbids, restores the exact pipeline the baseline attack runs —
    flagged on the outcome so nobody mistakes it for an in-model break.
    """
    if knowledge.scheme != improved.SCHEME:
        raise ValueError("knowledge is not about the improved scheme")
    granted = None
    if out_of_model_timestamps is not None:
        t1_ms, t2_ms = out_of_model_timestamps
        granted = {"T1w": ms_to_field(t1_ms), "T2w": ms_to_field(t2_ms)}
    return _run_dictionary(knowledge, granted)


def attack(
    knowledge: AdversaryKnowledge,
    out_of_model_timestamps: tuple[int, int] | None = None,
) -> AttackOutcome:
    """The dictionary attack for the knowledge's scheme (grants: improved only)."""
    if knowledge.scheme == baseline.SCHEME:
        if out_of_model_timestamps is not None:
            raise ValueError("granted timestamps apply to the improved scheme only")
        return attack_baseline(knowledge)
    return attack_improved(knowledge, out_of_model_timestamps)


def outcome_report(scheme: str, outcome: AttackOutcome) -> dict:
    """An outcome as the JSON object that attack reports record."""
    return {
        "scheme": scheme,
        "status": outcome.status,
        "work": outcome.work,
        "out_of_model": outcome.out_of_model,
        "password": outcome.password,
        "identity": outcome.identity.hex() if outcome.identity else None,
        "session_key": outcome.session_key.hex() if outcome.session_key else None,
        "gaps": [
            {"equation": g.equation, "unknown": list(g.unknown)}
            for g in outcome.gaps
        ],
    }


def explain_gaps(outcome: AttackOutcome) -> list[str]:
    """Human-readable lines for why an attack could not start."""
    lines = []
    for gap in outcome.gaps:
        lines.append(
            "equation %s blocked; unknown: %s"
            % (gap.equation, ", ".join(gap.unknown))
        )
    return lines


def forge_improved_session_key(
    knowledge: AdversaryKnowledge,
    t1_ms: int,
    t2_ms: int,
    password_guess: str,
) -> Field128 | None:
    """Forge an SK for guessed (T1, T2, PW) without any verification.

    This is the brute-force counterpart to the closure argument: run
    the full derivation chain under the guesses and emit whatever key
    falls out.  Wrong guesses produce well-formed garbage; the caller
    compares against the honest key.  Returns None only if the chain
    cannot run at all (missing knowledge).
    """
    if knowledge.scheme != improved.SCHEME:
        raise ValueError("forgery chain is specific to the improved scheme")
    granted = {"T1w": ms_to_field(t1_ms), "T2w": ms_to_field(t2_ms)}
    plan = compile_plan(knowledge, granted)
    if plan.gaps:
        return None
    values = dict(plan.atoms)
    try:
        values["PW"] = encode_text(password_guess)
    except ValueError:
        return None
    _execute(plan.known + plan.per_word + plan.on_hit, values)
    return values["SK"]


# ---------------------------------------------------------------------------
# Active operations: interception, tampering, impersonation
# ---------------------------------------------------------------------------

def intercept(channel: SimChannel) -> Transcript:
    """The eavesdropper's copy of everything the channel carried."""
    return channel.transcript()


def wire_layout(scheme: str, label: str) -> tuple[str, ...]:
    mod = scheme_module(scheme)
    if label == "login":
        return mod.LOGIN_WIRE
    if label == "reply":
        return mod.REPLY_WIRE
    raise ValueError("no %s message in the %s scheme" % (label, scheme))


def field_offset(scheme: str, label: str, fieldname: str, mask: bytes) -> int:
    """Where `mask` starts in the `label` message to flip bits of `fieldname`."""
    names = wire_layout(scheme, label)
    if fieldname not in names:
        raise ValueError("message %r has no field %r" % (label, fieldname))
    if len(mask) > 16:
        raise ValueError("mask longer than a field")
    return 16 * names.index(fieldname)


def tamper(
    transcript: Transcript, scheme: str, label: str, fieldname: str, mask: bytes
) -> Transcript:
    """Copy of the transcript with `mask` XORed into one named field.

    A zero mask returns an identical transcript — tampering is exactly
    the bits you flip, nothing implicit.
    """
    offset = field_offset(scheme, label, fieldname, mask)
    out = transcript.copy()
    for i, entry in enumerate(out.entries):
        if entry.label != label:
            continue
        data = bytearray(entry.data)
        for j, b in enumerate(mask):
            data[offset + j] ^= b
        out.entries[i] = TranscriptEntry(
            entry.direction, entry.label, bytes(data), entry.captured_at
        )
        return out
    raise ValueError("transcript has no %r entry" % label)


def impersonate(
    env,
    server,
    knowledge: AdversaryKnowledge,
    outcome: AttackOutcome,
    rng: SessionRng,
) -> str:
    """Try to open a fresh session as the victim; "accept" or "reject".

    A ``session.Handshake`` in the adversary's own Env, with a fresh
    exponent.  After a baseline recovery it uses the card rebuilt from
    the captured view and the recovered password and identity.  Anything
    less (notably the hardened scheme) falls back to a card the adversary
    issues itself under guesses, pointed at the victim's Y, which the
    server should throw out.  ValueError if the knowledge holds no card.
    """
    ctx = _ctx_from_knowledge(knowledge)
    if ctx is None:
        raise ValueError("impersonation needs the captured card")
    view = knowledge.card_view
    mod = scheme_module(knowledge.scheme)
    ledger = CostLedger()
    own = replace(  # the victim's clock and window, the card's tools
        env, params=ctx.params, ledger=ledger, hasher=HashEngine(view["h"], ledger)
    )
    r_fresh = rng.exponent(env.params)

    if (
        knowledge.scheme == baseline.SCHEME
        and outcome.status == RECOVERED
        and knowledge.biometric is not None
    ):
        card = card_from_fields(knowledge.scheme, view)
        user_id, password = outcome.identity, outcome.password
        reading = knowledge.biometric
    else:  # a card of its own, under guesses for what the model withholds
        user_id, password = rng.field(), "%016x" % rng.below(1 << 64)
        reading = BiometricTemplate.random(rng, view["P_i"].nbits)
        card = mod.register(
            own, mod.Server(own, rng=rng), user_id, password, reading, rng
        )
        card = replace(card, y=view["Y"])

    handshake = Handshake(mod, own, server, SimChannel(env.clock))
    try:
        _, pending = handshake.login(card, user_id, password, reading, r_fresh)
        handshake.respond(rng.exponent(env.params))
        handshake.finish(pending)
    except ProtocolError:
        return REJECT
    return ACCEPT
