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
engine closes the adversary's atoms, the leaked values named as each
scheme's ``EQUATIONS`` table names them, under rules derived from that
table: every row run forward, and every XOR row solved for each atom
it XORs in.  The card's hash ``h`` and modexp ``exp`` are atoms like
any other, which only a captured card supplies.  An atom ends up
*known*, *derivable per password candidate*, or *unknown*.
:func:`compile_plan` does that closure once per set of names held (the
values never change it) and orders the chosen rules into an
:class:`AttackPlan`: rules run once, per candidate, and on a hit, all
compiled into one Python function that tests a word with plain
statements.  A dictionary attack runs iff every block of
the verifier equation is known or candidate-derivable; otherwise the
outcome names the atoms that closure cannot reach (without a card,
``h`` among them).  Against the baseline the closure reaches C_i and
the loop recovers the password, identity and session key.  Against the
hardened scheme T1, T3 and ID lock each other (T1 needs ID, ID needs
T1 and T3, T3 needs T1) and every equation keeps at least two
unknowns — the attack cannot start.  Granting (T1, T2) through the
explicit out-of-model hook unlocks the same pipeline, which is the
white-box control showing the engine is honest about *why* the attack
fails.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
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
from .channel import SimChannel, Transcript
from .fuzzy import BiometricTemplate, rep
from .session import (
    SCHEMES,
    WIRE_LABELS,
    Handshake,
    card_from_fields,
    scheme_module,
    wire_message,
)

# Atoms the model says the adversary never holds.  Checked
# case-insensitively against every atom a knowledge holds.
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
    """Exactly the assumed-leak set, nothing more: ``atoms`` maps each
    leaked value to its name in the scheme's ``EQUATIONS`` table.  A
    card adds its group ``p``, ``g`` and the name of its hash ``h``,
    which :func:`compile_plan` turns into the tools ``h`` and ``exp``.
    The atoms are a read-only copy; every name is checked against
    :data:`FORBIDDEN_ATOMS`.  Build via :meth:`assemble`.
    """

    scheme: str
    atoms: Mapping[str, object] = field(default_factory=dict)
    dictionary: tuple[str, ...] = ()

    def __post_init__(self):
        scheme_module(self.scheme)
        for name in self.atoms:
            if name.lower() in FORBIDDEN_ATOMS:
                raise ValueError("knowledge model forbids atom %r" % name)
        object.__setattr__(self, "atoms", MappingProxyType(dict(self.atoms)))
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
        """The atoms of the leaks given: the card's attributes, its hash
        ``h`` among them, less those the model withholds (the hardened
        card's T12 = T1 xor T2); the wire words of ``transcripts[0]``,
        the session that ``r_u`` and ``r_s`` are from; and ``B``,
        ``r_u``, ``r_s``."""
        atoms: dict[str, object] = {}
        if card is not None:
            atoms.update((f.name, getattr(card, f.name)) for f in fields(card)
                         if f.name.lower() not in FORBIDDEN_ATOMS)
        transcripts = tuple(transcripts)
        if transcripts:
            atoms.update(_wire_atoms(scheme, transcripts[0]))
        leaked = {"B": biometric, "r_u": r_u, "r_s": r_s}
        atoms.update((name, value) for name, value in leaked.items()
                     if value is not None)
        return cls(scheme, atoms, dictionary)


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
# Derivation rules: each scheme's EQUATIONS, run forward and solved
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Derivation:
    """``target`` is ``fn(*needs)``, by the equation ``how``.  The card's
    tools ``h`` and ``exp`` are needs like any other atom."""

    target: str
    needs: tuple[str, ...]
    how: str
    fn: Callable


def _rule(target: str, expression: str) -> Derivation:
    names = re.findall(r"[A-Za-z_]\w*", expression)
    needs = tuple(dict.fromkeys(n for n in names if n != "rep"))
    # `rep`, the public extractor, stays a global looked up at call time
    fn = eval("lambda %s: %s" % (", ".join(needs), expression), globals())
    return Derivation(target, needs, "%s = %s" % (target, expression), fn)


_TIMESTAMP = re.compile(r"\bT([1-5])\b")


def _as_wire(text: str) -> str:
    """Timestamps as the adversary holds them, as wire words: T1 -> T1w."""
    return _TIMESTAMP.sub(r"T\1w", text)


def _derive(equations) -> tuple[tuple[Derivation, ...], Derivation]:
    """A scheme's rules and verifier, from its EQUATIONS table.

    Every row runs forward, and each XOR row is also solved for every
    atom it XORs in.  Timestamps become their wire atoms (T1 -> T1w):
    the adversary only ever holds them as words.  The C_i row is the
    verifier: a published hash whose preimage the adversary may test.
    """
    rules = []
    for line in equations:
        value, expression = _as_wire(line).split(" = ")
        if value == "C_i":
            verifier = _rule(value, expression)
            continue
        rules.append(_rule(value, expression))
        terms = re.split(r" \^ (?![^(]*\))", expression)  # outside h(...)
        for i, term in enumerate(terms):
            if term.isidentifier():
                rest = terms[:i] + terms[i + 1:]
                rules.append(_rule(term, " ^ ".join([value, *rest])))
    return tuple(rules), verifier


# Per scheme, compiled once: the rules and the verifier the attack tests.
RULES: dict[str, tuple[Derivation, ...]] = {}
VERIFIERS: dict[str, Derivation] = {}
for _mod in SCHEMES.values():
    RULES[_mod.SCHEME], VERIFIERS[_mod.SCHEME] = _derive(_mod.EQUATIONS)

# What a successful attack must produce besides the password.
_TARGETS = ("ID", "SK")


# ---------------------------------------------------------------------------
# From leaks to atoms
# ---------------------------------------------------------------------------

def _wire_atoms(scheme: str, transcript: Transcript) -> dict[str, Field128]:
    mod = scheme_module(scheme)
    atoms: dict[str, Field128] = {}
    for entry in transcript.entries:
        if entry.label not in WIRE_LABELS:
            continue  # a termination notice
        # ValueError for a message of another length: another scheme's
        for name, word in wire_message(mod, entry.label)[1].words(entry.data).items():
            # timestamps captured off the wire are words, not clock
            # readings the adversary can trust
            atoms.setdefault(_as_wire(name), word)
    return atoms


def _tools(atoms: Mapping[str, object]) -> dict[str, Callable]:
    """The card's tools as the rules call them: ``h``, the hash the card
    names, and ``exp``, pow modulo the card's p.  Without a well-formed
    card, neither exists."""
    try:
        h, group = HashEngine(atoms["h"]), GroupParams(atoms["p"], atoms["g"])
    except (KeyError, ValueError, TypeError):
        return {}

    def exp(base: Field128, exponent: int) -> Field128:
        # the attacker is not bound by protocol domain checks; pow's
        # implicit reduction is what an attacker would compute anyway
        return Field128.from_int(pow(base.to_int(), exponent, group.p))

    return {"h": h, "exp": exp}


def _granted(t1_ms: int, t2_ms: int) -> dict[str, Field128]:
    """The out-of-model grant: the registration instants as wire atoms."""
    return {"T1w": ms_to_field(t1_ms), "T2w": ms_to_field(t2_ms)}


# ---------------------------------------------------------------------------
# The compiled plan and its execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackPlan:
    """One attack, planned once: ``known`` runs once, ``per_word`` per
    candidate (only what the verifier needs), ``on_hit`` on a match
    (what only ID and SK need).

    Each tuple is in dependency order, and so is their concatenation.
    With ``gaps`` the attack cannot start and the tuples are empty.
    ``source`` is the steps as one Python function, ``bind``: given the
    atoms, it runs ``known`` once and returns ``test(PW, verify=True)``,
    which runs ``per_word``, compares the verifier and on a match runs
    ``on_hit`` and returns (ID, SK), else None; without ``verify`` it
    runs every step.  The steps depend only on the names held, never
    on the values; ``atoms`` holds this attack's values.
    """

    atoms: dict[str, object]
    known: tuple[Derivation, ...] = ()
    per_word: tuple[Derivation, ...] = ()
    on_hit: tuple[Derivation, ...] = ()
    gaps: tuple[EquationGap, ...] = ()
    source: str = ""
    bind: Callable | None = field(default=None, compare=False, repr=False)


# Every name a scheme's rules, verifier and targets mention.  No other
# atom held can change a plan, so the memo below is keyed on these
# alone and holds at most one plan per subset of them.
_NAMES = {
    scheme: frozenset({verifier.target, *verifier.needs, *_TARGETS}.union(
        *({rule.target, *rule.needs} for rule in RULES[scheme])))
    for scheme, verifier in VERIFIERS.items()
}

# The plans already made, without values, by (scheme, names held).
_SHAPES: dict[tuple[str, frozenset[str]], AttackPlan] = {}


def compile_plan(
    knowledge: AdversaryKnowledge, granted: dict[str, Field128] | None = None
) -> AttackPlan:
    """The plan for a copy of the atoms (a grant never enters the
    knowledge), in which the card's tools replace its hash name; without
    a card they are unknown.  Each set of names held is planned once, by
    :func:`_plan_shape`; the plan returned holds this attack's atoms.
    """
    atoms = {name: v for name, v in knowledge.atoms.items() if name != "h"}
    atoms.update(granted or {})
    atoms.update(_tools(knowledge.atoms))
    key = (knowledge.scheme, _NAMES[knowledge.scheme].intersection(atoms))
    shape = _SHAPES.get(key)
    if shape is None:
        shape = _SHAPES[key] = _plan_shape(*key)
    return replace(shape, atoms=atoms)


def _plan_shape(scheme: str, names: frozenset[str]) -> AttackPlan:
    """The plan, without values, of an attack holding ``names``: close
    them under the scheme's rules, order the steps, compile them."""
    verifier = VERIFIERS[scheme]

    # fixed point: an atom's level is the best over the rules reaching it
    level = dict.fromkeys(names, _KNOWN)
    level["PW"] = _CANDIDATE
    chosen: dict[str, Derivation] = {}
    changed = True
    while changed:
        changed = False
        for rule in RULES[scheme]:
            best = level.get(rule.target, _UNKNOWN)
            if best == _KNOWN:
                continue
            reachable = min([level.get(a, _UNKNOWN) for a in rule.needs])
            if reachable > best:
                level[rule.target] = reachable
                chosen[rule.target] = rule
                changed = True

    needed = {*verifier.needs, verifier.target, *_TARGETS}
    unknown = sorted(a for a in needed if level.get(a, _UNKNOWN) == _UNKNOWN)
    if unknown:
        return AttackPlan({}, gaps=(EquationGap(verifier.target, tuple(unknown)),))

    # one depth-first walk: the verifier's preimage first, so per_word
    # holds only what the loop needs; what only the targets need, known
    # or not, waits for a hit
    known: list[Derivation] = []
    per_word: list[Derivation] = []
    on_hit: list[Derivation] = []

    def visit(atom: str, steps: list[Derivation], fixed: list[Derivation]) -> None:
        rule = chosen.pop(atom, None)  # popped, so each rule is placed once
        if rule is not None:
            for need in rule.needs:
                visit(need, steps, fixed)
            (fixed if level[rule.target] == _KNOWN else steps).append(rule)

    for atom in verifier.needs:
        visit(atom, per_word, known)
    for atom in _TARGETS:
        visit(atom, on_hit, on_hit)
    steps = (tuple(known), tuple(per_word), tuple(on_hit))
    source = _test_source(verifier, *steps)
    namespace: dict[str, Callable] = {}
    # `rep`, the public extractor, stays a global as in every rule
    exec(source, globals(), namespace)
    return AttackPlan({}, *steps, source=source, bind=namespace["bind"])


def _test_source(verifier: Derivation, known, per_word, on_hit) -> str:
    """The steps as the text of ``bind(atoms)``: each rule's ``how`` is
    a plain statement, and every held atom a step reads is a local."""
    made = {rule.target for rule in (*known, *per_word, *on_hit)} | {"PW"}
    reads = [*(a for rule in (*known, *per_word, *on_hit, verifier) for a in rule.needs),
             verifier.target, *_TARGETS]
    check = verifier.how.split(" = ", 1)[1]
    return "\n".join([
        "def bind(atoms):",
        *("    %s = atoms[%r]" % (a, a) for a in dict.fromkeys(reads) if a not in made),
        *("    " + rule.how for rule in known),
        "    def test(PW, verify=True):",
        *("        " + rule.how for rule in per_word),
        "        if verify and %s != %s:" % (check, verifier.target),
        "            return None",
        *("        " + rule.how for rule in on_hit),
        "        return %s" % ", ".join(_TARGETS),
        "    return test",
        "",
    ])


def _run_dictionary(
    knowledge: AdversaryKnowledge, granted: dict[str, Field128] | None = None
) -> AttackOutcome:
    out_of_model = bool(granted)
    plan = compile_plan(knowledge, granted)
    if plan.gaps:
        return AttackOutcome(INSUFFICIENT, gaps=plan.gaps, out_of_model=out_of_model)

    test = plan.bind(plan.atoms)
    work = 0
    for word in knowledge.dictionary:
        work += 1  # an unencodable word counts as tested and rejected
        try:
            pw = encode_text(word)
        except ValueError:
            continue
        hit = test(pw)
        if hit is not None:
            identity, session_key = hit
            return AttackOutcome(
                status=RECOVERED,
                work=work,
                password=word,
                identity=identity,
                session_key=session_key,
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
    if out_of_model_timestamps is None:
        return _run_dictionary(knowledge)
    return _run_dictionary(knowledge, _granted(*out_of_model_timestamps))


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
    return ["equation %s blocked; unknown: %s" % (gap.equation, ", ".join(gap.unknown))
            for gap in outcome.gaps]


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
    plan = compile_plan(knowledge, _granted(t1_ms, t2_ms))
    if plan.gaps:
        return None
    try:
        pw = encode_text(password_guess)
    except ValueError:
        return None
    _, session_key = plan.bind(plan.atoms)(pw, verify=False)
    return session_key


# ---------------------------------------------------------------------------
# Active operations: interception and impersonation.  Tampering happens
# in flight, through SimChannel.corrupt_in_flight at an offset the codec
# gives (the scenario "tamper" step).
# ---------------------------------------------------------------------------

def intercept(channel: SimChannel) -> Transcript:
    """The eavesdropper's copy of everything the channel carried."""
    return channel.transcript()


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
    the captured atoms and the recovered password and identity.  Anything
    less (notably the hardened scheme) falls back to a card the adversary
    issues itself under guesses, pointed at the victim's Y, which the
    server should throw out.  ValueError if the knowledge holds no card.
    """
    atoms = knowledge.atoms
    try:
        own = replace(  # the victim's clock and window, the card's tools
            env, params=GroupParams(atoms["p"], atoms["g"]),
            hasher=HashEngine(atoms["h"]), ledger=CostLedger(),
        )
    except (KeyError, ValueError, TypeError):
        raise ValueError("impersonation needs the captured card") from None
    mod = scheme_module(knowledge.scheme)
    r_fresh = rng.exponent(env.params)

    if (
        knowledge.scheme == baseline.SCHEME
        and outcome.status == RECOVERED
        and "B" in atoms
    ):
        card = card_from_fields(knowledge.scheme, atoms)
        user_id, password = outcome.identity, outcome.password
        reading = atoms["B"]
    else:  # a card of its own, under guesses for what the model withholds
        user_id, password = rng.field(), "%016x" % rng.below(1 << 64)
        reading = BiometricTemplate.random(rng, atoms["P_i"].nbits)
        card = mod.register(
            own, mod.Server(own, rng=rng), user_id, password, reading, rng
        )
        card = replace(card, Y=atoms["Y"])

    handshake = Handshake(mod, own, server)  # on the victim's clock: own shares it
    try:
        handshake.login(card, user_id, password, reading, r_fresh)
        handshake.respond(rng.exponent(env.params))
        handshake.finish()
    except ProtocolError:
        return REJECT
    return ACCEPT
