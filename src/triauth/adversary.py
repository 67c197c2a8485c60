"""Adversary engine: what leaks, what follows from it, and the attack.

The threat model is a network adversary with insider extras: it holds
everything stored on a captured smart card, byte-exact transcripts of
the victim's sessions, the victim's biometric template and helper
string, the per-session exponents r_u and r_s (the "temporary
information" whose exposure the schemes are judged against), and a
password dictionary.  It does NOT hold the identity, the password, the
server secret X, or any raw protocol timestamp — and the
:class:`AdversaryKnowledge` constructor refuses to smuggle those in.

The attack itself is not hard-coded per scheme.  Each scheme's
``EQUATIONS`` table is parsed once, at import, into rows
(:func:`_parsed`): a target and its XOR terms, each an atom or a call
of ``h``, ``exp`` or ``rep`` over blocks of XORed atoms.  A small
derivation engine closes the adversary's atoms, the leaked values named
as the rows name them, under every row run forward and solved for each
atom term.  The card's hash ``h`` and modexp ``exp`` are atoms like any
other, which only a captured card supplies.  An atom ends up *known*,
*derivable per password candidate*, or *unknown*.  :func:`compile_plan`
does that closure once per set of names held and orders the chosen
rules into an :class:`AttackPlan`, whose one compiled function runs
the whole dictionary (:func:`_test_source`).  A session-key forgery
under guessed registration instants and a guessed password is that
function under a grant, over a one-word dictionary.  A dictionary
attack runs iff every block of the verifier equation is known or
candidate-derivable; otherwise the outcome names the atoms that closure
cannot reach (without a card, ``h`` among them).  Against the baseline
the loop recovers the password, identity and session key.  Against the
hardened scheme T1, T3 and ID lock each other under the closure, and
the attack cannot start; granting (T1, T2) out of model unlocks the
same pipeline, the white-box control showing *why* it fails.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from itertools import chain, groupby
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from . import baseline, improved
from .core import (
    FIELD_BYTES,
    CostLedger,
    Field128,
    GroupParams,
    HashEngine,
    ProtocolError,
    SessionRng,
    ms_to_field,
)
from .channel import SimChannel, Transcript
from .fuzzy import BiometricTemplate, rep
from .session import (
    CROSS_SCHEME_LOGIN,
    SCHEMES,
    WIRE_LABELS,
    Handshake,
    card_from_fields,
    scheme_module,
    scheme_of,
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
        ``r_u``, ``r_s``.  ValueError for a card of another scheme."""
        atoms: dict[str, object] = {}
        if card is not None:
            if scheme_of(card) != scheme:
                raise ValueError("knowledge of the %s scheme cannot hold a card "
                                 "of the %s scheme" % (scheme, scheme_of(card)))
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
# Derivation rules: each scheme's EQUATIONS, parsed, run forward and solved
# ---------------------------------------------------------------------------

class Call(NamedTuple):
    """A term ``fn(blocks)``: ``h``, ``exp`` or ``rep`` over blocks of XORed atoms."""

    fn: str
    blocks: tuple[tuple[str, ...], ...]

    def __str__(self) -> str:
        return "%s(%s)" % (self.fn, ", ".join(map(" ^ ".join, self.blocks)))


@dataclass(frozen=True)
class Derivation:
    """``target`` is the XOR of ``terms``, each an atom or a :class:`Call`.
    ``needs`` (the names the terms read, the card's tools ``h`` and
    ``exp`` among them; ``rep``, the public extractor, is a global) and
    ``how`` (the rule as the statement a plan's search runs) are made
    once, with the rule."""

    target: str
    terms: tuple[str | Call, ...]
    needs: tuple[str, ...] = field(init=False)
    how: str = field(init=False)

    def __post_init__(self):
        names = chain(*([t] if isinstance(t, str) else [t.fn, *chain(*t.blocks)]
                        for t in self.terms))
        object.__setattr__(self, "needs", tuple(dict.fromkeys(n for n in names if n != "rep")))
        how = "%s = %s" % (self.target, " ^ ".join(map(str, self.terms)))
        object.__setattr__(self, "how", how)


def _as_wire(text: str) -> str:
    """Timestamps as the adversary holds them, as wire words: T1 -> T1w."""
    return re.sub(r"\bT([1-5])\b", r"T\1w", text)


_BLOCK = r"{0}(?: \^ {0})*".format(r"[A-Za-z_]\w*")
_TERM = r"(?:(?:h|exp|rep)\({0}(?:, {0})*\)|[A-Za-z_]\w*)".format(_BLOCK)
_ROW = re.compile(r"[A-Za-z_]\w* = {0}(?: \^ {0})*".format(_TERM))


def _parsed(line: str) -> Derivation:
    """An EQUATIONS line as its forward rule, timestamps as the wire atoms
    the adversary holds (T1 -> T1w).  ValueError, naming the line, for one
    outside :data:`_ROW`'s grammar: a target, then XOR terms, each an atom
    or a call of ``h``, ``exp`` or ``rep`` over blocks of XORed atoms."""
    if not _ROW.fullmatch(line):
        raise ValueError("not an equation row: %r" % line)
    target, expression = _as_wire(line).split(" = ")
    return Derivation(target, tuple(
        Call(fn, tuple(tuple(block.split(" ^ ")) for block in blocks.split(", ")))
        if blocks else fn for fn, blocks in re.findall(r"(\w+)(?:\(([^)]*)\))?", expression)))


def _derive(rows) -> tuple[tuple[Derivation, ...], Derivation]:
    """A scheme's rules, each row run forward and solved for each atom
    term (the XOR of the row's target and its other terms), and its
    verifier, the C_i row: a published hash whose preimage the adversary
    may test.  ValueError, naming the rows, if there is none."""
    verifier = next((row for row in rows if row.target == "C_i"), None)
    if verifier is None:
        raise ValueError("no C_i row in: %s" % "; ".join(row.how for row in rows))
    solved = [(row.target, *row.terms) for row in rows if row.target != "C_i"]
    return tuple(Derivation(atom, terms[:i] + terms[i + 1:]) for terms in solved
                 for i, atom in enumerate(terms) if isinstance(atom, str)), verifier


# Per scheme, parsed once: its rows, and the rules and the verifier they give.
ROWS = {mod.SCHEME: tuple(map(_parsed, mod.EQUATIONS)) for mod in SCHEMES.values()}
RULES, VERIFIERS = {}, {}
for _scheme, _rows in ROWS.items():
    RULES[_scheme], VERIFIERS[_scheme] = _derive(_rows)

# What a successful attack must produce besides the password.
_TARGETS = ("ID", "SK")


# ---------------------------------------------------------------------------
# From leaks to atoms
# ---------------------------------------------------------------------------

# Each message class's words as atoms, in layout order.  Timestamps
# captured off the wire are words, not clock readings the adversary can
# trust: T1 -> T1w.
_WIRE_ATOM_NAMES = {
    cls: tuple(_as_wire(name) for name in cls.WIRE)
    for mod in SCHEMES.values() for cls in (mod.LoginMessage, mod.ReplyMessage)
}


def _wire_atoms(scheme: str, transcript: Transcript) -> dict[str, Field128]:
    mod = scheme_module(scheme)
    atoms: dict[str, Field128] = {}
    for entry in transcript.entries:
        if entry.label not in WIRE_LABELS:
            continue  # a termination notice
        cls = wire_message(mod, entry.label)[1]
        # ValueError for a message of another length: another scheme's
        for name, word in zip(_WIRE_ATOM_NAMES[cls], cls.words(entry.data).values()):
            atoms.setdefault(name, word)
    return atoms


# The card's tools already made, by (hash name, p, g), the way
# core._COMB_TABLES keeps g's table by (g, p): attacks on cards of one
# group and hash share one engine and one exp.
_TOOLS: dict[tuple, dict[str, Callable]] = {}


def _tools(atoms: Mapping[str, object]) -> dict[str, Callable]:
    """The card's tools as the rules call them: ``h``, the hash the card
    names, and ``exp``, pow modulo the card's p, made once per (hash
    name, p, g) and kept in :data:`_TOOLS`; the caller copies them.
    Without a well-formed card, neither exists."""
    try:
        key = (atoms["h"], atoms["p"], atoms["g"])
        tools = _TOOLS.get(key)
    except (KeyError, TypeError):  # no card, or a field that cannot be a key
        return {}
    if tools is not None:
        return tools
    try:
        h, group = HashEngine(key[0]), GroupParams(key[1], key[2])
    except (ValueError, TypeError):
        return {}

    def exp(base: Field128, exponent: int) -> Field128:
        # the attacker is not bound by protocol domain checks; pow's
        # implicit reduction is what an attacker would compute anyway
        return Field128.from_int(pow(base.to_int(), exponent, group.p))

    tools = _TOOLS[key] = {"h": h, "exp": exp}
    return tools


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
    ``source`` is the steps as the text of one Python function, which
    :func:`_test_source` writes, and ``search(atoms, words)`` is that
    function compiled.  The steps depend only on the names held, never
    on the values; ``atoms`` holds this attack's values, among them the
    card's tools, which every attack on a card of the same hash and
    group shares (:func:`_tools`).
    """

    atoms: dict[str, object]
    known: tuple[Derivation, ...] = ()
    per_word: tuple[Derivation, ...] = ()
    on_hit: tuple[Derivation, ...] = ()
    gaps: tuple[EquationGap, ...] = ()
    source: str = ""
    search: Callable | None = field(default=None, compare=False, repr=False)


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
    return AttackPlan(atoms, shape.known, shape.per_word, shape.on_hit, shape.gaps,
                      shape.source, shape.search)


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
    # `rep`, the public extractor, is the one global the steps read
    exec(source, globals(), namespace)
    return AttackPlan({}, *steps, source=source, search=namespace["search"])


def _test_source(verifier: Derivation, known, per_word, on_hit) -> str:
    """The steps as the text of ``search(atoms, words)``: each rule's
    ``how`` is a plain statement, and every held atom a step reads is a
    local.  It runs ``known`` once, then each word through ``per_word``
    and the verifier, and on the first match ``on_hit``; it returns
    (work, (word, ID, SK)), or (len(words), None).  A forgery is this
    search over one word, under a grant of guessed instants
    (:func:`attack_improved`).

    Each word's block is built inline, with no call, as
    :func:`~triauth.core.encode_text` builds a word's bytes: UTF-8
    (``str.encode``'s default), zero-padded to a word.  A word that has
    no block, one UTF-8 cannot encode (a lone surrogate) or one longer
    than 16 bytes, counts as tested and rejected.

    In each word's steps and the verifier, every ``h(...)`` term is one
    digest on a fresh object from the card engine's ``new``, read from
    ``atoms['h']`` on each run (one shape serves cards naming different
    hashes), fed the term's blocks as one input and truncated to a
    word.  Runs of held blocks are checked and joined once, before the
    loop, by the engine's :meth:`~triauth.core.HashEngine.join`.  A
    word's XOR runs on ints and its result is a word of plain bytes:
    each held operand is checked as a :class:`Field128` and converted
    once, before the loop, and every other operand is read with
    ``int.from_bytes``.  On a hit, each word's value becomes a
    ``Field128`` again before ``on_hit`` runs.  ``known`` and
    ``on_hit`` call ``h`` itself and XOR on ``Field128``."""
    made = {rule.target for rule in (*known, *per_word, *on_hit)} | {"PW"}
    reads = [*(a for rule in (*known, *per_word, *on_hit, verifier) for a in rule.needs),
             verifier.target, *_TARGETS]
    varies = {rule.target for rule in per_word} | {"PW"}
    joins: dict[str, str] = {}  # a run of held blocks, joined: its name -> its join
    ints: dict[str, str] = {}  # a held XOR operand as an int: its name -> its conversion

    def lowered(rule: Derivation) -> tuple[list[str], list[str]]:
        """The statements that digest each h(...) term of `rule`, and
        its terms as text, each h(...) term as its digest."""
        feeds, terms = [], []
        for term in rule.terms:
            if isinstance(term, str) or term.fn != "h":
                terms.append(str(term))
                continue
            parts = []
            for held, run in groupby(term.blocks, lambda b: len(b) == 1 and b[0] not in varies):
                run = [" ^ ".join(block) for block in run]
                if held:
                    parts.append("_".join(run) + "_")
                    joins[parts[-1]] = "h.join(%s)" % ", ".join(run)
                else:
                    parts += (b if b.isidentifier() else "(%s)" % b for b in run)
            d = "d%d" % (len(feeds) // 2)
            feeds += ["%s = new()" % d, "%s.update(%s)" % (d, " + ".join(parts))]
            terms.append("%s.digest()[:%d]" % (d, FIELD_BYTES))
        return feeds, terms

    def as_int(term: str) -> str:
        """An XOR term of a word's step as an int: a held atom converted
        once, before the loop; anything else read per word."""
        if term.isidentifier() and term not in varies:
            ints[term + "_int"] = "Field128(%s).to_int()" % term
            return term + "_int"
        return 'from_bytes(%s, "big")' % term

    loop = []
    for rule in per_word:
        feeds, terms = lowered(rule)
        expression = terms[0] if len(terms) == 1 else '(%s).to_bytes(%d, "big")' % (
            " ^ ".join(map(as_int, terms)), FIELD_BYTES)
        loop += [*feeds, "%s = %s" % (rule.target, expression)]
    feeds, check = lowered(verifier)
    loop += [*feeds, "if %s == %s:" % (" ^ ".join(check), verifier.target)]

    return "\n".join([
        "def search(atoms, words):",
        *("    %s = atoms[%r]" % (a, a) for a in dict.fromkeys(reads) if a not in made),
        *("    " + rule.how for rule in known),
        "    new = h.new",
        "    from_bytes = int.from_bytes",
        *("    %s = %s" % item for item in (*joins.items(), *ints.items())),
        "    for work, word in enumerate(words, 1):",
        "        try:",
        "            PW = word.encode()",
        "        except ValueError:",
        "            continue",
        "        if len(PW) > %d:" % FIELD_BYTES,
        "            continue",
        '        PW = PW.ljust(%d, b"\\x00")' % FIELD_BYTES,
        *("        " + line for line in loop),
        *("            %s = Field128(%s)" % (rule.target, rule.target) for rule in per_word),
        *("            " + rule.how for rule in on_hit),
        "            return work, (word, %s)" % ", ".join(_TARGETS),
        "    return len(words), None",
        "",
    ])


def _run_dictionary(
    knowledge: AdversaryKnowledge, granted: dict[str, Field128] | None = None
) -> AttackOutcome:
    out_of_model = bool(granted)
    plan = compile_plan(knowledge, granted)
    if plan.gaps:
        return AttackOutcome(INSUFFICIENT, gaps=plan.gaps, out_of_model=out_of_model)

    work, hit = plan.search(plan.atoms, knowledge.dictionary)
    if hit is None:
        return AttackOutcome(EXHAUSTED, work, out_of_model=out_of_model)
    return AttackOutcome(RECOVERED, work, *hit, out_of_model=out_of_model)  # PW, ID, SK


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
    A forgery under guessed instants and a guessed password is this
    call with the guesses as the grant and the password as a one-word
    dictionary: it gives a key only when the guesses make C_i verify.
    """
    if knowledge.scheme != improved.SCHEME:
        raise ValueError("knowledge is not about the improved scheme")
    if out_of_model_timestamps is None:
        return _run_dictionary(knowledge)
    t1_ms, t2_ms = out_of_model_timestamps
    granted = {"T1w": ms_to_field(t1_ms), "T2w": ms_to_field(t2_ms)}  # as wire atoms
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
    return ["equation %s blocked; unknown: %s" % (gap.equation, ", ".join(gap.unknown))
            for gap in outcome.gaps]


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
    server should throw out.  ValueError if the knowledge's scheme is not
    the server's, or if it holds no card; either is refused before `rng`
    is drawn from or any work is spent.
    """
    if knowledge.scheme != scheme_of(server):
        raise ValueError(CROSS_SCHEME_LOGIN % (knowledge.scheme, scheme_of(server)))
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

    handshake = Handshake(own, server)  # on the victim's clock: own shares it
    try:
        handshake.login(card, user_id, password, reading, r_fresh)
        handshake.respond(rng.exponent(env.params))
        handshake.finish()
    except ProtocolError:
        return REJECT
    return ACCEPT
