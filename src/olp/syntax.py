"""Core syntax: literals, rules, ordered programs, interpretations.

An ordered program couples a finite rule set with a strict partial order on
rule names (``r1 < r2`` meaning r2 has higher priority).

Every engine computes on Python-int bitsets.  Each atom name is interned
once per process as atom index k, and its literals get the ids ``2k``
(positive) and ``2k + 1`` (negated), so ``complement(i) == i ^ 1`` and a
set of literals is the int with those bits set.  A set holds a
complementary pair exactly when ``bits & (bits >> 1) & EVEN`` is non-zero,
where EVEN has bit 2k set for every atom k interned so far.  A ``Rule``
carries its head id and the masks of its positive and negative bodies; an
``Interpretation`` is its bits alone, Lit being the bits that hold a pair,
and decodes its literals only when they are read.  ``texts_of`` prints a
bitset from the texts the intern table keeps per id, so printing reads no
literal.

Literals, rules, programs and interpretations are immutable values that
can be shared across threads.  Two tables are process-wide state, and both
only grow.  The intern table gives each atom its index and builds its
atom, both its literals and their texts, under a lock, and an id never
changes once given: each literal id has one object.  The set of
rule names already checked against the identifier pattern is added to
without the lock: a name that two threads check at once is checked twice.
Ids differ between processes, so every value that holds one pickles as
the literals it stands for.

Validating an order only counts, in one Kahn pass over the declared pairs,
and keeps each rule's list of the rules declared directly below it and the
order the pass lists the rules in, highest first.  The closed order is
Python-int bitsets over rule positions, one ``above`` and one ``below``
mask per rule, each closed over those lists when first read, so ``check``,
``wfs`` and ``as`` never close the order and the O(n^2) closed pairs are
never listed unless ``pairs`` is read.  A program adds, on first use,
``nb_of[i]`` and ``hb_of[i]`` (the rules with literal id i in their
negative body, and with head i; one pass over the rules builds both).
``prefwfs`` forms defeat sets from ``below`` and ``nb_of`` alone.  The
rules that can support a literal within a context y are one bitset too,
``supporting_rules(rules, y)``, read by ``preference`` and ``prefwfs``.
"""

from __future__ import annotations

import re
import threading
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Iterator, Sequence

__all__ = [
    "Atom",
    "Literal",
    "Rule",
    "PreferenceOrder",
    "OrderedProgram",
    "Interpretation",
    "PartialModel",
    "ProgramError",
    "CycleError",
    "UnknownRuleError",
    "DuplicateRuleError",
    "complement",
    "literal_universe",
    "mentioned_literals",
    "index_rules",
    "supporting_rules",
    "bit_positions",
    "bits_at",
    "bits_of",
    "literals_of",
    "texts_of",
    "has_pair",
    "false_bits",
    "validate_order",
    "is_consistent",
    "pos",
    "neg",
    "rule",
    "program",
]

IDENT_RE = re.compile(r"(?!not\Z)[a-z][A-Za-z0-9_]*\Z")


class ProgramError(Exception):
    """A structurally invalid program component."""


class CycleError(ProgramError):
    """The transitive closure of the preference pairs is reflexive."""

    def __init__(self, name: str):
        super().__init__(f"cyclic preference through rule {name!r}")
        self.name = name


class UnknownRuleError(ProgramError):
    """A preference pair mentions a rule name with no rule."""

    def __init__(self, name: str):
        super().__init__(f"preference mentions unknown rule {name!r}")
        self.name = name


class DuplicateRuleError(ProgramError):
    """Two rules share a name."""

    def __init__(self, name: str):
        super().__init__(f"duplicate rule name {name!r}")
        self.name = name


_ATOMS: dict[str, int] = {}  # atom name -> atom index k
_LITERALS: list["Literal"] = []  # literal id -> its one literal
_TEXTS: list[str] = []  # literal id -> its text, ``str`` of its literal
_RULE_NAMES: set[str] = set()  # rule names already checked
_EVEN = 0  # bit 2k for every interned atom k
_intern_lock = threading.Lock()


def _intern(name: str) -> int:
    """The atom index of ``name``, checked and interned on first sight
    together with the atom's one ``Atom`` and both its literals."""
    k = _ATOMS.get(name)
    if k is not None:
        return k
    if not IDENT_RE.match(name):
        raise ProgramError(f"invalid atom name {name!r}")
    global _EVEN
    with _intern_lock:
        k = _ATOMS.get(name)
        if k is None:
            k = len(_LITERALS) // 2
            # Built past the constructors: ``Atom(...)`` would intern again,
            # under this lock, and ``Literal(...)`` looks the table up.
            atom = _new(Atom)
            _set_atom_name(atom, name)
            for negated in (False, True):
                lit = _new(Literal)
                _set_atom(lit, atom)
                _set_negated(lit, negated)
                _set_id(lit, 2 * k + negated)
                _set_hash(lit, hash((atom, negated)))
                _LITERALS.append(lit)
            _TEXTS.extend((name, "-" + name))
            _EVEN |= 1 << 2 * k
            # Last, so that a reader that finds the name finds its literals.
            _ATOMS[name] = k
    return k


@dataclass(frozen=True, order=True, slots=True)
class Atom:
    """A propositional atom; names follow the identifier lexical class,
    and ``not``, reserved by the ``.olp`` format, is rejected here too."""

    name: str

    def __post_init__(self):
        _intern(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True, slots=True, init=False)
class Literal:
    """An atom or its classical negation.

    Each literal id has one object, built by the intern table with its
    atom: ``Literal(atom, negated)`` returns it and builds nothing.  ``id``
    is ``2k`` or ``2k + 1`` for the atom's index k, and the hash, computed
    once, is the value the generated dataclass hash would give,
    ``hash((atom, negated))``.
    """

    atom: Atom
    negated: bool = False
    id: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __new__(cls, atom: Atom, negated: bool = False):
        return _LITERALS[_intern(atom.name) << 1 | bool(negated)]

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Load as the loading process's literal: ids and hashes differ there.
        return Literal, (self.atom, self.negated)

    def complement(self) -> "Literal":
        return _LITERALS[self.id ^ 1]

    def __str__(self) -> str:
        return _TEXTS[self.id]


# Atom, Literal and Rule are slotted, so no instance has a ``__dict__`` and
# every attribute read in the engines' loops stays on CPython's fast path.
# Their builders write the slots through the descriptors, past the refusing
# ``__setattr__``.
_new = object.__new__
_set_atom_name = Atom.name.__set__
_set_atom = Literal.atom.__set__
_set_negated = Literal.negated.__set__
_set_id = Literal.id.__set__
_set_hash = Literal._hash.__set__


def pos(name: str) -> Literal:
    """The positive literal of the atom ``name``; the name is checked only
    on first sight."""
    return _LITERALS[_intern(name) << 1]


def neg(name: str) -> Literal:
    return _LITERALS[_intern(name) << 1 | 1]


def complement(lit: Literal) -> Literal:
    """The classical complement; involutive."""
    return lit.complement()


@dataclass(frozen=True, slots=True, init=False)
class Rule:
    """A named rule ``head :- pbody, not nbody``; empty bodies make a fact.

    ``head_id`` is the head's literal id, and ``pmask`` and ``nmask`` the
    bits of the two bodies.
    """

    name: str
    head: Literal
    pbody: frozenset[Literal] = frozenset()
    nbody: frozenset[Literal] = frozenset()
    head_id: int = field(init=False, repr=False, compare=False)
    pmask: int = field(init=False, repr=False, compare=False)
    nmask: int = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        name: str,
        head: Literal,
        pbody: frozenset[Literal] = frozenset(),
        nbody: frozenset[Literal] = frozenset(),
    ):
        _set_name(self, name)
        _set_head(self, head)
        _set_pbody(self, pbody)
        _set_nbody(self, nbody)
        if name not in _RULE_NAMES:
            if not IDENT_RE.match(name):
                raise ProgramError(f"invalid rule name {name!r}")
            _RULE_NAMES.add(name)
        _set_head_id(self, head.id)
        _set_pmask(self, bits_of(pbody))
        _set_nmask(self, bits_of(nbody))

    def __reduce__(self):
        # Rebuild on load: the ids and masks are this process's.
        return Rule, (self.name, self.head, self.pbody, self.nbody)

    @property
    def basic(self) -> bool:
        return not self.nbody

    def reduct_rule(self) -> "Rule":
        """This rule with its negative body stripped (same name)."""
        return Rule(self.name, self.head, self.pbody)

    def literals(self) -> Iterator[Literal]:
        yield self.head
        yield from self.pbody
        yield from self.nbody

    def __str__(self) -> str:
        parts = [str(l) for l in sorted(self.pbody, key=str)]
        parts += [f"not {l}" for l in sorted(self.nbody, key=str)]
        if parts:
            return f"{self.name}: {self.head} :- {', '.join(parts)}."
        return f"{self.name}: {self.head}."


_set_name = Rule.name.__set__
_set_head = Rule.head.__set__
_set_pbody = Rule.pbody.__set__
_set_nbody = Rule.nbody.__set__
_set_head_id = Rule.head_id.__set__
_set_pmask = Rule.pmask.__set__
_set_nmask = Rule.nmask.__set__


def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"{type(self).__name__} is immutable; cannot set {name!r}")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"{type(self).__name__} is immutable; cannot delete {name!r}")


# The frozen dataclass methods hand a name that is not a field to
# ``super()``, which fails on the class that ``slots=True`` rebuilds; this
# pair refuses every name alike.
Atom.__setattr__ = Literal.__setattr__ = Rule.__setattr__ = _refuse_set
Atom.__delattr__ = Literal.__delattr__ = Rule.__delattr__ = _refuse_delete


def rule(
    name: str,
    head: Literal,
    pbody: Iterable[Literal] = (),
    nbody: Iterable[Literal] = (),
) -> Rule:
    """Convenience constructor collapsing duplicate body literals."""
    return Rule(name, head, frozenset(pbody), frozenset(nbody))


@dataclass(frozen=True)
class PreferenceOrder:
    """A strict partial order on rule names, closed as bitsets when read.

    Bit j of ``above[i]`` is set when rule ``rule_names[j]`` has higher
    priority than rule ``rule_names[i]``; ``below`` is the transpose.  Each
    is closed only when first read: ``above`` by ``lfp-ap`` and ``pas``,
    ``below`` by ``pwfs``, ``pwfs-simplistic`` and ``brewka``.
    ``generators`` keeps the pairs as originally declared so that a program
    can be rendered back without materialising the closure; orders are
    equal when their declared pairs are.  ``position`` is each rule name's
    bit position, as validation built it.  Validation's Kahn pass leaves
    ``lower[i]``, the rules declared directly below rule i, and
    ``highest_first``, every rule after the rules above it (a linear
    extension of the order; both empty when there are no pairs).  ``above``
    is pushed down ``highest_first`` over ``lower``, ``below`` pulled up its
    reverse, and the closures of the semantics visit the rules along it.
    """

    generators: frozenset[tuple[str, str]] = frozenset()
    rule_names: tuple[str, ...] = field(default=(), compare=False)
    position: dict[str, int] = field(default_factory=dict, compare=False, repr=False)
    highest_first: tuple[int, ...] = field(default=(), compare=False, repr=False)
    lower: Sequence[Sequence[int]] = field(default=(), compare=False, repr=False)

    @classmethod
    def empty(cls) -> "PreferenceOrder":
        return cls()

    @cached_property
    def above(self) -> tuple[int, ...]:
        """For each rule, the rules above it, handed down ``highest_first``."""
        lower, reach = self.lower, [0] * len(self.rule_names)
        for j in self.highest_first:
            up = reach[j] | 1 << j
            for i in lower[j]:
                reach[i] |= up
        return tuple(reach)

    @cached_property
    def below(self) -> tuple[int, ...]:
        """The transpose of ``above``, gathered up ``highest_first``."""
        lower, reach = self.lower, [0] * len(self.rule_names)
        for j in reversed(self.highest_first):
            down = 0
            for i in lower[j]:
                down |= reach[i] | 1 << i
            reach[j] = down
        return tuple(reach)

    @cached_property
    def pairs(self) -> frozenset[tuple[str, str]]:
        """The closed pairs ``(lower, higher)``, built only when read."""
        names = self.rule_names
        return frozenset(
            (names[i], names[j])
            for i, bits in enumerate(self.above)
            for j in bit_positions(bits)
        )

    def prefers(self, lower: str, higher: str) -> bool:
        i = self.position.get(lower)
        j = self.position.get(higher)
        return i is not None and j is not None and bool(self.above[i] >> j & 1)

    def __bool__(self) -> bool:
        # A validated pair joins two distinct rules, so it closes to one.
        return bool(self.generators)


def bit_positions(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of(literals: Iterable[Literal]) -> int:
    """The bitset of a few literals (quadratic: ``bits_at`` builds a wide set)."""
    bits = 0
    for lit in literals:
        bits |= 1 << lit.id
    return bits


def bits_at(ids: Collection[int]) -> int:
    """The bitset of the literal ids ``ids``, written as binary digits that
    one ``int`` call reads: linear in the width, for a set as wide as a universe."""
    digits = bytearray(b"0" * (max(ids, default=0) + 1))
    for i in ids:
        digits[-1 - i] = 49  # "1"; the lowest bit is the last digit
    return int(digits, 2)


def _decode(bits: int, table: list) -> list:
    """``table[i]`` for each literal id i of a bitset, lowest first, read
    from its binary digits above its lowest id in time linear in that span
    (``bit_positions`` pays the whole width per literal)."""
    if not bits:
        return []
    low = (bits & -bits).bit_length() - 1
    digits, found, i = bin(bits >> low)[:1:-1], [], -1
    while (i := digits.find("1", i + 1)) >= 0:
        found.append(table[low + i])
    return found


def literals_of(bits: int) -> frozenset[Literal]:
    """The literals of a bitset."""
    return frozenset(_decode(bits, _LITERALS))


def texts_of(bits: int) -> list[str]:
    """The texts of the literals of a bitset, sorted; no literal is read or
    hashed."""
    return sorted(_decode(bits, _TEXTS))


def has_pair(bits: int) -> int:
    """Non-zero iff the bitset holds a literal together with its complement."""
    return bits & (bits >> 1) & _EVEN


def _edges(
    pairs: Iterable[tuple[str, str]], position: dict[str, int]
) -> tuple[list[int], list[list[int]]]:
    """For pairs ``(a, b)`` of rule names: each rule's count of pairs with it
    as ``a``, and for each rule ``b`` the positions of the ``a`` of its
    pairs.  Raises KeyError on a name with no position."""
    count = [0] * len(position)
    into: list[list[int]] = [[] for _ in position]
    for a, b in pairs:
        i = position[a]
        count[i] += 1
        into[position[b]].append(i)
    return count, into


def _kahn(waiting: list[int], into: list[list[int]]) -> list[int]:
    """Kahn's algorithm, counting only: rule i waits on ``waiting[i]``
    rules, and ``into[j]`` lists the rules that wait on rule j.  Returns
    the rules in an order where each follows every rule it waits on; the
    rules left out are on or behind a cycle, and their counts stay non-zero.
    """
    done = [i for i, count in enumerate(waiting) if not count]
    for j in done:
        for i in into[j]:
            waiting[i] -= 1
            if not waiting[i]:
                done.append(i)
    return done


def validate_order(
    pairs: Iterable[tuple[str, str]], rules: Iterable[Rule]
) -> PreferenceOrder:
    """Check ``pairs`` against the rules, in O(rules + pairs): reject
    repeated rule names, unknown names and cycles.  Nothing is closed here.

    Raises DuplicateRuleError on the first rule whose name an earlier rule
    has, UnknownRuleError if a pair names a rule that does not exist, and
    CycleError, naming a rule on a cycle, if the closure would be reflexive.
    """
    pairs = frozenset(pairs)
    names = tuple(r.name for r in rules)
    position: dict[str, int] = {}
    for i, name in enumerate(names):
        if position.setdefault(name, i) != i:
            raise DuplicateRuleError(name)
    if not pairs:
        return PreferenceOrder(pairs, names, position)
    try:
        waiting, lower = _edges(pairs, position)
    except KeyError as exc:
        raise UnknownRuleError(exc.args[0]) from None
    ranked = _kahn(waiting, lower)
    if len(ranked) < len(names):
        # Every rule left waits on a rule above it that is also left, so
        # climbing through those rules must revisit one: it is on a cycle.
        # Each step takes the lowest position, so no hash order shows.
        upper = _edges([(b, a) for a, b in pairs], position)[1]
        i = next(i for i, count in enumerate(waiting) if count)
        seen = set()
        while i not in seen:
            seen.add(i)
            i = min(j for j in upper[i] if waiting[j])
        raise CycleError(names[i])
    return PreferenceOrder(pairs, names, position, tuple(ranked), lower)


@dataclass(frozen=True)
class OrderedProgram:
    """A finite rule sequence plus a validated preference order.

    The order's bitsets are over this program's rule positions: bit i is
    ``rules[i]``.  ``nb_of`` and ``hb_of`` are built on first use; they
    serve the defeat sets of ``prefwfs`` and the live set of
    ``preference``.
    """

    rules: tuple[Rule, ...] = ()
    order: PreferenceOrder = field(default_factory=PreferenceOrder.empty)

    def __post_init__(self):
        if self.order.rule_names != tuple(r.name for r in self.rules):
            # Validate the order over this program's rules, so that bit i of
            # the order's bitsets is always rule i; this also rejects
            # repeated and unknown names.
            object.__setattr__(
                self, "order", validate_order(self.order.generators, self.rules)
            )

    @cached_property
    def by_name(self) -> dict[str, Rule]:
        return {r.name: r for r in self.rules}

    @cached_property
    def universe(self) -> frozenset[Literal]:
        return literal_universe(self)

    @cached_property
    def nb_of(self) -> dict[int, int]:
        """For each literal id, the rules with it in their negative body, as
        a bitset over rule positions."""
        return self._defeat_maps[0]

    @cached_property
    def hb_of(self) -> dict[int, int]:
        """For each literal id, the rules with it as head, as a bitset over
        rule positions."""
        return self._defeat_maps[1]

    @cached_property
    def _defeat_maps(self) -> tuple[dict[int, int], dict[int, int]]:
        """``nb_of`` and ``hb_of``, built in one pass over the rules."""
        nb_of, hb_of = {}, {}
        for i, r in enumerate(self.rules):
            hb_of[r.head_id] = hb_of.get(r.head_id, 0) | 1 << i
            for lit in r.nbody:
                nb_of[lit.id] = nb_of.get(lit.id, 0) | 1 << i
        return nb_of, hb_of

    @cached_property
    def rule_index(self) -> RuleIndex:
        """Rule positions by body and head literal id (see ``index_rules``)."""
        return index_rules(self.rules)

    def __reduce__(self):
        # Rebuild on load: the cached views are keyed by this process's ids.
        return OrderedProgram, (self.rules, self.order)

    def strip_order(self) -> "OrderedProgram":
        return OrderedProgram(self.rules, PreferenceOrder.empty())

    def __str__(self) -> str:
        lines = [str(r) for r in self.rules]
        lines += [f"{a} < {b}." for a, b in sorted(self.order.generators)]
        return "\n".join(lines)


def program(
    rules: Iterable[Rule], pairs: Iterable[tuple[str, str]] = ()
) -> OrderedProgram:
    """Build a validated program from rules and raw preference pairs."""
    rules = tuple(rules)
    return OrderedProgram(rules, validate_order(pairs, rules))


def literal_universe(source: OrderedProgram | Iterable[Rule]) -> frozenset[Literal]:
    """Both polarities of every atom occurring anywhere in the program."""
    rules = source.rules if isinstance(source, OrderedProgram) else source
    atoms = {lit.id >> 1 for r in rules for lit in r.literals()}
    return frozenset(_LITERALS[i] for k in atoms for i in (2 * k, 2 * k + 1))


Positions = dict[int, list[int]]
RuleIndex = tuple[Positions, Positions, Positions]


def index_rules(rules: Sequence[Rule]) -> RuleIndex:
    """For each literal id, the positions (in rule order) of the rules with
    it in their positive body, in their negative body, and as their head."""
    by_pbody: Positions = {}
    by_nbody: Positions = {}
    by_head: Positions = {}
    for i, r in enumerate(rules):
        by_head.setdefault(r.head_id, []).append(i)
        for lit in r.pbody:
            by_pbody.setdefault(lit.id, []).append(i)
        for lit in r.nbody:
            by_nbody.setdefault(lit.id, []).append(i)
    return by_pbody, by_nbody, by_head


def supporting_rules(rules: Sequence[Rule], y: int) -> int:
    """The rules whose positive body lies in the literal bitset y, as a
    bitset over rule positions."""
    bits = 0
    for i, r in enumerate(rules):
        if r.pmask & y == r.pmask:
            bits |= 1 << i
    return bits


def mentioned_literals(
    source: OrderedProgram | Iterable[Rule],
) -> frozenset[Literal]:
    """Literals that occur verbatim in the program text."""
    rules = source.rules if isinstance(source, OrderedProgram) else source
    return frozenset(lit for r in rules for lit in r.literals())


def is_consistent(literals: Iterable[Literal]) -> bool:
    return not has_pair(bits_of(literals))


class Interpretation:
    """A consistent literal set, or the whole universe (``is_lit``).

    The value is ``bits``, its literals as a bitset; equality and hash
    read only it, and assigning to any attribute raises.  Lit is the whole
    universe, whose bits hold every complementary pair, so ``is_lit`` is
    read from the bits.  A value built from literals keeps the frozenset
    it was given; one built from bits decodes ``literals`` when first read.
    """

    __slots__ = ("bits", "_literals")

    def __init__(self, literals: Iterable[Literal] = frozenset(), is_lit: bool = False):
        literals = frozenset(literals)
        bits = bits_at([lit.id for lit in literals]) if len(literals) > 256 else bits_of(literals)
        if not is_lit and has_pair(bits):
            raise ProgramError("inconsistent interpretation must be flagged as Lit")
        _set_bits(self, bits)
        _set_literals(self, literals)

    @classmethod
    def empty(cls) -> "Interpretation":
        return _EMPTY

    @classmethod
    def of(cls, literals: Iterable[Literal]) -> "Interpretation":
        return cls(frozenset(literals))

    @classmethod
    def lit(cls, universe: Iterable[Literal]) -> "Interpretation":
        return cls(frozenset(universe), is_lit=True)

    @classmethod
    def from_bits(cls, bits: int, universe: Iterable[Literal]) -> "Interpretation":
        """The set ``bits`` if consistent, else the whole universe as Lit."""
        if has_pair(bits):
            return cls.lit(universe)
        value = _new(cls)
        _set_bits(value, bits)
        _set_literals(value, None)
        return value

    @property
    def is_lit(self) -> bool:
        return bool(has_pair(self.bits))

    @property
    def literals(self) -> frozenset[Literal]:
        if self._literals is None:
            _set_literals(self, literals_of(self.bits))
        return self._literals

    def __eq__(self, other):
        if type(other) is not Interpretation:
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    __setattr__, __delattr__ = _refuse_set, _refuse_delete

    def __reduce__(self):
        # Rebuild on load from the literals: ids differ between processes.
        return Interpretation, (self.literals, self.is_lit)

    def __contains__(self, lit: Literal) -> bool:
        return bool(self.bits >> lit.id & 1)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def issubset(self, other: "Interpretation") -> bool:
        return not self.bits & ~other.bits

    def __repr__(self) -> str:
        return f"Interpretation(literals={self.literals!r}, is_lit={self.is_lit!r})"

    def __str__(self) -> str:
        if self.is_lit:
            return "Lit"
        return "{" + ", ".join(sorted(map(str, self.literals))) + "}"


# The constructors write the slots through their descriptors, past the
# refusing ``__setattr__``.
_set_bits = Interpretation.bits.__set__
_set_literals = Interpretation._literals.__set__
_EMPTY = Interpretation()


@dataclass(frozen=True)
class PartialModel:
    """Disjoint true/false literal sets; the rest of the universe is unknown."""

    true_set: frozenset[Literal]
    false_set: frozenset[Literal]

    def __post_init__(self):
        overlap = self.true_set & self.false_set
        if overlap:
            raise ProgramError(
                f"partial model overlap: {sorted(map(str, overlap))}"
            )

    @classmethod
    def from_fixpoint(
        cls, true: int, supported: int, universe: frozenset
    ) -> "PartialModel":
        """``true`` is the lfp's bits, and ``false_bits`` gives the false set
        of the raw supported bits."""
        false = false_bits(bits_at([lit.id for lit in universe]), true, supported)
        return cls(literals_of(true), literals_of(false))

    def unknown(self, universe: Iterable[Literal]) -> frozenset[Literal]:
        return frozenset(universe) - self.true_set - self.false_set

    def __str__(self) -> str:
        fmt = lambda s: "{" + ", ".join(sorted(map(str, s))) + "}"
        return f"({fmt(self.true_set)}, {fmt(self.false_set)})"


def false_bits(universe: int, true: int, supported: int) -> int:
    """The well-founded false set: the literals of the universe neither true
    nor supported by the true set, all three bitsets.

    ``supported`` is raw: when it holds a complementary pair, the collapsed
    support is the whole universe and nothing is false.  A fixpoint can
    collapse to the whole universe while what it supports stays small, so
    true literals are never reported false.
    """
    return 0 if has_pair(supported) else universe & ~supported & ~true
