"""Core syntax: literals, rules, ordered programs, interpretations.

All types are immutable values; they can be shared freely across threads.
An ordered program couples a finite rule set with a strict partial order on
rule names (``r1 < r2`` meaning r2 has higher priority).

The order is kept closed as Python-int bitsets over rule positions, one
``above`` and one ``below`` mask per rule, each built by one Kahn pass, so
the O(n^2) closed pairs are never listed unless ``pairs`` is read.  A
program adds, on first use, ``nb[l]`` and ``hb[l]`` (the rules with l in
their negative body, and with head l) and ``static[i] = below[i] &
nb[head(i)]``, from which ``prefwfs`` forms defeat sets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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
    "bit_positions",
    "validate_order",
    "is_consistent",
    "pos",
    "neg",
    "rule",
    "program",
]

IDENT_RE = re.compile(r"[a-z][A-Za-z0-9_]*$")


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


@dataclass(frozen=True, order=True)
class Atom:
    """A propositional atom; names follow the identifier lexical class."""

    name: str

    def __post_init__(self):
        if not IDENT_RE.match(self.name):
            raise ProgramError(f"invalid atom name {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Literal:
    """An atom or its classical negation.

    The hash is computed once, at construction, and is the value the
    generated dataclass hash would give, ``hash((atom, negated))``: set
    iteration orders, and so the pairs the theorem battery samples, must
    not depend on how a literal was built.  The complement is cached.
    """

    atom: Atom
    negated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.atom, self.negated)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild on load: a stored hash would be stale under another seed.
        return Literal, (self.atom, self.negated)

    def complement(self) -> "Literal":
        try:
            return self._complement
        except AttributeError:
            flipped = Literal(self.atom, not self.negated)
            object.__setattr__(flipped, "_complement", self)
            object.__setattr__(self, "_complement", flipped)
            return flipped

    def __str__(self) -> str:
        return f"-{self.atom}" if self.negated else str(self.atom)


def pos(name: str) -> Literal:
    return Literal(Atom(name))


def neg(name: str) -> Literal:
    return Literal(Atom(name), negated=True)


def complement(lit: Literal) -> Literal:
    """The classical complement; involutive."""
    return lit.complement()


@dataclass(frozen=True)
class Rule:
    """A named rule ``head :- pbody, not nbody``; empty bodies make a fact."""

    name: str
    head: Literal
    pbody: frozenset[Literal] = frozenset()
    nbody: frozenset[Literal] = frozenset()

    def __post_init__(self):
        if not IDENT_RE.match(self.name):
            raise ProgramError(f"invalid rule name {self.name!r}")

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
    """A strict partial order on rule names, stored closed as bitsets.

    Bit j of ``above[i]`` is set when rule ``rule_names[j]`` has higher
    priority than rule ``rule_names[i]``; ``below`` is the transpose, bit j
    of ``below[i]`` set when rule j has lower priority than rule i.
    ``generators`` keeps the pairs as originally declared so that a program
    can be rendered back without materialising the closure; orders are
    equal when their declared pairs are.
    """

    generators: frozenset[tuple[str, str]] = frozenset()
    rule_names: tuple[str, ...] = field(default=(), compare=False)
    above: tuple[int, ...] = field(default=(), compare=False)
    below: tuple[int, ...] = field(default=(), compare=False)

    @classmethod
    def empty(cls) -> "PreferenceOrder":
        return cls()

    @cached_property
    def position(self) -> dict[str, int]:
        """Each rule name's bit position."""
        return {name: i for i, name in enumerate(self.rule_names)}

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
        return any(self.above)


def bit_positions(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _kahn(
    out: list[list[int]], into: list[list[int]]
) -> tuple[list[int], list[int]]:
    """Kahn's algorithm over the edges ``out`` (``into`` reversed): each
    rule's bitset of the rules it reaches, and each rule's count of edges
    left unresolved, non-zero only on and behind a cycle.  A rule's set is
    final once every rule it has an edge to is done.
    """
    waiting = [len(edges) for edges in out]
    reach = [0] * len(out)
    done = [i for i, count in enumerate(waiting) if not count]
    for j in done:
        for i in into[j]:
            reach[i] |= reach[j] | 1 << j
            waiting[i] -= 1
            if not waiting[i]:
                done.append(i)
    return reach, waiting


def validate_order(
    pairs: Iterable[tuple[str, str]], rules: Iterable[Rule]
) -> PreferenceOrder:
    """Close ``pairs`` transitively and reject cycles and unknown names.

    Raises CycleError, naming a rule on a cycle, if the closure would be
    reflexive, and UnknownRuleError if a pair names a rule that does not
    exist.
    """
    pairs = frozenset(pairs)
    names = tuple(r.name for r in rules)
    position = {name: i for i, name in enumerate(names)}
    for pair in pairs:
        for name in pair:
            if name not in position:
                raise UnknownRuleError(name)
    if not pairs:
        unordered = (0,) * len(names)
        return PreferenceOrder(pairs, names, unordered, unordered)
    upper: list[list[int]] = [[] for _ in names]
    lower: list[list[int]] = [[] for _ in names]
    for a, b in pairs:
        upper[position[a]].append(position[b])
        lower[position[b]].append(position[a])
    above, waiting = _kahn(upper, lower)
    if any(waiting):
        # Every rule left waits on a rule above it that is also left, so
        # climbing through those rules must revisit one: it is on a cycle.
        i = next(i for i, count in enumerate(waiting) if count)
        seen = set()
        while i not in seen:
            seen.add(i)
            i = next(j for j in upper[i] if waiting[j])
        raise CycleError(names[i])
    below, _ = _kahn(lower, upper)
    return PreferenceOrder(pairs, names, tuple(above), tuple(below))


@dataclass(frozen=True)
class OrderedProgram:
    """A finite rule sequence plus a validated preference order.

    The order's bitsets are over this program's rule positions: bit i is
    ``rules[i]``.  ``nb``, ``hb`` and ``static`` are built on first use;
    they serve the defeat sets of ``prefwfs`` and the live set of
    ``preference``.
    """

    rules: tuple[Rule, ...] = ()
    order: PreferenceOrder = field(default_factory=PreferenceOrder.empty)

    def __post_init__(self):
        seen: set[str] = set()
        for r in self.rules:
            if r.name in seen:
                raise DuplicateRuleError(r.name)
            seen.add(r.name)
        names = tuple(r.name for r in self.rules)
        if self.order.rule_names != names:
            # Close the order over this program's rules, so that bit i of the
            # order's bitsets is always rule i; this also rejects unknown names.
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
    def nb(self) -> dict[Literal, int]:
        """For each literal l, the rules with l in their negative body, as a
        bitset over rule positions."""
        acc: dict[Literal, int] = {}
        for i, r in enumerate(self.rules):
            for lit in r.nbody:
                acc[lit] = acc.get(lit, 0) | 1 << i
        return acc

    @cached_property
    def hb(self) -> dict[Literal, int]:
        """For each literal l, the rules with head l, as a bitset over rule
        positions."""
        acc: dict[Literal, int] = {}
        for i, r in enumerate(self.rules):
            acc[r.head] = acc.get(r.head, 0) | 1 << i
        return acc

    @cached_property
    def static(self) -> tuple[int, ...]:
        """For each rule i, ``below[i] & nb[head(i)]``: the lower rules that
        rule i defeats at every state, whatever has been derived."""
        nb = self.nb
        return tuple(
            bits and bits & nb.get(r.head, 0)
            for r, bits in zip(self.rules, self.order.below)
        )

    @cached_property
    def rule_index(self) -> RuleIndex:
        """Rule positions by body and head literal (see ``index_rules``)."""
        return index_rules(self.rules)

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
    # Reuse the program's literal objects and their cached complements.
    # Atoms go in one at a time in first-occurrence order (``set(some)``
    # would pre-size the table): the battery samples in this set's iteration
    # order, so it must not depend on how the literals were built.
    some: dict[Atom, Literal] = {}
    for r in rules:
        for lit in r.literals():
            some.setdefault(lit.atom, lit)
    atoms = {a for a in some}
    positive = (some[a].complement() if some[a].negated else some[a] for a in atoms)
    return frozenset(lit for p in positive for lit in (p, p.complement()))


Positions = dict[Literal, list[int]]
RuleIndex = tuple[Positions, Positions, Positions]


def index_rules(rules: Sequence[Rule]) -> RuleIndex:
    """For each literal, the positions (in rule order) of the rules with it
    in their positive body, in their negative body, and as their head."""
    by_pbody: Positions = {}
    by_nbody: Positions = {}
    by_head: Positions = {}
    for i, r in enumerate(rules):
        by_head.setdefault(r.head, []).append(i)
        for lit in r.pbody:
            by_pbody.setdefault(lit, []).append(i)
        for lit in r.nbody:
            by_nbody.setdefault(lit, []).append(i)
    return by_pbody, by_nbody, by_head


def mentioned_literals(
    source: OrderedProgram | Iterable[Rule],
) -> frozenset[Literal]:
    """Literals that occur verbatim in the program text."""
    rules = source.rules if isinstance(source, OrderedProgram) else source
    return frozenset(lit for r in rules for lit in r.literals())


def is_consistent(literals: Iterable[Literal]) -> bool:
    literals = frozenset(literals)
    return not any(lit.complement() in literals for lit in literals)


@dataclass(frozen=True)
class Interpretation:
    """A consistent literal set, or the whole universe (``is_lit``).

    The inconsistent case is always represented by the flag together with
    the full universe, never by a raw contradictory set.
    """

    literals: frozenset[Literal] = frozenset()
    is_lit: bool = False

    def __post_init__(self):
        if self.is_lit and not self.literals:
            # The universe of an atom-free program is empty and consistent.
            object.__setattr__(self, "is_lit", False)
        elif not self.is_lit and not is_consistent(self.literals):
            raise ProgramError(
                "inconsistent interpretation must be flagged as Lit"
            )

    @classmethod
    def empty(cls) -> "Interpretation":
        return cls(frozenset())

    @classmethod
    def trusted(cls, literals: frozenset[Literal]) -> "Interpretation":
        """The consistent set ``literals``, unchecked: only for callers that
        know it has no complementary pair (every other constructor checks)."""
        value = object.__new__(cls)
        object.__setattr__(value, "literals", literals)
        object.__setattr__(value, "is_lit", False)
        return value

    @classmethod
    def of(cls, literals: Iterable[Literal]) -> "Interpretation":
        return cls(frozenset(literals))

    @classmethod
    def lit(cls, universe: Iterable[Literal]) -> "Interpretation":
        return cls(frozenset(universe), is_lit=True)

    @classmethod
    def collapse(
        cls, literals: Iterable[Literal], universe: Iterable[Literal]
    ) -> "Interpretation":
        """``literals`` if consistent, else the whole universe as Lit."""
        try:
            return cls(frozenset(literals))  # __post_init__ tests consistency
        except ProgramError:
            return cls.lit(universe)

    @property
    def consistent(self) -> bool:
        return not self.is_lit

    def __contains__(self, lit: Literal) -> bool:
        return lit in self.literals

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def issubset(self, other: "Interpretation") -> bool:
        return self.literals <= other.literals

    def __str__(self) -> str:
        if self.is_lit:
            return "Lit"
        return "{" + ", ".join(sorted(map(str, self.literals))) + "}"


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
        cls, lfp: Interpretation, supported: Interpretation, universe: frozenset
    ) -> "PartialModel":
        """lfp is true; a literal neither true nor supported by lfp is false.

        A fixpoint can collapse to the whole universe while what it
        supports stays small, so true literals are never reported false.
        """
        return cls(lfp.literals, universe - supported.literals - lfp.literals)

    def unknown(self, universe: Iterable[Literal]) -> frozenset[Literal]:
        return frozenset(universe) - self.true_set - self.false_set

    def __str__(self) -> str:
        fmt = lambda s: "{" + ", ".join(sorted(map(str, s))) + "}"
        return f"({fmt(self.true_set)}, {fmt(self.false_set)})"
