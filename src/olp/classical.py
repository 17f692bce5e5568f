"""Classical semantics for extended logic programs (no preferences).

Implements the reduct, the one derivation loop that every consequence
operator shares (each engine supplies only its firing test), the closure
of basic programs, the immediate consequence operator with a blocking
context, answer sets by a search between alternating bounds, and the
well-founded model as the least fixpoint of ``a_op = c_op . c_op``, or
bottom-up, each head decided once, for an acyclic program (``peel``).

The alternating fixpoints do not close from scratch at every step: each
half of the alternation is a ``LiveClosure``, which keeps its derived set
between calls and, for a new context, re-tests only the rules whose
counters the change touches.  Like ``_c_star`` it returns the raw closure
as bits; the fixpoints collapse it to Lit where they read a value, as
``c_op`` collapses ``_c_star``.  ``derive`` and ``c_op`` stay the plain,
stateless references that the theorem battery checks it against.

The answer-set search branches only on the heads that its bounds leave
undecided, as smodels does (Simons, Niemela & Soininen, AIJ 2002); it is a
desk-scale tool, not a solver, and ``head_candidates`` stays as the direct
enumeration that the theorem battery checks it against.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .fixpoint import kleene_trace
from .syntax import (
    Interpretation,
    Literal,
    PartialModel,
    ProgramError,
    Rule,
    RuleIndex,
    bit_positions,
    bits_at,
    bits_of,
    has_pair,
    index_rules,
    is_consistent,
    literals_of,
)

__all__ = [
    "is_active",
    "reduct",
    "derive",
    "fire_step",
    "cl",
    "cn",
    "t_step",
    "c_star",
    "c_op",
    "a_op",
    "LiveClosure",
    "answer_sets",
    "head_candidates",
    "peel",
    "well_founded_bits",
    "well_founded_fixpoint",
    "well_founded_model",
]

MAX_ENUM_HEADS = 20
Fires = Callable[[int], bool]  # fires(rule position)


def is_active(r: Rule, x: Interpretation, y: Interpretation) -> bool:
    """True iff pbody(r) is contained in x and nbody(r) misses y."""
    return not r.pmask & ~x.bits and not r.nmask & y.bits


def reduct(rules: Iterable[Rule], x: Interpretation) -> tuple[Rule, ...]:
    """Drop rules whose negative body meets x; strip the rest to basic rules."""
    return tuple(r.reduct_rule() for r in rules if not r.nmask & x.bits)


def derive(
    rules: Sequence[Rule],
    fires: Fires | None = None,
    grow: Callable[[int], None] | None = None,
    order: Sequence[int] = (),
) -> int:
    """Least raw set, as bits, closed under the rules that fire; no
    consistency collapse.

    A rule adds its head once its positive body is derived and ``fires(i)``
    holds, i being its position in ``rules`` (no test means it always
    holds).  The first pass visits the positions in ``order`` (all of
    them, or none for rule order).  Any order gives the same least set,
    because every firing test stays true as the derived set grows; the
    order only decides how many passes it takes: visited along the
    preference order that the test reads, a rule is tested after the rules
    that can hold it back.  A pass re-tests only the rules that have not
    fired, and every pass but the last fires one, so the loop ends within
    ``len(rules) + 1`` passes.  ``grow(head)``, when given, is called with
    the id of each head added, so a firing test can keep its own view of
    the derived set up to date.
    """
    derived = 0
    pending = order or range(len(rules))
    while True:
        waiting = []
        for i in pending:
            r = rules[i]
            h = r.head_id
            if derived >> h & 1:
                continue
            if r.pmask & derived == r.pmask and (fires is None or fires(i)):
                derived |= 1 << h
                if grow:
                    grow(h)
            else:
                waiting.append(i)
        if not waiting or len(waiting) == len(pending):
            return derived
        pending = waiting


def fire_step(
    rules: Iterable[Rule],
    fires: Fires | None,
    x: Interpretation,
    universe: frozenset[Literal],
) -> Interpretation:
    """One ``derive`` step: heads of the rules firing at x, collapsed; Lit stays."""
    if x.is_lit:
        return Interpretation.lit(universe)
    xs = x.bits
    heads = 0
    for i, r in enumerate(rules):
        if r.pmask & xs == r.pmask and (fires is None or fires(i)):
            heads |= 1 << r.head_id
    return Interpretation.from_bits(heads, universe)


def _basic(rules: Sequence[Rule]) -> int:
    """The closure of a basic program, as bits."""
    for r in rules:
        if r.nmask:
            raise ProgramError(f"closure requires a basic program, got {r}")
    return derive(rules)


def _c_star(rules: Sequence[Rule], y: int) -> int:
    """``c_star`` over bits: the closure of the rules whose negative body
    misses y."""
    return derive([r for r in rules if not r.nmask & y])


def cl(rules: Sequence[Rule]) -> frozenset[Literal]:
    """Smallest set closed under a basic program; no consistency collapse."""
    return literals_of(_basic(rules))


def cn(rules: Sequence[Rule], universe: frozenset[Literal]) -> Interpretation:
    """Smallest logically closed set closed under a basic program.

    Collapses to the full universe as soon as a complementary pair is
    derivable.
    """
    return Interpretation.from_bits(_basic(rules), universe)


def t_step(
    rules: Iterable[Rule],
    y: Interpretation,
    x: Interpretation,
    universe: frozenset[Literal],
) -> Interpretation:
    """Heads of the rules active wrt (x, y); the whole universe if x is not
    consistent."""
    return fire_step([r for r in rules if not r.nmask & y.bits], None, x, universe)


def c_star(rules: Sequence[Rule], x: frozenset[Literal]) -> frozenset[Literal]:
    """Paraconsistent consequences of the reduct relative to x."""
    return literals_of(_c_star(rules, bits_of(x)))


def c_op(
    rules: Sequence[Rule], x: Interpretation, universe: frozenset[Literal]
) -> Interpretation:
    """Consequences of the reduct relative to x: c_star plus the collapse."""
    return Interpretation.from_bits(_c_star(rules, x.bits), universe)


def a_op(
    rules: Sequence[Rule], x: Interpretation, universe: frozenset[Literal]
) -> Interpretation:
    """The alternating operator: two consequence applications."""
    return c_op(rules, c_op(rules, x, universe), universe)


def _alone(i: int) -> tuple[int]:
    """Rule i alone: what bit i of a rule bitset stands for."""
    return (i,)


class LiveClosure:
    """``_c_star(rules, y)`` for a sequence of contexts y, kept live: the
    raw closure, as bits, with no collapse to Lit.

    The closure keeps its raw derived set (``c_star`` at the last context,
    as bits) between calls, and one counter per rule: its positive-body
    literals not derived yet, plus its negative-body literals in the
    context, plus one while the rule is outside the rule set.  A rule fires
    when its counter is zero; deriving a literal counts down the rules with
    it in their positive body and puts those that reach zero on the
    worklist (the counter-based Horn closure of Dowling & Gallier, J. Logic
    Programming 1984).

    Both moves go through one step, ``_move``.  A new context (a bitset,
    complementary pairs allowed) is diffed against the last one: a literal
    that joins it counts up the rules with it in their negative body, one
    that leaves counts them down.  ``within(mask)`` moves the closure
    between rule sets (bitsets over rule positions) the same way: a rule
    that leaves the set counts up, one that joins counts down.  A rule that
    reaches zero is queued, and a rule that leaves zero retracts what it
    supported: its head goes, together with everything derived through it,
    and every rule that can derive a deleted literal again is then
    re-tested (DRed's over-delete and re-derive: Gupta, Mumick &
    Subrahmanian, SIGMOD 1993).  A move costs the size of the change and of
    what it retracts.  A caller that reads a collapsed value collapses the
    bits itself (``Interpretation.from_bits``).  brewka closes its reducts
    with ``within`` and never sets a context.

    ``index`` is ``index_rules(rules)`` where the caller has it already;
    it is read, never written, so closures over the same rules share it,
    and kept as ``self.index`` for the next closure.
    """

    def __init__(self, rules: Sequence[Rule], *, index: RuleIndex | None = None):
        self._rules = tuple(rules)
        self.index = index = index or index_rules(self._rules)
        self._by_pbody, self._by_nbody, self._by_head = index
        self._missing = [len(r.pbody) for r in self._rules]
        self._watched = 0  # the literals that some negative body holds
        for r in self._rules:
            self._watched |= r.nmask
        self._work = [i for i, n in enumerate(self._missing) if not n]
        self._derived = 0
        self._context = 0  # the watched literals of the last context
        self._mask = (1 << len(self._rules)) - 1  # the rules in the set

    def __call__(self, y: int) -> int:
        """The raw closure, as bits, of the rules in the set whose negative
        body misses the context y."""
        context, old = y & self._watched, self._context
        self._context = context
        return self._move(context & ~old, old & ~context, self._by_nbody.__getitem__)

    def within(self, mask: int) -> int:
        """The raw closure, as bits, of the rules at the set bits of
        ``mask`` whose negative body misses the context (brewka's stays
        empty)."""
        old, self._mask = self._mask, mask
        return self._move(old & ~mask, mask & ~old, _alone)

    def _move(self, joined: int, left: int, rules_of: Callable[[int], Iterable[int]]) -> int:
        """Count the rules ``rules_of(j)`` one more for each set bit j of
        ``joined`` and one less for each set bit of ``left``; retract the
        heads of the rules that leave zero, fire those that reach it, and
        return the raw closure."""
        rules, missing, work = self._rules, self._missing, self._work
        doomed = 0
        for j in bit_positions(joined):
            for i in rules_of(j):
                if not missing[i]:  # only a rule at zero supports its head
                    doomed |= 1 << rules[i].head_id
                missing[i] += 1
        for j in bit_positions(left):
            for i in rules_of(j):
                missing[i] -= 1
                if not missing[i]:
                    work.append(i)
        self._retract(doomed)
        if work:
            self._fire()
        return self._derived

    def _retract(self, doomed: int) -> None:
        """Over-delete the doomed literals and what they derived, then queue
        every rule that can derive a deleted literal again."""
        rules, derived = self._rules, self._derived
        doomed &= derived
        if not doomed:
            return
        stack = list(bit_positions(doomed))
        while stack:
            for i in self._by_pbody.get(stack.pop(), ()):
                h = rules[i].head_id
                if derived >> h & 1 and not doomed >> h & 1:
                    doomed |= 1 << h
                    stack.append(h)
        missing, work = self._missing, self._work
        for lit in bit_positions(doomed):
            for i in self._by_pbody.get(lit, ()):
                missing[i] += 1
            work.extend(self._by_head[lit])
        self._derived = derived & ~doomed

    def _fire(self) -> None:
        """Fire the queued rules until the worklist is empty."""
        rules, derived, work = self._rules, self._derived, self._work
        missing, by_pbody = self._missing, self._by_pbody
        while work:
            i = work.pop()
            h = rules[i].head_id
            if missing[i] or derived >> h & 1:
                continue
            derived |= 1 << h
            for j in by_pbody.get(h, ()):
                missing[j] -= 1
                if not missing[j]:
                    work.append(j)
        self._derived = derived


def head_candidates(
    rules: Sequence[Rule], universe: frozenset[Literal]
) -> Iterator[Interpretation]:
    """All consistent subsets of the head literals, then the full universe.

    Any fixpoint of the consequence operators contains only rule heads or
    equals the universe, so this space is exhaustive for fixpoint searches.
    No engine enumerates it: it is the theorem battery's reference for the
    answer-set search.
    """
    heads = sorted({r.head for r in rules}, key=str)
    if len(heads) > MAX_ENUM_HEADS:
        raise ProgramError(
            f"candidate enumeration over {len(heads)} heads is not desk-scale"
        )
    for size in range(len(heads) + 1):
        for combo in combinations(heads, size):
            if is_consistent(combo):
                yield Interpretation.of(combo)
    if universe:
        yield Interpretation.lit(universe)


def _tighten(rules: Sequence[Rule], lo: int, hi: int) -> tuple[int, int] | None:
    """Bounds lo <= X <= hi, as bits, on every consistent answer set X
    between the given ones, tightened to a fixpoint; None when no such X
    exists.

    X = c_star(X), and c_star shrinks as its context grows, so X lies in
    c_star(lo) and contains c_star(hi).  At the fixpoint, lo == hi means
    c_star(lo) == lo: lo is then an answer set.
    """
    while True:
        hi &= _c_star(rules, lo)
        grown = lo | _c_star(rules, hi)
        if grown & ~hi or has_pair(grown):
            return None
        if grown == lo:
            return lo, hi
        lo = grown


def answer_sets(
    rules: Sequence[Rule], universe: frozenset[Literal]
) -> frozenset[Interpretation]:
    """All x with cn(reduct(rules, x)) = x.

    The consistent ones by a search from the bounds (empty set, heads): it
    splits the tightened bounds on one undecided head at a time (in or
    out), so it never visits a candidate the bounds exclude.  Lit is tested
    once.  More than ``MAX_ENUM_HEADS`` heads left undecided at the root is
    an input error.
    """
    found = set()
    lit = Interpretation.lit(universe)
    if universe and c_op(rules, lit, universe) == lit:
        found.add(lit)
    heads = 0
    for r in rules:
        heads |= 1 << r.head_id
    root = _tighten(rules, 0, heads)
    undecided = (root[1] & ~root[0]).bit_count() if root else 0
    if undecided > MAX_ENUM_HEADS:
        raise ProgramError(
            f"answer-set search over {undecided} undecided heads is not desk-scale"
        )
    stack = [root] if root else []
    while stack:
        lo, hi = stack.pop()
        if lo == hi:
            found.add(Interpretation.from_bits(lo, universe))  # _tighten checked it
            continue
        open_ = hi & ~lo
        head = open_ & -open_
        for bounds in (
            _tighten(rules, lo | head, hi),
            _tighten(rules, lo, hi & ~head),
        ):
            if bounds:
                stack.append(bounds)
    return frozenset(found)


def well_founded_fixpoint(
    rules: Sequence[Rule],
    universe: frozenset[Literal],
    supported: LiveClosure | None = None,
) -> tuple[Interpretation, list[Interpretation]]:
    """Least fixpoint of the alternating operator, with its iterates.

    Each half of ``a_op`` is a live closure: the inner one follows the
    growing iterates, the outer one the shrinking contexts they support, so
    a step costs what changed rather than two closures from scratch.  Each
    half's raw bits are collapsed to Lit here, where ``c_op`` would.  A
    caller that passes the inner one, ``supported`` (a ``LiveClosure`` over
    the same rules), reads c_star(lfp) as bits from it afterwards without
    closing again: its last call had the lfp as its context.
    """
    inner = supported or LiveClosure(rules)
    outer = LiveClosure(rules, index=inner.index)
    from_bits = Interpretation.from_bits
    return kleene_trace(
        lambda x: from_bits(outer(from_bits(inner(x.bits), universe).bits), universe),
        universe, "well-founded fixpoint",
    )


def peel(rules: Sequence[Rule], index: RuleIndex) -> int | None:
    """The well-founded true set, as bits, when the literal dependencies
    have no cycle and the heads no complementary pair; else None.

    One Kahn pass over ``index_rules(rules)`` decides a head once the heads
    in its rules' bodies are: true iff a rule of it is blocked by no false
    positive body literal (one heading no rule is false) and no true
    negative one.  Nothing collapses to Lit and the model is total, so the
    true set is also c_star(lfp)."""
    by_pbody, by_nbody, by_head = index
    if any(h ^ 1 in by_head for h in by_head):
        return None
    waiting = dict.fromkeys(by_head, 0)  # undecided heads in the bodies of its rules
    blocked = bytearray(len(rules))
    for by_body in (by_pbody, by_nbody):
        for lit, positions in by_body.items():
            for i in positions:
                if lit in by_head:
                    waiting[rules[i].head_id] += 1
                elif by_body is by_pbody:
                    blocked[i] = 1
    ready, true = [h for h, n in waiting.items() if not n], set()
    for h in ready:  # grows as heads are decided
        if not all(map(blocked.__getitem__, by_head[h])):
            true.add(h)
        for against, by_body in ((h not in true, by_pbody), (h in true, by_nbody)):
            for j in by_body.get(h, ()):
                blocked[j] |= against
                g = rules[j].head_id
                waiting[g] -= 1
                if not waiting[g]:
                    ready.append(g)
    return bits_at(true) if len(ready) == len(by_head) else None


def well_founded_bits(
    rules: Sequence[Rule], universe: frozenset[Literal], index: RuleIndex
) -> tuple[int, int]:
    """The well-founded lfp and c_star(lfp), as bits: peeled if it can be, else alternated."""
    true = peel(rules, index)
    if true is not None:
        return true, true
    supported = LiveClosure(rules, index=index)
    lfp, _ = well_founded_fixpoint(rules, universe, supported)
    return lfp.bits, supported(lfp.bits)


def well_founded_model(rules: Sequence[Rule], universe: frozenset[Literal]) -> PartialModel:
    """(lfp, universe minus the consequences of the lfp)."""
    true, supported = well_founded_bits(rules, universe, index_rules(rules))
    return PartialModel.from_fixpoint(true, supported, universe)
