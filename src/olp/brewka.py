"""Paraconsistent preferred well-founded semantics (rule-removal style).

This engine works on raw literal sets and never collapses an inconsistent
set to the whole universe: complementary conclusions are simply kept.  The
blocking context of a rule r is not the bare context y but what the reduct
of the program relative to y can still derive once the rules defeated by r
are removed.

The alternating operator fuses the two stages: one application reduces the
program relative to the outer argument and then closes under the
defeat-pruned contexts.  With an empty order this is exactly two chained
reduct-closures, i.e. the paraconsistent version of the classical
alternating operator.

The rules a test closes are a bitset over rule positions, the reduct's
rules minus the defeat set ``prefwfs.defeat_bits``; it keys the closure
cache, whose values are literal bitsets, so a test closes a rule set only
the first time it meets it.  A miss does not close the set from scratch:
one ``classical.LiveClosure`` is moved from the last set closed to the new
one (``within``), which costs the rules that left or joined and what they
supported.  The closures visit the rules lowest first, against the
order's ``highest_first`` list: a rule is freed by defeating rules below
it, which have then been tested, and on a chain the keys met one after
another differ by about one rule.  ``t_star_step`` closes every key from
scratch with ``derive``, so the battery's routes compare the two.  The
public functions take and return literal sets; everything between is
bits.
"""

from __future__ import annotations

from typing import Callable

from .classical import Fires, LiveClosure, c_star, cl, derive
from .fixpoint import kleene
from .prefwfs import defeat_bits, defeated_rules, hit_bits
from .syntax import Literal, OrderedProgram, bit_positions, bits_of, literals_of

__all__ = [
    "cl",
    "c_star",
    "defeated_rules",
    "t_star_step",
    "c_star_pref",
    "moving_closure",
    "brewka_wf_set",
    "brewka_wf_iterates",
]


Close = Callable[[int], int]  # close(rule bitset) -> literal bitset


class _Closures(dict):
    """Closures by rule set; a miss closes the set with ``close``."""

    __slots__ = ("close",)

    def __init__(self, close: Close):
        self.close = close

    def __missing__(self, key: int) -> int:
        self[key] = closed = self.close(key)
        return closed


def moving_closure(op: OrderedProgram) -> Close:
    """The closure of each rule set, cached over one new live closure."""
    return _Closures(LiveClosure(op.rules, index=op.rule_index).within).__getitem__


def _fires(
    op: OrderedProgram, y: int, close: Close, x: int = 0
) -> tuple[Fires, Callable[[int], None]]:
    """Rule i fires at x when nbody(i) misses cl(reduct(rules, y)) without
    the reducts of the rules i defeats at x; x and y are bitsets.

    Returns the test ``fires(i)`` and ``grow(lit)``, which tells the test
    that x gained the literal id lit: the test reads x only through hit(x),
    kept up to date by ``grow`` from its value at the given ``x``.  The
    rules closed are a bitset over rule positions, ``base & ~defeat_bits``,
    and ``close`` gives their closure (never reading a negative body); a
    closure depends on nothing else, so one ``close`` serves every context
    y of an alternation.
    """
    rules, below, nb_of = op.rules, op.order.below, op.nb_of
    # The reduct's rules: those whose negative body misses y, i.e. not hit(y).
    base = (1 << len(rules)) - 1 & ~hit_bits(op, y)
    hit = hit_bits(op, x)

    def grow(lit):
        nonlocal hit
        hit |= nb_of.get(lit, 0)

    def fires(i):
        key = base & ~defeat_bits(op, i, hit) if below[i] else base
        return not rules[i].nmask & close(key)

    return fires, grow


def t_star_step(
    op: OrderedProgram, y: frozenset[Literal], x: frozenset[Literal]
) -> frozenset[Literal]:
    """One derivation step against defeat-pruned reduct closures, each
    closed from scratch."""
    xs, rules = bits_of(x), op.rules
    close = _Closures(lambda key: derive([rules[j] for j in bit_positions(key)]))
    fires, _ = _fires(op, bits_of(y), close.__getitem__, xs)
    return frozenset(
        r.head for i, r in enumerate(rules) if r.pmask & xs == r.pmask and fires(i)
    )


def c_star_pref(
    op: OrderedProgram, y: frozenset[Literal], close: Close | None = None
) -> frozenset[Literal]:
    """Least raw set closed under the t_star_step firing test, the rules
    visited lowest first.

    ``close`` is a ``moving_closure(op)`` to reuse across calls; by
    default each call makes its own.
    """
    fires = _fires(op, bits_of(y), close or moving_closure(op))
    return literals_of(derive(op.rules, *fires, op.order.highest_first[::-1]))


def brewka_wf_iterates(op: OrderedProgram) -> list[frozenset[Literal]]:
    """Iterates of the fused alternating operator, ending in a repeat.

    Every step shares one cache of closed rule sets and one moving closure.
    """
    close = moving_closure(op)
    _, values = kleene(
        lambda x: c_star_pref(op, x, close),
        frozenset(),
        len(op.universe) + 1,
        "paraconsistent well-founded fixpoint",
    )
    return values


def brewka_wf_set(op: OrderedProgram) -> frozenset[Literal]:
    """Least fixpoint of the fused alternating operator from the empty set."""
    return brewka_wf_iterates(op)[-1]
