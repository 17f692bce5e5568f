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
cache, so a test builds no rule tuple unless it closes a rule set for the
first time.
"""

from __future__ import annotations

from typing import Callable

from .classical import Fires, c_star, cl, derive
from .fixpoint import kleene
from .prefwfs import defeat_bits, defeated_rules, hit_bits
from .syntax import Literal, OrderedProgram, Rule, bit_positions

__all__ = [
    "cl",
    "c_star",
    "defeated_rules",
    "t_star_step",
    "c_star_pref",
    "brewka_wf_set",
    "brewka_wf_iterates",
]


def _fires(
    op: OrderedProgram,
    y: frozenset[Literal],
    closed: dict[int, frozenset[Literal]],
    x: frozenset[Literal] = frozenset(),
) -> tuple[Fires, Callable[[Literal], None]]:
    """r fires at x when nbody(r) misses cl(reduct(rules, y)) without the
    reducts of the rules r defeats at x.

    Returns the test and ``grow(lit)``, which tells the test that x gained
    lit: the test reads x only through hit(x), kept up to date by ``grow``
    from its value at the given ``x``.  The rules closed are a bitset over
    rule positions, ``base & ~defeat_bits``, and ``closed`` holds the
    closures already made, keyed by that bitset; a closure depends on
    nothing else, so one cache serves every context y of an alternation.
    """
    below, position, nb = op.order.below, op.order.position, op.nb
    base: dict[int, Rule] = {}
    base_bits = 0
    for i, r in enumerate(op.rules):
        if not (r.nbody & y):
            base[i] = r.reduct_rule()
            base_bits |= 1 << i
    hit = hit_bits(op, x)

    def grow(lit):
        nonlocal hit
        hit |= nb.get(lit, 0)

    def fires(r, x):
        i = position[r.name]
        key = base_bits & ~defeat_bits(op, i, hit) if below[i] else base_bits
        if key not in closed:
            closed[key] = cl(tuple(base[j] for j in bit_positions(key)))
        return not (r.nbody & closed[key])

    return fires, grow


def t_star_step(
    op: OrderedProgram, y: frozenset[Literal], x: frozenset[Literal]
) -> frozenset[Literal]:
    """One derivation step against defeat-pruned reduct closures."""
    fires, _ = _fires(op, y, {}, x)
    return frozenset(r.head for r in op.rules if r.pbody <= x and fires(r, x))


def c_star_pref(op: OrderedProgram, y: frozenset[Literal]) -> frozenset[Literal]:
    """Least raw set closed under the t_star_step firing test."""
    return frozenset(derive(op.rules, *_fires(op, y, {})))


def brewka_wf_iterates(op: OrderedProgram) -> list[frozenset[Literal]]:
    """Iterates of the fused alternating operator, ending in a repeat.

    Every step shares one cache of closed rule sets.
    """
    closed: dict[int, frozenset[Literal]] = {}
    _, values = kleene(
        lambda x: frozenset(derive(op.rules, *_fires(op, x, closed))),
        frozenset(),
        len(op.universe) + 1,
        "paraconsistent well-founded fixpoint",
    )
    return values


def brewka_wf_set(op: OrderedProgram) -> frozenset[Literal]:
    """Least fixpoint of the fused alternating operator from the empty set."""
    return brewka_wf_iterates(op)[-1]
