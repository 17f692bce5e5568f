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
"""

from __future__ import annotations

from .classical import Fires, c_star, cl, derive, reduct
from .fixpoint import kleene
from .prefwfs import defeated_rules
from .syntax import Literal, OrderedProgram

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
    op: OrderedProgram, y: frozenset[Literal], closed: dict[int, frozenset[Literal]]
) -> Fires:
    """r fires at x when nbody(r) misses cl(reduct(rules, y)) without the
    reducts of the rules r defeats at x.

    ``closed`` holds the closures already made, keyed by the set of rules
    closed (a bitset over rule positions); a closure depends on nothing
    else, so one cache serves every context y of an alternation.
    """
    bit = {r.name: 1 << i for i, r in enumerate(op.rules)}
    base = reduct(op.rules, y)
    base_bits = sum(bit[b.name] for b in base)

    def fires(r, x):
        key = base_bits
        for lower in defeated_rules(op, r, x):
            key &= ~bit[lower.name]
        if key not in closed:
            closed[key] = cl(tuple(b for b in base if key & bit[b.name]))
        return not (r.nbody & closed[key])

    return fires


def t_star_step(
    op: OrderedProgram, y: frozenset[Literal], x: frozenset[Literal]
) -> frozenset[Literal]:
    """One derivation step against defeat-pruned reduct closures."""
    fires = _fires(op, y, {})
    return frozenset(r.head for r in op.rules if r.pbody <= x and fires(r, x))


def c_star_pref(op: OrderedProgram, y: frozenset[Literal]) -> frozenset[Literal]:
    """Least raw set closed under the t_star_step firing test."""
    return frozenset(derive(op.rules, _fires(op, y, {})))


def brewka_wf_iterates(op: OrderedProgram) -> list[frozenset[Literal]]:
    """Iterates of the fused alternating operator, ending in a repeat.

    Every step shares one cache of closed rule sets.
    """
    closed: dict[int, frozenset[Literal]] = {}
    _, values = kleene(
        lambda x: frozenset(derive(op.rules, _fires(op, x, closed))),
        frozenset(),
        len(op.universe) + 1,
        "paraconsistent well-founded fixpoint",
    )
    return values


def brewka_wf_set(op: OrderedProgram) -> frozenset[Literal]:
    """Least fixpoint of the fused alternating operator from the empty set."""
    return brewka_wf_iterates(op)[-1]
