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


def _fires(op: OrderedProgram, y: frozenset[Literal]) -> Fires:
    """r fires at x when nbody(r) misses cl(reduct(rules, y)) without the
    reducts of the rules r defeats at x; each removal is closed once."""
    base = reduct(op.rules, y)
    contexts: dict[frozenset[str], frozenset[Literal]] = {}

    def fires(r, x):
        dropped = frozenset(lower.name for lower in defeated_rules(op, r, x))
        if dropped not in contexts:
            contexts[dropped] = cl(tuple(b for b in base if b.name not in dropped))
        return not (r.nbody & contexts[dropped])

    return fires


def t_star_step(
    op: OrderedProgram, y: frozenset[Literal], x: frozenset[Literal]
) -> frozenset[Literal]:
    """One derivation step against defeat-pruned reduct closures."""
    fires = _fires(op, y)
    return frozenset(r.head for r in op.rules if r.pbody <= x and fires(r, x))


def c_star_pref(op: OrderedProgram, y: frozenset[Literal]) -> frozenset[Literal]:
    """Least raw set closed under the t_star_step firing test."""
    return frozenset(derive(op.rules, _fires(op, y)))


def brewka_wf_iterates(op: OrderedProgram) -> list[frozenset[Literal]]:
    """Iterates of the fused alternating operator, ending in a repeat."""
    _, values = kleene(
        lambda x: c_star_pref(op, x),
        frozenset(),
        len(op.universe) + 1,
        "paraconsistent well-founded fixpoint",
    )
    return values


def brewka_wf_set(op: OrderedProgram) -> frozenset[Literal]:
    """Least fixpoint of the fused alternating operator from the empty set."""
    return brewka_wf_iterates(op)[-1]
