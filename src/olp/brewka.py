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

from typing import Sequence

from .classical import cl, reduct
from .fixpoint import kleene
from .prefwfs import defeated_rules
from .syntax import Literal, OrderedProgram, Rule

__all__ = [
    "cl",
    "c_star",
    "defeated_rules",
    "t_star_step",
    "c_star_pref",
    "brewka_wf_set",
    "brewka_wf_iterates",
]


def c_star(rules: Sequence[Rule], x: frozenset[Literal]) -> frozenset[Literal]:
    """Paraconsistent consequences of the reduct relative to x."""
    return cl(reduct(rules, x))


def t_star_step(
    op: OrderedProgram, y: frozenset[Literal], x: frozenset[Literal]
) -> frozenset[Literal]:
    """One derivation step against defeat-pruned reduct closures.

    For each rule r the blocking context is cl(reduct(rules, y) minus the
    reducts of the rules r defeats); removal goes by rule name.
    """
    base = reduct(op.rules, y)
    heads = set()
    for r in op.rules:
        if not (r.pbody <= x):
            continue
        dropped = {lower.name for lower in defeated_rules(op, r, x)}
        if dropped:
            context = cl(tuple(b for b in base if b.name not in dropped))
        else:
            context = cl(base)
        if not (r.nbody & context):
            heads.add(r.head)
    return frozenset(heads)


def c_star_pref(op: OrderedProgram, y: frozenset[Literal]) -> frozenset[Literal]:
    """Union of the t_star_step iterates from the empty set."""
    value, _ = kleene(
        lambda cur: cur | t_star_step(op, y, cur),
        frozenset(),
        len(op.universe) + 1,
        "paraconsistent preferred consequences",
    )
    return value


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
