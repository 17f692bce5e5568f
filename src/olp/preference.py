"""Preferred answer sets via an order-aware consequence operator.

A rule fires only when it is active in the current derivation state and no
strictly higher rule is still "in question": a higher rule blocks as long
as it is active against the putative context and its head has not yet been
derived.  Preferred answer sets are the fixpoints of the resulting
consequence operator; its alternating composition yields a (deliberately
skeptical) well-founded set used here as a negative baseline.
"""

from __future__ import annotations

from .classical import head_candidates, is_active
from .fixpoint import FixpointTrace, iterate_union, kleene_trace
from .syntax import Interpretation, OrderedProgram

__all__ = [
    "tp_step",
    "cp_op",
    "ap_op",
    "preferred_answer_sets",
    "lfp_ap",
    "lfp_ap_fixpoint",
]


def tp_step(
    op: OrderedProgram, y: Interpretation, x: Interpretation
) -> Interpretation:
    """One derivation step relative to the putative context y.

    Fires head(r) when r is active wrt (x, y) and no rule r' above r is
    both active wrt (y, x) and still unapplied (head(r') not in x).
    """
    if x.is_lit:
        return Interpretation.lit(op.universe)
    heads = []
    for r in op.rules:
        if not is_active(r, x, y):
            continue
        blocked = any(
            is_active(higher, y, x) and higher.head not in x
            for higher in op.rules_above[r.name]
        )
        if not blocked:
            heads.append(r.head)
    return Interpretation.collapse(heads, op.universe)


def cp_op(op: OrderedProgram, x: Interpretation) -> Interpretation:
    """Union of the tp_step iterates from the empty set, with x as context."""
    return iterate_union(
        lambda cur: tp_step(op, x, cur), op.universe, "preferred consequences"
    )


def ap_op(op: OrderedProgram, x: Interpretation) -> Interpretation:
    """Alternating composition of the order-aware consequence operator."""
    return cp_op(op, cp_op(op, x))


def preferred_answer_sets(op: OrderedProgram) -> frozenset[Interpretation]:
    """All fixpoints of cp_op over the head-candidate space."""
    return frozenset(
        x for x in head_candidates(op.rules, op.universe)
        if cp_op(op, x) == x
    )


def lfp_ap_fixpoint(op: OrderedProgram) -> tuple[Interpretation, FixpointTrace]:
    return kleene_trace(
        lambda x: ap_op(op, x), op.universe, "alternating fixpoint"
    )


def lfp_ap(op: OrderedProgram) -> Interpretation:
    """Least fixpoint of ap_op by iteration from the empty set."""
    value, _ = lfp_ap_fixpoint(op)
    return value
