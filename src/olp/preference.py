"""Preferred answer sets via an order-aware consequence operator.

A rule fires only when it is active in the current derivation state and no
strictly higher rule is still "in question": a higher rule blocks as long
as it is active against the putative context and its head has not yet been
derived.  Preferred answer sets are the fixpoints of the resulting
consequence operator; its alternating composition yields a (deliberately
skeptical) well-founded set used here as a negative baseline.
"""

from __future__ import annotations

from .classical import Fires, derive, fire_step, head_candidates, is_active
from .fixpoint import FixpointTrace, kleene_trace
from .syntax import Interpretation, OrderedProgram

__all__ = [
    "tp_step",
    "cp_op",
    "ap_op",
    "preferred_answer_sets",
    "lfp_ap",
    "lfp_ap_fixpoint",
]


def _fires(op: OrderedProgram, y: Interpretation) -> Fires:
    """r fires at x when nbody(r) misses y and no rule r' above r is both
    active wrt (y, x) and still unapplied (head(r') not in x)."""
    return lambda r, x: not (r.nbody & y.literals) and not any(
        higher.head not in x and is_active(higher, y, x)
        for higher in op.rules_above[r.name]
    )


def tp_step(
    op: OrderedProgram, y: Interpretation, x: Interpretation
) -> Interpretation:
    """One derivation step relative to the putative context y."""
    return fire_step(op.rules, _fires(op, y), x, op.universe)


def cp_op(op: OrderedProgram, x: Interpretation) -> Interpretation:
    """Least set closed under the tp_step firing test, with x as context."""
    return Interpretation.collapse(derive(op.rules, _fires(op, x)), op.universe)


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
