"""Preferred answer sets via an order-aware consequence operator.

A rule fires only when it is active in the current derivation state and no
strictly higher rule is still "in question": a higher rule blocks as long
as it is active against the putative context and its head has not yet been
derived.  Preferred answer sets are the fixpoints of the resulting
consequence operator; every one is an answer set, so they are found by
filtering the classical answer-set search.  The alternating composition of
the operator yields a (deliberately skeptical) well-founded set used here as
a negative baseline.

The rules still in question form one live bitset over rule positions, which
shrinks as literals are derived; a rule's test is one AND of it with the
order's ``above`` mask for the rule.  ``cp_op`` visits the rules highest
first, along the order's ``highest_first`` list: the rules that can hold
a rule back are above it, so each has fired, or left the live set, or
still blocks, by the time the rule is tested.  On the shuffled 100-rule
chain ``lfp-ap`` then makes 200 firing tests, against 2,509 in rule order.
"""

from __future__ import annotations

from typing import Callable

from .classical import Fires, answer_sets, derive, fire_step
from .fixpoint import kleene_trace
from .syntax import Interpretation, OrderedProgram, bit_positions, supporting_rules

__all__ = [
    "tp_step",
    "cp_op",
    "ap_op",
    "preferred_answer_sets",
    "lfp_ap",
    "lfp_ap_fixpoint",
]


def _fires(
    op: OrderedProgram, y: Interpretation, x: int = 0
) -> tuple[Fires, Callable[[int], None] | None]:
    """Rule i fires at x when nbody(i) misses y and no rule r' above it is
    both active wrt (y, x) and still unapplied (head(r') not in x).

    Returns the test ``fires(i)`` and ``grow(lit)``, which tells the test
    that x gained the literal id lit (None when the order is empty: the
    test then ignores x).  The test reads x only through ``live``, the
    bitset of the rules active and unapplied at x.  It starts as the rules
    whose positive body is in y and only shrinks: a rule leaves it when its
    head, or a literal of its negative body, joins x.
    """
    ys, rules = y.bits, op.rules
    if not op.order:
        return (lambda i: not rules[i].nmask & ys), None
    above, nb_of, hb_of = op.order.above, op.nb_of, op.hb_of
    live = supporting_rules(rules, ys)

    def grow(lit):
        nonlocal live
        live &= ~(nb_of.get(lit, 0) | hb_of.get(lit, 0))

    for lit in bit_positions(x):
        grow(lit)

    def fires(i):
        return not rules[i].nmask & ys and not above[i] & live

    return fires, grow


def tp_step(
    op: OrderedProgram, y: Interpretation, x: Interpretation
) -> Interpretation:
    """One derivation step relative to the putative context y."""
    fires, _ = _fires(op, y, x.bits)
    return fire_step(op.rules, fires, x, op.universe)


def cp_op(op: OrderedProgram, x: Interpretation) -> Interpretation:
    """Least set closed under the tp_step firing test, with x as context;
    the rules are visited highest first."""
    bits = derive(op.rules, *_fires(op, x), op.order.highest_first)
    return Interpretation.from_bits(bits, op.universe)


def ap_op(op: OrderedProgram, x: Interpretation) -> Interpretation:
    """Alternating composition of the order-aware consequence operator."""
    return cp_op(op, cp_op(op, x))


def preferred_answer_sets(op: OrderedProgram) -> frozenset[Interpretation]:
    """All fixpoints of cp_op: the answer sets x with cp_op(op, x) == x.

    Every fixpoint of cp_op is an answer set; the battery checks this
    against the fixpoints of cp_op over ``head_candidates``.
    """
    return frozenset(
        x for x in answer_sets(op.rules, op.universe) if cp_op(op, x) == x
    )


def lfp_ap_fixpoint(op: OrderedProgram) -> tuple[Interpretation, list[Interpretation]]:
    return kleene_trace(
        lambda x: ap_op(op, x), op.universe, "alternating fixpoint"
    )


def lfp_ap(op: OrderedProgram) -> Interpretation:
    """Least fixpoint of ap_op by iteration from the empty set."""
    return lfp_ap_fixpoint(op)[0]
