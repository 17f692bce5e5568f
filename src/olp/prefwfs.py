"""Preferred well-founded semantics via per-rule context reduction.

The alternating step applies the classical consequence operator first and
then a strengthened one: before checking whether a rule r is blocked by the
context y, the literals that only less-preferred, defeated rules can
support are removed from y.  Removal is per rule and per step, because the
defeat condition depends on the literals derived so far.

Two removal policies are implemented:

* ``paper`` (the default): a literal may be removed only if every rule that
  could support it within y is both strictly below r and defeated.  A
  literal with no supporting rule at all is trivially removable.
* ``simplistic``: remove the heads of all defeated lower rules outright.
  This ignores competing supports for the same literal and serves as a
  negative control; it is kept because the test suite must be able to
  detect the difference.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import classical
from .fixpoint import FixpointTrace, iterate_union, kleene_trace
from .syntax import Interpretation, Literal, OrderedProgram, PartialModel, Rule

__all__ = [
    "VARIANTS",
    "DefeatContext",
    "defeats",
    "defeated_rules",
    "d_set",
    "d_set_simplistic",
    "tpn_step",
    "cpn_op",
    "apn_op",
    "preferred_wfs_set",
    "preferred_wfs_fixpoint",
    "preferred_wf_model",
    "wf_model_trace",
    "defeat_contexts",
]

VARIANT_PAPER = "paper"
VARIANT_SIMPLISTIC = "simplistic"
VARIANTS = (VARIANT_PAPER, VARIANT_SIMPLISTIC)


@dataclass(frozen=True)
class DefeatContext:
    """The removal set of one rule at one step, and the context it leaves."""

    rule: str
    removed: frozenset[Literal]
    effective_context: frozenset[Literal]


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def defeats(
    r: Rule, r2: Rule, x: Interpretation | frozenset[Literal]
) -> bool:
    """True iff the head of r together with x meets the negative body of r2."""
    xs = x.literals if isinstance(x, Interpretation) else x
    return bool((xs | {r.head}) & r2.nbody)


def defeated_rules(
    op: OrderedProgram, r: Rule, x: Interpretation | frozenset[Literal]
) -> tuple[Rule, ...]:
    """The rules strictly below r that r defeats at state x."""
    return tuple(
        lower for lower in op.rules_below[r.name] if defeats(r, lower, x)
    )


def _removable(
    op: OrderedProgram, r: Rule, x: Interpretation, y: Interpretation, lit: Literal
) -> bool:
    # Every rule that can support `lit` within y must sit strictly below r
    # in the order and be defeated; no such support makes `lit` removable.
    for gen in op.generators_of.get(lit, ()):
        if gen.pbody <= y.literals:
            if not op.order.prefers(gen.name, r.name) or not defeats(r, gen, x):
                return False
    return True


def d_set(
    op: OrderedProgram, r: Rule, x: Interpretation, y: Interpretation
) -> frozenset[Literal]:
    """Literals of y removable from r's blocking context at state x."""
    return frozenset(lit for lit in y.literals if _removable(op, r, x, y, lit))


def d_set_simplistic(
    op: OrderedProgram, r: Rule, x: Interpretation
) -> frozenset[Literal]:
    """Heads of the rules below r that r defeats at state x."""
    return frozenset(lower.head for lower in defeated_rules(op, r, x))


def _blocked(
    op: OrderedProgram, r: Rule, x: Interpretation, y: Interpretation, variant: str
) -> bool:
    # r is blocked iff some negative-body literal survives in y after
    # removal; only literals in nbody(r) & y need a removability check.
    conflicts = r.nbody & y.literals
    if not conflicts:
        return False
    if variant == VARIANT_SIMPLISTIC:
        return bool(conflicts - d_set_simplistic(op, r, x))
    return any(not _removable(op, r, x, y, lit) for lit in conflicts)


def tpn_step(
    op: OrderedProgram,
    y: Interpretation,
    x: Interpretation,
    variant: str = VARIANT_PAPER,
) -> Interpretation:
    """Heads of rules active wrt (x, y minus their removal set)."""
    _check_variant(variant)
    if x.is_lit:
        return Interpretation.lit(op.universe)
    heads = (
        r.head
        for r in op.rules
        if r.pbody <= x.literals and not _blocked(op, r, x, y, variant)
    )
    return Interpretation.collapse(heads, op.universe)


def cpn_op(
    op: OrderedProgram, x: Interpretation, variant: str = VARIANT_PAPER
) -> Interpretation:
    """Union of the tpn_step iterates from the empty set, with x as context."""
    _check_variant(variant)
    return iterate_union(
        lambda cur: tpn_step(op, x, cur, variant),
        op.universe,
        "defeat-aware consequences",
    )


def apn_op(
    op: OrderedProgram, x: Interpretation, variant: str = VARIANT_PAPER
) -> Interpretation:
    """Alternating operator: classical consequences inside, defeat-aware
    consequences outside."""
    return cpn_op(op, classical.c_op(op.rules, x, op.universe), variant)


def preferred_wfs_fixpoint(
    op: OrderedProgram, variant: str = VARIANT_PAPER
) -> tuple[Interpretation, FixpointTrace]:
    _check_variant(variant)
    return kleene_trace(
        lambda x: apn_op(op, x, variant),
        op.universe,
        "preferred well-founded fixpoint",
    )


def preferred_wfs_set(
    op: OrderedProgram, variant: str = VARIANT_PAPER
) -> Interpretation:
    """Least fixpoint of apn_op by iteration from the empty set."""
    value, _ = preferred_wfs_fixpoint(op, variant)
    return value


def preferred_wf_model(
    op: OrderedProgram, variant: str = VARIANT_PAPER
) -> PartialModel:
    """(lfp, universe minus consequences of the lfp)."""
    _check_variant(variant)
    return wf_model_trace(op, variant)[0]


def wf_model_trace(
    op: OrderedProgram, variant: str | None
) -> tuple[PartialModel, FixpointTrace]:
    """The standard (variant None) or preferred well-founded model of op,
    with the trace of its fixpoint.

    Falsity is judged against the classical consequences, except for the
    simplistic variant: it can make heads true that the classical operator
    refutes, so its false set is judged against its own consequence
    operator; otherwise the model would not stay disjoint.
    """
    if variant is None:
        lfp, trace = classical.well_founded_fixpoint(op.rules, op.universe)
    else:
        lfp, trace = preferred_wfs_fixpoint(op, variant)
    if variant == VARIANT_SIMPLISTIC:
        supported = cpn_op(op, lfp, variant)
    else:
        supported = classical.c_op(op.rules, lfp, op.universe)
    return PartialModel.from_fixpoint(lfp, supported, op.universe), trace


def defeat_contexts(
    op: OrderedProgram,
    x: Interpretation,
    y: Interpretation,
    variant: str = VARIANT_PAPER,
) -> dict[str, DefeatContext]:
    """Per-rule removal sets at state (x, y), for traces and diagnostics."""
    _check_variant(variant)
    result = {}
    for r in op.rules:
        if variant == VARIANT_SIMPLISTIC:
            removed = d_set_simplistic(op, r, x) & y.literals
        else:
            removed = d_set(op, r, x, y)
        result[r.name] = DefeatContext(r.name, removed, y.literals - removed)
    return result
