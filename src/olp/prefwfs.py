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
* ``simplistic``: remove the heads of all defeated lower rules outright,
  ignoring competing supports, which distinct heads lack: a negative control.

An untraced solve takes ``wf_model_bits``: ``classical.well_founded_bits``
for ``wfs``, else the peel's model where the lemma in its docstring holds.

Both closures of the alternation avoid rescanning the program.  The
classical half is a ``classical.LiveClosure`` kept for the whole fixpoint,
so a step re-tests only the rules its change of context touches; it
returns the raw closure as bits, which the step collapses to Lit before
``cpn_op`` reads it.  The defeat-aware half, ``cpn_op``, is a worklist
closure: a rule is tested when its positive body is complete, and again
whenever a newly derived literal can shrink its removal set.

Defeat sets are bitsets over rule positions, never rescans of the rules
below a rule.  Rule i defeats the lower rule g at state x when head(i) or
a literal of x is in nbody(g), so its defeat set is
``below[i] & (nb_of[head(i)] | hit(x))``: ``below`` is the order's
transpose, ``nb_of[l]`` the rules with l in their negative body, and
``hit(x)``, the OR of ``nb_of[l]`` over x, is kept up to date as a closure
derives literals, one OR per literal.  ``defeats`` stays as the
reference of the battery invariant ``defeat-bits-agree``.

The firing test of both policies is written once, in ``_removable``: rule
r fires against y when every literal of nbody(r) within y leaves its
context, and the scan stops at the first literal that stays.  ``cpn_op``
and ``tpn_step`` call it once per tested rule, ``d_set`` and
``removal_sets`` once per literal of y.  Literal sets are bitsets of
literal ids throughout (see ``syntax``); removal sets are decoded to
literals only for ``d_set`` and ``defeat_contexts``.
"""

from __future__ import annotations

from . import classical
from .fixpoint import kleene_trace
from .syntax import (
    Interpretation,
    Literal,
    OrderedProgram,
    PartialModel,
    Rule,
    bit_positions,
    bits_of,
    literals_of,
    supporting_rules,
)

__all__ = [
    "VARIANTS",
    "defeats",
    "hit_bits",
    "defeat_bits",
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
    "wf_model_bits",
    "removal_sets",
    "defeat_contexts",
]

VARIANT_PAPER = "paper"
VARIANT_SIMPLISTIC = "simplistic"
VARIANTS = (VARIANT_PAPER, VARIANT_SIMPLISTIC)


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def defeats(r: Rule, r2: Rule, x: Interpretation) -> bool:
    """True iff the head of r together with x meets the negative body of r2.

    The reference for the defeat bitsets; no engine calls it.
    """
    return r.head in r2.nbody or not r2.nbody.isdisjoint(x.literals)


def hit_bits(op: OrderedProgram, x: int) -> int:
    """hit(x): the rules with a literal of the bitset x in their negative
    body, as a bitset over rule positions (the OR of ``op.nb_of[l]`` over
    x)."""
    nb_of = op.nb_of
    hit = 0
    for lit in bit_positions(x):
        hit |= nb_of.get(lit, 0)
    return hit


def defeat_bits(op: OrderedProgram, i: int, hit: int) -> int:
    """The rules strictly below rule i that it defeats at a state x with
    hit(x) = ``hit``, as a bitset over rule positions.

    Rule i defeats a lower rule g when head(i) is in nbody(g), which is bit
    g of ``op.nb_of[head(i)]`` at every state, or when x meets nbody(g),
    which is bit g of hit(x).
    """
    return op.order.below[i] & (op.nb_of.get(op.rules[i].head_id, 0) | hit)


def defeated_rules(
    op: OrderedProgram, r: Rule, x: Interpretation | frozenset[Literal]
) -> tuple[Rule, ...]:
    """The rules strictly below r that r defeats at state x (an
    interpretation or a raw literal set), in rule order."""
    xs = x.bits if isinstance(x, Interpretation) else bits_of(x)
    bits = defeat_bits(op, op.order.position[r.name], hit_bits(op, xs))
    return tuple(op.rules[j] for j in bit_positions(bits))


def d_set(
    op: OrderedProgram, r: Rule, x: Interpretation, y: Interpretation
) -> frozenset[Literal]:
    """Literals of y removable from r's blocking context at state x."""
    ys = y.bits
    i, supporters = op.order.position[r.name], supporting_rules(op.rules, ys)
    return literals_of(_removed(op, i, hit_bits(op, x.bits), ys, supporters))


def d_set_simplistic(
    op: OrderedProgram, r: Rule, x: Interpretation
) -> frozenset[Literal]:
    """Heads of the rules below r that r defeats at state x."""
    return frozenset(lower.head for lower in defeated_rules(op, r, x))


def _removable(
    hb_of: dict[int, int], among: int, defeated: int, supporters: int | None
) -> bool:
    """True iff every literal of the bitset ``among`` leaves the blocking
    context of a rule that defeats the rules ``defeated``: under ``paper``,
    with ``supporters`` = ``supporting_rules(op.rules, y)``, a literal stays
    iff one of its supporters within y is not defeated; under
    ``simplistic``, with ``supporters`` None, a literal goes iff it heads a
    defeated rule.  The scan stops at the first literal that stays."""
    while among:
        low = among & -among
        heads = hb_of.get(low.bit_length() - 1, 0)
        if supporters is None:
            if not heads & defeated:
                return False
        elif heads & supporters & ~defeated:
            return False
        among ^= low
    return True


def _supporters(op: OrderedProgram, variant: str, y: int) -> int | None:
    """The ``supporters`` argument of ``_removable`` for a context y."""
    _check_variant(variant)
    return supporting_rules(op.rules, y) if variant == VARIANT_PAPER else None


def _removed(op: OrderedProgram, i: int, hit: int, y: int, supporters: int | None) -> int:
    """Rule i's removal set within the context y, as a bitset, at a state x
    with hit(x) = ``hit``; ``supporters`` as for ``_removable``."""
    defeated, hb_of, removed = defeat_bits(op, i, hit), op.hb_of, 0
    for lit in bit_positions(y):
        if _removable(hb_of, 1 << lit, defeated, supporters):
            removed |= 1 << lit
    return removed


def tpn_step(
    op: OrderedProgram,
    y: Interpretation,
    x: Interpretation,
    variant: str = VARIANT_PAPER,
) -> Interpretation:
    """Heads of rules active wrt (x, y minus their removal set)."""
    rules, ys, hb_of, hit = op.rules, y.bits, op.hb_of, hit_bits(op, x.bits)
    supporters = _supporters(op, variant, ys)

    def fires(i):
        among = rules[i].nmask & ys
        return not among or _removable(hb_of, among, defeat_bits(op, i, hit), supporters)

    return classical.fire_step(rules, fires, x, op.universe)


def cpn_op(
    op: OrderedProgram, x: Interpretation, variant: str = VARIANT_PAPER
) -> Interpretation:
    """Least set closed under the tpn_step firing test, with x as context.

    A worklist closure over bits.  A rule is tested once its positive body
    is derived (a per-rule counter of missing literals), and again after
    each derived literal l that can change its test: l defeats the rules g
    with l in their negative body, which the removal policy reads only for
    a rule r with head(g) in nbody(r).  That is the one place the test
    reads the derived set, under either removal policy; it reads it as
    hit(derived), which each derived literal updates once.  Only the
    literals of nbody(r) within x need the policy, and the rules that
    support literals within x are found at the first test that does.
    """
    _check_variant(variant)
    rules, (by_pbody, by_nbody, _), nb_of = op.rules, op.rule_index, op.nb_of
    hb_of, below, xs = op.hb_of, op.order.below, x.bits
    paper, supporters = variant == VARIANT_PAPER, None
    missing = [len(r.pbody) for r in rules]
    work = [i for i, n in enumerate(missing) if not n]
    derived = 0
    hit = 0
    while work:
        i = work.pop()
        r = rules[i]
        head = r.head_id
        if missing[i] or derived >> head & 1:
            continue
        among = r.nmask & xs
        if among:
            if paper and supporters is None:
                supporters = supporting_rules(rules, xs)
            if not _removable(hb_of, among, below[i] & (nb_of.get(head, 0) | hit), supporters):
                continue
        derived |= 1 << head
        hit |= nb_of.get(head, 0)
        for j in by_pbody.get(head, ()):
            missing[j] -= 1
            if not missing[j]:
                work.append(j)
        for g in by_nbody.get(head, ()):
            work.extend(by_nbody.get(rules[g].head_id, ()))
    return Interpretation.from_bits(derived, op.universe)


def apn_op(
    op: OrderedProgram, x: Interpretation, variant: str = VARIANT_PAPER
) -> Interpretation:
    """Alternating operator: classical consequences inside, defeat-aware
    consequences outside."""
    return cpn_op(op, classical.c_op(op.rules, x, op.universe), variant)


def preferred_wfs_fixpoint(
    op: OrderedProgram,
    variant: str = VARIANT_PAPER,
    supported: classical.LiveClosure | None = None,
) -> tuple[Interpretation, list[Interpretation]]:
    """Least fixpoint of apn_op, with its iterates; the classical half of each
    step is one live closure that follows the growing iterates, its raw bits
    collapsed to Lit here.  A caller that passes that closure, ``supported``
    (over ``op.rules``), reads c_star(lfp) as bits from it afterwards without
    closing again: its last call had the lfp as its context."""
    if supported is None:
        supported = classical.LiveClosure(op.rules, index=op.rule_index)
    from_bits = Interpretation.from_bits
    return kleene_trace(
        lambda x: cpn_op(op, from_bits(supported(x.bits), op.universe), variant),
        op.universe,
        "preferred well-founded fixpoint",
    )


def preferred_wfs_set(
    op: OrderedProgram, variant: str = VARIANT_PAPER
) -> Interpretation:
    """Least fixpoint of apn_op by iteration from the empty set."""
    return preferred_wfs_fixpoint(op, variant)[0]


def preferred_wf_model(
    op: OrderedProgram, variant: str = VARIANT_PAPER
) -> PartialModel:
    """(lfp, universe minus consequences of the lfp)."""
    lfp, supported, _ = wf_model_trace(op, variant)
    return PartialModel.from_fixpoint(lfp.bits, supported, op.universe)


def wf_model_trace(
    op: OrderedProgram, variant: str | None
) -> tuple[Interpretation, int, list[Interpretation]]:
    """The standard (variant None) or preferred well-founded model of op, as
    its true set (the lfp) and the set the lfp supports, as bits, with the
    iterates of its fixpoint; a literal in neither is false (``false_bits``,
    which reads a supported set with a complementary pair as the whole
    universe).

    The supported set is c_star(lfp), read raw from the fixpoint's own live
    closure, except for the simplistic variant: it can make heads true that
    the classical operator refutes, so its false set is judged against its
    own consequence operator; otherwise the model would not stay disjoint.
    """
    supported = classical.LiveClosure(op.rules, index=op.rule_index)
    if variant is None:
        lfp, iterates = classical.well_founded_fixpoint(op.rules, op.universe, supported)
    else:
        lfp, iterates = preferred_wfs_fixpoint(op, variant, supported)
    if variant == VARIANT_SIMPLISTIC:
        return lfp, cpn_op(op, lfp, variant).bits, iterates
    return lfp, supported(lfp.bits), iterates


def wf_model_bits(op: OrderedProgram, variant: str | None) -> tuple[int, int]:
    """``wf_model_trace``'s lfp and supported set as bits, without iterates:
    the peel's true set T when ``classical.peel`` decides op.

    Then c_star(T) = T, and each l in T has a rule g with pbody(g) within T
    and nbody(g) outside T.  A rule r heading outside T that fires in
    ``cpn_op(T)`` (``paper``) removes such an l, so defeats g: by head(r) in
    nbody(g), a cycle the peel rules out, or by nbody(g) meeting the derived
    set, which stays within T.  So apn(T) = T, and apn, monotone and
    containing a_op pointwise, has T, the ``wfs`` model, as its lfp.
    With distinct heads l heads only g, so ``simplistic`` keeps l exactly
    when ``paper`` does, when g is not defeated: both ``cpn_op(T)`` are T.
    With shared heads it drops l once a lower rule heading l is defeated, so
    ``h :- not l. l. l :- not k. k.`` (third rule below the first) is peeled
    with h false but makes h true: it takes T if one ``cpn_op(T)`` is T."""
    if variant is None:
        return classical.well_founded_bits(op.rules, op.universe, op.rule_index)
    _check_variant(variant)
    true = classical.peel(op.rules, op.rule_index)
    if true is not None and (
        variant != VARIANT_SIMPLISTIC
        or len(op.rule_index[2]) == len(op.rules)
        or cpn_op(op, Interpretation.from_bits(true, op.universe), variant).bits == true
    ):
        return true, true
    lfp, supported, _ = wf_model_trace(op, variant)
    return lfp.bits, supported


def removal_sets(
    op: OrderedProgram,
    x: Interpretation,
    y: Interpretation,
    variant: str = VARIANT_PAPER,
) -> list[int]:
    """Each rule's removal set at state (x, y), as a bitset, in rule order."""
    ys, hit = y.bits, hit_bits(op, x.bits)
    supporters = _supporters(op, variant, ys)
    return [_removed(op, i, hit, ys, supporters) for i in range(len(op.rules))]


def defeat_contexts(
    op: OrderedProgram,
    x: Interpretation,
    y: Interpretation,
    variant: str = VARIANT_PAPER,
) -> dict[str, frozenset[Literal]]:
    """Each rule's removal set at state (x, y), by rule name, for traces
    and diagnostics."""
    removed = removal_sets(op, x, y, variant)
    return {r.name: literals_of(bits) for r, bits in zip(op.rules, removed)}
