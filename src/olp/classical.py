"""Classical semantics for extended logic programs (no preferences).

Implements the reduct, the one derivation loop that every consequence
operator shares (each engine supplies only its firing test), the closure
of basic programs, the immediate consequence operator with a blocking
context, answer sets by exhaustive candidate enumeration, and the
well-founded model as the least fixpoint of ``a_op = c_op . c_op``.

The enumerators here are desk-scale tools, deliberately direct; they are
not solvers.
"""

from __future__ import annotations

from itertools import combinations
from typing import AbstractSet, Callable, Iterable, Iterator, Sequence

from .fixpoint import FixpointTrace, kleene_trace
from .syntax import (
    Interpretation,
    Literal,
    PartialModel,
    ProgramError,
    Rule,
    is_consistent,
)

__all__ = [
    "is_active",
    "reduct",
    "derive",
    "fire_step",
    "cl",
    "cn",
    "t_step",
    "c_star",
    "c_op",
    "a_op",
    "answer_sets",
    "head_candidates",
    "well_founded_fixpoint",
    "well_founded_model",
]

MAX_ENUM_HEADS = 20
Fires = Callable[[Rule, AbstractSet[Literal]], bool]  # fires(rule, derived)


def _literals(x: Interpretation | frozenset[Literal]) -> frozenset[Literal]:
    return x.literals if isinstance(x, Interpretation) else x


def is_active(
    r: Rule,
    x: Interpretation | frozenset[Literal],
    y: Interpretation | frozenset[Literal],
) -> bool:
    """True iff pbody(r) is contained in x and nbody(r) misses y."""
    xs, ys = _literals(x), _literals(y)
    return r.pbody <= xs and not (r.nbody & ys)


def reduct(
    rules: Iterable[Rule], x: Interpretation | frozenset[Literal]
) -> tuple[Rule, ...]:
    """Drop rules whose negative body meets x; strip the rest to basic rules."""
    xs = _literals(x)
    return tuple(
        r.reduct_rule() for r in rules if not (r.nbody & xs)
    )


def derive(rules: Sequence[Rule], fires: Fires) -> set[Literal]:
    """Least raw set closed under the rules that fire; no consistency collapse.

    A rule adds its head once its positive body is derived and
    ``fires(rule, derived)`` holds.  Rule order is irrelevant provided
    ``fires`` stays true as the derived set grows.  Every pass but the last
    derives a new head, so the loop ends within ``len(rules) + 1`` passes.
    """
    derived: set[Literal] = set()
    while True:
        size = len(derived)
        for r in rules:
            if r.head not in derived and r.pbody <= derived and fires(r, derived):
                derived.add(r.head)
        if len(derived) == size:
            return derived


def fire_step(
    rules: Iterable[Rule], fires: Fires, x: Interpretation, universe: frozenset[Literal]
) -> Interpretation:
    """One ``derive`` step: heads of the rules firing at x, collapsed; Lit stays."""
    if x.is_lit:
        return Interpretation.lit(universe)
    xs = x.literals
    return Interpretation.collapse(
        (r.head for r in rules if r.pbody <= xs and fires(r, xs)), universe
    )


def _misses(y: frozenset[Literal]) -> Fires:
    """The firing test of the context y: the negative body misses y."""
    return lambda r, derived: not (r.nbody & y)


def cl(rules: Sequence[Rule]) -> frozenset[Literal]:
    """Smallest set closed under a basic program; no consistency collapse."""
    for r in rules:
        if r.nbody:
            raise ProgramError(f"closure requires a basic program, got {r}")
    return frozenset(derive(rules, lambda r, derived: True))


def cn(rules: Sequence[Rule], universe: frozenset[Literal]) -> Interpretation:
    """Smallest logically closed set closed under a basic program.

    Collapses to the full universe as soon as a complementary pair is
    derivable.
    """
    return Interpretation.collapse(cl(rules), universe)


def t_step(
    rules: Iterable[Rule],
    y: Interpretation,
    x: Interpretation,
    universe: frozenset[Literal],
) -> Interpretation:
    """Heads of the rules active wrt (x, y); the whole universe if x is not
    consistent."""
    return fire_step(rules, _misses(y.literals), x, universe)


def c_star(rules: Sequence[Rule], x: frozenset[Literal]) -> frozenset[Literal]:
    """Paraconsistent consequences of the reduct relative to x."""
    return frozenset(derive(rules, _misses(x)))


def c_op(
    rules: Sequence[Rule], x: Interpretation, universe: frozenset[Literal]
) -> Interpretation:
    """Consequences of the reduct relative to x: c_star plus the collapse."""
    return Interpretation.collapse(c_star(rules, x.literals), universe)


def a_op(
    rules: Sequence[Rule], x: Interpretation, universe: frozenset[Literal]
) -> Interpretation:
    """The alternating operator: two consequence applications."""
    return c_op(rules, c_op(rules, x, universe), universe)


def head_candidates(
    rules: Sequence[Rule], universe: frozenset[Literal]
) -> Iterator[Interpretation]:
    """All consistent subsets of the head literals, then the full universe.

    Any fixpoint of the consequence operators contains only rule heads or
    equals the universe, so this space is exhaustive for fixpoint searches.
    """
    heads = sorted({r.head for r in rules}, key=str)
    if len(heads) > MAX_ENUM_HEADS:
        raise ProgramError(
            f"candidate enumeration over {len(heads)} heads is not desk-scale"
        )
    for size in range(len(heads) + 1):
        for combo in combinations(heads, size):
            if is_consistent(combo):
                yield Interpretation.of(combo)
    if universe:
        yield Interpretation.lit(universe)


def answer_sets(
    rules: Sequence[Rule], universe: frozenset[Literal]
) -> frozenset[Interpretation]:
    """All x with cn(reduct(rules, x)) = x, by candidate enumeration."""
    return frozenset(
        x for x in head_candidates(rules, universe)
        if c_op(rules, x, universe) == x
    )


def well_founded_fixpoint(
    rules: Sequence[Rule], universe: frozenset[Literal]
) -> tuple[Interpretation, FixpointTrace]:
    """Least fixpoint of the alternating operator, with its trace."""
    return kleene_trace(
        lambda x: a_op(rules, x, universe), universe, "well-founded fixpoint"
    )


def well_founded_model(
    rules: Sequence[Rule], universe: frozenset[Literal]
) -> PartialModel:
    """(lfp, universe minus the consequences of the lfp)."""
    lfp, _ = well_founded_fixpoint(rules, universe)
    return PartialModel.from_fixpoint(lfp, c_op(rules, lfp, universe), universe)
