"""Fixpoint iteration plumbing shared by all engines.

The outer alternations are monotone on a finite lattice, so Kleene
iteration from the empty interpretation reaches their least fixpoint within
``|universe| + 1`` applications; exceeding the cap signals a bug, not an
input property.  Inner closures (``classical.derive`` and the worklist
closures of ``classical.LiveClosure`` and ``prefwfs.cpn_op``) fire each
rule at most once per call and need no cap.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .syntax import Interpretation, Literal

__all__ = [
    "FixpointDivergence",
    "kleene",
    "kleene_trace",
    "iterate_union",
]

T = TypeVar("T")


class FixpointDivergence(RuntimeError):
    """Iteration did not converge within the structural bound.

    ``previous`` and ``last`` are the last two iterates, when known, and
    ``difference`` the literals that differ between them (an iterate is an
    ``Interpretation`` or a raw literal set; both iterate their literals);
    the one-line message names those literals.
    """

    def __init__(self, message: str, previous=None, last=None):
        self.previous, self.last = previous, last
        self.difference: frozenset[Literal] = frozenset()
        if previous is not None and last is not None:
            self.difference = frozenset(previous) ^ frozenset(last)
            names = ", ".join(sorted(map(str, self.difference)))
            message += f"; its last two iterates differ on {{{names}}}"
        super().__init__(message)


def kleene(
    step: Callable[[T], T],
    start: T,
    cap: int,
    what: str = "fixpoint",
) -> tuple[T, list[T]]:
    """Iterate ``step`` from ``start`` until it repeats; raise past ``cap``."""
    values = [start]
    current = start
    for _ in range(cap + 1):
        nxt = step(current)
        values.append(nxt)
        if nxt == current:
            return current, values
        current = nxt
    raise FixpointDivergence(
        f"{what} did not converge within {cap + 1} applications", *values[-2:]
    )


def kleene_trace(
    step: Callable[[Interpretation], Interpretation],
    universe: frozenset[Literal],
    what: str = "fixpoint",
) -> tuple[Interpretation, list[Interpretation]]:
    """Least fixpoint of a monotone step from the empty interpretation, and
    its iterates, the last a repeat."""
    return kleene(step, Interpretation.empty(), len(universe) + 1, what)


def iterate_union(
    step: Callable[[Interpretation], Interpretation], universe: frozenset[Literal]
) -> Interpretation:
    """Union of the iterates of ``step`` from the empty interpretation.

    The step operators used here are monotone and inflationary from the
    empty set, so the union equals the final iterate.
    """
    return kleene(step, Interpretation.empty(), len(universe) + 1, "consequence closure")[0]
