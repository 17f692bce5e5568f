from pathlib import Path

import pytest

from olp.parser import parse_program
from olp.syntax import Interpretation, neg, pos

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

A, B, C = pos("a"), pos("b"), pos("c")
NA, NB = neg("a"), neg("b")
P, Q = pos("p"), pos("q")
NP, NQ = neg("p"), neg("q")


def interp(*literals) -> Interpretation:
    return Interpretation.of(literals)


def random_consistent(rng, universe) -> Interpretation:
    """A random consistent interpretation over the atoms of ``universe``:
    each atom, visited in name order so that a draw does not depend on the
    hash seed, is left out, true or false with equal odds."""
    picked = []
    for name in sorted({lit.atom.name for lit in universe}):
        choice = rng.choice((0, 1, 2))
        if choice:
            picked.append(pos(name) if choice == 1 else neg(name))
    return Interpretation.of(picked)


def corpus_text(name: str) -> str:
    return (CORPUS / f"{name}.olp").read_text()


def load(name: str):
    return parse_program(corpus_text(name))


@pytest.fixture
def ex3():
    return load("ex3")


@pytest.fixture
def ex4():
    return load("ex4")


@pytest.fixture
def ex5():
    return load("ex5")


@pytest.fixture
def ex7():
    return load("ex7")


@pytest.fixture
def defeasible():
    return load("defeasible")
