"""The order's and the program's views against their definitions.

``PreferenceOrder.above``/``below`` close validation's own edge lists and
``OrderedProgram.nb_of``/``hb_of`` are built in one pass over the rules.
Each view is compared here with a naive reference on generated programs:
criterion-7 generator programs with a denser order, total-order chains and
the benchmark's layered programs with clustered orders.  The edge lists
follow the iteration order of the declared pairs' frozenset, so CI runs
this file under two hash seeds.
"""

import pickle
import random
import sys

import pytest

from olp import prefwfs
from olp.oracle import GeneratorConfig, chain_program, generate_program
from olp.parser import parse_program
from olp.syntax import (
    OrderedProgram,
    index_rules,
    literals_of,
    supporting_rules,
)
from .conftest import ROOT


def _random_texts():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return [
        workloads.random_text(family, atoms, rules, seed=family, cluster=cluster)
        for family, atoms, rules, cluster in (
            (0, 24, 40, 6), (1, 40, 60, 6), (2, 40, 60, 12), (3, 16, 30, 30),
        )
    ]


def _programs():
    for seed in range(120):
        yield f"generated{seed}", generate_program(
            GeneratorConfig(max_atoms=6, max_rules=10, order_density=0.6, seed=seed)
        )
    for n in (1, 2, 30):
        yield f"chain{n}", chain_program(n)
    for k, text in enumerate(_random_texts()):
        yield f"layered{k}", parse_program(text)


PROGRAMS = dict(_programs())


def _closed(generators):
    """The transitive closure of a set of pairs, by naive set joins."""
    closed = set(generators)
    while True:
        extra = {(a, d) for a, b in closed for c, d in closed if b == c}
        if extra <= closed:
            return closed
        closed |= extra


def _bits(positions):
    bits = 0
    for i in positions:
        bits |= 1 << i
    return bits


def _check_views(op):
    names, order = op.order.rule_names, op.order
    assert names == tuple(r.name for r in op.rules)
    closed = _closed(order.generators)
    n = len(names)
    assert order.above == tuple(
        _bits(j for j in range(n) if (names[i], names[j]) in closed) for i in range(n)
    )
    assert order.below == tuple(
        _bits(j for j in range(n) if (names[j], names[i]) in closed) for i in range(n)
    )
    assert order.pairs == closed
    by_pbody, by_nbody, by_head = index_rules(op.rules)
    assert op.nb_of == {lit: _bits(at) for lit, at in by_nbody.items()}
    assert op.hb_of == {lit: _bits(at) for lit, at in by_head.items()}
    for i, r in enumerate(op.rules):
        assert prefwfs.defeat_bits(op, i, 0) == _bits(
            j for j, g in enumerate(op.rules)
            if (g.name, r.name) in closed and r.head in g.nbody
        )
    universe = sorted(op.universe)
    rng = random.Random(len(universe) * 7919 + n)
    contexts = [0, -1] + [
        _bits(lit.id for lit in universe if rng.random() < p) for p in (0.3, 0.6, 0.9)
    ]
    for y in contexts:
        held = literals_of(y & _bits(lit.id for lit in universe))
        assert supporting_rules(op.rules, y) == _bits(
            i for i, r in enumerate(op.rules) if r.pbody <= held
        )


@pytest.mark.parametrize("name", PROGRAMS)
def test_views_match_their_definitions(name):
    _check_views(PROGRAMS[name])


@pytest.mark.parametrize("name", PROGRAMS)
def test_views_survive_a_pickle_round_trip(name):
    op = PROGRAMS[name]
    op.order.above, op.order.below, op.nb_of  # closed before the trip
    loaded = pickle.loads(pickle.dumps(op))
    assert loaded == op
    _check_views(loaded)
    assert (loaded.order.above, loaded.order.below) == (op.order.above, op.order.below)


@pytest.mark.parametrize("name", PROGRAMS)
def test_views_follow_a_revalidated_order_over_reordered_rules(name):
    op = PROGRAMS[name]
    rules = list(op.rules)
    random.Random(name).shuffle(rules)
    moved = OrderedProgram(tuple(rules), op.order)
    assert moved.order == op.order
    assert moved.order.rule_names == tuple(r.name for r in rules)
    _check_views(moved)


def test_the_kept_lists_are_validations_edges():
    op = PROGRAMS["chain30"]
    # r{k+1} < r{k}: each rule but the last has exactly the next one below.
    position = op.order.position
    assert [list(at) for at in op.order.lower] == [
        [position[f"r{k + 1}"]] if k < 30 else [] for k in range(1, 31)
    ]
    assert [op.order.rule_names[i] for i in op.order.highest_first] == [
        f"r{k}" for k in range(1, 31)
    ]
