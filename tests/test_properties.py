"""Property tests past the generator's 6-atom ceiling (up to 12 atoms).

Hypothesis draws programs and context sequences; the runs are derandomized
and bounded, so every run checks the same examples.  The stateful closures
are checked against their stateless references: the live closure against
``c_op``, the worklist ``cpn_op`` against iterating ``tpn_step``, and the
well-founded fixpoints against ``kleene`` over ``a_op`` and ``apn_op``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from olp import classical, prefwfs
from olp.fixpoint import iterate_union, kleene
from olp.prefwfs import VARIANTS
from olp.syntax import Interpretation, neg, pos, program, rule

MAX_ATOMS = 12
MAX_RULES = 24

PROPERTY = settings(
    derandomize=True,
    database=None,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def programs(draw):
    atoms = [f"p{k}" for k in range(draw(st.integers(1, MAX_ATOMS)))]
    literal = st.builds(
        lambda name, negated: neg(name) if negated else pos(name),
        st.sampled_from(atoms),
        st.booleans(),
    )
    bodies = st.frozensets(literal, max_size=2)
    heads = draw(st.lists(literal, min_size=2, max_size=MAX_RULES))
    rules = [
        rule(f"r{i}", head, draw(bodies), draw(bodies)) for i, head in enumerate(heads)
    ]
    # Pairs respect a drawn ranking, so the order is acyclic by construction.
    positions = st.sampled_from(range(len(rules)))
    rank = draw(st.permutations(range(len(rules))))
    pairs = draw(st.lists(st.tuples(positions, positions), max_size=2 * len(rules)))
    return program(
        rules,
        [(f"r{i}", f"r{j}") for i, j in pairs if rank[i] < rank[j]],
    )


def contexts(op):
    """A consistent subset of the universe, or Lit."""
    atoms = sorted({lit.atom.name for lit in op.universe})
    choice = st.lists(
        st.sampled_from((0, 1, 2)), min_size=len(atoms), max_size=len(atoms)
    )
    consistent = choice.map(
        lambda picks: Interpretation.of(
            pos(a) if pick == 1 else neg(a) for a, pick in zip(atoms, picks) if pick
        )
    )
    return st.one_of(consistent, st.just(Interpretation.lit(op.universe)))


@st.composite
def programs_with_contexts(draw, length=10):
    op = draw(programs())
    return op, draw(st.lists(contexts(op), min_size=3, max_size=length))


@PROPERTY
@given(programs_with_contexts())
def test_live_closure_follows_c_op(case):
    op, sequence = case
    live = classical.LiveClosure(op.rules, op.universe)
    for x in sequence:
        assert live(x) == classical.c_op(op.rules, x, op.universe), x


@PROPERTY
@given(programs_with_contexts(length=3), st.sampled_from(VARIANTS))
def test_worklist_cpn_op_matches_the_step_route(case, variant):
    op, sequence = case
    for x in sequence:
        stepped = iterate_union(
            lambda cur: prefwfs.tpn_step(op, x, cur, variant), op.universe
        )
        assert prefwfs.cpn_op(op, x, variant) == stepped, x


def _reference_iterates(step, op):
    return kleene(step, Interpretation.empty(), len(op.universe) + 1)[1]


@PROPERTY
@given(programs())
def test_fixpoints_match_kleene_over_the_plain_operators(op):
    rules, universe = op.rules, op.universe
    _, trace = classical.well_founded_fixpoint(rules, universe)
    assert list(trace.values()) == _reference_iterates(
        lambda x: classical.a_op(rules, x, universe), op
    )
    for variant in VARIANTS:
        _, trace = prefwfs.preferred_wfs_fixpoint(op, variant)
        assert list(trace.values()) == _reference_iterates(
            lambda x: prefwfs.apn_op(op, x, variant), op
        )
