"""Property tests past the generator's 6-atom ceiling (up to 12 atoms).

Hypothesis draws programs and context sequences; the runs are derandomized
and bounded, so every run checks the same examples.  The stateful closures
are checked against their stateless references: the live closure against
``c_op``, the worklist ``cpn_op`` against iterating ``tpn_step``, and the
well-founded fixpoints against ``kleene`` over ``a_op`` and ``apn_op``.

A second family is defeat-heavy: few, shared heads, negative bodies that
name the heads of lower-ranked rules, and dense orders.  On it the bitset
defeat sets are checked against a scan with ``defeats``, the defeat-aware
closures against their step routes, and the live closure moved between
rule sets, as brewka moves it, against ``derive`` over each set.

The answer-set searches are checked against the direct enumeration over
``head_candidates`` on both families, their heads capped so that the
enumeration stays cheap, and on a third family of even loops, which has
many answer sets and so exercises both branches of the search.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from olp import brewka, classical, preference, prefwfs
from olp.cli import MODES, main
from olp.fixpoint import iterate_union, kleene
from olp.oracle import GeneratorConfig, generate_program
from olp.parser import render_program
from olp.prefwfs import VARIANTS
from olp.syntax import Interpretation, neg, pos, program, rule

MAX_ATOMS = 12
MAX_RULES = 24
MAX_ENUMERATED_HEADS = 10

PROPERTY = settings(
    derandomize=True,
    database=None,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def programs(draw, max_heads=None):
    atoms = [f"p{k}" for k in range(draw(st.integers(1, MAX_ATOMS)))]
    literal = st.builds(
        lambda name, negated: neg(name) if negated else pos(name),
        st.sampled_from(atoms),
        st.booleans(),
    )
    bodies = st.frozensets(literal, max_size=2)
    head = literal
    if max_heads:
        head = st.sampled_from(
            draw(st.lists(literal, min_size=1, max_size=max_heads, unique=True))
        )
    heads = draw(st.lists(head, min_size=2, max_size=MAX_RULES))
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


@st.composite
def defeat_heavy_programs(draw, max_heads=None):
    # The whole shape comes from one drawn seed: drawing each choice
    # through hypothesis costs more than the checks, and its small-first
    # draws would keep the programs small.
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    atoms = [f"p{k}" for k in range(rng.randint(2, MAX_ATOMS))]
    literals = [lit for a in atoms for lit in (pos(a), neg(a))]
    size = rng.randint(2, MAX_RULES)
    most = min(len(literals), size * 2 // 3, max_heads or len(literals))
    heads = rng.sample(literals, rng.randint(1, most))
    head_of = [rng.choice(heads) for _ in range(size)]
    rank = rng.sample(range(size), size)  # a higher rank is preferred
    rules = []
    for i, head in enumerate(head_of):
        lower = [head_of[j] for j in range(size) if rank[j] < rank[i]]
        nbody = set(rng.sample(lower, min(len(lower), rng.randint(1, 2))))
        if rng.random() < 0.5:
            nbody.add(rng.choice(head_of))
        pbody = {rng.choice(literals)} if rng.random() < 0.3 else set()
        rules.append(rule(f"r{i}", head, pbody, nbody))
    density = rng.uniform(0.5, 1.0)
    pairs = [
        (f"r{i}", f"r{j}")
        for i in range(size)
        for j in range(size)
        if rank[i] < rank[j] and rng.random() < density
    ]
    return program(rules, pairs)


@st.composite
def even_loop_programs(draw):
    """Up to 5 even loops ``p :- not q. q :- not p.``, so up to 32 answer
    sets, with a few rules across the loops and a drawn order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    loops = rng.randint(1, MAX_ENUMERATED_HEADS // 2)
    rules = []
    for k in range(loops):
        rules.append(rule(f"p{k}", pos(f"p{k}"), (), {pos(f"q{k}")}))
        rules.append(rule(f"q{k}", pos(f"q{k}"), (), {pos(f"p{k}")}))
    loop_literals = [lit for k in range(loops) for lit in (pos(f"p{k}"), pos(f"q{k}"))]
    # With the loops' heads, at most MAX_ENUMERATED_HEADS distinct heads.
    extra = [neg("p0"), *(pos(f"x{k}") for k in range(MAX_ENUMERATED_HEADS - 2 * loops - 1))]
    for i in range(rng.randint(0, 4)):
        pbody = set(rng.sample(loop_literals, rng.randint(0, 2)))
        nbody = set(rng.sample(loop_literals + extra, rng.randint(0, 2)))
        rules.append(rule(f"x{i}", rng.choice(extra), pbody, nbody))
    rank = rng.sample(range(len(rules)), len(rules))
    pairs = [
        (rules[i].name, rules[j].name)
        for i in range(len(rules))
        for j in range(len(rules))
        if rank[i] < rank[j] and rng.random() < 0.2
    ]
    return program(rules, pairs)


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
def programs_with_contexts(draw, length=10, family=programs):
    op = draw(family())
    return op, draw(st.lists(contexts(op), min_size=3, max_size=length))


@PROPERTY
@given(programs_with_contexts())
def test_live_closure_follows_c_op(case):
    op, sequence = case
    live = classical.LiveClosure(op.rules)
    for x in sequence:
        value = Interpretation.from_bits(live(x.bits), op.universe)
        assert value == classical.c_op(op.rules, x, op.universe), x


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
    assert trace == _reference_iterates(
        lambda x: classical.a_op(rules, x, universe), op
    )
    for variant in VARIANTS:
        _, trace = prefwfs.preferred_wfs_fixpoint(op, variant)
        assert trace == _reference_iterates(
            lambda x: prefwfs.apn_op(op, x, variant), op
        )


@PROPERTY
@given(programs_with_contexts(length=3, family=defeat_heavy_programs))
def test_defeat_bits_match_the_defeats_scan(case):
    op, sequence = case
    for x in sequence:
        for r in op.rules:
            scanned = tuple(
                g for g in op.rules
                if op.order.prefers(g.name, r.name) and prefwfs.defeats(r, g, x)
            )
            assert prefwfs.defeated_rules(op, r, x) == scanned, (r.name, x)


@PROPERTY
@given(
    programs_with_contexts(length=3, family=defeat_heavy_programs),
    st.sampled_from(VARIANTS),
)
def test_defeat_heavy_cpn_op_matches_the_step_route(case, variant):
    op, sequence = case
    for x in sequence:
        stepped = iterate_union(
            lambda cur: prefwfs.tpn_step(op, x, cur, variant), op.universe
        )
        assert prefwfs.cpn_op(op, x, variant) == stepped, x


@st.composite
def defeat_heavy_programs_with_rule_sets(draw):
    """A defeat-heavy program and 3 to 10 sets of its rules, as bitsets
    over rule positions; consecutive sets both gain and lose rules."""
    op = draw(defeat_heavy_programs())
    every = (1 << len(op.rules)) - 1
    return op, draw(st.lists(st.integers(0, every), min_size=3, max_size=10))


@PROPERTY
@given(defeat_heavy_programs_with_rule_sets())
def test_moving_closure_matches_derive_over_each_rule_set(case):
    op, masks = case
    live = classical.LiveClosure(op.rules)
    for mask in masks:
        chosen = [r for i, r in enumerate(op.rules) if mask >> i & 1]
        assert live.within(mask) == classical.derive(chosen), bin(mask)


@PROPERTY
@given(programs_with_contexts(length=3, family=defeat_heavy_programs))
def test_defeat_heavy_c_star_pref_matches_kleene_over_t_star_step(case):
    op, sequence = case
    for x in sequence:
        y = x.literals
        stepped, _ = kleene(
            lambda cur: cur | brewka.t_star_step(op, y, cur),
            frozenset(),
            len(op.universe) + 1,
        )
        assert brewka.c_star_pref(op, y) == stepped, x


def _search_matches_enumeration(op):
    rules, universe = op.rules, op.universe
    candidates = list(classical.head_candidates(rules, universe))
    assert classical.answer_sets(rules, universe) == {
        x for x in candidates if classical.c_op(rules, x, universe) == x
    }
    assert preference.preferred_answer_sets(op) == {
        x for x in candidates if preference.cp_op(op, x) == x
    }


@PROPERTY
@given(programs(max_heads=MAX_ENUMERATED_HEADS))
def test_answer_set_searches_match_the_enumeration(op):
    _search_matches_enumeration(op)


@PROPERTY
@given(defeat_heavy_programs(max_heads=MAX_ENUMERATED_HEADS))
def test_defeat_heavy_answer_set_searches_match_the_enumeration(op):
    _search_matches_enumeration(op)


@PROPERTY
@given(even_loop_programs())
def test_even_loop_answer_set_searches_match_the_enumeration(op):
    _search_matches_enumeration(op)


def test_statement_order_leaves_every_answer_unchanged(capsys, tmp_path):
    """A rendered ordered program with its statement lines (rules and
    preference pairs) shuffled gets the same ``--json`` answer in every mode.

    Rules keep their names, so only their positions and the order in which
    the parser meets pairs and atoms move.
    """
    moved = 0
    for seed in range(60):
        config = GeneratorConfig(seed=seed, max_atoms=6, max_rules=10, order_density=0.5)
        op = generate_program(config)
        text = render_program(op)
        lines = text.splitlines(keepends=True)
        random.Random(seed).shuffle(lines)
        moved += "".join(lines) != text and bool(op.order)
        answers = []
        for k, body in enumerate((text, "".join(lines))):
            path = tmp_path / f"{seed}-{k}.olp"
            path.write_text(body)
            for mode in MODES:
                assert main(["solve", str(path), "--mode", mode, "--json"]) == 0
            answers.append(capsys.readouterr().out)
        assert answers[0] == answers[1], f"seed {seed}:\n{text}\n{''.join(lines)}"
    assert moved >= 50
