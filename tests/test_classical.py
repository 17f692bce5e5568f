import random
import sys
from argparse import Namespace

import pytest

from olp import cli
from olp.classical import (
    LiveClosure,
    a_op,
    answer_sets,
    c_op,
    cn,
    derive,
    head_candidates,
    is_active,
    peel,
    reduct,
    t_step,
    well_founded_bits,
    well_founded_fixpoint,
    well_founded_model,
)
from olp.oracle import GeneratorConfig, generate_program, oracle_cn
from olp.parser import parse_program, render_program
from olp.prefwfs import cpn_op, wf_model_bits, wf_model_trace
from olp.syntax import (
    Interpretation,
    PartialModel,
    ProgramError,
    has_pair,
    literal_universe,
    pos,
    rule,
)
from .conftest import A, B, C, NA, NB, NP, P, Q, ROOT, interp, random_consistent
from .test_acceptance import BATCH_SEED

E = Interpretation.empty()


@pytest.fixture
def facts_abn():
    # a., -a., b.
    return (rule("r1", A), rule("r2", NA), rule("r3", pos("b")))


class TestIsActive:
    def test_empty_context_misses_everything(self, ex3):
        assert is_active(ex3.rules[0], E, E)

    def test_negative_body_blocked_by_context(self, ex3):
        assert not is_active(ex3.rules[0], E, interp(B))

    def test_positive_body_needs_support(self):
        r = rule("r", Q, pbody=[P])
        assert is_active(r, interp(P), E)
        assert not is_active(r, E, E)


class TestReduct:
    def test_keeps_and_strips(self, ex3):
        assert {(r.name, r.head, r.nbody) for r in reduct(ex3.rules, interp(A))} == {
            ("r1", A, frozenset())
        }

    def test_empty_context_strips_everything(self, ex3):
        basic = reduct(ex3.rules, E)
        assert len(basic) == 2 and all(r.basic for r in basic)

    def test_full_context_deletes_everything(self, ex3):
        assert reduct(ex3.rules, interp(A, B)) == ()


class TestCn:
    def test_contradictory_facts_collapse(self, facts_abn):
        universe = literal_universe(facts_abn)
        assert cn(facts_abn, universe) == Interpretation.lit(universe)

    def test_empty_program(self):
        assert cn((), frozenset()) == E

    def test_positive_chaining(self):
        rules = (rule("r1", A), rule("r2", B, pbody=[A]))
        assert cn(rules, literal_universe(rules)) == interp(A, B)

    def test_requires_basic_program(self, ex3):
        with pytest.raises(ProgramError):
            cn(ex3.rules, ex3.universe)


class TestTStep:
    def test_nothing_blocked_by_empty_context(self, ex3):
        assert t_step(ex3.rules, E, E, ex3.universe) == interp(A, B)

    def test_everything_blocked_by_full_heads(self, ex3):
        assert t_step(ex3.rules, interp(A, B), E, ex3.universe) == E

    def test_inconsistent_state_collapses(self, ex3):
        lit = Interpretation.lit(ex3.universe)
        assert t_step(ex3.rules, E, lit, ex3.universe) == lit

    def test_lit_context_blocks_every_negative_body(self, ex3):
        lit = Interpretation.lit(ex3.universe)
        assert t_step(ex3.rules, lit, E, ex3.universe) == E


class TestCOp:
    def test_cycle_from_empty(self, ex3):
        assert c_op(ex3.rules, E, ex3.universe) == interp(A, B)

    def test_cycle_from_both_heads(self, ex3):
        assert c_op(ex3.rules, interp(A, B), ex3.universe) == E

    def test_strict_chain_context(self, defeasible):
        x = interp(P, Q)
        assert c_op(defeasible.rules, x, defeasible.universe) == x


def _follow(rules, steps):
    """Feed a live closure each context in turn; at every step it must equal
    c_op at that context and the expected value."""
    universe = literal_universe(rules)
    live = LiveClosure(rules)
    for context, expected in steps:
        want = Interpretation.lit(universe) if expected == "Lit" else interp(*expected)
        assert c_op(rules, context, universe) == want, context
        assert Interpretation.from_bits(live(context.bits), universe) == want, context


class TestLiveClosure:
    def test_positive_cycle_loses_its_outside_support(self):
        # a :- b.  b :- a.  a :- not p.
        rules = (
            rule("r1", A, pbody=[B]),
            rule("r2", B, pbody=[A]),
            rule("r3", A, nbody=[P]),
        )
        _follow(
            rules, [(E, [A, B]), (interp(P), []), (E, [A, B]), (interp(NP), [A, B])]
        )

    def test_head_with_two_supports_one_blocked(self):
        # a :- not p.  a :- not q.  b :- a.
        rules = (
            rule("r1", A, nbody=[P]),
            rule("r2", A, nbody=[Q]),
            rule("r3", B, pbody=[A]),
        )
        _follow(
            rules,
            [(E, [A, B]), (interp(P), [A, B]), (interp(P, Q), []), (interp(Q), [A, B])],
        )

    def test_context_grows_and_shrinks_back(self):
        # a :- not b.  b :- not c.  c :- not d.  p :- a, c.
        rules = (
            rule("r1", A, nbody=[B]),
            rule("r2", B, nbody=[C]),
            rule("r3", C, nbody=[pos("d")]),
            rule("r4", P, pbody=[A, C]),
        )
        _follow(
            rules,
            [
                (E, [A, B, C, P]),
                (interp(C), [A, C, P]),
                (interp(B, C), [C]),
                (interp(C), [A, C, P]),
                (E, [A, B, C, P]),
            ],
        )

    def test_context_drives_the_closure_to_lit_and_back(self):
        # a :- not p.  -a :- not q.  b :- a.
        rules = (
            rule("r1", A, nbody=[P]),
            rule("r2", NA, nbody=[Q]),
            rule("r3", B, pbody=[A]),
        )
        lit = Interpretation.lit(literal_universe(rules))
        _follow(
            rules,
            [
                (E, "Lit"),
                (interp(P), [NA]),
                (E, "Lit"),
                (interp(Q), [A, B]),
                (lit, []),
                (interp(P, Q), []),
                (E, "Lit"),
            ],
        )

    def test_two_negative_body_literals_leave_and_join_one_at_a_time(self):
        # a :- not b, not c.  p :- a.  The rule's one counter holds both
        # blocking literals, so it must fire only once both have left.
        rules = (rule("r1", A, nbody=[B, C]), rule("r2", P, pbody=[A]))
        _follow(
            rules,
            [
                (interp(B, C), []),
                (interp(B), []),
                (E, [A, P]),
                (interp(C), []),
                (interp(B, C), []),
            ],
        )

    def test_retraction_reaches_past_one_level(self):
        # a :- not p.  b :- a.  q :- b.  Blocking a must take b and q.
        rules = (
            rule("r1", A, nbody=[P]),
            rule("r2", B, pbody=[A]),
            rule("r3", Q, pbody=[B]),
        )
        _follow(rules, [(E, [A, B, Q]), (interp(P), []), (E, [A, B, Q])])

    def test_atom_free_program(self):
        _follow((), [(E, []), (Interpretation.lit(frozenset()), []), (E, [])])

    def test_raw_moves_match_derive_over_the_current_rules_and_context(self):
        # Contexts are raw bitsets: they may hold a complementary pair,
        # which no Interpretation can express, and literals in no negative
        # body.  Rule-set moves (within) interleave with them on one
        # closure; after every call the raw closure must equal derive over
        # the rules in the set whose negative body misses the context.
        rng = random.Random(22)
        paired = unwatched = 0
        for seed in range(150):
            rules = generate_program(GeneratorConfig(seed=seed)).rules
            ids = [lit.id for lit in sorted(literal_universe(rules), key=str)]
            watched = 0
            for r in rules:
                watched |= r.nmask
            live, every = LiveClosure(rules), (1 << len(rules)) - 1
            mask, y = every, 0
            for _ in range(12):
                if rng.random() < 0.3:
                    mask = rng.randint(0, every)
                    got = live.within(mask)
                else:
                    y = sum(1 << i for i in ids if rng.random() < 0.5)
                    paired += bool(has_pair(y))
                    unwatched += bool(y & ~watched)
                    got = live(y)
                chosen = [
                    r for i, r in enumerate(rules) if mask >> i & 1 and not r.nmask & y
                ]
                assert got == derive(chosen), (seed, bin(mask), bin(y))
        assert paired and unwatched


class TestAOp:
    def test_cycle_fixes_empty(self, ex3):
        assert a_op(ex3.rules, E, ex3.universe) == E

    def test_benchmark_program(self, ex4):
        assert a_op(ex4.rules, E, ex4.universe) == interp(B)

    def test_least_fixpoint_is_a_fixpoint(self, ex4):
        lfp, _ = well_founded_fixpoint(ex4.rules, ex4.universe)
        assert a_op(ex4.rules, lfp, ex4.universe) == lfp


class TestAnswerSets:
    def test_cycle_has_two(self, ex3):
        plain = ex3.strip_order()
        assert answer_sets(plain.rules, plain.universe) == frozenset(
            {interp(A), interp(B)}
        )

    def test_single_fact(self):
        rules = (rule("r1", A),)
        assert answer_sets(rules, literal_universe(rules)) == frozenset({interp(A)})

    def test_self_blocking_rule_has_none(self):
        rules = (rule("r1", A, nbody=[A]),)
        assert answer_sets(rules, literal_universe(rules)) == frozenset()

    def test_candidates_over_more_than_twenty_heads_are_an_input_error(self):
        rules = [rule(f"r{k}", pos(f"h{k}")) for k in range(21)]
        assert next(head_candidates(rules[:20], literal_universe(rules[:20]))) == E
        with pytest.raises(ProgramError, match="21 heads"):
            next(head_candidates(rules, literal_universe(rules)))


class TestWellFoundedModel:
    def test_cycle_is_all_unknown_on_atoms(self, ex3):
        model = well_founded_model(ex3.rules, ex3.universe)
        assert model == PartialModel(frozenset(), frozenset({NA, NB}))
        assert model.unknown(ex3.universe) == frozenset({A, B})

    def test_benchmark_program(self, ex4):
        model = well_founded_model(ex4.rules, ex4.universe)
        assert model.true_set == frozenset({B})
        assert model.false_set == ex4.universe - {B}

    def test_single_fact(self):
        rules = (rule("r1", A),)
        model = well_founded_model(rules, literal_universe(rules))
        assert model == PartialModel(frozenset({A}), frozenset({NA}))

    def test_support_with_a_pair_makes_nothing_false(self):
        # a :- not b.  -a :- not b.  The lfp is empty and consistent, but
        # what it supports, {a, -a}, collapses to the whole universe.
        rules = (rule("r1", A, nbody=[B]), rule("r2", NA, nbody=[B]))
        model = well_founded_model(rules, literal_universe(rules))
        assert model == PartialModel(frozenset(), frozenset())

    def test_trace_ends_in_a_repeat(self, ex4):
        _, trace = well_founded_fixpoint(ex4.rules, ex4.universe)
        values = trace
        assert values[-1] == values[-2]
        assert len(trace) - 1 <= len(ex4.universe) + 1


def _peel_agrees(op) -> bool:
    """Whether ``peel`` decides op; when it does, its true set must be the
    alternation's lfp and also what the lfp supports, and the paper's
    ``cpn_op`` must keep it.  Decided or not, ``well_founded_bits`` and
    ``wf_model_bits`` must give the alternation's pair in every
    well-founded mode, and an untraced solve the traced one's answer (up to
    300 rules: the traced removal sets of a longer chain take seconds)."""
    for mode, variant in (("wfs", None), ("pwfs", "paper"), ("pwfs-simplistic", "simplistic")):
        lfp, supported, _ = wf_model_trace(op, variant)
        assert wf_model_bits(op, variant) == (lfp.bits, supported), (mode, render_program(op))
        if len(op.rules) <= 300:
            untraced, traced = (
                cli._solve_payload(op, Namespace(mode=mode, atoms_only=False, trace=trace))
                for trace in (False, True)
            )
            traced.pop("trace", None)
            assert untraced == traced, (mode, render_program(op))
    both = well_founded_bits(op.rules, op.universe, op.rule_index)
    assert both == wf_model_bits(op, None), render_program(op)
    true = peel(op.rules, op.rule_index)
    if true is None:
        return False
    assert (true, true) == both
    assert cpn_op(op, Interpretation.from_bits(true, op.universe)).bits == true
    return True


class TestPeel:
    """The bottom-up well-founded model of acyclic programs against the
    alternating fixpoint it stands in for."""

    @pytest.mark.parametrize(
        "text, decided",
        [
            ("r1: a.", True),
            ("r1: a :- a.", False),  # a positive self-loop
            ("r1: a :- not a.", False),
            ("r1: a :- not b.\nr2: b :- not a.", False),  # an even negative loop
            # A chain that ends in a 2-cycle.
            ("r1: a :- not b.\nr2: b :- not c.\nr3: c :- not d.\nr4: d :- c.", False),
            # Two rules for a; d and the body literals e and f head no rule.
            ("r1: a :- b.\nr2: a :- not c.\nr3: b :- not a2.\nr4: c :- d.\nr5: a2.", True),
            ("r1: a :- b, not c.\nr2: d :- not e, f.\nr3: -g :- a, not d.", True),
            ("r1: a :- not b.\nr2: -a :- not c.", False),  # complementary heads
            # Peeled, h false; the simplistic removal drops l from r1's
            # context (r3 is defeated by k), so pwfs-simplistic makes h true.
            ("r1: h :- not l.\nr2: l.\nr3: l :- not k.\nr4: k.\nr3 < r1.", True),
        ],
    )
    def test_hand_cases(self, text, decided):
        assert _peel_agrees(parse_program(text)) == decided

    def test_criterion_7_programs(self):
        decided = [
            _peel_agrees(generate_program(GeneratorConfig(seed=BATCH_SEED + i)))
            for i in range(1000)
        ]
        # The rest have a cycle or complementary heads and keep the alternation.
        assert (sum(decided[:100]), sum(decided)) == (26, 208)

    def test_benchmark_texts(self):
        sys.path.insert(0, str(ROOT / "perfbench"))
        import workloads

        texts = {
            f"random{k}": workloads.random_text(k, atoms, rules, seed=1)
            for k, atoms, rules, _ in workloads.RANDOM_PROGRAMS
        }
        texts.update(workloads.corpus_texts(ROOT))
        texts.update((f"chain{n}", workloads.chain_text(1, n)) for n in (150, 300, 2000))
        decided = {name for name, text in texts.items() if _peel_agrees(parse_program(text))}
        assert decided == {
            "random17", "random19", "corpus-ex4", "corpus-ex7", "chain150", "chain300", "chain2000",
        }


class TestProperties:
    def test_c_is_anti_monotone_and_a_is_monotone(self):
        rng = random.Random(7)
        for seed in range(120):
            op = generate_program(GeneratorConfig(seed=seed))
            universe, rules = op.universe, op.rules
            for _ in range(8):
                big = random_consistent(rng, universe)
                small = Interpretation.of(
                    l for l in sorted(big.literals) if rng.random() < 0.5
                )
                assert c_op(rules, big, universe).issubset(
                    c_op(rules, small, universe)
                )
                assert a_op(rules, small, universe).issubset(
                    a_op(rules, big, universe)
                )

    def test_answer_sets_are_alternating_fixpoints(self):
        for seed in range(120):
            op = generate_program(GeneratorConfig(seed=seed))
            for x in answer_sets(op.rules, op.universe):
                assert a_op(op.rules, x, op.universe) == x

    def test_wfs_true_set_approximates_every_answer_set(self):
        for seed in range(120):
            op = generate_program(GeneratorConfig(seed=seed))
            model = well_founded_model(op.rules, op.universe)
            for x in answer_sets(op.rules, op.universe):
                assert model.true_set <= x.literals

    def test_engine_cn_matches_oracle_cn_on_reducts(self):
        rng = random.Random(11)
        for seed in range(120):
            op = generate_program(GeneratorConfig(seed=seed))
            for _ in range(4):
                context = random_consistent(rng, op.universe)
                basic = reduct(op.rules, context)
                assert cn(basic, op.universe) == oracle_cn(basic, op.universe)
