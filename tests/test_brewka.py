import random
import sys

import pytest

from olp.brewka import (
    brewka_wf_iterates,
    brewka_wf_set,
    c_star,
    c_star_pref,
    cl,
    defeated_rules,
    t_star_step,
)
from olp.classical import c_op, reduct, well_founded_model
from olp.fixpoint import kleene
from olp.oracle import GeneratorConfig, generate_program
from olp.parser import parse_program
from olp.syntax import Interpretation, is_consistent, literal_universe, literals_of, rule
from .conftest import A, B, NA, ROOT

E = frozenset()


class TestCl:
    def test_keeps_complementary_pairs(self):
        rules = (rule("r1", A), rule("r2", NA), rule("r3", B))
        assert cl(rules) == frozenset({A, NA, B})

    def test_empty_program(self):
        assert cl(()) == frozenset()

    def test_agrees_with_the_collapsing_closure_when_consistent(self):
        rules = (rule("r1", A), rule("r2", B, pbody=[A]))
        from olp.classical import cn

        assert cl(rules) == cn(rules, literal_universe(rules)).literals


class TestCStar:
    def test_contradictory_facts_survive(self):
        rules = (rule("r1", A), rule("r2", NA), rule("r3", B))
        assert c_star(rules, E) == frozenset({A, NA, B})

    def test_matches_classical_consequences_when_consistent(self):
        rng = random.Random(31)
        for seed in range(60):
            op = generate_program(
                GeneratorConfig(seed=seed, classical_negation_prob=0.0)
            )
            for _ in range(4):
                x = frozenset(
                    l for l in op.universe if not l.negated and rng.random() < 0.5
                )
                value = c_star(op.rules, x)
                assert value == c_op(op.rules, Interpretation.of(x), op.universe).literals

    def test_blocking_everything_leaves_the_facts(self, ex5):
        heads = frozenset(r.head for r in ex5.rules)
        assert c_star(ex5.rules, heads) == frozenset({A})


class TestDefeatedRules:
    def test_higher_rule_defeats_the_lower_one(self, ex3):
        assert defeated_rules(ex3, ex3.by_name["r1"], E) == (ex3.by_name["r2"],)

    def test_lower_rule_defeats_nothing(self, ex3):
        assert defeated_rules(ex3, ex3.by_name["r2"], E) == ()

    def test_minimal_rule_has_an_empty_domain(self, ex5):
        assert defeated_rules(ex5, ex5.by_name["r3"], E) == ()


class TestTStarStep:
    def test_defeated_reduct_is_removed_before_closing(self, ex3):
        # At the start of the alternation (outer argument empty) the reduct
        # is {a., b.}; dropping the defeated r2 reduct leaves r1's blocking
        # context {a}, so r1 fires while r2 is blocked by {a, b}.
        assert t_star_step(ex3, E, E) == frozenset({A})

    def test_blocked_reduct_empties_every_context(self, ex3):
        # Relative to y = {a, b} the reduct is empty, so nothing blocks.
        assert t_star_step(ex3, frozenset({A, B}), E) == frozenset({A, B})

    def test_empty_order_gives_one_uniform_context(self):
        op = parse_program("r1: a :- not b.\nr2: b :- not c.\n")
        context = cl(reduct(op.rules, Interpretation.empty()))
        expected = frozenset(
            r.head for r in op.rules if not (r.nbody & context)
        )
        assert t_star_step(op, E, E) == expected

    def test_facts_fire_regardless_of_context(self, ex7):
        assert t_star_step(ex7, frozenset(ex7.universe), E) == frozenset({*map(
            lambda r: r.head, ex7.rules
        )})


class TestBrewkaWfSet:
    def test_cycle_keeps_the_preferred_head(self, ex3):
        assert brewka_wf_set(ex3) == frozenset({A})

    def test_contradiction_is_tolerated_without_collapse(self):
        op = parse_program("r1: a.\nr2: -a.\nr3: b.\n")
        assert brewka_wf_set(op) == frozenset({A, NA, B})

    def test_empty_order_on_consistent_programs_is_standard(self):
        checked = 0
        for seed in range(120):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.0))
            iterates = list(map(literals_of, brewka_wf_iterates(op)))
            contexts = [c_star(op.rules, v) for v in iterates]
            if not all(map(is_consistent, iterates + contexts)):
                continue
            checked += 1
            assert brewka_wf_set(op) == well_founded_model(
                op.rules, op.universe
            ).true_set
        assert checked > 40

    def test_iterates_grow_monotonically(self):
        for seed in range(80):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.4))
            iterates = brewka_wf_iterates(op)
            for earlier, later in zip(iterates, iterates[1:]):
                assert not earlier & ~later
            assert len(iterates) <= len(op.universe) + 3

    def test_agrees_with_the_defeat_aware_semantics_on_the_corpus(
        self, ex3, ex4, ex5, ex7, defeasible
    ):
        from olp.prefwfs import preferred_wf_model

        for op in (ex3, ex4, ex5, ex7, defeasible):
            assert brewka_wf_set(op) == preferred_wf_model(op).true_set


def _iterates_agree(op):
    """``brewka_wf_iterates``, decoded, equals Kleene iteration of the
    public ``c_star_pref`` from the empty set, each step closed from
    scratch."""
    _, want = kleene(lambda x: c_star_pref(op, x), frozenset(), len(op.universe) + 1)
    assert list(map(literals_of, brewka_wf_iterates(op))) == want


class TestIteratesMatchFromScratchSteps:
    def test_criterion_7_batch(self):
        for i in range(1000):
            _iterates_agree(generate_program(GeneratorConfig(seed=20260811 + i)))

    def test_programs_with_a_dense_order(self):
        for seed in range(2000):
            _iterates_agree(generate_program(
                GeneratorConfig(max_atoms=6, max_rules=12, order_density=0.5, seed=seed)
            ))

    @pytest.fixture(scope="class")
    def workloads(self):
        sys.path.insert(0, str(ROOT / "perfbench"))
        import workloads

        return workloads

    def test_random_workload_texts(self, workloads):
        for family, atoms, rules, _ in workloads.RANDOM_PROGRAMS:
            _iterates_agree(parse_program(workloads.random_text(family, atoms, rules, seed=1)))

    @pytest.mark.parametrize("n", [100, 2000])
    def test_shuffled_chains_with_a_two_cycle(self, workloads, n):
        for seed in (1, 2):
            text = workloads.chain_text(seed, n)
            _iterates_agree(parse_program(text))
            _iterates_agree(parse_program(text + "zb :- not zc.\nzc :- not zb.\n"))


class TestCStarAntiMonotone:
    def test_on_raw_subsets(self):
        rng = random.Random(37)
        for seed in range(80):
            op = generate_program(GeneratorConfig(seed=seed))
            for _ in range(6):
                big = frozenset(l for l in op.universe if rng.random() < 0.5)
                small = frozenset(l for l in big if rng.random() < 0.6)
                assert c_star(op.rules, big) <= c_star(op.rules, small)

    def test_composed_operator_is_monotone(self):
        rng = random.Random(41)
        for seed in range(60):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.4))
            for _ in range(5):
                big = frozenset(l for l in op.universe if rng.random() < 0.5)
                small = frozenset(l for l in big if rng.random() < 0.6)
                assert c_star_pref(op, small) <= c_star_pref(op, big)
