import random

from olp.classical import answer_sets, c_op, t_step, well_founded_fixpoint
from olp.oracle import GeneratorConfig, generate_program
from olp.preference import (
    ap_op,
    cp_op,
    lfp_ap,
    lfp_ap_fixpoint,
    preferred_answer_sets,
    tp_step,
)
from olp.syntax import Interpretation, program, rule
from .conftest import A, B, interp, random_consistent

E = Interpretation.empty()


class TestTpStep:
    def test_lower_rule_waits_for_the_higher_one(self, ex3):
        # Both rules are active wrt (0, 0), but the higher rule r1 is still
        # in question for r2, so only r1 fires on the first step.
        assert tp_step(ex3, E, E) == interp(A)

    def test_derived_head_suspends_the_preference(self, ex3):
        assert tp_step(ex3, E, interp(A)) == interp(A, B)

    def test_empty_order_collapses_to_the_classical_step(self):
        rng = random.Random(3)
        for seed in range(60):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.0))
            for _ in range(5):
                y = _sample(rng, op.universe)
                x = _sample(rng, op.universe)
                assert tp_step(op, y, x) == t_step(op.rules, y, x, op.universe)

    def test_inconsistent_state_collapses(self, ex3):
        lit = Interpretation.lit(ex3.universe)
        assert tp_step(ex3, E, lit) == lit


class TestCpOp:
    def test_cycle_from_empty(self, ex3):
        assert cp_op(ex3, E) == interp(A, B)

    def test_cycle_from_both_heads(self, ex3):
        assert cp_op(ex3, interp(A, B)) == E

    def test_empty_order_equals_classical(self):
        rng = random.Random(5)
        for seed in range(60):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.0))
            for _ in range(4):
                x = _sample(rng, op.universe)
                assert cp_op(op, x) == c_op(op.rules, x, op.universe)

    def test_blocked_higher_rule_stalls_lower_one(self, ex4):
        # r1 stays active wrt ({b}, 0) and unapplied, so r2 never fires and
        # {b} is not a fixpoint: the program has no preferred answer set.
        assert cp_op(ex4, interp(B)) == E


class TestApOp:
    def test_cycle_least_fixpoint_is_empty(self, ex3):
        assert ap_op(ex3, E) == E

    def test_fixpoints_of_cp_are_fixpoints_of_ap(self, ex3):
        x = interp(A)
        assert cp_op(ex3, x) == x
        assert ap_op(ex3, x) == x

    def test_monotone(self):
        rng = random.Random(9)
        for seed in range(60):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.4))
            for _ in range(6):
                big = _sample(rng, op.universe)
                if big.is_lit:
                    small = _sample(rng, op.universe)
                    if small.is_lit:
                        small = Interpretation.empty()
                else:
                    small = Interpretation.of(
                        l for l in sorted(big.literals) if rng.random() < 0.5
                    )
                assert ap_op(op, small).issubset(ap_op(op, big))
                assert cp_op(op, big).issubset(cp_op(op, small))


class TestPreferredAnswerSets:
    def test_cycle_prefers_the_higher_head(self, ex3):
        assert preferred_answer_sets(ex3) == frozenset({interp(A)})

    def test_shared_head_program(self, ex5):
        assert preferred_answer_sets(ex5) == frozenset({interp(A)})

    def test_benchmark_program_has_none(self, ex4):
        assert preferred_answer_sets(ex4) == frozenset()

    def test_empty_order_equals_answer_sets(self):
        for seed in range(80):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.0))
            assert preferred_answer_sets(op) == answer_sets(op.rules, op.universe)

    def test_every_preferred_answer_set_is_standard(self):
        for seed in range(80):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.4))
            assert preferred_answer_sets(op) <= answer_sets(op.rules, op.universe)


class TestLfpAp:
    def test_cycle(self, ex3):
        assert lfp_ap(ex3) == E

    def test_single_fact_no_order(self):
        op = program([rule("r1", A)])
        assert lfp_ap(op) == interp(A)

    def test_empty_order_equals_classical_lfp(self):
        for seed in range(80):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.0))
            classical_lfp, _ = well_founded_fixpoint(op.rules, op.universe)
            assert lfp_ap(op) == classical_lfp

    def test_contained_in_every_preferred_answer_set(self):
        for seed in range(80):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.4))
            wf = lfp_ap(op)
            for z in preferred_answer_sets(op):
                assert wf.issubset(z)

    def test_two_valued_fixpoint_is_the_unique_preferred_answer_set(self):
        for seed in range(80):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.4))
            wf = lfp_ap(op)
            if wf.literals | (op.universe - cp_op(op, wf).literals) == op.universe:
                assert preferred_answer_sets(op) == frozenset({wf})

    def test_trace_converges_within_the_bound(self, ex5):
        _, trace = lfp_ap_fixpoint(ex5)
        assert len(trace) - 1 <= len(ex5.universe) + 1


def _sample(rng, universe):
    if universe and rng.random() < 0.1:
        return Interpretation.lit(universe)
    return random_consistent(rng, universe)
