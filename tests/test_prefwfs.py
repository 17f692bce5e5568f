import random

import pytest

from olp import prefwfs
from olp.classical import c_op, t_step, well_founded_fixpoint, well_founded_model
from olp.fixpoint import iterate_union
from olp.oracle import GeneratorConfig, generate_program
from olp.parser import parse_program
from olp.preference import preferred_answer_sets
from olp.prefwfs import (
    apn_op,
    cpn_op,
    d_set,
    d_set_simplistic,
    defeat_contexts,
    defeats,
    preferred_wf_model,
    preferred_wfs_fixpoint,
    preferred_wfs_set,
    tpn_step,
    wf_model_bits,
    wf_model_trace,
)
from olp.syntax import Interpretation, PartialModel
from .conftest import A, B, C, NA, NB, NP, NQ, P, Q, interp, load, random_consistent
from .test_mutations import _install

E = Interpretation.empty()


class TestDefeats:
    def test_head_meets_negative_body(self, ex3):
        r1, r2 = ex3.rules
        assert defeats(r1, r2, E)
        assert defeats(r2, r1, E)

    def test_empty_negative_body_is_undefeatable(self, ex5):
        r1 = ex5.by_name["r1"]
        assert not defeats(ex5.by_name["r2"], r1, interp(A, B))

    def test_state_literals_count_as_well(self, ex4):
        r1, r2 = ex4.rules
        assert not defeats(r1, r2, E)
        assert defeats(r1, r2, interp(C))

    def test_defeated_rules_read_an_interpretations_bits(self, ex4, monkeypatch):
        from olp import prefwfs

        r1, r2 = ex4.rules
        assert prefwfs.defeated_rules(ex4, r1, frozenset({C})) == (r2,)
        # A value built from bits is read as bits, never decoded and encoded.
        x = Interpretation.from_bits(1 << C.id, ex4.universe)
        monkeypatch.setattr(prefwfs, "bits_of", None)
        assert prefwfs.defeated_rules(ex4, r1, x) == (r2,)
        assert prefwfs.defeated_rules(ex4, r1, E) == ()


class TestDSet:
    def test_higher_rule_discards_the_defeated_lower_head(self, ex3):
        ab = interp(A, B)
        assert d_set(ex3, ex3.by_name["r1"], E, ab) == frozenset({B})

    def test_lower_rule_removes_nothing(self, ex3):
        ab = interp(A, B)
        assert d_set(ex3, ex3.by_name["r2"], E, ab) == frozenset()

    def test_competing_generator_protects_the_literal(self, ex5):
        # a is also the head of the top fact r1, which r2 does not outrank,
        # so a stays in r2's context even though r2 defeats r3.
        ab = interp(A, B)
        assert d_set(ex5, ex5.by_name["r2"], E, ab) == frozenset()


class TestDSetSimplistic:
    def test_ignores_competing_generators(self, ex5):
        assert d_set_simplistic(ex5, ex5.by_name["r2"], E) == frozenset({A})

    def test_two_rule_cycle(self, ex3):
        assert d_set_simplistic(ex3, ex3.by_name["r1"], E) == frozenset({B})

    def test_minimal_rule_removes_nothing(self, ex5):
        assert d_set_simplistic(ex5, ex5.by_name["r3"], E) == frozenset()


class TestTpnStep:
    def test_reduced_context_unblocks_the_higher_rule(self, ex3):
        assert tpn_step(ex3, interp(A, B), E) == interp(A)

    def test_inconsistent_state_collapses(self, ex3):
        lit = Interpretation.lit(ex3.universe)
        assert tpn_step(ex3, E, lit) == lit

    def test_classical_on_supported_contexts_without_order(self):
        rng = random.Random(13)
        for seed in range(60):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.0))
            for _ in range(4):
                x = random_consistent(rng, op.universe)
                y = c_op(op.rules, x, op.universe)
                if y.is_lit:
                    continue
                assert tpn_step(op, y, E) == t_step(op.rules, y, E, op.universe)
                assert cpn_op(op, y) == c_op(op.rules, y, op.universe)


class TestCpnOp:
    def test_cycle_keeps_the_preferred_head(self, ex3):
        assert cpn_op(ex3, interp(A, B)) == interp(A)

    def test_shared_head_program_paper_variant(self, ex5):
        assert cpn_op(ex5, interp(A, B)) == interp(A)

    def test_shared_head_program_simplistic_variant(self, ex5):
        assert cpn_op(ex5, interp(A, B), "simplistic") == interp(A, B)

    def test_a_later_defeat_retests_a_blocked_rule(self):
        # r3 is blocked by q until p, derived by r1, defeats q's only rule r2;
        # both rule orders, so whichever rule the worklist tests first.
        lines = ["r1: p.", "r2: q :- not p.", "r3: a :- not q.", "r2 < r3."]
        for text in ("\n".join(lines), "\n".join(reversed(lines))):
            op = parse_program(text)
            for variant in ("paper", "simplistic"):
                stepped = iterate_union(
                    lambda cur: tpn_step(op, interp(Q), cur, variant), op.universe
                )
                assert cpn_op(op, interp(Q), variant) == stepped == interp(P, Q, A)


class TestApnOp:
    def test_cycle_first_application(self, ex3):
        assert apn_op(ex3, E) == interp(A)

    def test_cycle_fixpoint(self, ex3):
        assert apn_op(ex3, interp(A)) == interp(A)

    def test_benchmark_program(self, ex4):
        assert apn_op(ex4, E) == interp(B)


class TestPreferredWfsSet:
    def test_cycle(self, ex3):
        assert preferred_wfs_set(ex3) == interp(A)

    def test_benchmark_program(self, ex4):
        assert preferred_wfs_set(ex4) == interp(B)

    def test_empty_order_equals_classical_on_consistent_alternation(self):
        checked = 0
        for seed in range(120):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.0))
            lfp, trace = well_founded_fixpoint(op.rules, op.universe)
            if any(
                c_op(op.rules, v, op.universe).is_lit for v in trace
            ):
                continue
            checked += 1
            assert preferred_wfs_set(op) == lfp
        assert checked > 50

    def test_divergence_from_classical_through_the_collapse(self):
        # With no order at all, a context that collapses to the whole
        # universe leaves default-negated literals with no generating rule
        # removable, so the defeat-aware operator keeps deriving where the
        # classical one has gone silent.  Pinned as the known boundary of
        # the empty-order equality.
        op = parse_program("r1: p :- not -p.\nr2: q :- p.\nr3: -q :- not q.\n")
        classical_lfp, _ = well_founded_fixpoint(op.rules, op.universe)
        assert classical_lfp == E
        assert preferred_wfs_set(op) == interp(P, Q)


class TestPreferredWfModel:
    def test_cycle_full_universe_report(self, ex3):
        assert preferred_wf_model(ex3) == PartialModel(
            frozenset({A}), frozenset({NA, B, NB})
        )

    def test_shared_head_program_both_variants(self, ex5):
        assert preferred_wf_model(ex5).true_set == frozenset({A})
        simplistic = preferred_wf_model(ex5, "simplistic")
        assert simplistic.true_set == frozenset({A, B})
        assert simplistic.false_set == frozenset({NA, NB})

    def test_strict_chain_beats_the_higher_default(self, defeasible):
        model = preferred_wf_model(defeasible)
        assert model.true_set == frozenset({P, Q})
        assert model.false_set == frozenset({NP, NQ})

    def test_facts_with_preference_keep_both(self, ex7):
        assert preferred_wf_model(ex7).true_set == frozenset({P, Q})


class TestProperties:
    def test_cpn_is_anti_monotone(self):
        rng = random.Random(17)
        for seed in range(80):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.4))
            for _ in range(8):
                big = random_consistent(rng, op.universe)
                small = Interpretation.of(
                    l for l in sorted(big.literals) if rng.random() < 0.5
                )
                assert cpn_op(op, big).issubset(cpn_op(op, small))
                assert apn_op(op, small).issubset(apn_op(op, big))

    def test_model_is_disjoint_and_unique(self):
        for seed in range(100):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.4))
            model = preferred_wf_model(op)
            assert not (model.true_set & model.false_set)
            assert preferred_wf_model(op) == model

    def test_standard_model_is_contained_in_the_preferred_one(self):
        for seed in range(100):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.4))
            standard = well_founded_model(op.rules, op.universe)
            preferred = preferred_wf_model(op)
            assert standard.true_set <= preferred.true_set
            assert standard.false_set <= preferred.false_set

    def test_preferred_model_approximates_preferred_answer_sets(self):
        for seed in range(100):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.4))
            model = preferred_wf_model(op)
            for z in preferred_answer_sets(op):
                assert model.true_set <= z.literals
                assert not (model.false_set & z.literals)

    def test_variants_agree_on_distinct_heads_at_supported_contexts(self):
        rng = random.Random(23)
        for seed in range(120):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.4))
            heads = [r.head for r in op.rules]
            if len(set(heads)) != len(heads):
                continue
            for _ in range(4):
                x = random_consistent(rng, op.universe)
                y = c_op(op.rules, x, op.universe)
                if y.is_lit:
                    continue
                for r in op.rules:
                    assert d_set(op, r, x, y) == (
                        d_set_simplistic(op, r, x) & y.literals
                    )

    def test_paper_removal_sets_follow_their_definition_on_shared_heads(self):
        checked, mismatch = _paper_removal_mismatch()
        assert mismatch is None
        assert checked == 578

    def test_the_definition_check_kills_a_policy_that_ignores_supporters(
        self, monkeypatch
    ):
        _install(
            monkeypatch, prefwfs, "_removable",
            "elif heads & supporters & ~defeated:", "elif heads & ~defeated:",
        )
        assert _paper_removal_mismatch()[1] is not None

    def test_convergence_within_the_bound(self):
        for seed in range(80):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.4))
            _, trace = preferred_wfs_fixpoint(op)
            assert len(trace) - 1 <= len(op.universe) + 1

    def test_defeat_contexts_describe_each_rule(self, ex3):
        contexts = defeat_contexts(ex3, E, interp(A, B))
        assert contexts["r1"] == frozenset({B})
        assert contexts["r2"] == frozenset()

    @pytest.mark.parametrize(
        "call",
        [
            lambda op: cpn_op(op, E, "bogus"),
            lambda op: apn_op(op, E, "bogus"),
            lambda op: tpn_step(op, E, E, "bogus"),
            lambda op: preferred_wfs_fixpoint(op, "bogus"),
            lambda op: preferred_wfs_set(op, "bogus"),
            lambda op: preferred_wf_model(op, "bogus"),
            lambda op: wf_model_trace(op, "bogus"),
            # Also where the peel decides the program and no fixpoint runs.
            lambda op: wf_model_bits(load("ex4"), "bogus"),
            lambda op: defeat_contexts(op, E, E, "bogus"),
        ],
        ids=[
            "cpn_op", "apn_op", "tpn_step", "preferred_wfs_fixpoint",
            "preferred_wfs_set", "preferred_wf_model", "wf_model_trace",
            "wf_model_bits", "defeat_contexts",
        ],
    )
    def test_every_entry_point_rejects_an_unknown_variant(self, ex3, call):
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            call(ex3)


def _paper_removal_mismatch():
    """Check the paper removal sets on shared-head programs against their
    definition: a literal l of y leaves rule r's context iff every rule g
    with head l and pbody(g) in y is strictly below r and defeated by r at
    x; a plain scan over the rules, with no bitsets.  Returns the number of
    (x, y) pairs checked and the first mismatch, or None."""
    rng = random.Random(29)
    checked = 0
    for seed in range(120):
        op = generate_program(GeneratorConfig(seed=seed, order_density=0.4))
        heads = [r.head for r in op.rules]
        if len(set(heads)) == len(heads):
            continue
        for _ in range(4):
            x = random_consistent(rng, op.universe)
            for y in (c_op(op.rules, x, op.universe), random_consistent(rng, op.universe)):
                if y.is_lit:
                    continue
                contexts = defeat_contexts(op, x, y)
                for r in op.rules:
                    expected = frozenset(
                        l for l in y.literals
                        if all(
                            op.order.prefers(g.name, r.name) and defeats(r, g, x)
                            for g in op.rules
                            if g.head == l and g.pbody <= y.literals
                        )
                    )
                    got = (d_set(op, r, x, y), contexts[r.name])
                    if got != (expected, expected):
                        return checked, (seed, r.name, x, y, got, expected)
                checked += 1
    return checked, None
