import os
import subprocess
import sys

import pytest

from olp import brewka, classical, preference, prefwfs
from olp.classical import answer_sets, cn, reduct
from olp.oracle import (
    GeneratorConfig,
    UniverseTooLarge,
    check_theorems,
    chain_program,
    enumerate_subsets,
    generate_program,
    oracle_answer_sets,
    oracle_cn,
)
from olp.syntax import (
    Atom,
    Interpretation,
    Literal,
    PartialModel,
    literal_universe,
    rule,
    validate_order,
)
from .conftest import A, B, NA, ROOT, interp


class TestEnumerateSubsets:
    def test_single_atom_universe(self):
        universe = frozenset({A, NA})
        assert list(enumerate_subsets(universe)) == [
            Interpretation.empty(),
            interp(A),
            interp(NA),
            Interpretation.lit(universe),
        ]

    def test_empty_universe(self):
        assert list(enumerate_subsets(frozenset())) == [Interpretation.empty()]

    def test_two_atom_count(self, ex3):
        assert len(list(enumerate_subsets(ex3.universe))) == 10

    def test_cap(self):
        universe = frozenset(
            Literal(Atom(f"x{i}"), n) for i in range(13) for n in (False, True)
        )
        with pytest.raises(UniverseTooLarge):
            list(enumerate_subsets(universe))


class TestOracleAnswerSets:
    def test_cycle(self, ex3):
        plain = ex3.strip_order()
        assert oracle_answer_sets(plain.rules, plain.universe) == frozenset(
            {interp(A), interp(B)}
        )

    def test_self_blocking_rule(self):
        rules = (rule("r1", A, nbody=[A]),)
        assert oracle_answer_sets(rules, literal_universe(rules)) == frozenset()

    def test_facts_only(self):
        rules = (rule("r1", A), rule("r2", B))
        assert oracle_answer_sets(rules, literal_universe(rules)) == frozenset(
            {interp(A, B)}
        )


class TestGenerator:
    def test_same_seed_same_program(self):
        cfg = GeneratorConfig(seed=99)
        assert generate_program(cfg) == generate_program(cfg)

    def test_zero_density_gives_empty_order(self):
        op = generate_program(GeneratorConfig(seed=4, order_density=0.0))
        assert not op.order

    def test_orders_always_validate(self):
        for seed in range(200):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.5))
            validate_order(op.order.generators, op.rules)

    def test_config_bounds(self):
        with pytest.raises(ValueError):
            GeneratorConfig(max_atoms=0)
        with pytest.raises(ValueError):
            GeneratorConfig(nbody_prob=1.5)

    def test_chain_program_shape(self):
        op = chain_program(5)
        assert len(op.rules) == 5
        assert ("r5", "r1") in op.order.pairs


class TestCheckTheorems:
    def test_two_rule_cycle_passes_everything(self, ex3):
        report = check_theorems(ex3, seed=1)
        assert report.ok, report.failures

    def test_corpus_passes_everything(self, ex4, ex5, ex7, defeasible):
        for op in (ex4, ex5, ex7, defeasible):
            report = check_theorems(op, seed=2)
            assert report.ok, (op, report.failures)

    def test_simplistic_substitution_is_detected(self, ex5):
        # The approximation property fails once the simplistic removal set
        # is substituted: its model makes b true, but the only preferred
        # answer set is {a}.
        from olp.prefwfs import preferred_wf_model
        from olp.preference import preferred_answer_sets

        model = preferred_wf_model(ex5, "simplistic")
        violations = [
            z
            for z in preferred_answer_sets(ex5)
            if not model.true_set <= z.literals
        ]
        assert violations

    def test_json_lines_are_valid(self, ex3):
        import json

        for line in check_theorems(ex3, seed=3).json_lines():
            record = json.loads(line)
            assert {"seed", "program_hash", "invariant", "status"} <= set(record)

    def test_engine_and_oracle_agree_on_generated_programs(self):
        for seed in range(150):
            op = generate_program(GeneratorConfig(seed=seed))
            assert answer_sets(op.rules, op.universe) == oracle_answer_sets(
                op.rules, op.universe
            )
            basic = reduct(op.rules, Interpretation.empty())
            assert cn(basic, op.universe) == oracle_cn(basic, op.universe)


# The interpretation pairs the battery samples, on generated programs, their
# parsed copies and a long chain.  The draws visit atoms and literals in
# sorted order, so they must not depend on the hash seed.
SAMPLED_PAIRS_DIGEST = "90113d1f559b2694e220e09cf2ce52199855e240f649b2623b775a91095c01da"
SAMPLE_SCRIPT = """
import hashlib, random
from olp.oracle import GeneratorConfig, _subset_pairs, chain_program, generate_program
from olp.parser import parse_program, render_program
digest = hashlib.sha256()
programs = [generate_program(GeneratorConfig(seed=20260811 + i)) for i in range(100)]
for built in programs + [chain_program(300)]:
    for op in (built, parse_program(render_program(built))):
        for small, big in _subset_pairs(random.Random(len(op.rules)), op.universe, 10):
            digest.update(f"{small} {big}\\n".encode())
print(digest.hexdigest())
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_battery_samples_the_same_pairs_under_any_hash_seed(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", SAMPLE_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == SAMPLED_PAIRS_DIGEST


# A mutant of brewka.c_star_pref that adds x to its result fails
# c-star-pref-routes-agree at the first batch program; the counterexample
# shows both raw literal sets sorted, as the other invariants do.
ROUTE_DETAIL_SCRIPT = """
from olp import brewka
from olp.oracle import GeneratorConfig, check_theorems, generate_program
closure = brewka.c_star_pref
brewka.c_star_pref = lambda op, y, close=None: closure(op, y, close) | y
seed = 20260811
report = check_theorems(generate_program(GeneratorConfig(seed=seed)), seed=seed)
print(*[r.detail for r in report.failures if r.invariant == "c-star-pref-routes-agree"])
"""


def test_raw_set_counterexamples_do_not_depend_on_the_hash_seed():
    details = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", ROUTE_DETAIL_SCRIPT],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        details.append(done.stdout)
    assert details[0] == details[1]
    assert details[0].strip() and " -> {" in details[0] and "frozenset(" not in details[0]


def _overlapping_model():
    """A model whose true and false sets share a, built past the overlap
    check of ``PartialModel``."""
    model = object.__new__(PartialModel)
    object.__setattr__(model, "true_set", frozenset({A}))
    object.__setattr__(model, "false_set", frozenset({A}))
    return model


# Each invariant fails on the fact ``r1: a.`` once the value it reads is
# replaced, and its counterexample shows ``where -> ... -> got vs expected``.
BROKEN_READS = [
    ("answer-sets-are-alternating-fixpoints", classical, "a_op",
     lambda rules, x, universe: Interpretation.empty(), "{} vs {a}"),
    ("wfs-approximates-answer-sets", classical, "answer_sets",
     lambda rules, universe: frozenset({Interpretation.empty()}), "{} vs {a}"),
    ("lfp-ap-approximates-preferred", preference, "preferred_answer_sets",
     lambda op: frozenset({Interpretation.empty()}), "{} vs {a}"),
    ("pwfs-model-disjoint", prefwfs, "preferred_wf_model",
     lambda op, variant="paper": _overlapping_model(), "{a} vs {}"),
    ("thm3-empty-order-equality", prefwfs, "preferred_wf_model",
     lambda op, variant="paper": PartialModel(frozenset(), frozenset()),
     "({}, {}) vs ({a}, {-a})"),
    ("brewka-empty-order-standard", brewka, "brewka_wf_set",
     lambda op: frozenset(), "{} vs {a}"),
    ("answer-sets-oracle-agreement", classical, "answer_sets",
     lambda rules, universe: frozenset(), "{} vs {{a}}"),
    ("preferred-subset-of-answer-sets", classical, "answer_sets",
     lambda rules, universe: frozenset(), "{{a}} vs {}"),
    ("preferred-search-matches-enumeration", preference, "preferred_answer_sets",
     lambda op: frozenset(), "{} vs {{a}}"),
    ("two-valued-unique-preferred", preference, "preferred_answer_sets",
     lambda op: frozenset(), "{} vs {{a}}"),
    ("thm3-inclusions", prefwfs, "preferred_wf_model",
     lambda op, variant="paper": PartialModel(frozenset(), frozenset()),
     "true -> {a} vs {}"),
    ("thm4-approximation", prefwfs, "preferred_wf_model",
     lambda op, variant="paper": PartialModel(frozenset(), frozenset({A})),
     "{a} -> false -> {a} vs {}"),
    ("defeat-bits-agree", prefwfs, "defeated_rules",
     lambda op, r, x: (r,), "{a} -> r1 -> {r1} vs {}"),
    ("c-op-routes-agree", classical, "t_step",
     lambda rules, y, x, universe: Interpretation.empty(), "{a} -> {} vs {a}"),
]


@pytest.mark.parametrize(
    "invariant, module, name, replacement, detail",
    BROKEN_READS,
    ids=[row[0] for row in BROKEN_READS],
)
def test_a_failing_invariant_shows_its_counterexample(
    monkeypatch, invariant, module, name, replacement, detail
):
    from olp.parser import parse_program

    op = parse_program("r1: a.\n")
    assert check_theorems(op).ok
    monkeypatch.setattr(module, name, replacement)
    report = check_theorems(op)
    [result] = [r for r in report.results if r.invariant == invariant]
    assert (result.status, result.detail) == ("fail", detail)
    # A counterexample prints sets as an interpretation does, never by repr.
    assert not [r.detail for r in report.failures if "frozenset(" in r.detail]
