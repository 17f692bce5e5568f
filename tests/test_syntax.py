import pytest

from olp.cli import main
from olp.oracle import GeneratorConfig, generate_program
from olp.syntax import (
    Atom,
    CycleError,
    DuplicateRuleError,
    Interpretation,
    Literal,
    OrderedProgram,
    PartialModel,
    PreferenceOrder,
    ProgramError,
    UnknownRuleError,
    complement,
    literal_universe,
    program,
    rule,
    validate_order,
)
from .conftest import A, B, NA, NB, interp, load


class TestLiterals:
    def test_complement_flips_sign(self):
        assert complement(A) == NA
        assert complement(NA) == A

    def test_complement_is_involutive(self):
        p = Literal(Atom("p"))
        assert complement(complement(p)) == p

    def test_involution_over_whole_universe(self):
        universe = literal_universe(load("ex5").rules)
        for lit in universe:
            assert complement(complement(lit)) == lit
            assert complement(lit) in universe

    def test_atom_name_is_validated(self):
        with pytest.raises(ProgramError):
            Atom("Foo")
        with pytest.raises(ProgramError):
            Atom("")
        with pytest.raises(ProgramError):
            Atom("1a")


class TestLiteralUniverse:
    def test_two_rule_cycle(self, ex3):
        assert literal_universe(ex3) == frozenset({A, NA, B, NB})

    def test_empty_program(self):
        assert literal_universe(OrderedProgram()) == frozenset()

    def test_two_facts(self):
        p = program([rule("r1", Literal(Atom("p"))), rule("r2", Literal(Atom("q")))])
        assert len(literal_universe(p)) == 4


class TestValidateOrder:
    def test_single_pair_is_its_own_closure(self, ex3):
        order = validate_order({("r2", "r1")}, ex3.rules)
        assert order.pairs == frozenset({("r2", "r1")})

    def test_chain_closes_transitively(self, ex5):
        order = validate_order({("r3", "r2"), ("r2", "r1")}, ex5.rules)
        assert order.pairs == frozenset(
            {("r3", "r2"), ("r2", "r1"), ("r3", "r1")}
        )

    def test_two_cycle_is_rejected(self, ex3):
        with pytest.raises(CycleError):
            validate_order({("r1", "r2"), ("r2", "r1")}, ex3.rules)

    def test_unknown_name_is_rejected(self, ex3):
        with pytest.raises(UnknownRuleError):
            validate_order({("r2", "r9")}, ex3.rules)

    def test_generated_orders_are_strict_partial_orders(self):
        for seed in range(150):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.4))
            pairs = op.order.pairs
            for a, b in pairs:
                assert a != b
                assert (b, a) not in pairs
                for c, d in pairs:
                    if b == c:
                        assert (a, d) in pairs

    def test_closure_matches_brute_force_and_the_rule_views(self):
        for seed in range(150):
            op = generate_program(GeneratorConfig(seed=seed, order_density=0.4))
            closed = set(op.order.generators)
            while True:
                extra = {(a, d) for a, b in closed for c, d in closed if b == c}
                if extra <= closed:
                    break
                closed |= extra
            assert op.order.pairs == closed
            prefers = op.order.prefers
            for r in op.rules:
                assert op.rules_above[r.name] == tuple(
                    h for h in op.rules if prefers(r.name, h.name)
                )
                assert op.rules_below[r.name] == tuple(
                    l for l in op.rules if prefers(l.name, r.name)
                )

    def test_check_on_a_long_chain_builds_no_pair_set(self, tmp_path, monkeypatch):
        def no_pairs(order):
            raise AssertionError("the closed pair set was built")

        monkeypatch.setattr(PreferenceOrder, "pairs", property(no_pairs))
        n = 3000
        lines = [f"r{k}: a{k} :- not a{k + 1}." for k in range(1, n + 1)]
        lines += [f"r{k + 1} < r{k}." for k in range(1, n)]
        path = tmp_path / "chain.olp"
        path.write_text("\n".join(lines) + "\n")
        assert main(["check", str(path)]) == 0

    def test_cycle_error_names_a_rule_on_the_cycle(self):
        rules = [rule(f"r{k}", A) for k in range(1, 6)]
        # r1 sits below the cycle r2 < r3 < r4 < r2 and is not on it.
        pairs = {("r1", "r2"), ("r2", "r3"), ("r3", "r4"), ("r4", "r2")}
        with pytest.raises(CycleError) as excinfo:
            validate_order(pairs, rules)
        assert excinfo.value.name in {"r2", "r3", "r4"}


class TestInterpretation:
    def test_inconsistent_set_must_be_flagged(self):
        with pytest.raises(ProgramError):
            Interpretation.of([A, NA])

    def test_lit_flag_carries_the_universe(self, ex3):
        lit = Interpretation.lit(ex3.universe)
        assert lit.is_lit and lit.literals == ex3.universe

    def test_empty_universe_lit_normalises_to_empty(self):
        assert Interpretation.lit(frozenset()) == Interpretation.empty()

    def test_subset_and_membership(self):
        assert A in interp(A, B)
        assert interp(A).issubset(interp(A, B))


class TestPartialModel:
    def test_overlap_is_rejected(self):
        with pytest.raises(ProgramError):
            PartialModel(frozenset({A}), frozenset({A, B}))

    def test_unknown_is_the_remainder(self, ex3):
        model = PartialModel(frozenset({A}), frozenset({B}))
        assert model.unknown(ex3.universe) == frozenset({NA, NB})


class TestOrderedProgram:
    def test_duplicate_names_rejected(self):
        r = rule("r1", A)
        with pytest.raises(DuplicateRuleError):
            OrderedProgram((r, rule("r1", B)))

    def test_order_names_must_resolve(self):
        with pytest.raises(UnknownRuleError):
            program([rule("r1", A)], {("r1", "r9")})

    def test_rule_identity_keeps_duplicate_bodies_distinct(self):
        twin1, twin2 = rule("r1", A, nbody=[B]), rule("r2", A, nbody=[B])
        p = program([twin1, twin2], {("r2", "r1")})
        assert len(p.rules) == 2
        assert p.rules_below["r1"] == (twin2,)
