import argparse
import copy
import json
import os
import pickle
import random
import subprocess
import sys

import pytest

from olp import classical, cli, prefwfs
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
    bit_positions,
    bits_at,
    complement,
    literal_universe,
    literals_of,
    pos,
    program,
    rule,
    texts_of,
    validate_order,
)
from olp.parser import parse_program, render_program
from .conftest import A, B, NA, NB, ROOT, interp, load


def _rules_at(op, bits):
    """The rules of ``op`` at the set bits of ``bits``, in rule order."""
    return tuple(op.rules[j] for j in bit_positions(bits))


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

    def test_an_atom_prints_as_its_name(self):
        assert str(Atom("q1")) == "q1"

    def test_atom_name_is_validated(self):
        with pytest.raises(ProgramError):
            Atom("Foo")
        with pytest.raises(ProgramError):
            Atom("")
        with pytest.raises(ProgramError):
            Atom("1a")

    def test_texts_of_reads_what_bit_positions_decodes(self):
        # Masks up to 8*10^4 bits wide, the width of a 4*10^4-rule chain's
        # universe; every id below the widest one names a literal.
        for k in range(40_000):
            pos(f"tx{k}")
        rng = random.Random(30)
        masks = [0, 1, 2, 3, 1 << 63, (1 << 64) - 1, (1 << 1000) - 1, 1 << 79_999]
        for width in (5, 64, 65, 1000, 80_000):
            for density in (0.01, 0.2, 0.9):
                masks.append(bits_at([i for i in range(width) if rng.random() < density]))
        for mask in masks:
            # The two share one decoder, so literals_of is held to the ids
            # bit_positions reads.
            assert sorted(lit.id for lit in literals_of(mask)) == list(bit_positions(mask))
            assert texts_of(mask) == sorted(map(str, literals_of(mask)))


class TestLiteralValueContract:
    """Literals cache their hash and complement; as values they must stay
    indistinguishable from freshly built ones."""

    LITERALS = [A, NA, Literal(Atom("x_9")), Literal(Atom("x_9"), True)]

    @pytest.mark.parametrize("lit", LITERALS, ids=str)
    def test_hash_is_the_hash_of_its_fields(self, lit):
        assert hash(lit) == hash((lit.atom, lit.negated))

    @pytest.mark.parametrize("lit", LITERALS, ids=str)
    def test_separately_built_literals_are_equal(self, lit):
        other = Literal(Atom(lit.atom.name), lit.negated)
        assert other is lit
        assert other == lit and hash(other) == hash(lit)
        assert other != other.complement()

    @pytest.mark.parametrize("lit", LITERALS, ids=str)
    def test_complement_is_involutive_and_cached(self, lit):
        flipped = lit.complement()
        assert flipped == Literal(lit.atom, not lit.negated)
        assert hash(flipped) == hash((lit.atom, not lit.negated))
        assert flipped.complement() == lit
        assert flipped.complement() is lit

    @pytest.mark.parametrize("lit", LITERALS, ids=str)
    def test_pickle_and_deepcopy_round_trip(self, lit):
        lit.complement()
        for copied in (pickle.loads(pickle.dumps(lit)), copy.deepcopy(lit), copy.copy(lit)):
            assert copied == lit and hash(copied) == hash(lit)
            assert copied.complement() == lit.complement()

    def test_pickle_loaded_under_another_hash_seed(self):
        lits = self.LITERALS
        for lit in lits:
            lit.complement()  # a cached complement must not travel either
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        script = (
            "import pickle, sys\n"
            "from olp.syntax import Atom, Literal\n"
            "for lit in pickle.loads(sys.stdin.buffer.read()):\n"
            "    fresh = Literal(Atom(lit.atom.name), lit.negated)\n"
            "    assert hash(lit) == hash((lit.atom, lit.negated)) == hash(fresh), lit\n"
            "    assert lit == fresh and lit.complement() == fresh.complement(), lit\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(lits),
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout == b"ok\n"

    def test_parsed_program_shares_literal_objects(self):
        p = parse_program("r1: a :- -b.\nr2: -b :- not a.\nr3: b :- a, not -b.\n")
        r1, r2, r3 = p.rules
        (b_neg_body,) = r1.pbody
        assert r2.head is b_neg_body
        assert next(iter(r2.nbody)) is r1.head
        assert next(iter(r3.pbody)) is r1.head
        assert r3.head.complement() is r2.head
        assert r1.head.atom is next(iter(r3.pbody)).atom


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
            for i, r in enumerate(op.rules):
                assert _rules_at(op, op.order.above[i]) == tuple(
                    h for h in op.rules if prefers(r.name, h.name)
                )
                assert _rules_at(op, op.order.below[i]) == tuple(
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

    def test_lit_over_a_pair_free_universe_is_that_consistent_set(self):
        q9 = frozenset({pos("q9")})
        assert Interpretation.lit(q9) == Interpretation.of(q9)
        assert not Interpretation.lit(q9).is_lit

    def test_a_value_equals_no_other_type(self):
        assert Interpretation.empty().__eq__(frozenset()) is NotImplemented
        assert not Interpretation.empty() == frozenset()
        assert Interpretation.empty() != frozenset()

    def test_repr_shows_the_literals_and_lit(self):
        assert repr(interp(A)) == f"Interpretation(literals={frozenset({A})!r}, is_lit=False)"
        lit = Interpretation.lit(frozenset({A, NA}))
        assert repr(lit) == f"Interpretation(literals={frozenset({A, NA})!r}, is_lit=True)"

    def test_subset_and_membership(self):
        assert A in interp(A, B)
        assert interp(A).issubset(interp(A, B))

    def test_live_closure_values_skip_the_consistency_check(self, monkeypatch, ex3):
        from olp import classical, syntax

        contexts = [Interpretation.empty(), interp(A), interp(B)]
        expected = [classical.c_op(ex3.rules, x, ex3.universe) for x in contexts]
        calls = []

        def counted(lits, _original=syntax.is_consistent):
            calls.append(lits)
            return _original(lits)

        monkeypatch.setattr(syntax, "is_consistent", counted)
        live = classical.LiveClosure(ex3.rules)
        assert [
            Interpretation.from_bits(live(x.bits), ex3.universe) for x in contexts
        ] == expected
        assert calls == []


class TestPartialModel:
    def test_overlap_is_rejected(self):
        with pytest.raises(ProgramError):
            PartialModel(frozenset({A}), frozenset({A, B}))

    def test_unknown_is_the_remainder(self, ex3):
        model = PartialModel(frozenset({A}), frozenset({B}))
        assert model.unknown(ex3.universe) == frozenset({NA, NB})


class TestOrderedProgram:
    def test_duplicate_names_rejected(self):
        rules = [rule("r1", A), rule("r2", B), rule("r1", NA)]
        for build in (
            lambda: OrderedProgram(tuple(rules)),
            lambda: program(rules),
            lambda: program(rules, {("r2", "r1")}),
        ):
            with pytest.raises(DuplicateRuleError) as caught:
                build()
            assert caught.value.name == "r1"

    def test_below_is_built_only_for_the_preference_aware_semantics(self):
        op = load("ex4")
        expected = json.loads((ROOT / "corpus" / "expected" / "ex4.json").read_text())

        def answers(*modes):
            for mode in modes:
                args = argparse.Namespace(mode=mode, atoms_only=False, trace=False)
                assert cli._solve_payload(op, args) == expected[mode], mode

        assert op.order
        # check, wfs and as never close the order, in either direction.
        render_program(op)
        answers("wfs", "as")
        assert not {"above", "below", "pairs"} & vars(op.order).keys()
        # lfp-ap and pas read above only, and no rule index; pwfs takes the
        # peel of the acyclic ex4, and so does pwfs-simplistic, since ex4's
        # heads are distinct.
        op = load("ex4")
        answers("lfp-ap", "pas")
        assert "above" in vars(op.order) and "below" not in vars(op.order)
        assert "rule_index" not in vars(op)
        answers("pwfs", "pwfs-simplistic")
        assert "below" not in vars(op.order)
        # With a shared head pwfs-simplistic checks the peel against cpn_op,
        # which reads below, and here refutes it: h is true.
        op = parse_program("r1: h :- not l.\nr2: l.\nr3: l :- not k.\nr4: k.\nr3 < r1.")
        args = argparse.Namespace(mode="pwfs-simplistic", atoms_only=False, trace=False)
        assert cli._solve_payload(op, args)["true"] == ["h", "k", "l"]
        assert "below" in vars(op.order)

    def test_order_names_must_resolve(self):
        with pytest.raises(UnknownRuleError):
            program([rule("r1", A)], {("r1", "r9")})

    def test_rule_identity_keeps_duplicate_bodies_distinct(self):
        twin1, twin2 = rule("r1", A, nbody=[B]), rule("r2", A, nbody=[B])
        p = program([twin1, twin2], {("r2", "r1")})
        assert len(p.rules) == 2
        assert _rules_at(p, p.order.below[0]) == (twin2,)

    def test_order_bitsets_follow_the_rule_positions(self):
        rules = [rule("r1", A), rule("r2", B, nbody=[A]), rule("r3", A, nbody=[B])]
        p = program(rules, {("r2", "r1"), ("r3", "r2")})
        flipped = OrderedProgram(tuple(reversed(p.rules)), p.order)
        assert flipped.order == p.order
        for op in (p, flipped):
            for i, r in enumerate(op.rules):
                assert _rules_at(op, op.order.below[i]) == tuple(
                    g for g in op.rules if op.order.prefers(g.name, r.name)
                )
        assert OrderedProgram(p.rules).order.below == (0, 0, 0)
        assert p.strip_order().order.above == (0, 0, 0)
        with pytest.raises(UnknownRuleError):
            OrderedProgram(p.rules[:2], p.order)

    def test_negative_body_and_static_defeat_views(self):
        # r1 defeats r2 at every state (a is in nbody(r2)), r2 defeats r3.
        rules = [rule("r1", A), rule("r2", B, nbody=[A]), rule("r3", A, nbody=[B])]
        p = program(rules, {("r2", "r1"), ("r3", "r2")})
        assert p.nb_of == {A.id: 0b010, B.id: 0b100}
        assert tuple(prefwfs.defeat_bits(p, i, 0) for i in range(3)) == (0b010, 0b100, 0)
