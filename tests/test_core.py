"""The int-bitset core: literal ids, bitset interpretations, rule masks.

Every engine computes on bitsets of literal ids, so the values built from
them must agree with the literal-set definitions they replace.  Hypothesis
draws literal sets over up to 12 atoms, plus Lit, and checks each
constructor of ``Interpretation`` against frozenset consistency, equality,
hash, subset and membership.  A value is its bits alone: Lit is read from
a complementary pair in them, on drawn sets and on the operators' values
over generator programs alike.  The records ``Atom``, ``Literal`` and
``Rule`` are slotted and frozen, derived attributes included.  Ids are per
process: values pickled in one process must load equal in a process that
interned its atoms in another order.
"""

import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from olp import syntax
from olp.classical import c_op
from olp.oracle import GeneratorConfig, generate_program
from olp.parser import parse_program, render_program
from olp.preference import cp_op
from olp.prefwfs import cpn_op
from olp.syntax import (
    Atom,
    Interpretation,
    Literal,
    ProgramError,
    Rule,
    bits_at,
    bits_of,
    complement,
    is_consistent,
    literals_of,
    neg,
    pos,
    program,
    rule,
)
from .conftest import ROOT

ATOMS = [f"q{k}" for k in range(12)]
UNIVERSE = frozenset(lit for name in ATOMS for lit in (pos(name), neg(name)))

CORE = settings(derandomize=True, database=None, max_examples=300, deadline=None)

literal_sets = st.frozensets(
    st.builds(lambda name, negated: neg(name) if negated else pos(name),
              st.sampled_from(ATOMS), st.booleans()),
    max_size=14,
)


def consistent_by_definition(literals: frozenset) -> bool:
    return not any(Literal(lit.atom, not lit.negated) in literals for lit in literals)


def value_of(literals: frozenset) -> Interpretation:
    """The value a frozenset stands for: itself, or Lit when it is not
    consistent."""
    if consistent_by_definition(literals):
        return Interpretation.of(literals)
    return Interpretation.lit(UNIVERSE)


class TestLiteralIds:
    def test_complement_flips_the_low_bit(self):
        for lit in UNIVERSE:
            assert complement(lit).id == lit.id ^ 1
            assert lit.id >> 1 == complement(lit).id >> 1
            assert lit.id & 1 == lit.negated

    def test_separately_built_literals_share_an_id(self):
        assert Literal(Atom("q3"), True).id == neg("q3").id
        assert pos("q3").id != neg("q3").id

    def test_each_literal_id_has_one_object(self):
        assert Literal(Atom("o_late"), True) is neg("o_late")  # built first
        for name, k in list(syntax._ATOMS.items()):
            lit = pos(name)
            assert lit is Literal(Atom(name)) is syntax._LITERALS[2 * k]
            assert neg(name) is Literal(Atom(name), True) is lit.complement()
        assert None not in syntax._LITERALS
        for i, lit in enumerate(syntax._LITERALS):
            assert lit.id == i and [*literals_of(1 << i)][0] is lit
            assert copy.copy(lit) is lit and copy.deepcopy(lit) is lit
            assert pickle.loads(pickle.dumps(lit)) is lit

    def test_rule_masks_are_the_bits_of_head_and_bodies(self):
        r = rule("r1", neg("q1"), [pos("q2"), neg("q3")], [pos("q4")])
        assert r.head_id == neg("q1").id
        assert literals_of(r.pmask) == r.pbody
        assert literals_of(r.nmask) == r.nbody
        assert r.reduct_rule().nmask == 0


class TestSlottedRecords:
    FIELDS = {
        Atom: ("name",),
        Literal: ("atom", "negated", "id", "_hash"),
        Rule: ("name", "head", "pbody", "nbody", "head_id", "pmask", "nmask"),
    }

    def test_records_have_no_dict_and_refuse_assignment(self):
        r = rule("r1", neg("q1"), [pos("q2")], [neg("q3")])
        records = (Atom("q1"), pos("q1"), neg("q1"), r)
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__
        for record in records:
            before = hash(record)
            # Fields, names that are no field and a property are refused alike.
            for name in self.FIELDS[type(record)] + ("foo", "basic", "hbit"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(record, name)
            assert hash(record) == before
        assert r.pmask == bits_of(r.pbody) and r.head_id == neg("q1").id

    def test_replace_recomputes_the_derived_values(self):
        r = rule("r1", neg("q1"), [pos("q2")], [neg("q3")])
        renamed = dataclasses.replace(r, name="r9")
        fresh = rule("r9", neg("q1"), [pos("q2")], [neg("q3")])
        assert renamed == fresh and hash(renamed) == hash(fresh)
        for name in ("head_id", "pmask", "nmask"):
            assert getattr(renamed, name) == getattr(fresh, name), name
        moved = dataclasses.replace(r, head=pos("q4"), nbody=frozenset())
        assert moved.head_id == pos("q4").id
        assert moved.pmask == r.pmask and moved.nmask == 0
        flipped = dataclasses.replace(pos("q5"), negated=True)
        assert flipped == neg("q5") and flipped.id == neg("q5").id
        assert hash(flipped) == hash(neg("q5"))


class TestAgainstFrozensets:
    @CORE
    @given(literal_sets)
    def test_consistency_matches_the_definition(self, literals):
        assert is_consistent(literals) == consistent_by_definition(literals)
        assert (not syntax.has_pair(bits_of(literals))) == consistent_by_definition(literals)

    @CORE
    @given(literal_sets)
    def test_every_constructor_gives_the_same_value(self, literals):
        value = Interpretation.from_bits(bits_of(literals), UNIVERSE)
        expected = value_of(literals)
        assert value == expected and hash(value) == hash(expected)
        assert value.is_lit == (not consistent_by_definition(literals))
        assert value.literals == (UNIVERSE if value.is_lit else literals)
        assert len(value) == len(value.literals)
        if not consistent_by_definition(literals):
            with pytest.raises(ProgramError):
                Interpretation.of(literals)

    @CORE
    @given(literal_sets, literal_sets)
    def test_equality_subset_and_membership_follow_the_literals(self, first, second):
        a, b = value_of(first), value_of(second)
        same = a.literals == b.literals and a.is_lit == b.is_lit
        assert (a == b) == same
        if same:
            assert hash(a) == hash(b)
        assert a.issubset(b) == (a.literals <= b.literals)
        for lit in UNIVERSE:
            assert (lit in a) == (lit in a.literals)

    @CORE
    @given(literal_sets)
    def test_literals_decode_from_bits(self, literals):
        assert literals_of(bits_of(literals)) == literals
        decoded = Interpretation.from_bits(bits_of(literals), UNIVERSE).literals
        assert set(decoded) == set(value_of(literals).literals)

    @CORE
    @given(literal_sets)
    def test_bits_at_gives_the_bits_of_the_literals(self, literals):
        assert bits_at([lit.id for lit in literals]) == bits_of(literals)

    def test_bits_at_of_no_one_and_many_ids(self):
        rng = random.Random(5)
        for count in (0, 1, 2, 3000):
            ids = rng.sample(range(5000), count)
            assert bits_at(ids) == sum(1 << i for i in ids)

    def test_a_value_built_from_literals_keeps_its_set(self):
        literals = frozenset({pos("q1"), neg("q2")})
        assert Interpretation.of(literals).literals is literals
        assert Interpretation.lit(UNIVERSE).literals is UNIVERSE

    def test_values_refuse_assignment(self):
        literals = frozenset({pos("q1"), neg("q2")})
        for value in (Interpretation.of(literals),
                      Interpretation.from_bits(bits_of(literals), UNIVERSE),
                      Interpretation.lit(UNIVERSE)):
            before = hash(value)
            for name in ("bits", "is_lit", "_literals"):
                with pytest.raises(AttributeError):
                    setattr(value, name, 0)
                with pytest.raises(AttributeError):
                    delattr(value, name)
            assert hash(value) == before
        decoded = Interpretation.from_bits(bits_of(literals), UNIVERSE)
        assert decoded.literals == literals  # the lazy decode still fills its slot


def assert_one_value(values):
    """Each value is its bits: Lit is a pair in them, equality and hash
    follow them, and a pickle round trip keeps them."""
    for x in values:
        assert x.is_lit == bool(syntax.has_pair(x.bits))
        assert pickle.loads(pickle.dumps(x)) == x
        for y in values:
            assert (x == y) == (x.bits == y.bits)
            if x == y:
                assert hash(x) == hash(y)


class TestOneValue:
    @CORE
    @given(literal_sets, literal_sets)
    def test_drawn_sets_are_their_bits(self, first, second):
        values = [Interpretation.from_bits(bits_of(s), UNIVERSE) for s in (first, second)]
        values += [value_of(first), value_of(second), Interpretation.lit(UNIVERSE)]
        assert_one_value(values)
        for literals in (first, second):
            if syntax.has_pair(bits_of(literals)):
                assert Interpretation.from_bits(bits_of(literals), UNIVERSE) == values[-1]

    @CORE
    @given(st.integers(0, 2**32 - 1))
    def test_operator_values_over_generator_programs_are_their_bits(self, seed):
        op = generate_program(GeneratorConfig(seed=seed))
        rng = random.Random(seed)
        full = bits_of(op.universe)
        lit = Interpretation.lit(op.universe)
        contexts = [Interpretation.from_bits(rng.getrandbits(full.bit_length()) & full,
                                             op.universe) for _ in range(4)]
        values = [lit, *contexts]
        for x in contexts:
            values += [c_op(op.rules, x, op.universe), cp_op(op, x), cpn_op(op, x)]
        assert_one_value(values)
        for x in values:
            if x.bits:  # add the complement of its lowest literal
                low = (x.bits & -x.bits).bit_length() - 1
                assert Interpretation.from_bits(x.bits | 1 << (low ^ 1), op.universe) == lit


class TestIdsAcrossProcesses:
    def test_values_load_equal_where_atoms_were_interned_in_another_order(self):
        names = ["w_alpha", "w_beta", "w_gamma"]
        values = [
            Interpretation.of([pos("w_alpha"), neg("w_gamma")]),
            Interpretation.of([neg("w_beta")]),
            Interpretation.lit([pos(n) for n in names] + [neg(n) for n in names]),
            Interpretation.empty(),
        ]
        rules = [rule("r1", pos("w_alpha"), [neg("w_beta")], [pos("w_gamma")])]
        op = program(rules + [rule("r2", neg("w_beta"))], [("r1", "r2")])
        op.nb_of, op.rule_index  # cached views must not travel
        script = (
            "import pickle, sys\n"
            "from olp.syntax import Interpretation, bits_of, neg, pos\n"
            # Intern the atoms in the reverse order, behind another one.
            "pos('w_zeta')\n"
            "for name in ('w_gamma', 'w_beta', 'w_alpha'):\n"
            "    neg(name)\n"
            "values, rules, op = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = [Interpretation.of([pos('w_alpha'), neg('w_gamma')]),\n"
            "         Interpretation.of([neg('w_beta')])]\n"
            "assert values[:2] == fresh and list(map(hash, values[:2])) == list(map(hash, fresh))\n"
            "assert values[2].is_lit and len(values[2]) == 6\n"
            "assert values[3] == Interpretation.empty()\n"
            "for r in rules + list(op.rules):\n"
            "    assert r.pmask == bits_of(r.pbody) and r.nmask == bits_of(r.nbody)\n"
            "    assert r.head_id == r.head.id\n"
            "assert op.nb_of == {pos('w_gamma').id: 1}\n"
            "assert op.order.prefers('r1', 'r2')\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps((values, rules, op)),
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout == b"ok\n"


def _race(intern, count=8):
    """Run ``intern(seed)`` on ``count`` threads released together by a
    barrier, switching threads as often as the interpreter allows; returns
    what each call returned."""
    barrier = threading.Barrier(count)
    seen = []

    def work(seed):
        barrier.wait(timeout=60)
        seen.append(intern(seed))

    workers = [threading.Thread(target=work, args=(seed,)) for seed in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(seen) == count
    return seen


def _shuffled(names, seed):
    order = names[:]
    random.Random(seed).shuffle(order)
    return order


class TestInternTableUnderThreads:
    def test_concurrent_interning_gives_each_name_one_index(self):
        names = [f"t_{k}" for k in range(300)]
        seen = _race(lambda seed: [
            neg(name) if k % 2 else pos(name)
            for k, name in enumerate(_shuffled(names, seed))
        ])
        ids = {}
        for lits in seen:
            for lit in lits:
                assert ids.setdefault(lit.atom.name, lit.id >> 1) == lit.id >> 1
        assert len(set(ids.values())) == len(names)
        for name, k in ids.items():
            assert syntax._LITERALS[2 * k] == pos(name)
            assert syntax.has_pair(3 << 2 * k)

    def test_racing_threads_share_one_object_per_literal_id(self):
        names = [f"race_{k}" for k in range(200)]
        seen = _race(lambda seed: [
            lit
            for name in _shuffled(names, seed)
            for lit in (
                Literal(Atom(name), seed % 2 == 1), pos(name), neg(name),
                Literal(Atom(name), seed % 2 == 0),
            )
        ])
        objects: dict[int, Literal] = {}
        for lits in seen:
            for lit in lits:
                assert objects.setdefault(lit.id, lit) is lit
        assert len(objects) == 2 * len(names)
        for i, lit in objects.items():
            assert lit.complement() is objects[i ^ 1]
            assert syntax._LITERALS[i] is lit
        for i, lit in enumerate(syntax._LITERALS):
            assert syntax._TEXTS[i] == str(lit)


class TestNamesCheckedOnce:
    def test_invalid_names_still_raise_every_time(self):
        for _ in range(2):
            with pytest.raises(ProgramError):
                Atom("X")
            with pytest.raises(ProgramError):
                Rule("bad name", pos("q1"))
            with pytest.raises(ProgramError):
                rule("R1", pos("q1"))

    def test_a_second_parse_matches_no_identifier(self, monkeypatch):
        text = "r1: a :- -b.\nr2: -b :- not a.\nother: c :- a, not -b.\nr2 < r1.\n"
        parse_program(text)
        calls = []

        class Counted:
            def match(self, name, _pattern=syntax.IDENT_RE):
                calls.append(name)
                return _pattern.match(name)

        monkeypatch.setattr(syntax, "IDENT_RE", Counted())
        again = parse_program(text)
        assert calls == []
        assert [r.name for r in again.rules] == ["r1", "r2", "other"]
        with pytest.raises(ProgramError):
            Atom("Fresh")
        assert calls == ["Fresh"]


class TestNamesTheFormatCanSpell:
    """The API accepts exactly the names that ``.olp`` text can spell, so a
    program built in Python renders to text that parses back to it."""

    def test_the_reserved_word_and_a_final_newline_are_rejected(self):
        builds = (Atom, pos, lambda n: Rule(n, pos("q1")), lambda n: rule(n, pos("q1")))
        for build in builds:
            for name in ("not", "ab\n", "r1\n"):
                with pytest.raises(ProgramError):
                    build(name)
            for name in ("nota", "not_"):
                build(name)

    @given(st.text(alphabet="anot_1X \n-", min_size=1, max_size=5))
    @example("not")
    @example("a\n")
    def test_every_accepted_name_round_trips_through_the_text(self, name):
        try:
            Atom(name)
        except ProgramError:
            return
        p = program([rule(name, pos(name))])
        assert parse_program(render_program(p)) == p
