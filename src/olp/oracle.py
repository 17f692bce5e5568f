"""Brute-force oracle, random program generator, and theorem battery.

The oracle reimplements the definitional checks from scratch — its own
reduct, its own closure by repeated full scans — so that it shares no
nontrivial code path with the engines it validates.  The theorem battery
bundles every cross-engine property into one differential run per program
and reports pass/fail/skip per invariant.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Iterable, Iterator, Sequence

from . import brewka, classical, preference, prefwfs
from .fixpoint import iterate_union, kleene
from .parser import render_program
from .syntax import (
    Atom,
    Interpretation,
    Literal,
    OrderedProgram,
    PartialModel,
    ProgramError,
    Rule,
    bits_of,
    is_consistent,
    literals_of,
    neg,
    pos,
    program,
    validate_order,
)

__all__ = [
    "UniverseTooLarge",
    "GeneratorConfig",
    "enumerate_subsets",
    "oracle_cn",
    "oracle_answer_sets",
    "generate_program",
    "chain_program",
    "CheckResult",
    "TheoremReport",
    "check_theorems",
]

ENUMERATION_CAP = 24


class UniverseTooLarge(ProgramError):
    """The universe exceeds the exhaustive-enumeration cap."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the seeded random program generator."""

    max_atoms: int = 4
    max_rules: int = 7
    classical_negation_prob: float = 0.25
    nbody_prob: float = 0.6
    order_density: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.max_atoms <= 6:
            raise ValueError("max_atoms must be within 1..6")
        if self.max_rules < 1:
            raise ValueError("max_rules must be positive")
        for name in ("classical_negation_prob", "nbody_prob", "order_density"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")


def enumerate_subsets(
    universe: frozenset[Literal],
) -> Iterator[Interpretation]:
    """Every consistent subset of the universe, then the universe itself.

    Deterministic order: atoms sorted by name, each contributing
    absent / positive / negative in that order.
    """
    if len(universe) > ENUMERATION_CAP:
        raise UniverseTooLarge(
            f"universe of {len(universe)} literals exceeds cap {ENUMERATION_CAP}"
        )
    by_atom: dict[Atom, list[Literal | None]] = {}
    for atom in sorted({lit.atom for lit in universe}):
        options: list[Literal | None] = [None]
        for negated in (False, True):
            lit = Literal(atom, negated)
            if lit in universe:
                options.append(lit)
        by_atom[atom] = options
    for choice in product(*by_atom.values()):
        yield Interpretation.of(lit for lit in choice if lit is not None)
    if universe:
        yield Interpretation.lit(universe)


def oracle_cn(
    rules: Sequence[Rule], universe: frozenset[Literal]
) -> Interpretation:
    """Independent closure of a basic program: repeated full rescans."""
    closure: frozenset[Literal] = frozenset()
    while True:
        again = frozenset(
            r.head for r in rules if set(r.pbody).issubset(closure)
        ) | closure
        if again == closure:
            break
        closure = again
    for lit in closure:
        if Literal(lit.atom, not lit.negated) in closure:
            return Interpretation.lit(universe)
    return Interpretation.of(closure)


def _oracle_reduct(rules: Sequence[Rule], x: Interpretation) -> list[Rule]:
    kept = []
    for r in rules:
        if any(lit in x.literals for lit in r.nbody):
            continue
        kept.append(Rule(r.name, r.head, r.pbody))
    return kept


def oracle_answer_sets(
    rules: Sequence[Rule], universe: frozenset[Literal]
) -> frozenset[Interpretation]:
    """Filter every candidate by the raw definitional equation."""
    return frozenset(
        x
        for x in enumerate_subsets(universe)
        if oracle_cn(_oracle_reduct(rules, x), universe) == x
    )


_ATOM_NAMES = "abcdef"


def generate_program(cfg: GeneratorConfig) -> OrderedProgram:
    """Deterministic function of the seed; the order is always valid.

    Candidate preference pairs are sampled and then added one at a time,
    discarding any pair whose addition would make the closure reflexive.
    """
    rng = random.Random(cfg.seed)
    names = _ATOM_NAMES[: rng.randint(1, cfg.max_atoms)]
    polarities = [(pos(name), neg(name)) for name in names]

    def literal() -> Literal:
        return rng.choice(polarities)[rng.random() < cfg.classical_negation_prob]

    n_rules = rng.randint(1, cfg.max_rules)
    rules = []
    for i in range(n_rules):
        head = literal()
        pbody = frozenset(
            literal() for _ in range(rng.choices([0, 1, 2], [5, 3, 1])[0])
        )
        nbody = frozenset()
        if rng.random() < cfg.nbody_prob:
            nbody = frozenset(literal() for _ in range(rng.choice([1, 1, 2])))
        rules.append(Rule(f"r{i + 1}", head, pbody, nbody))

    candidates = []
    for i in range(n_rules):
        for j in range(i + 1, n_rules):
            if rng.random() < cfg.order_density:
                low, high = (i, j) if rng.random() < 0.5 else (j, i)
                candidates.append((f"r{low + 1}", f"r{high + 1}"))
    pairs: set[tuple[str, str]] = set()
    for pair in candidates:
        try:
            validate_order(pairs | {pair}, rules)
        except ProgramError:
            continue
        pairs.add(pair)
    return program(rules, pairs)


def chain_program(n: int) -> OrderedProgram:
    """A totally ordered chain of n mutually blocking defaults.

    Rule i is ``a_i :- not a_{i+1}``; earlier rules have higher priority.
    """
    rules = tuple(
        Rule(
            f"r{i}",
            pos(f"a{i}"),
            frozenset(),
            frozenset({pos(f"a{i + 1}")}),
        )
        for i in range(1, n + 1)
    )
    return program(rules, {(f"r{i + 1}", f"r{i}") for i in range(1, n)})


@dataclass(frozen=True)
class CheckResult:
    invariant: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


@dataclass(frozen=True)
class TheoremReport:
    seed: int
    program_hash: str
    results: tuple[CheckResult, ...]

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if r.status == "fail")

    @property
    def ok(self) -> bool:
        return not self.failures

    def json_lines(self) -> Iterator[str]:
        for r in self.results:
            record = {
                "seed": self.seed,
                "program_hash": self.program_hash,
                "invariant": r.invariant,
                "status": r.status,
            }
            if r.detail:
                key = "counterexample" if r.status == "fail" else "reason"
                record[key] = r.detail
            yield json.dumps(record, sort_keys=True)


def program_hash(op: OrderedProgram) -> str:
    return hashlib.sha256(render_program(op).encode()).hexdigest()[:12]


def _random_consistent(
    rng: random.Random, polarities: dict[Atom, tuple[Literal, Literal]]
) -> Interpretation:
    picked = []
    for atom in polarities:
        choice = rng.choice((0, 1, 2))
        if choice:
            picked.append(polarities[atom][choice - 1])
    return Interpretation.of(picked)


def _subset_pairs(
    rng: random.Random, universe: frozenset[Literal], count: int
) -> list[tuple[Interpretation, Interpretation]]:
    # Atoms and literals are drawn in sorted order, so the draws do not
    # follow set iteration order.
    polarities = {
        lit.atom: (lit, lit.complement()) for lit in sorted(universe) if not lit.negated
    }
    pairs = []
    for _ in range(count):
        if universe and rng.random() < 0.1:
            big = Interpretation.lit(universe)
            small = (
                big
                if rng.random() < 0.3
                else _random_consistent(rng, polarities)
            )
        else:
            big = _random_consistent(rng, polarities)
            small = Interpretation.of(
                lit for lit in sorted(big.literals) if rng.random() < 0.6
            )
        pairs.append((small, big))
    return pairs


class _Battery:
    """Accumulates named pass/fail/skip results for one program."""

    def __init__(self):
        self.results: list[CheckResult] = []

    def check(self, invariant: str, ok: bool, detail: str = "") -> None:
        self.results.append(
            CheckResult(invariant, "pass" if ok else "fail", "" if ok else detail)
        )

    def skip(self, invariant: str, detail: str) -> None:
        self.results.append(CheckResult(invariant, "skip", detail))

    def agree(self, invariant: str, cases: Iterable[tuple]) -> None:
        """Check that every case ``(got, expected, *where)`` has two equal
        values; a failure shows the first that does not, as ``where -> ...
        -> got vs expected``, each ``where`` item as ``str`` gives it."""
        bad = next((case for case in cases if case[0] != case[1]), None)
        if bad is None:
            return self.check(invariant, True)
        got, expected, *where = bad
        shown = [*map(str, where), f"{_show(got)} vs {_show(expected)}"]
        self.check(invariant, False, " -> ".join(shown))


def _show(value: Interpretation | PartialModel | frozenset | tuple[str, ...]) -> str:
    """An interpretation or a model as ``str`` gives it; a set of literals,
    of interpretations or of rule names as its members' ``str``, sorted,
    the way an interpretation prints."""
    if isinstance(value, (Interpretation, PartialModel)):
        return str(value)
    return "{" + ", ".join(sorted(map(str, value))) + "}"


def check_theorems(op: OrderedProgram, seed: int = 0) -> TheoremReport:
    """Run every cross-engine invariant against one program."""
    rng = random.Random(seed)
    universe = op.universe
    rules = op.rules
    battery = _Battery()
    pairs = _subset_pairs(rng, universe, 50)
    sides = [x for pair in pairs for x in pair]
    empty = Interpretation.empty()

    # Operator monotonicity in both engines and both removal variants; an
    # "anti" operator shrinks as its argument grows.  The first row is
    # reported here, the others after the routes and the defeat sets.  The
    # sides repeat, so each pure operator keeps one memo for this call: it
    # runs once per distinct side, and later checks read the same values.
    c = cache(lambda x: classical.c_op(rules, x, universe))
    cp = cache(lambda x: preference.cp_op(op, x))
    cpn = cache(lambda x: prefwfs.cpn_op(op, x))
    monotone = (
        ("c-anti-monotone", c, True),
        ("a-monotone", cache(lambda x: classical.a_op(rules, x, universe)), False),
        ("cp-anti-monotone", cp, True),
        ("ap-monotone", cache(lambda x: preference.ap_op(op, x)), False),
        ("cpn-anti-monotone", cpn, True),
        ("apn-monotone", cache(lambda x: prefwfs.apn_op(op, x)), False),
        ("c-star-anti-monotone", cache(lambda x: brewka.c_star(rules, x.literals)), True),
    )
    broken = []
    for invariant, operator, anti in monotone:
        detail = ""
        for small, big in pairs:
            low, high = operator(small), operator(big)
            if not (high.issubset(low) if anti else low.issubset(high)):
                detail = f"{big} -> {_show(high)} vs {small} -> {_show(low)}"
                break
        broken.append((invariant, detail))
    (invariant, detail), *later = broken
    battery.check(invariant, not detail, detail)

    # Every consequence closure must agree with iterating its step operator
    # with x as the context: c_op on every sampled side, the others on both
    # sides of the first 10 pairs; the pure routes keep memos too.  The live
    # closure, fed every side in turn, must agree with c_op too: the contexts
    # grow (a pair's small side, then its big side) and shrink (a big side,
    # then the next small side), through Lit where it is sampled.  So does
    # brewka's moving closure: one serves every c_star_pref side, while
    # t_star_step closes each rule set from scratch.  These two carry state
    # between sides, so they get no memo and see every side, repeats too.
    def iterated(step):
        return cache(lambda x: iterate_union(lambda cur: step(x, cur), universe))

    direct = list(map(c, sides))
    close, live = brewka.moving_closure(op), classical.LiveClosure(rules)
    first = sides[:20]
    routes = (
        ("c-op-routes-agree", direct,
         iterated(lambda x, cur: classical.t_step(rules, x, cur, universe))),
        ("live-closure-matches-c-op", direct,
         lambda x: Interpretation.from_bits(live(x.bits), universe)),
        ("cp-op-routes-agree", list(map(cp, first)),
         iterated(lambda x, cur: preference.tp_step(op, x, cur))),
        ("cpn-op-routes-agree", list(map(cpn, first)),
         iterated(lambda x, cur: prefwfs.tpn_step(op, x, cur))),
        ("cpn-simplistic-routes-agree",
         list(map(cache(lambda x: prefwfs.cpn_op(op, x, "simplistic")), first)),
         iterated(lambda x, cur: prefwfs.tpn_step(op, x, cur, "simplistic"))),
        ("c-star-pref-routes-agree",
         [brewka.c_star_pref(op, x.literals, close) for x in first],
         cache(lambda x: kleene(lambda cur: cur | brewka.t_star_step(op, x.literals, cur),
                                frozenset(), len(universe) + 1)[0])),
    )
    for invariant, expected, route in routes:
        battery.agree(invariant, ((route(x), want, x) for x, want in zip(sides, expected)))
    # The defeat sets the engines read from bitsets (below, nb_of, hit)
    # must be the rules a scan with ``defeats`` finds below each rule;
    # each distinct side is checked once.
    lower = {
        r: [g for g in rules if op.order.prefers(g.name, r.name)] for r in rules
    }
    battery.agree("defeat-bits-agree", (
        (tuple(g.name for g in prefwfs.defeated_rules(op, r, x)),
         tuple(g.name for g in lower[r] if prefwfs.defeats(r, g, x)), x, r.name)
        for x in dict.fromkeys(first)
        for r in rules
    ))
    for invariant, detail in later:
        battery.check(invariant, not detail, detail)

    # Paraconsistent closure versus the collapsing closure: cn is cl when
    # that is consistent, else Lit (over a universe that must hold cl).
    basics = [
        classical.reduct(rules, x) for x in [empty, *(s for s, _ in pairs[:5])]
    ]
    battery.agree("cl-subset-cn", (
        (classical.cn(basic, universe), Interpretation.from_bits(bits_of(cl), universe | cl))
        for basic, cl in zip(basics, map(brewka.cl, basics))
    ))

    # Convergence bounds for every least-fixpoint computation.
    bound = len(universe) + 1
    _, wf_iterates = classical.well_founded_fixpoint(rules, universe)
    _, ap_iterates = preference.lfp_ap_fixpoint(op)
    _, pwfs_iterates = prefwfs.preferred_wfs_fixpoint(op)
    steps = max(map(len, (wf_iterates, ap_iterates, pwfs_iterates))) - 1
    battery.check("alternating-convergence", steps <= bound, f"bound {bound}")

    # Answer-set cross-checks against the independent oracle.
    engine_as = classical.answer_sets(rules, universe)
    oracle_as = oracle_answer_sets(rules, universe)
    battery.agree("answer-sets-oracle-agreement", [(engine_as, oracle_as)])
    battery.agree("cn-oracle-agreement", (
        (classical.cn(basic, universe), oracle_cn(basic, universe)) for basic in basics
    ))

    battery.agree("answer-sets-are-alternating-fixpoints", (
        (classical.a_op(rules, x, universe), x) for x in engine_as
    ))
    wfs_model = classical.well_founded_model(rules, universe)
    battery.agree("wfs-approximates-answer-sets", (
        (wfs_model.true_set & x.literals, wfs_model.true_set) for x in engine_as
    ))

    # ``preferred_answer_sets`` filters the answer-set search, so the subset
    # theorem is checked on the fixpoints of cp_op over the whole candidate
    # space, and the search is checked against that enumeration.
    enumerated = frozenset(
        x for x in classical.head_candidates(rules, universe)
        if preference.cp_op(op, x) == x
    )
    battery.agree("preferred-subset-of-answer-sets", [(enumerated - engine_as, frozenset())])
    preferred = preference.preferred_answer_sets(op)
    battery.agree("preferred-search-matches-enumeration", [(preferred, enumerated)])
    wf_set = preference.lfp_ap(op)
    battery.agree("lfp-ap-approximates-preferred", (
        (wf_set.literals & z.literals, wf_set.literals) for z in preferred
    ))
    two_valued = wf_set.literals | (
        universe - preference.cp_op(op, wf_set).literals
    ) == universe
    if two_valued:
        battery.agree("two-valued-unique-preferred", [(preferred, frozenset({wf_set}))])
    else:
        battery.skip("two-valued-unique-preferred", "model is three-valued")

    # Standard versus preferred well-founded models.
    pwfs_model = prefwfs.preferred_wf_model(op)
    battery.agree("pwfs-model-disjoint", [
        (pwfs_model.true_set & pwfs_model.false_set, frozenset())
    ])
    # An inclusion fails on what violates it, against the empty set.
    battery.agree("thm3-inclusions", [
        (wfs_model.true_set - pwfs_model.true_set, frozenset(), "true"),
        (wfs_model.false_set - pwfs_model.false_set, frozenset(), "false"),
    ])
    battery.agree("thm4-approximation", (
        case
        for z in preferred
        for case in (
            (pwfs_model.true_set - z.literals, frozenset(), z, "true"),
            (pwfs_model.false_set & z.literals, frozenset(), z, "false"),
        )
    ))

    # Properties of the order-free slice of the program.
    plain = op.strip_order()
    stripped_alternation_consistent = not any(
        classical.c_op(rules, value, universe).is_lit
        for value in wf_iterates
    )
    if stripped_alternation_consistent:
        battery.agree("thm3-empty-order-equality", [
            (prefwfs.preferred_wf_model(plain), wfs_model)
        ])
    else:
        battery.skip(
            "thm3-empty-order-equality",
            "alternation passes through the inconsistent collapse",
        )
    battery.agree("empty-order-collapse", (
        case
        for small, big in pairs[:10]
        for case in (
            (preference.tp_step(plain, big, small), classical.t_step(rules, big, small, universe)),
            (preference.cp_op(plain, big), c(big)),
        )
    ))

    # The sampled small sides whose consequences are consistent.
    consequences = ((s, c(s)) for s, _ in pairs[:10])
    supported = [(small, y) for small, y in consequences if not y.is_lit]
    if supported:
        battery.agree("tpn-classical-on-supported-contexts", (
            case
            for _, y in supported
            for case in (
                (prefwfs.tpn_step(plain, y, empty), classical.t_step(rules, y, empty, universe)),
                (prefwfs.cpn_op(plain, y), c(y)),
            )
        ))
    else:
        battery.skip(
            "tpn-classical-on-supported-contexts", "no consistent context sampled"
        )

    heads = [r.head for r in rules]
    if len(set(heads)) == len(heads):
        battery.agree("dset-variants-agree-distinct-heads", (
            (prefwfs.d_set(op, r, small, y), prefwfs.d_set_simplistic(op, r, small) & y.literals)
            for small, y in supported
            for r in rules
        ))
    else:
        battery.skip("dset-variants-agree-distinct-heads", "heads are shared")

    iterates = list(map(literals_of, brewka.brewka_wf_iterates(plain)))
    contexts = [brewka.c_star(rules, v) for v in iterates]
    if all(map(is_consistent, iterates)) and all(map(is_consistent, contexts)):
        battery.agree("brewka-empty-order-standard", [
            (brewka.brewka_wf_set(plain), wfs_model.true_set)
        ])
    else:
        battery.skip("brewka-empty-order-standard", "inconsistent iterate")

    return TheoremReport(seed, program_hash(op), tuple(battery.results))
