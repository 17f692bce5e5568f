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
from itertools import product
from typing import Iterator, Sequence

from . import brewka, classical, preference, prefwfs
from .fixpoint import iterate_union, kleene
from .parser import render_program
from .syntax import (
    Atom,
    Interpretation,
    Literal,
    OrderedProgram,
    ProgramError,
    Rule,
    is_consistent,
    pos,
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
    # The interned literals, each beside its cached complement.
    polarities = [(p, p.complement()) for p in map(pos, names)]

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
    return OrderedProgram(tuple(rules), validate_order(pairs, rules))


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
    pairs = {(f"r{i + 1}", f"r{i}") for i in range(1, n)}
    return OrderedProgram(rules, validate_order(pairs, rules))


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
    # The universe's own literal objects, by atom, in the iteration order
    # of the atom set (the draws depend on that order).
    polarities = dict.fromkeys({lit.atom for lit in universe})
    for lit in universe:
        if not lit.negated:
            polarities[lit.atom] = (lit, lit.complement())
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
                lit for lit in big.literals if rng.random() < 0.6
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


def check_theorems(
    op: OrderedProgram, seed: int = 0, subset_pairs: int = 50
) -> TheoremReport:
    """Run every cross-engine invariant against one program."""
    rng = random.Random(seed)
    universe = op.universe
    rules = op.rules
    battery = _Battery()
    pairs = _subset_pairs(rng, universe, subset_pairs)

    # Operator monotonicity in both engines and both removal variants.
    for small, big in pairs:
        c_small = classical.c_op(rules, small, universe)
        c_big = classical.c_op(rules, big, universe)
        if not c_big.issubset(c_small):
            battery.check(
                "c-anti-monotone", False, f"{big} -> {c_big} vs {small} -> {c_small}"
            )
            break
    else:
        battery.check("c-anti-monotone", True)
    # c_op's reduct route must agree with iterating the blocking-context
    # step with x as the context.  The live closure, fed the same contexts in
    # turn, must agree with c_op too: the sequence grows (a pair's small
    # side, then its big side) and shrinks (a big side, then the next small
    # side), through Lit where it is sampled.
    live = classical.LiveClosure(rules, universe)
    failed = {"c-op-routes-agree": "", "live-closure-matches-c-op": ""}
    for x in (x for pair in pairs for x in pair):
        direct = classical.c_op(rules, x, universe)
        if not failed["c-op-routes-agree"]:
            stepped = iterate_union(
                lambda cur: classical.t_step(rules, x, cur, universe), universe
            )
            if stepped != direct:
                failed["c-op-routes-agree"] = f"{x} -> {stepped} vs {direct}"
        if not failed["live-closure-matches-c-op"]:
            kept = live(x)
            if kept != direct:
                failed["live-closure-matches-c-op"] = f"{x} -> {kept} vs {direct}"
    for invariant, detail in failed.items():
        battery.check(invariant, not detail, detail)
    # Likewise every other consequence closure must agree with iterating
    # its step operator, on both sides of the first 10 pairs.
    routes = (
        (
            "cp-op-routes-agree",
            lambda x: preference.cp_op(op, x),
            lambda x: iterate_union(
                lambda cur: preference.tp_step(op, x, cur), universe
            ),
        ),
        (
            "cpn-op-routes-agree",
            lambda x: prefwfs.cpn_op(op, x),
            lambda x: iterate_union(lambda cur: prefwfs.tpn_step(op, x, cur), universe),
        ),
        (
            "cpn-simplistic-routes-agree",
            lambda x: prefwfs.cpn_op(op, x, "simplistic"),
            lambda x: iterate_union(
                lambda cur: prefwfs.tpn_step(op, x, cur, "simplistic"), universe
            ),
        ),
        (
            "c-star-pref-routes-agree",
            lambda x: brewka.c_star_pref(op, x.literals),
            lambda x: kleene(
                lambda cur: cur | brewka.t_star_step(op, x.literals, cur),
                frozenset(),
                len(universe) + 1,
            )[0],
        ),
    )
    for invariant, closure, stepped in routes:
        for x in (x for pair in pairs[:10] for x in pair):
            direct, iterated = closure(x), stepped(x)
            if direct != iterated:
                battery.check(invariant, False, f"{x} -> {iterated} vs {direct}")
                break
        else:
            battery.check(invariant, True)
    # The defeat sets the engines read from bitsets (below, static, hit)
    # must be the rules a scan with ``defeats`` finds below each rule.
    lower = {
        r: [g for g in rules if op.order.prefers(g.name, r.name)] for r in rules
    }
    detail = ""
    for x in (x for pair in pairs[:10] for x in pair):
        for r in rules:
            scanned = tuple(g for g in lower[r] if prefwfs.defeats(r, g, x))
            bits = prefwfs.defeated_rules(op, r, x)
            if bits != scanned:
                names = [[g.name for g in found] for found in (bits, scanned)]
                detail = f"{r.name} at {x}: {names[0]} vs {names[1]}"
                break
        if detail:
            break
    battery.check("defeat-bits-agree", not detail, detail)
    for small, big in pairs:
        if not classical.a_op(rules, small, universe).issubset(
            classical.a_op(rules, big, universe)
        ):
            battery.check("a-monotone", False, f"pair {small} <= {big}")
            break
    else:
        battery.check("a-monotone", True)
    for small, big in pairs:
        if not preference.cp_op(op, big).issubset(preference.cp_op(op, small)):
            battery.check("cp-anti-monotone", False, f"pair {small} <= {big}")
            break
    else:
        battery.check("cp-anti-monotone", True)
    for small, big in pairs:
        if not preference.ap_op(op, small).issubset(preference.ap_op(op, big)):
            battery.check("ap-monotone", False, f"pair {small} <= {big}")
            break
    else:
        battery.check("ap-monotone", True)
    for small, big in pairs:
        if not prefwfs.cpn_op(op, big).issubset(prefwfs.cpn_op(op, small)):
            battery.check("cpn-anti-monotone", False, f"pair {small} <= {big}")
            break
    else:
        battery.check("cpn-anti-monotone", True)
    for small, big in pairs:
        if not prefwfs.apn_op(op, small).issubset(prefwfs.apn_op(op, big)):
            battery.check("apn-monotone", False, f"pair {small} <= {big}")
            break
    else:
        battery.check("apn-monotone", True)
    for small, big in pairs:
        raw_small, raw_big = small.literals, big.literals
        if not brewka.c_star(rules, raw_big) <= brewka.c_star(rules, raw_small):
            battery.check("c-star-anti-monotone", False, f"pair {small} <= {big}")
            break
    else:
        battery.check("c-star-anti-monotone", True)

    # Paraconsistent closure versus the collapsing closure.
    ok = True
    for x in [Interpretation.empty(), *(s for s, _ in pairs[:5])]:
        basic = classical.reduct(rules, x)
        closed = brewka.cl(basic)
        collapsed = classical.cn(basic, universe)
        if not closed <= collapsed.literals:
            ok = False
            break
        if is_consistent(closed):
            ok = ok and closed == collapsed.literals
        else:
            ok = ok and collapsed.is_lit
        if not ok:
            break
    battery.check("cl-subset-cn", ok)

    # Convergence bounds for every least-fixpoint computation.
    bound = len(universe) + 1
    _, wf_trace = classical.well_founded_fixpoint(rules, universe)
    _, ap_trace = preference.lfp_ap_fixpoint(op)
    _, pwfs_trace = prefwfs.preferred_wfs_fixpoint(op)
    battery.check(
        "alternating-convergence",
        max(wf_trace.converged_at, ap_trace.converged_at, pwfs_trace.converged_at)
        <= bound,
        f"bound {bound}",
    )

    # Answer-set cross-checks against the independent oracle.
    engine_as = classical.answer_sets(rules, universe)
    oracle_as = oracle_answer_sets(rules, universe)
    battery.check(
        "answer-sets-oracle-agreement",
        engine_as == oracle_as,
        f"engine {sorted(map(str, engine_as))} oracle {sorted(map(str, oracle_as))}",
    )
    ok = True
    for x in [Interpretation.empty(), *(s for s, _ in pairs[:5])]:
        basic = classical.reduct(rules, x)
        if classical.cn(basic, universe) != oracle_cn(basic, universe):
            ok = False
            break
    battery.check("cn-oracle-agreement", ok)

    battery.check(
        "answer-sets-are-alternating-fixpoints",
        all(classical.a_op(rules, x, universe) == x for x in engine_as),
    )
    wfs_model = classical.well_founded_model(rules, universe)
    battery.check(
        "wfs-approximates-answer-sets",
        all(wfs_model.true_set <= x.literals for x in engine_as),
    )

    # ``preferred_answer_sets`` filters the answer-set search, so the subset
    # theorem is checked on the fixpoints of cp_op over the whole candidate
    # space, and the search is checked against that enumeration.
    enumerated = frozenset(
        x for x in classical.head_candidates(rules, universe)
        if preference.cp_op(op, x) == x
    )
    battery.check(
        "preferred-subset-of-answer-sets",
        enumerated <= engine_as,
        f"extra {sorted(map(str, enumerated - engine_as))}",
    )
    preferred = preference.preferred_answer_sets(op)
    battery.check(
        "preferred-search-matches-enumeration",
        preferred == enumerated,
        f"search {sorted(map(str, preferred))} "
        f"enumeration {sorted(map(str, enumerated))}",
    )
    wf_set = preference.lfp_ap(op)
    battery.check(
        "lfp-ap-approximates-preferred",
        all(wf_set.issubset(z) for z in preferred),
    )
    two_valued = wf_set.literals | (
        universe - preference.cp_op(op, wf_set).literals
    ) == universe
    if two_valued:
        battery.check(
            "two-valued-unique-preferred",
            preferred == frozenset({wf_set}),
            f"lfp {wf_set} preferred {sorted(map(str, preferred))}",
        )
    else:
        battery.skip("two-valued-unique-preferred", "model is three-valued")

    # Standard versus preferred well-founded models.
    pwfs_model = prefwfs.preferred_wf_model(op)
    battery.check(
        "pwfs-model-disjoint",
        not (pwfs_model.true_set & pwfs_model.false_set),
    )
    battery.check(
        "thm3-inclusions",
        wfs_model.true_set <= pwfs_model.true_set
        and wfs_model.false_set <= pwfs_model.false_set,
        f"standard {wfs_model} preferred {pwfs_model}",
    )
    battery.check(
        "thm4-approximation",
        all(
            pwfs_model.true_set <= z.literals
            and not (pwfs_model.false_set & z.literals)
            for z in preferred
        ),
        f"model {pwfs_model} preferred {sorted(map(str, preferred))}",
    )

    # Properties of the order-free slice of the program.
    plain = op.strip_order()
    stripped_alternation_consistent = not any(
        classical.c_op(rules, value, universe).is_lit
        for value in wf_trace.values()
    )
    if stripped_alternation_consistent:
        battery.check(
            "thm3-empty-order-equality",
            prefwfs.preferred_wf_model(plain) == wfs_model,
        )
    else:
        battery.skip(
            "thm3-empty-order-equality",
            "alternation passes through the inconsistent collapse",
        )
    ok = True
    for small, big in pairs[:10]:
        if preference.tp_step(plain, big, small) != classical.t_step(
            rules, big, small, universe
        ):
            ok = False
            break
        if preference.cp_op(plain, big) != classical.c_op(rules, big, universe):
            ok = False
            break
    battery.check("empty-order-collapse", ok)

    ok = True
    checked = False
    for small, _ in pairs[:10]:
        y = classical.c_op(rules, small, universe)
        if y.is_lit:
            continue
        checked = True
        if prefwfs.tpn_step(plain, y, Interpretation.empty()) != classical.t_step(
            rules, y, Interpretation.empty(), universe
        ):
            ok = False
            break
        if prefwfs.cpn_op(plain, y) != classical.c_op(rules, y, universe):
            ok = False
            break
    if checked:
        battery.check("tpn-classical-on-supported-contexts", ok)
    else:
        battery.skip(
            "tpn-classical-on-supported-contexts", "no consistent context sampled"
        )

    heads = [r.head for r in rules]
    if len(set(heads)) == len(heads):
        ok = True
        for small, _ in pairs[:10]:
            y = classical.c_op(rules, small, universe)
            if y.is_lit:
                continue
            for r in rules:
                if prefwfs.d_set(op, r, small, y) != (
                    prefwfs.d_set_simplistic(op, r, small) & y.literals
                ):
                    ok = False
                    break
            if not ok:
                break
        battery.check("dset-variants-agree-distinct-heads", ok)
    else:
        battery.skip("dset-variants-agree-distinct-heads", "heads are shared")

    iterates = brewka.brewka_wf_iterates(plain)
    contexts = [brewka.c_star(rules, v) for v in iterates]
    if all(map(is_consistent, iterates)) and all(map(is_consistent, contexts)):
        battery.check(
            "brewka-empty-order-standard",
            brewka.brewka_wf_set(plain) == wfs_model.true_set,
        )
    else:
        battery.skip("brewka-empty-order-standard", "inconsistent iterate")

    return TheoremReport(seed, program_hash(op), tuple(battery.results))
