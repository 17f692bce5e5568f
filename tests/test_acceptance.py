"""Acceptance criteria, one test per criterion.

Each test prints one pass/fail line (visible with ``pytest -s``); the
assertions themselves carry the exact expected values.  Criteria 7 and 8
share one batch of 1000 seeded random programs, and the batch's reports
are pinned by a digest.
"""

import hashlib
import time
import warnings
from collections import Counter
from dataclasses import replace

import pytest

from olp.brewka import cl
from olp.classical import cn, reduct, well_founded_model
from olp.oracle import GeneratorConfig, check_theorems, generate_program
from olp.preference import cp_op, lfp_ap, preferred_answer_sets
from olp.prefwfs import d_set, preferred_wf_model
from olp.syntax import Interpretation, mentioned_literals, program, rule
from .conftest import A, B, C, NA, P, Q, interp, load

BATCH_SEED = 20260811
BATCH_SIZE = 1000
# sha256 of the newline-joined JSON lines of every report in the batch, in
# order: the checks, their order and every failure detail of the battery.
BATCH_DIGEST = "9167c00e1ce1f7f9baa3f391835f5caaf02e209c3b4794673872e6153e26d7bb"

E = Interpretation.empty()


def _report(number: int, title: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {title}")
    assert ok, f"criterion {number}: {title}"


def _atoms_only(op, literals):
    mentioned = mentioned_literals(op)
    return frozenset(l for l in literals if not l.negated or l in mentioned)


def _atom_view(op, model):
    return (
        _atoms_only(op, model.true_set),
        _atoms_only(op, model.false_set),
        _atoms_only(op, model.unknown(op.universe)),
    )


def test_criterion_01_two_rule_cycle_reproduction():
    start = time.perf_counter()
    op = load("ex3")
    standard = _atom_view(op, well_founded_model(op.rules, op.universe))
    ok = standard == (frozenset(), frozenset(), frozenset({A, B}))
    ok &= cp_op(op, E) == interp(A, B)
    ok &= cp_op(op, interp(A, B)) == E
    ok &= lfp_ap(op) == E
    preferred = _atom_view(op, preferred_wf_model(op))
    ok &= preferred == (frozenset({A}), frozenset({B}), frozenset())
    ok &= time.perf_counter() - start < 1.0
    _report(1, "two-rule cycle: standard, order-aware, and preferred models", ok)


def test_criterion_02_benchmark_program_reproduction():
    start = time.perf_counter()
    op = load("ex4")
    expected = (frozenset({B}), frozenset({A, C}), frozenset())
    standard = _atom_view(op, well_founded_model(op.rules, op.universe))
    preferred = _atom_view(op, preferred_wf_model(op))
    ok = standard == expected and preferred == expected
    ok &= time.perf_counter() - start < 1.0
    _report(2, "preference must not override the standard model", ok)


def test_criterion_03_shared_head_variants():
    start = time.perf_counter()
    op = load("ex5")
    paper = _atom_view(op, preferred_wf_model(op))
    simplistic = _atom_view(op, preferred_wf_model(op, "simplistic"))
    ok = paper == (frozenset({A}), frozenset({B}), frozenset())
    ok &= simplistic == (frozenset({A, B}), frozenset(), frozenset())
    ok &= time.perf_counter() - start < 1.0
    _report(3, "shared heads: sound removal vs simplistic removal", ok)


def test_criterion_04_removal_set_microcheck():
    op = load("ex3")
    ab = interp(A, B)
    ok = d_set(op, op.by_name["r1"], E, ab) == frozenset({B})
    ok &= d_set(op, op.by_name["r2"], E, ab) == frozenset()
    _report(4, "per-rule removal sets on the two-rule cycle", ok)


def test_criterion_05_closure_pair():
    op = program([rule("r1", A), rule("r2", NA), rule("r3", B)])
    basic = reduct(op.rules, E)
    ok = cn(basic, op.universe) == Interpretation.lit(op.universe)
    ok &= cl(basic) == frozenset({A, NA, B})
    _report(5, "collapsing vs paraconsistent closure on contradictory facts", ok)


def test_criterion_06_strict_chain_and_fact_pair():
    op = load("defeasible")
    ok = preferred_wf_model(op).true_set == frozenset({P, Q})
    facts = load("ex7")
    ok &= {P, Q} <= preferred_wf_model(facts).true_set
    _report(6, "strict chain beats the ranked default; fact pair survives", ok)


@pytest.fixture(scope="module")
def batch_reports():
    start = time.perf_counter()
    reports = []
    base = GeneratorConfig()
    for i in range(BATCH_SIZE):
        cfg = replace(base, seed=BATCH_SEED + i)
        reports.append(check_theorems(generate_program(cfg), seed=cfg.seed))
    return reports, time.perf_counter() - start


THEOREM_INVARIANTS = (
    "c-anti-monotone",
    "c-star-anti-monotone",
    "c-op-routes-agree",
    "live-closure-matches-c-op",
    "cp-op-routes-agree",
    "cpn-op-routes-agree",
    "cpn-simplistic-routes-agree",
    "c-star-pref-routes-agree",
    "defeat-bits-agree",
    "a-monotone",
    "cp-anti-monotone",
    "ap-monotone",
    "cpn-anti-monotone",
    "apn-monotone",
    "alternating-convergence",
    "thm3-inclusions",
    "thm3-empty-order-equality",
    "thm4-approximation",
    "pwfs-model-disjoint",
    "lfp-ap-approximates-preferred",
    "two-valued-unique-preferred",
    "preferred-subset-of-answer-sets",
    "preferred-search-matches-enumeration",
    "empty-order-collapse",
    "cl-subset-cn",
    "answer-sets-are-alternating-fixpoints",
    "wfs-approximates-answer-sets",
    "tpn-classical-on-supported-contexts",
    "dset-variants-agree-distinct-heads",
    "brewka-empty-order-standard",
)

ORACLE_INVARIANTS = ("answer-sets-oracle-agreement", "cn-oracle-agreement")


def _tally(reports, invariants):
    counts = Counter()
    failing_seeds = []
    for report in reports:
        for result in report.results:
            if result.invariant in invariants:
                counts[result.status] += 1
                if result.status == "fail":
                    failing_seeds.append((report.seed, result.invariant))
    return counts, failing_seeds


def test_criterion_07_theorem_suite(batch_reports):
    reports, elapsed = batch_reports
    counts, failing = _tally(reports, THEOREM_INVARIANTS)
    # Every report names each theorem and oracle invariant exactly once.
    expected = sorted(THEOREM_INVARIANTS + ORACLE_INVARIANTS)
    named = all(
        sorted(r.invariant for r in report.results) == expected for report in reports
    )
    ok = named and not failing and elapsed < 60.0
    print(
        f"theorem suite over {len(reports)} programs in {elapsed:.1f}s: "
        f"{counts['pass']} checks passed, {counts['skip']} conditionally "
        f"skipped (theorem hypothesis not met), first failures: {failing[:3]}"
    )
    _report(7, "theorem battery on 1000 seeded programs, zero failures", ok)


def test_criterion_08_oracle_equivalence(batch_reports):
    reports, _ = batch_reports
    counts, failing = _tally(reports, ORACLE_INVARIANTS)
    ok = not failing and counts["pass"] == 2 * len(reports)
    print(f"oracle agreement: {counts['pass']} checks, {len(failing)} mismatches")
    _report(8, "engine vs oracle on the same 1000 programs, zero mismatches", ok)


def test_batch_reports_match_the_recorded_digest(batch_reports):
    reports, _ = batch_reports
    lines = "\n".join(line for report in reports for line in report.json_lines())
    assert hashlib.sha256(lines.encode()).hexdigest() == BATCH_DIGEST


def test_criterion_09_scaling_probe(capsys):
    from olp.cli import main

    code = main(["bench", "--sizes", "50,100,200"])
    out = capsys.readouterr().out
    print(out, end="")
    exponent = float(out.rsplit(":", 1)[1])
    if exponent > 3.5:
        warnings.warn(f"pwfs growth exponent {exponent:.2f} exceeds 3.5")
    ok = code == 0 and out.count("size") == 3
    _report(9, "chain scaling probe completes (exponent informational)", ok)


def test_criterion_10_negative_control():
    op = load("ex5")
    preferred = preferred_answer_sets(op)
    paper_model = preferred_wf_model(op)
    simplistic_model = preferred_wf_model(op, "simplistic")
    sound = all(paper_model.true_set <= z.literals for z in preferred)
    violated = any(
        not simplistic_model.true_set <= z.literals for z in preferred
    )
    ok = sound and violated and preferred == frozenset({interp(A)})
    _report(10, "simplistic removal is caught by the approximation check", ok)
