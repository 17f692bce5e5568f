"""Mutation table: one-line engine edits the theorem battery must kill.

Each entry edits one line of an engine function's source (a removed line
becomes ``pass``; a property or cached property is edited in the function
it wraps), compiles the edited function in a copy of its module's namespace
and installs it wherever ``olp`` binds the original.  The battery
then runs on the criterion-7 batch, in order, until a report fails.  The
index of that program and a digest of the report's JSON lines are recorded
below, and both must reproduce.  ``olp fuzz`` passes every invariant, so
this table is what exercises the battery's failure path.
"""

import __future__
import hashlib
import inspect
import sys
import textwrap
from functools import cached_property

import pytest

from olp import classical, prefwfs, syntax
from olp.oracle import GeneratorConfig, check_theorems, generate_program
from .test_acceptance import BATCH_SEED

# name: (owner, function, line to edit, replacement, first killing program
# index, invariants failing there, sha256 of that report's JSON lines)
MUTANTS = {
    "derive-returns-after-one-pass": (
        classical, "derive", "pending = waiting", "return derived",
        6, ("cp-op-routes-agree",),
        "aae5445226502a739414864976b6a7507ff4a5c4add09d8671a6ab7632d3ec44",
    ),
    "t-step-ignores-its-context": (
        classical, "t_step",
        "return fire_step([r for r in rules if not r.nmask & y.bits], None, x, universe)",
        "return fire_step(list(rules), None, x, universe)",
        0, ("c-op-routes-agree", "empty-order-collapse"),
        "7a2f7d52f61494b6bdd9f398af6f4dfda580d5186b3f0f7c627658e0562a8be1",
    ),
    "retract-drops-the-rederive": (
        classical.LiveClosure, "_retract",
        "work.extend(self._by_head[lit])", "pass",
        2, ("live-closure-matches-c-op",),
        "ca1a57be4e583f88993e36323791134a4b955f644d15cb3fb03dfc93f1bcd1a6",
    ),
    "retract-over-deletes-one-level": (
        classical.LiveClosure, "_retract",
        "stack.append(h)", "pass",
        165, ("live-closure-matches-c-op",),
        "18559ce0b5150e4be8895e6c00b20ad08f65f565303d3837b66422e2c0797dff",
    ),
    # The one step that moves the live closure, for a new context and for a
    # new rule set alike.
    "recount-retracts-nothing": (
        classical.LiveClosure, "_move",
        "doomed |= 1 << rules[i].head_id", "pass",
        0, ("live-closure-matches-c-op",),
        "70814d8d7587fee19b38a9ee613e4ca41b93e78526c49eee9cc13b5047c21dea",
    ),
    "recount-queues-no-freed-rule": (
        classical.LiveClosure, "_move",
        "work.append(i)", "pass",
        0, ("live-closure-matches-c-op",),
        "148eb91833bb9a625b38058ef1cd72fbf7dc1c53b13fc24231a9b1898a9f1d47",
    ),
    "recount-counts-nothing-up": (
        classical.LiveClosure, "_move",
        "missing[i] += 1", "pass",
        0, ("live-closure-matches-c-op",),
        "43260367089575f84ab1981c830fcef6a28b023d0cd5993b9b6649d1a3a21a9d",
    ),
    # The two bitsets that moving between rule sets hands to the move.
    "within-over-deletes-nothing": (
        classical.LiveClosure, "within",
        "return self._move(old & ~mask, mask & ~old, _alone)",
        "return self._move(0, mask & ~old, _alone)",
        6, ("c-star-pref-routes-agree",),
        "813d9f8681f2b7fcaef191f6e47bd8135e5bd417052ab7e08a39b1821de9cbc2",
    ),
    "within-fires-no-added-rule": (
        classical.LiveClosure, "within",
        "return self._move(old & ~mask, mask & ~old, _alone)",
        "return self._move(old & ~mask, 0, _alone)",
        9, ("c-star-pref-routes-agree",),
        "c1d4b6526d0350fae5615f95e30ab52964a3c0786a37001804b4c1334df6a1d3",
    ),
    # The live closure returns raw bits; the wfs step and the false set
    # collapse them where they read a value.
    "wfs-step-skips-the-inner-collapse": (
        classical, "well_founded_fixpoint",
        "lambda x: from_bits(outer(from_bits(inner(x.bits), universe).bits), universe),",
        "lambda x: from_bits(outer(inner(x.bits)), universe),",
        12, ("thm3-inclusions",),
        "2d80fecb78700da514beca19d4d0cd53ec52b987d8bad747f0b35261caa097d6",
    ),
    "false-bits-ignores-a-collapsed-support": (
        syntax, "false_bits",
        "return 0 if has_pair(supported) else universe & ~supported & ~true",
        "return universe & ~supported & ~true",
        63, ("thm3-inclusions",),
        "e152321c077d16ce2c44a0fe6a7b7eacb2090d1f25d1d8697394337fa595dabd",
    ),
    "cpn-op-drops-the-wake": (
        prefwfs, "cpn_op",
        "work.extend(by_nbody.get(rules[g].head_id, ()))", "pass",
        91, ("cpn-simplistic-routes-agree",),
        "e38ab885e554e2bd1d3e1d9f3582c81005615be4ba5f3777e968cfdefeb10ad8",
    ),
    # The removal policy that cpn_op, tpn_step and d_set share, reading only
    # the lowest literal of a negative body.
    "removal-scan-stops-after-one-literal": (
        prefwfs, "_removable",
        "among ^= low", "break",
        20, ("cpn-anti-monotone",),
        "24d4a1b5793d63c91bfcadaeff54609bdb0eb5aac737269544f8da2f87c3ab49",
    ),
    # The two closure loops of the order, over validation's edge lists.
    "above-hands-down-no-rule": (
        syntax.PreferenceOrder, "above",
        "up = reach[j] | 1 << j", "up = reach[j]",
        6, ("defeat-bits-agree",),
        "c4ff2799424b48836f334ce6d236c372ed232b30e0135990e35d7b7452f8a7be",
    ),
    "below-gathers-only-direct-edges": (
        syntax.PreferenceOrder, "below",
        "down |= reach[i] | 1 << i", "down |= 1 << i",
        37, ("defeat-bits-agree",),
        "c08555d4429ff989652555549725411f8621965a8bdb5dd6e64aab63580cec87",
    ),
    # The bottom-up well-founded model of acyclic programs, which the
    # battery reaches through well_founded_model.
    "peel-makes-no-head-true": (
        classical, "peel",
        "true.add(h)", "pass",
        0, ("thm3-inclusions", "thm3-empty-order-equality", "brewka-empty-order-standard"),
        "afdf86908ed7bd0715ac3b3c0cec7fd3ef2de1e85d9c4b2b7af28ee122be9513",
    ),
    "peel-blocks-no-rule-by-a-decided-head": (
        classical, "peel",
        "blocked[j] |= against", "pass",
        8, ("wfs-approximates-answer-sets", "thm3-inclusions", "thm3-empty-order-equality",
            "brewka-empty-order-standard"),
        "7eecec551f56e57223ddb9a8615715d0a10dbdaf020cf8d136f874d4e09f4653",
    ),
    "peel-answers-past-a-cycle": (
        classical, "peel",
        "return bits_at(true) if len(ready) == len(by_head) else None", "return bits_at(true)",
        9, ("thm3-inclusions", "thm3-empty-order-equality"),
        "7bda54e7b49fabe3122b559b1befff792f4626f3537273d46af20cb3e12b3fac",
    ),
    # Lit is read from the bits: a value is Lit when they hold a pair.
    "is-lit-ignores-the-pair": (
        syntax.Interpretation, "is_lit",
        "return bool(has_pair(self.bits))", "return False",
        12, ("dset-variants-agree-distinct-heads",),
        "e96fa69e1c2d7d4bfa0ea0bf73f5b4ddc5600aae64206830e9d007bd7ae5a70d",
    ),
}

SEARCHED = 200


def _install(monkeypatch, owner, name, line, replacement):
    original = vars(owner)[name]
    if isinstance(original, cached_property):
        function = original.func
    else:
        function = original.fget if isinstance(original, property) else original
    source = textwrap.dedent(inspect.getsource(function)).splitlines(keepends=True)
    at = [i for i, text in enumerate(source) if text.strip() == line]
    assert len(at) == 1, f"{name}: {line!r} matches {len(at)} lines"
    text = source[at[0]]
    source[at[0]] = text[: len(text) - len(text.lstrip())] + replacement + "\n"
    module = sys.modules[function.__module__]
    namespace = dict(vars(module))
    exec(
        compile(
            "".join(source), module.__file__, "exec",
            flags=__future__.annotations.compiler_flag, dont_inherit=True,
        ),
        namespace,
    )
    mutant = namespace[name]
    if isinstance(owner, type):
        if isinstance(mutant, cached_property):
            mutant.__set_name__(owner, name)
        monkeypatch.setattr(owner, name, mutant)
        return
    for loaded, bound in list(sys.modules.items()):
        if loaded == "olp" or loaded.startswith("olp."):
            for attr, value in list(vars(bound).items()):
                if value is original:
                    monkeypatch.setattr(bound, attr, mutant)


def _first_kill():
    for index in range(SEARCHED):
        seed = BATCH_SEED + index
        report = check_theorems(generate_program(GeneratorConfig(seed=seed)), seed=seed)
        if not report.ok:
            return index, report
    return None, None


@pytest.mark.parametrize("mutant", MUTANTS)
def test_the_battery_kills_the_mutant(monkeypatch, mutant):
    owner, name, line, replacement, index, failing, digest = MUTANTS[mutant]
    _install(monkeypatch, owner, name, line, replacement)
    killed_at, report = _first_kill()
    assert killed_at is not None, f"{mutant} survives {SEARCHED} programs"
    lines = "\n".join(report.json_lines())
    assert (
        killed_at,
        tuple(r.invariant for r in report.failures),
        hashlib.sha256(lines.encode()).hexdigest(),
    ) == (index, failing, digest), lines
