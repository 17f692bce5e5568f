import argparse
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from io import StringIO

import pytest

from olp import cli
from olp.cli import main
from olp.syntax import PartialModel
from .conftest import CORPUS, ROOT

MODES = ["wfs", "pwfs", "pwfs-simplistic", "as", "pas", "brewka", "lfp-ap"]
NAMES = ["ex3", "ex4", "ex5", "ex7", "defeasible"]


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_valid_program_prints_canonical_form(self, capsys):
        code, out, _ = run(capsys, "check", str(CORPUS / "ex3.olp"))
        assert code == 0
        assert out == "r1: a :- not b.\nr2: b :- not a.\nr2 < r1.\n"

    def test_cyclic_order_is_an_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.olp"
        bad.write_text("r1: a.\nr2: b.\nr1 < r2.\nr2 < r1.\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1
        assert "cyclic" in err

    def test_missing_file_is_an_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "missing.olp"))
        assert code == 2
        assert "i/o error" in err


class TestSolveGolden:
    @pytest.mark.parametrize("name", NAMES)
    def test_json_matches_the_expected_sidecar(self, capsys, name):
        expected = json.loads((CORPUS / "expected" / f"{name}.json").read_text())
        for mode in MODES:
            code, out, _ = run(
                capsys, "solve", str(CORPUS / f"{name}.olp"), "--mode", mode, "--json"
            )
            assert code == 0
            assert json.loads(out) == expected[mode], (name, mode)

    @pytest.mark.parametrize("name", NAMES)
    def test_output_is_byte_stable(self, capsys, name):
        for mode in MODES:
            argv = ["solve", str(CORPUS / f"{name}.olp"), "--mode", mode, "--json"]
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second

    def test_json_round_trips_into_a_partial_model(self, capsys, ex3):
        _, out, _ = run(
            capsys, "solve", str(CORPUS / "ex3.olp"), "--mode", "pwfs", "--json"
        )
        payload = json.loads(out)

        def parse_lit(text):
            from olp.syntax import Atom, Literal

            negated = text.startswith("-")
            return Literal(Atom(text.lstrip("-")), negated)

        model = PartialModel(
            frozenset(map(parse_lit, payload["true"])),
            frozenset(map(parse_lit, payload["false"])),
        )
        from olp.prefwfs import preferred_wf_model

        assert model == preferred_wf_model(ex3)
        assert model.unknown(ex3.universe) == frozenset(
            map(parse_lit, payload["unknown"])
        )


class TestSolveText:
    def test_pwfs_atoms_only_line(self, capsys):
        _, out, _ = run(
            capsys, "solve", str(CORPUS / "ex3.olp"), "--mode", "pwfs", "--atoms-only"
        )
        assert out == "true: {a} false: {b} unknown: {}\n"

    def test_wfs_atoms_only_everything_unknown(self, capsys):
        _, out, _ = run(
            capsys, "solve", str(CORPUS / "ex3.olp"), "--mode", "wfs", "--atoms-only"
        )
        assert out == "true: {} false: {} unknown: {a, b}\n"

    def test_simplistic_atoms_only_shows_the_wrong_model(self, capsys):
        _, out, _ = run(
            capsys,
            "solve",
            str(CORPUS / "ex5.olp"),
            "--mode",
            "pwfs-simplistic",
            "--atoms-only",
        )
        assert out == "true: {a, b} false: {} unknown: {}\n"

    def test_atoms_only_keeps_mentioned_negations(self, capsys):
        _, out, _ = run(
            capsys,
            "solve",
            str(CORPUS / "defeasible.olp"),
            "--mode",
            "pwfs",
            "--atoms-only",
        )
        assert out == "true: {p, q} false: {-p, -q} unknown: {}\n"

    @pytest.mark.parametrize(
        "mode, label",
        [("as", "answer set"), ("pas", "preferred answer set"), ("lfp-ap", "well-founded set")],
    )
    def test_atoms_only_hides_unmentioned_negations_of_lit(self, capsys, tmp_path, mode, label):
        path = tmp_path / "contradiction.olp"
        path.write_text("a.\n-a.\nb.\n")
        _, full, _ = run(capsys, "solve", str(path), "--mode", mode)
        _, shown, _ = run(capsys, "solve", str(path), "--mode", mode, "--atoms-only")
        assert full == f"{label}: {{-a, -b, a, b}}\n"
        assert shown == f"{label}: {{-a, a, b}}\n"

    @pytest.mark.parametrize(
        "mode, line",
        [
            ("wfs", "true: {} false: {} unknown: {-a, -b, a, b}\n"),
            ("pwfs-simplistic", "true: {} false: {} unknown: {-a, -b, a, b}\n"),
            ("pwfs", "true: {-a, -b, a, b} false: {} unknown: {}\n"),
        ],
    )
    def test_support_that_collapses_while_the_lfp_stays_consistent(
        self, capsys, tmp_path, mode, line
    ):
        # The classical support of the empty lfp is {a, -a}, whose collapse
        # is the whole universe, so nothing is false; pwfs's lfp is Lit.
        path = tmp_path / "pair.olp"
        path.write_text("r1: a :- not b.\nr2: -a :- not b.\n")
        _, out, _ = run(capsys, "solve", str(path), "--mode", mode)
        assert out == line

    def test_answer_set_listing(self, capsys):
        _, out, _ = run(capsys, "solve", str(CORPUS / "ex3.olp"), "--mode", "as")
        assert out == "answer set: {a}\nanswer set: {b}\n"

    def test_empty_preferred_answer_sets(self, capsys):
        _, out, _ = run(capsys, "solve", str(CORPUS / "ex4.olp"), "--mode", "pas")
        assert out == "no preferred answer sets\n"


class TestTrace:
    def test_pwfs_trace_records_removal_sets(self, capsys):
        _, out, _ = run(
            capsys,
            "solve",
            str(CORPUS / "ex3.olp"),
            "--mode",
            "pwfs",
            "--trace",
            "--json",
        )
        payload = json.loads(out)
        steps = payload["trace"]
        assert steps[0] == {"step": 0, "set": []}
        assert steps[1]["set"] == ["a"]
        assert steps[1]["dsets"] == {"r1": ["b"], "r2": []}

    def test_wfs_trace_lists_iterates(self, capsys):
        _, out, _ = run(
            capsys,
            "solve",
            str(CORPUS / "ex4.olp"),
            "--mode",
            "wfs",
            "--trace",
            "--json",
        )
        payload = json.loads(out)
        assert [s["set"] for s in payload["trace"]][-1] == ["b"]

    def test_brewka_trace_lists_defeated_rules(self, capsys):
        _, out, _ = run(
            capsys,
            "solve",
            str(CORPUS / "ex3.olp"),
            "--mode",
            "brewka",
            "--trace",
            "--json",
        )
        payload = json.loads(out)
        assert payload["trace"][0]["defeated"]["r1"] == ["r2"]


# The text form of every trace: ``olp solve FILE --mode M --trace``, with
# and without ``--atoms-only``, for each traced mode over the corpus and a
# 10-rule chain.  ``trace_texts.json`` holds the standard output of each
# run.  After an intended change of output, re-record with
#
#     PYTHONPATH=src python -m tests.test_cli
TRACE_TEXTS = ROOT / "tests" / "trace_texts.json"
TRACE_MODES = ["wfs", "pwfs", "pwfs-simplistic", "brewka", "lfp-ap"]


def _trace_texts(workdir) -> dict[str, str]:
    from olp.oracle import chain_program
    from olp.parser import render_program

    chain = workdir / "chain10.olp"
    chain.write_text(render_program(chain_program(10)))
    paths = {f"corpus-{name}": CORPUS / f"{name}.olp" for name in NAMES}
    paths["chain10"] = chain
    texts = {}
    for name, path in paths.items():
        for mode in TRACE_MODES:
            for flags in ([], ["--atoms-only"]):
                out = StringIO()
                with redirect_stdout(out):
                    assert main(["solve", str(path), "--mode", mode, "--trace", *flags]) == 0
                texts["/".join([name, mode, *flags])] = out.getvalue()
    return texts


def test_text_traces_match_the_recorded_output(tmp_path):
    recorded = json.loads(TRACE_TEXTS.read_text(encoding="utf-8"))
    texts = _trace_texts(tmp_path)
    assert texts.keys() == recorded.keys()
    for key, text in texts.items():
        assert text == recorded[key], key


class TestBench:
    def test_small_sizes_complete(self, capsys):
        code, out, _ = run(capsys, "bench", "--sizes", "10,20")
        assert code == 0
        assert out.count("size") == 2
        assert "fitted pwfs growth exponent" in out

    def test_empty_size_list(self, capsys):
        code, out, _ = run(capsys, "bench", "--sizes", "")
        assert code == 0
        assert out == ""

    @pytest.mark.parametrize(
        "sizes, times",
        [((), ()), ((10,), (1.0,)), ((10, 10), (1.0, 2.0)), ((10, 20), (0.0, 1.0))],
        ids=["no-point", "one-size", "repeated-size", "one-positive-time"],
    )
    def test_exponent_needs_two_distinct_sizes(self, sizes, times):
        from olp.cli import _fit_exponent

        assert _fit_exponent(sizes, times) is None

    def test_exponent_is_the_log_log_slope(self):
        from olp.cli import _fit_exponent

        assert _fit_exponent((10, 20), (1.0, 8.0)) == pytest.approx(3.0)

    def test_a_steep_exponent_warns(self, capsys, monkeypatch):
        from olp import cli

        monkeypatch.setattr(cli, "_fit_exponent", lambda sizes, times: 4.0)
        code, out, err = run(capsys, "bench", "--sizes", "10,20")
        assert code == 0
        assert "fitted pwfs growth exponent: 4.00" in out
        assert err == "warning: pwfs growth exponent exceeds 3.5\n"


class TestSolveErrors:
    def test_parse_error_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.olp"
        bad.write_text("r1: a :- not\n")
        code, _, err = run(capsys, "solve", str(bad), "--mode", "wfs")
        assert code == 1 and "syntax" in err

    def test_divergence_exits_three(self, capsys, monkeypatch):
        from olp import cli
        from olp.fixpoint import FixpointDivergence

        def explode(rules, universe, supported=None):
            raise FixpointDivergence("forced for the exit-code test")

        monkeypatch.setattr(cli.classical, "well_founded_fixpoint", explode)
        code, _, err = run(capsys, "solve", str(CORPUS / "ex3.olp"), "--mode", "wfs")
        assert code == 3 and "internal error" in err

    def test_oscillating_step_exits_three_naming_the_differing_literals(
        self, capsys, monkeypatch
    ):
        from itertools import count

        from olp import prefwfs
        from olp.syntax import Interpretation, pos

        # A forced oscillation: the defeat-aware half alternates {a} and {}.
        calls = count()

        def flip(op, x, variant="paper"):
            return Interpretation.of([pos("a")] if next(calls) % 2 == 0 else [])

        monkeypatch.setattr(prefwfs, "cpn_op", flip)
        code, out, err = run(capsys, "solve", str(CORPUS / "ex3.olp"), "--mode", "pwfs")
        assert code == 3 and out == ""
        assert err == (
            "internal error: preferred well-founded fixpoint did not converge "
            "within 6 applications; its last two iterates differ on {a}\n"
        )


TWENTY_FIVE_FACTS = "".join(f"p{k}.\n" for k in range(25)).encode()
# 11 independent even loops: 22 heads that the answer-set bounds leave
# undecided, past the search cap of 20.
ELEVEN_EVEN_LOOPS = "".join(
    f"p{k} :- not q{k}.\nq{k} :- not p{k}.\n" for k in range(11)
).encode()
LONG_IDENTIFIER = b"r1: " + b"a" * 10**4 + b".\n"
# An order-free program of 2*10**4 rules: parsing it needs no recursion.
TWENTY_THOUSAND_RULES = "".join(
    f"p{k} :- not q{k}.\n" for k in range(2 * 10**4)
).encode()

# Rule k prefers rule k + 1, and rule 5000 prefers rule 1: one preference
# cycle through every rule.  Validation climbs it without recursion.
CYCLE = 5000
PREFERENCE_CYCLE = (
    "".join(f"r{k}: a{k}.\n" for k in range(1, CYCLE + 1))
    + "".join(f"r{k} < r{k % CYCLE + 1}.\n" for k in range(1, CYCLE + 1))
).encode()
# a_k :- a_(k+1) around 5000 atoms: the positive loop leaves every atom false.
POSITIVE_CYCLE = "".join(f"a{k} :- a{k % CYCLE + 1}.\n" for k in range(1, CYCLE + 1)).encode()
# Characters that \s and str.split count as whitespace but the grammar does
# not: each is a stray character between two rules.
NOT_WHITESPACE = {"vertical-tab": "\x0b", "no-break-space": "\xa0", "line-separator": "\u2028"}


# ``{file}`` is an input file holding ``content``; ``{dir}`` a directory.
INPUT_ERRORS = [
    ("as-25-heads", ["solve", "{file}", "--mode", "as"], ELEVEN_EVEN_LOOPS, 1),
    ("pas-25-heads", ["solve", "{file}", "--mode", "pas"], ELEVEN_EVEN_LOOPS, 1),
    ("as-25-facts", ["solve", "{file}", "--mode", "as"], TWENTY_FIVE_FACTS, 0),
    ("pas-25-facts", ["solve", "{file}", "--mode", "pas"], TWENTY_FIVE_FACTS, 0),
    ("non-utf8", ["solve", "{file}", "--mode", "wfs"], b"r1: a.\n\xff\xfe\n", 1),
    ("empty", ["solve", "{file}", "--mode", "wfs"], b"", 0),
    ("comment-only", ["solve", "{file}", "--mode", "wfs"], b"% only a comment\n", 0),
    ("directory", ["solve", "{dir}", "--mode", "wfs"], None, 2),
    ("nul-byte", ["solve", "{file}", "--mode", "wfs"], b"r1: a.\nr2: b\x00.\n", 1),
    ("utf8-bom", ["solve", "{file}", "--mode", "wfs"], b"\xef\xbb\xbfr1: a.\n", 1),
    ("lone-cr-line-ends", ["solve", "{file}", "--mode", "pwfs"], b"a :- not b.\rb.\rr2 < r1.\r", 0),
    ("identifier-10k-chars", ["solve", "{file}", "--mode", "wfs"], LONG_IDENTIFIER, 0),
    ("check-20k-rules", ["check", "{file}"], TWENTY_THOUSAND_RULES, 0),
    ("preference-cycle-5000-rules", ["check", "{file}"], PREFERENCE_CYCLE, 1),
    ("positive-cycle-5000-atoms", ["solve", "{file}", "--mode", "wfs"], POSITIVE_CYCLE, 0),
    *(
        (f"{name}-between-rules", ["solve", "{file}", "--mode", "wfs"],
         f"r1: a.{char}r2: b.\n".encode(), 1)
        for name, char in NOT_WHITESPACE.items()
    ),
    ("fuzz-max-atoms-9", ["fuzz", "--max-atoms", "9"], None, 1),
    ("fuzz-max-rules-0", ["fuzz", "--max-rules", "0"], None, 1),
    ("fuzz-count-negative", ["fuzz", "--count", "-1"], None, 1),
    ("bench-sizes-abc", ["bench", "--sizes", "abc"], None, 1),
    ("bench-sizes-0", ["bench", "--sizes", "0"], None, 1),
    ("bench-sizes-negative", ["bench", "--sizes", "-3"], None, 1),
]


def _argv(row_argv, content, tmp_path) -> list[str]:
    path = tmp_path / "input.olp"
    if content is not None:
        path.write_bytes(content)
    return [arg.format(file=path, dir=tmp_path) for arg in row_argv]


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv, content, code",
        [row[1:] for row in INPUT_ERRORS],
        ids=[row[0] for row in INPUT_ERRORS],
    )
    def test_exit_code_and_one_line_of_stderr(self, capsys, tmp_path, argv, content, code):
        got, _, err = run(capsys, *_argv(argv, content, tmp_path))
        assert got == code
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert err.startswith(("error: ", "i/o error: ")), err
        else:
            assert err == ""

    def test_a_long_preference_cycle_names_a_rule_on_it(self, capsys, tmp_path):
        path = tmp_path / "input.olp"
        path.write_bytes(PREFERENCE_CYCLE)
        code, _, err = run(capsys, "solve", str(path), "--mode", "wfs")
        assert code == 1 and err.count("\n") == 1
        assert ": cyclic-order: cyclic preference through rule 'r" in err


GOOD_ARGV = ["solve", str(CORPUS / "ex5.olp"), "--mode", "pwfs", "--trace"]

# Failing calls: argparse usage errors (exit 2 through SystemExit), and
# errors a command raises after parsing (the exit 1 and 2 rows above).
FAILING = [row for row in INPUT_ERRORS if row[3]] + [
    ("usage-bad-mode", ["solve", "{file}", "--mode", "nope", "--json"], b"a.\n", 2),
    ("usage-no-file", ["solve", "--atoms-only", "--json"], None, 2),
    ("usage-unknown-command", ["explain", "{file}"], b"a.\n", 2),
    ("parse-error", ["solve", "{file}", "--mode", "wfs", "--json", "--atoms-only"], b"a :-", 1),
]


@pytest.fixture(scope="module")
def fresh_process_output() -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "olp.cli", *GOOD_ARGV],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestParserBuiltOnce:
    def test_second_main_builds_no_argument_parser(self, capsys, monkeypatch):
        assert main(GOOD_ARGV) == 0
        built = Counter()
        original = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built["ArgumentParser"] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(GOOD_ARGV) == 0
        assert main(["check", str(CORPUS / "ex3.olp")]) == 0
        assert built == {}

    @pytest.mark.parametrize(
        "argv, content, code", [row[1:] for row in FAILING], ids=[row[0] for row in FAILING]
    )
    def test_failing_call_leaves_no_trace_on_the_next(
        self, capsys, tmp_path, fresh_process_output, argv, content, code
    ):
        try:
            got = main(_argv(argv, content, tmp_path))
        except SystemExit as exc:
            got = exc.code
        assert got == code
        capsys.readouterr()
        assert run(capsys, *GOOD_ARGV) == (0, fresh_process_output, "")


# The words of the differential test: every command, an unknown one, a
# file, every option and mode, and words that only argparse reads.
ARGV_WORDS = [
    "check", "solve", "bench", "fuzz", "explain", str(CORPUS / "ex3.olp"), "--mode", *MODES,
    "nope", "--json", "--trace", "--atoms-only", "--atoms", "--mo", "--mode=wfs",
    "-h", "--help", "--", "-", "-1", "", "a b",
]


def _argv_sample(count, seed=0):
    """``count`` argvs of four to seven words: a command, ``solve`` more often
    than not, then in a random order a word of ARGV_WORDS, one to four exact
    options and, half the time, a second word of ARGV_WORDS."""
    rng = random.Random(seed)
    options = [["--json"], ["--trace"], ["--atoms-only"], *(["--mode", m] for m in MODES)]
    while count:
        units = [[rng.choice(ARGV_WORDS)]] + rng.choices(options, k=rng.randint(1, 4))
        if rng.random() < 0.5:
            units.append([rng.choice(ARGV_WORDS)])
        rng.shuffle(units)
        command = rng.choice(ARGV_WORDS[:5] + ["solve"] * 5)
        argv = [command, *(word for unit in units for word in unit)]
        if 4 <= len(argv) <= 7:
            count -= 1
            yield argv


class TestPlainArgv:
    """``cli._read_plain`` reads the plain ``check`` and ``solve`` argvs;
    ``build_parser().parse_args`` is its reference and reads the rest."""

    def test_the_reader_agrees_with_argparse_wherever_it_reads(self, capsys):
        argvs = [list(w) for n in range(4) for w in itertools.product(ARGV_WORDS, repeat=n)]
        read = []
        for argv in argvs + list(_argv_sample(4000)):
            args = cli._read_plain(argv)
            if args is not None:
                assert vars(cli.build_parser().parse_args(argv)) == vars(args), argv
                read.append(argv)
        assert capsys.readouterr() == ("", "")
        assert len(read) > 500
        assert {a[0] for a in read} == {"check", "solve"}
        assert {m for a in read for m in MODES if m in a} == set(MODES)

    @pytest.mark.parametrize("argv", [
        ["check", str(CORPUS / "ex3.olp")],
        GOOD_ARGV,
        ["solve", str(CORPUS / "ex3.olp"), "--mode", "as", "--json", "--atoms-only"],
        ["solve", "--trace", "--mode", "as", "--json", str(CORPUS / "ex4.olp"), "--mode", "brewka"],
    ])
    def test_a_plain_argv_builds_no_argument_parser(self, capsys, monkeypatch, argv):
        def refuse():
            raise AssertionError("build_parser called on a plain argv")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert main(argv) == 0
        monkeypatch.setattr(sys, "argv", ["olp", *argv])
        assert main() == 0

    @pytest.mark.parametrize("argv", [
        ["solve", str(CORPUS / "ex5.olp"), "--mo", "pwfs", "--trace"],
        ["solve", str(CORPUS / "ex5.olp"), "--mode=pwfs", "--trace"],
        ["solve", "--tr", str(CORPUS / "ex5.olp"), "--mo=pwfs"],
        ["solve", "--trace", "--mode", "pwfs", str(CORPUS / "ex5.olp")],
        ["solve", str(CORPUS / "ex5.olp"), "--mode", "as", "--trace", "--mode", "pwfs"],
    ], ids=["abbreviated-mode", "mode-equals", "abbreviated-both", "options-first", "mode-repeated"])
    def test_other_spellings_print_what_the_plain_one_prints(
        self, capsys, fresh_process_output, argv
    ):
        assert run(capsys, *argv) == (0, fresh_process_output, "")

    def test_a_bad_mode_is_argparses_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(CORPUS / "ex5.olp"), "--mode", "nope", "--trace"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.startswith("usage: olp solve ") and "invalid choice: 'nope'" in err


def _count_every_binding(monkeypatch, names, source=None):
    """Count calls of the named functions of ``source`` (olp.fixpoint by
    default) through every module that binds them."""
    from olp import fixpoint

    source = source or fixpoint
    calls = Counter()
    modules = [m for n, m in sys.modules.items() if n == "olp" or n.startswith("olp.")]
    for name in names:
        original = getattr(source, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestOneFixpointPerSolve:
    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize(
        "mode, fixpoint",
        [
            ("wfs", "well_founded_fixpoint"),
            ("pwfs", "preferred_wfs_fixpoint"),
            ("pwfs-simplistic", "preferred_wfs_fixpoint"),
        ],
    )
    def test_top_level_fixpoint_runs_once(self, capsys, monkeypatch, mode, fixpoint, trace):
        from olp import classical, prefwfs

        calls = Counter()
        for module, name in (
            (classical, "well_founded_fixpoint"),
            (prefwfs, "preferred_wfs_fixpoint"),
        ):
            def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        argv = ["solve", str(CORPUS / "ex5.olp"), "--mode", mode, "--json"]
        code, _, _ = run(capsys, *argv, *(["--trace"] if trace else []))
        assert code == 0
        assert calls == {fixpoint: 1}

    @pytest.mark.parametrize("mode", MODES)
    def test_no_partial_model_is_built(self, capsys, monkeypatch, mode):
        # The payload is computed from bitsets; PartialModel is library API.
        def refuse(*args, **kwargs):
            raise AssertionError("olp solve built a PartialModel")

        monkeypatch.setattr(PartialModel, "__init__", refuse)
        argv = ["solve", str(CORPUS / "ex5.olp"), "--mode", mode, "--json", "--trace"]
        assert run(capsys, *argv)[0] == 0

    # The one Kleene iteration is the top-level fixpoint; every inner
    # consequence closure goes through classical.derive.
    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("mode", ["wfs", "pwfs", "pwfs-simplistic", "lfp-ap", "brewka"])
    def test_one_kleene_run_and_no_iterate_union(self, capsys, monkeypatch, mode, trace):
        calls = _count_every_binding(monkeypatch, ("kleene", "iterate_union"))
        argv = ["solve", str(CORPUS / "ex5.olp"), "--mode", mode, "--json"]
        code, _, _ = run(capsys, *argv, *(["--trace"] if trace else []))
        assert code == 0
        assert calls == {"kleene": 1}

    @pytest.mark.parametrize("mode", ["wfs", "pwfs", "pwfs-simplistic"])
    def test_an_untraced_solve_peels_an_acyclic_chain(self, capsys, monkeypatch, tmp_path, mode):
        # Every head of the chain is decided once; no alternation runs, and
        # since no two rules share a head, pwfs-simplistic needs no cpn_op.
        from olp import prefwfs

        sys.path.insert(0, str(ROOT / "perfbench"))
        import workloads

        path = tmp_path / "chain.olp"
        path.write_text(workloads.chain_text(1, 300), encoding="utf-8")
        calls = _count_every_binding(monkeypatch, ("kleene",))
        checks = _count_every_binding(monkeypatch, ("cpn_op",), source=prefwfs)
        code, out, _ = run(capsys, "solve", str(path), "--mode", mode, "--json")
        assert code == 0 and not calls and not checks
        traced = json.loads(run(capsys, "solve", str(path), "--mode", mode, "--json", "--trace")[1])
        assert calls == {"kleene": 1}
        assert json.loads(out) == {k: v for k, v in traced.items() if k != "trace"}

    def test_every_untraced_wfs_answer_takes_one_route(self, capsys, monkeypatch):
        # The peel-or-alternate choice for wfs is classical.well_founded_bits alone.
        from olp import classical
        from olp.parser import parse_program

        calls = _count_every_binding(monkeypatch, ("well_founded_bits",), source=classical)
        code, _, _ = run(capsys, "solve", str(CORPUS / "ex5.olp"), "--mode", "wfs", "--json")
        assert code == 0 and calls == {"well_founded_bits": 1}
        op = parse_program((CORPUS / "ex5.olp").read_text(encoding="utf-8"))
        classical.well_founded_model(op.rules, op.universe)
        assert calls == {"well_founded_bits": 2}


class TestDefeatSetsScale:
    """The scanning engines read the order and the defeat relation as
    bitsets: no solve rescans the rules below or above a tested rule."""

    @pytest.fixture(scope="class")
    def chain200(self, tmp_path_factory):
        from olp.oracle import chain_program
        from olp.parser import render_program

        path = tmp_path_factory.mktemp("chain") / "chain200.olp"
        path.write_text(render_program(chain_program(200)) + "\n")
        return path

    @pytest.mark.parametrize("mode", ["brewka", "pwfs-simplistic", "lfp-ap"])
    def test_solve_calls_no_defeats_scan(self, capsys, monkeypatch, chain200, mode):
        from olp import prefwfs

        calls = _count_every_binding(monkeypatch, ("defeats",), source=prefwfs)
        code, out, _ = run(capsys, "solve", str(chain200), "--mode", mode, "--json")
        assert code == 0 and json.loads(out)["mode"] == mode
        assert calls == {}

    def test_brewka_trace_computes_hit_once_per_step(self, capsys, monkeypatch, chain200):
        from olp import prefwfs

        calls = _count_every_binding(monkeypatch, ("hit_bits",), source=prefwfs)
        argv = ["solve", str(chain200), "--mode", "brewka", "--json"]
        assert run(capsys, *argv)[0] == 0
        untraced = calls.pop("hit_bits")
        code, out, _ = run(capsys, *argv, "--trace")
        assert code == 0
        assert calls["hit_bits"] <= untraced + len(json.loads(out)["trace"])

    def test_no_tuple_views_of_the_order(self):
        from olp import brewka, prefwfs
        from olp.syntax import OrderedProgram

        assert not hasattr(OrderedProgram, "rules_above")
        assert not hasattr(OrderedProgram, "rules_below")
        # perfbench's tracer names brewka.defeated_rules.
        assert brewka.defeated_rules is prefwfs.defeated_rules


class TestAnswerSetSearch:
    """On a chain the well-founded model is total, so the answer-set bounds
    decide every head and the search never branches."""

    @pytest.mark.parametrize("n", [60, 300])
    def test_chain_has_the_wfs_true_set_as_its_only_answer_set(self, capsys, tmp_path, n):
        from olp.oracle import chain_program
        from olp.parser import render_program

        path = tmp_path / f"chain{n}.olp"
        path.write_text(render_program(chain_program(n)) + "\n")
        code, out, _ = run(capsys, "solve", str(path), "--mode", "as", "--json")
        assert code == 0
        code, wfs, _ = run(capsys, "solve", str(path), "--mode", "wfs", "--json")
        assert code == 0 and not json.loads(wfs)["unknown"]
        assert json.loads(out)["answer_sets"] == [json.loads(wfs)["true"]]

    def test_cap_message_names_the_undecided_heads(self, capsys, tmp_path):
        path = tmp_path / "loops.olp"
        path.write_bytes(ELEVEN_EVEN_LOOPS)
        code, _, err = run(capsys, "solve", str(path), "--mode", "as")
        assert code == 1
        assert err == "error: answer-set search over 22 undecided heads is not desk-scale\n"


class TestFuzz:
    def test_small_run_emits_json_lines(self, capsys):
        code, out, err = run(capsys, "fuzz", "--seed", "5", "--count", "3")
        assert code == 0
        for line in out.strip().splitlines():
            record = json.loads(line)
            assert record["status"] in ("pass", "skip")
        assert "3 programs" in err

    def test_failures_only_prints_nothing_without_a_failure(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--count", "3", "--failures-only")
        assert (code, out) == (0, "")

    def test_failures_only_prints_exactly_the_failing_records(self, capsys, monkeypatch):
        from olp import oracle
        from olp.oracle import CheckResult, TheoremReport

        results = (
            CheckResult("a-pass", "pass"),
            CheckResult("a-fail", "fail", "{a} vs {}"),
            CheckResult("a-skip", "skip", "no case"),
            CheckResult("another-fail", "fail"),
        )
        report = TheoremReport(7, "0123456789ab", results)
        monkeypatch.setattr(oracle, "check_theorems", lambda op, seed: report)
        code, out, err = run(capsys, "fuzz", "--count", "2", "--failures-only")
        fail_lines = [
            line for line in report.json_lines() if json.loads(line)["status"] == "fail"
        ]
        assert code == 1
        assert out.splitlines() == fail_lines * 2
        assert "4 invariant failures" in err


class TestConsoleScript:
    def test_entry_point_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "olp.cli", "check", str(CORPUS / "ex3.olp")],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert result.returncode == 0
        assert result.stdout.startswith("r1: a :- not b.")

    def test_a_solve_does_not_load_the_oracle(self):
        script = (
            "import sys\n"
            "import olp.cli\n"
            "loaded = 'olp.oracle' in sys.modules\n"
            "olp.cli.main(['solve', sys.argv[1], '--mode', 'brewka', '--json'])\n"
            "print(loaded, 'olp.oracle' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(CORPUS / "ex3.olp")],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False False"

    def test_the_package_still_exports_the_oracle_names(self):
        import olp
        from olp import oracle

        for name in (
            "GeneratorConfig", "UniverseTooLarge", "check_theorems", "enumerate_subsets",
            "generate_program", "oracle_answer_sets", "oracle_cn",
        ):
            assert getattr(olp, name) is getattr(oracle, name)
        with pytest.raises(AttributeError):
            olp.no_such_name



if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as workdir:
        texts = _trace_texts(Path(workdir))
    TRACE_TEXTS.write_text(json.dumps(texts, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(texts)} outputs in {TRACE_TEXTS}", file=sys.stderr)
