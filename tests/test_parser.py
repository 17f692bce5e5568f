import os
import random
import re
import subprocess
import sys

import pytest

from olp.oracle import GeneratorConfig, generate_program
from olp.parser import ParseError, ParseErrorKind, SourceSpan, parse_program, render_program
from olp.syntax import OrderedProgram, literal_universe
from .conftest import A, B, NA, NP, ROOT, corpus_text

EX3_TEXT = "r1: a :- not b.\nr2: b :- not a.\nr2 < r1.\n"


class TestParse:
    def test_two_rule_cycle(self):
        p = parse_program(EX3_TEXT)
        assert [r.name for r in p.rules] == ["r1", "r2"]
        r1, r2 = p.rules
        assert r1.head == A and r1.nbody == frozenset({B}) and not r1.pbody
        assert r2.head == B and r2.nbody == frozenset({A})
        assert p.order.pairs == frozenset({("r2", "r1")})

    def test_empty_input(self):
        assert parse_program("") == OrderedProgram()

    def test_comments_and_whitespace_are_ignored(self):
        p = parse_program("% intro\n  r1:  a :-   not b . % tail\n")
        assert p.rules[0].nbody == frozenset({B})

    def test_classical_negation_in_all_positions(self):
        p = parse_program("r1: -a :- -b, not -p.\n")
        (r,) = p.rules
        assert r.head == NA and NP in r.nbody

    def test_facts_and_positive_bodies(self):
        p = parse_program("r1: a.\nr2: b :- a.\n")
        assert p.rules[0].pbody == frozenset()
        assert p.rules[1].pbody == frozenset({A})

    def test_unnamed_rules_get_source_order_names(self):
        p = parse_program("a :- not b.\nb.\n")
        assert [r.name for r in p.rules] == ["r1", "r2"]

    def test_auto_names_skip_taken_ones(self):
        p = parse_program("a.\nr1: b.\n")
        assert [r.name for r in p.rules] == ["r2", "r1"]

    def test_preferences_resolve_forward_references(self):
        p = parse_program("r2 < r1.\nr1: a.\nr2: b.\n")
        assert p.order.pairs == frozenset({("r2", "r1")})

    def test_duplicate_body_literals_collapse(self):
        p = parse_program("r1: a :- b, b, not c, not c.\n")
        assert len(p.rules[0].pbody) == 1 and len(p.rules[0].nbody) == 1


class TestUniverse:
    """The parse hands over each program's universe; ``literal_universe``
    still defines it."""

    def test_the_parsed_universe_is_literal_universe(self):
        sys.path.insert(0, str(ROOT / "perfbench"))
        import workloads

        texts = [corpus_text(name) for name in ["ex3", "ex4", "ex5", "ex7", "defeasible"]]
        texts += [workloads.chain_text(1, n) for n in (1, 2, 50, 300)]
        texts += [workloads.random_text(k, atoms, rules, seed=7)
                  for k, atoms, rules in ((0, 160, 200), (6, 64, 80), (14, 8, 12))]
        texts += ["r1: -a.\n", "% no rules\n", ""]
        for text in texts:
            op = parse_program(text)
            assert "universe" in vars(op)
            assert op.universe == literal_universe(op.rules)
        assert parse_program("r1: -a.\n").universe == frozenset({A, NA})


class TestParseErrors:
    def expect(self, text: str, kind: ParseErrorKind) -> ParseError:
        with pytest.raises(ParseError) as excinfo:
            parse_program(text)
        assert excinfo.value.kind is kind
        return excinfo.value

    def test_duplicate_name(self):
        err = self.expect("r1: a :- not b.\nr1: b.\n", ParseErrorKind.DUPLICATE_NAME)
        assert (err.span.line, err.span.column) == (2, 1)

    def test_cyclic_order(self):
        self.expect("r1: a.\nr2: b.\nr1 < r2.\nr2 < r1.\n", ParseErrorKind.CYCLIC_ORDER)

    def test_self_preference(self):
        self.expect("r1: a.\nr1 < r1.\n", ParseErrorKind.CYCLIC_ORDER)

    def test_unknown_rule(self):
        err = self.expect("r1: a.\nr1 < r9.\n", ParseErrorKind.UNKNOWN_RULE)
        assert err.span.line == 2

    def test_a_span_starts_at_line_and_column_one(self):
        assert str(SourceSpan(1, 1, 0)) == "1:1"
        for line, column, length in ((0, 1, 0), (1, 0, 0), (1, 1, -1)):
            with pytest.raises(ValueError):
                SourceSpan(line, column, length)

    def test_lexical_error_with_span(self):
        err = self.expect("r1: A.\n", ParseErrorKind.LEXICAL)
        assert (err.span.line, err.span.column) == (1, 5)

    def test_syntax_error_missing_dot(self):
        self.expect("r1: a :- not b\n", ParseErrorKind.SYNTAX)

    def test_a_failing_parse_scans_for_one_span(self, monkeypatch):
        # Only the failed parse's one error scans the text, for its span.
        import olp.parser

        pattern, scans = olp.parser._WORD_RE, []

        class Counting:
            def finditer(self, text):
                scans.append(text)
                return pattern.finditer(text)

        monkeypatch.setattr(olp.parser, "_WORD_RE", Counting())
        text = "r1: a :- not b\n"
        err = self.expect(text, ParseErrorKind.SYNTAX)
        assert scans.count(text) == 1 and (err.span.line, err.span.column) == (2, 1)

    def test_not_is_reserved_in_head_position(self):
        self.expect("not :- a.\n", ParseErrorKind.SYNTAX)

    def test_span_is_inside_the_input(self):
        for text in ["r1: a :- ,.\n", "r1: a.\nr1 < r9.\n", "?", "a :-"]:
            with pytest.raises(ParseError) as excinfo:
                parse_program(text)
            span = excinfo.value.span
            lines = text.splitlines() or [""]
            assert 1 <= span.line <= len(lines) + 1


# A 300-rule chain, so that an error appended to it sits at a late word.
CHAIN300 = "".join(f"r{k}: a{k} :- not a{k + 1}.\n" for k in range(1, 301)) + "".join(
    f"r{k + 1} < r{k}.\n" for k in range(1, 300)
)

# Recorded from the character-by-character scanner this table replaced; the
# regex scanner must report every malformed input exactly as it did.  The
# rows from "stray-after-late-syntax-error" on were recorded from the regex
# scanner that parsed every failing text a second time.
ERROR_TABLE = [
    ("tab-before-bad-char", 'r1:\ta :-\tb,\t?.\n', "lexical", 1, 13, 1, "unexpected character '?'"),
    ("tab-indented-lexical", '\tr1: a.\n\t\tr2: b :- A.\n', "lexical", 2, 12, 1, "unexpected character 'A'"),
    ("crlf-lexical", 'r1: a.\r\nr2: b :- ?.\r\n', "lexical", 2, 10, 1, "unexpected character '?'"),
    ("crlf-missing-dot", 'r1: a :- b\r\nr2: c.\r\n', "syntax", 2, 1, 2, "expected '.', found 'r2'"),
    ("non-ascii-comment", '% héllo ünïcöde → ∀x\nr1: a :- .\n', "syntax", 2, 10, 1, "expected an atom, found '.'"),
    ("comment-at-eof", 'r1: a :- b % trailing', "syntax", 1, 22, 0, "expected '.', found 'end of input'"),
    ("identifier-e-acute", 'r1: é.\n', "lexical", 1, 5, 1, "unexpected character 'é'"),
    ("identifier-uppercase-first", 'r1: a :- Bc.\n', "lexical", 1, 10, 1, "unexpected character 'B'"),
    ("identifier-digit-first", 'r1: a :- 1b.\n', "lexical", 1, 10, 1, "unexpected character '1'"),
    ("non-ascii-inside-identifier", 'r1: abéc.\n', "lexical", 1, 7, 1, "unexpected character 'é'"),
    ("lone-minus", '-\n', "syntax", 2, 1, 0, "expected an atom, found 'end of input'"),
    ("minus-minus", 'r1: --a.\n', "syntax", 1, 6, 1, "expected an atom, found '-'"),
    ("not-as-head", 'r1: not.\n', "syntax", 1, 5, 3, "expected an atom, found 'not'"),
    ("not-as-rule-name", 'not: a.\n', "syntax", 1, 1, 3, "expected a rule or preference, found 'not'"),
    ("not-not", 'r1: a :- not not b.\n', "syntax", 1, 14, 3, "expected an atom, found 'not'"),
    ("implies-at-eof", 'r1: a :-', "syntax", 1, 9, 0, "expected an atom, found 'end of input'"),
    ("pref-missing-higher", 'r1: a.\nr1 < .\n', "syntax", 2, 6, 1, "expected a rule name, found '.'"),
    ("duplicate-after-tab-line", 'r1: a.\n\tr2: b.\n\tr1: c.\n', "duplicate-name", 3, 2, 2, "rule name 'r1' is already in use"),
    ("unknown-lower-rule", 'a.\nr9 < r1.\n', "unknown-rule", 2, 1, 2, "preference mentions unknown rule 'r9'"),
    ("colon-without-name", ': a.\n', "syntax", 1, 1, 1, "expected a rule or preference, found ':'"),
    ("unknown-rule", 'r1: a.\nr2: b.\n\tr2 < r9.\n', "unknown-rule", 3, 2, 2, "preference mentions unknown rule 'r9'"),
    ("cycle", 'r1: a.\nr2: b.\nr3: c.\nr1 < r2.\nr2 < r3.\nr3 < r1.\n', "cyclic-order", 4, 1, 2, "cyclic preference through rule 'r1'"),
    ("form-feed", 'r1: a.\x0cr2: b.\n', "lexical", 1, 7, 1, "unexpected character '\\x0c'"),
    ("vertical-tab", 'r1: a.\x0br2: b.\n', "lexical", 1, 7, 1, "unexpected character '\\x0b'"),
    ("no-break-space", 'r1: a.\xa0r2: b.\n', "lexical", 1, 7, 1, "unexpected character '\\xa0'"),
    ("line-separator", 'r1: a.\u2028r2: b.\n', "lexical", 1, 7, 1, "unexpected character '\\u2028'"),
    ("file-separator", 'r1: a.\x1cr2: b.\n', "lexical", 1, 7, 1, "unexpected character '\\x1c'"),
    ("group-separator", 'r1: a.\x1dr2: b.\n', "lexical", 1, 7, 1, "unexpected character '\\x1d'"),
    ("record-separator", 'r1: a.\x1er2: b.\n', "lexical", 1, 7, 1, "unexpected character '\\x1e'"),
    ("unit-separator", 'r1: a.\x1fr2: b.\n', "lexical", 1, 7, 1, "unexpected character '\\x1f'"),
    ("next-line", 'r1: a.\x85r2: b.\n', "lexical", 1, 7, 1, "unexpected character '\\x85'"),
    ("ideographic-space", 'r1: a.\u3000r2: b.\n', "lexical", 1, 7, 1, "unexpected character '\\u3000'"),
    ("dangling-comma", 'r1: a :- b,.\n', "syntax", 1, 12, 1, "expected an atom, found '.'"),
    ("stray-after-late-syntax-error", CHAIN300 + 'r301: b :- c\nr302: d :- ?.\n', "lexical", 601, 12, 1, "unexpected character '?'"),
    ("stray-as-rule-name", 'A: a.\n', "lexical", 1, 1, 1, "unexpected character 'A'"),
    ("stray-as-atom", 'a :- B.\n', "lexical", 1, 6, 1, "unexpected character 'B'"),
    ("e-acute-after-duplicate", 'r1: a.\nr1: b.\nr2: é.\n', "lexical", 3, 5, 1, "unexpected character 'é'"),
    ("vertical-tab-after-duplicate", 'r1: a.\nr1: b.\n\x0br2: c.\n', "lexical", 3, 1, 1, "unexpected character '\\x0b'"),
    ("e-acute-after-unknown-rule", 'r1: a.\nr1 < r9.\nr2: b :- é.\n', "lexical", 3, 10, 1, "unexpected character 'é'"),
    ("vertical-tab-after-unknown-rule", 'r1: a.\nr1 < r9.\n\x0b\n', "lexical", 3, 1, 1, "unexpected character '\\x0b'"),
    ("e-acute-after-cycle", 'r1: a.\nr2: b.\nr1 < r2.\nr2 < r1.\n% ok é\nr3: cé.\n', "lexical", 6, 6, 1, "unexpected character 'é'"),
    ("vertical-tab-after-cycle", 'r1: a.\nr2: b.\nr1 < r2.\nr2 < r1.\nr3:\x0bc.\n', "lexical", 5, 4, 1, "unexpected character '\\x0b'"),
    ("late-unknown-rule", CHAIN300 + 'r301 < r300.\n', "unknown-rule", 600, 1, 4, "preference mentions unknown rule 'r301'"),
    ("late-duplicate-name", CHAIN300 + 'r300: b.\n', "duplicate-name", 600, 1, 4, "rule name 'r300' is already in use"),
    ("late-cycle", CHAIN300 + 'r301: b.\nr302: c.\nr301 < r302.\nr302 < r301.\n', "cyclic-order", 602, 1, 4, "cyclic preference through rule 'r301'"),
]


@pytest.mark.parametrize(
    "text, kind, line, column, length, message",
    [row[1:] for row in ERROR_TABLE],
    ids=[row[0] for row in ERROR_TABLE],
)
def test_parse_error_kind_span_and_message(text, kind, line, column, length, message):
    with pytest.raises(ParseError) as excinfo:
        parse_program(text)
    err = excinfo.value
    got = (err.kind.value, err.span.line, err.span.column, err.span.length, err.message)
    assert got == (kind, line, column, length, message)
    assert str(err) == f"{line}:{column}: {kind}: {message}"


def _inside_the_split_guard(text):
    code = re.sub(r"%[^\n]*", "", text)
    return code.isascii() and not any(c in code for c in "\x0b\x0c\x1c\x1d\x1e\x1f")


def test_a_text_is_parsed_at_most_once_and_scanned_only_when_it_fails(monkeypatch):
    # A failing text inside the split's guard is parsed once; one outside it
    # always holds a stray, which the scan reports with no parse at all.
    import olp.parser

    parse_words, runs, scans = olp.parser._parse_words, [], []

    def counting(*args):
        runs.append(args)
        return parse_words(*args)

    class Scanning:
        def __init__(self, pattern):
            self.pattern = pattern

        def __getattr__(self, name):
            scans.append(name)
            return getattr(self.pattern, name)

    monkeypatch.setattr(olp.parser, "_parse_words", counting)
    monkeypatch.setattr(olp.parser, "_WORD_RE", Scanning(olp.parser._WORD_RE))
    for name, text, *_ in ERROR_TABLE:
        runs.clear()
        with pytest.raises(ParseError):
            parse_program(text)
        assert len(runs) == _inside_the_split_guard(text), name
    for name in ("ex3", "ex4", "ex5", "ex7", "defeasible"):
        runs.clear()
        scans.clear()
        parse_program(corpus_text(name) + "% a comment, naïve\n")
        assert len(runs) == 1 and scans == [], name


def test_the_stray_pattern_finds_the_scans_first_stray_word():
    import olp.parser

    marks = {":-", ":", "<", ",", ".", "-"}
    rng = random.Random(0)
    for _ in range(3000):
        text = "".join(rng.choice("abzAZ09_ :-.,<\t\r\n\x0b\xa0\u00e9?") for _ in range(rng.randrange(12)))
        words = [m for m in olp.parser._WORD_RE.finditer(text) if m[0] not in marks]
        first = next((m for m in words if not "a" <= m[0][0] <= "z"), None)
        found = olp.parser._STRAY_RE.search(text)
        assert (found and (found.start(), found[0])) == (first and (first.start(), first[0])), text


# Rule r4 is above r2, r2 above r4 and r4 above itself: the cycle walk from
# r2 meets both r2 and r4 above r4, and takes the lower position.
BRANCHING_CYCLE = "q: c.\n-b.\nr4 < r2.\nr2 < r4.\nd :- not a, c.\nr4: d :- not a, a.\n-c.\nr4 < r4.\n"


def test_a_branching_cycle_names_one_rule_under_every_hash_seed(tmp_path):
    path = tmp_path / "cycle.olp"
    path.write_text(BRANCHING_CYCLE)
    errors = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(seed))
        done = subprocess.run(
            [sys.executable, "-m", "olp.cli", "check", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1 and done.stdout == ""
        errors.add(done.stderr)
    assert errors == {"error: 3:1: cyclic-order: cyclic preference through rule 'r2'\n"}


class TestRender:
    def test_canonical_form_of_the_two_rule_cycle(self):
        assert render_program(parse_program(EX3_TEXT)) == EX3_TEXT

    def test_empty_program_renders_empty(self):
        assert render_program(OrderedProgram()) == ""

    def test_round_trip_on_corpus(self):
        for name in ["ex3", "ex4", "ex5", "ex7", "defeasible"]:
            first = parse_program(corpus_text(name))
            assert parse_program(render_program(first)) == first

    def test_round_trip_on_generated_programs(self):
        for seed in range(200):
            p = generate_program(GeneratorConfig(seed=seed, order_density=0.3))
            rendered = render_program(p)
            again = parse_program(rendered)
            assert again == p
            assert render_program(again) == rendered

    def test_bodies_render_sorted_with_positive_first(self):
        p = parse_program("r1: a :- not c, b, not b2, z.\n")
        assert render_program(p) == "r1: a :- b, z, not b2, not c.\n"

    def test_generating_pairs_survive_a_round_trip(self, ex5):
        assert parse_program(render_program(ex5)).order.generators == frozenset(
            {("r3", "r2"), ("r2", "r1")}
        )
