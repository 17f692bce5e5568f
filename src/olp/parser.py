"""Parser and renderer for the textual ``.olp`` program format.

Grammar (whitespace insignificant, ``%`` comments to end of line)::

    program   := (stmt)*
    stmt      := rule | pref
    rule      := [name ":"] literal [":-" body] "."
    body      := bodyelem ("," bodyelem)*
    bodyelem  := literal | "not" literal
    literal   := ["-"] ident
    pref      := name "<" name "."

``r2 < r1.`` records the pair (r2, r1): r1 has higher priority.  Preference
statements may appear anywhere; rule names are resolved at end of parse.
Unnamed rules are assigned r1, r2, ... in source order, skipping names
taken explicitly elsewhere.  The word ``not`` is reserved and cannot be
used as a rule name or atom; ``Atom`` and ``Rule`` reject it too, so every
program the API builds renders to text that parses back to it.

The words are those ``str.split`` finds once the punctuation is padded.  A
regex scan runs only to report a failed parse: it finds the first stray
character, or else the span of the word the parse failed at.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass

from .syntax import (
    CycleError,
    DuplicateRuleError,
    Literal,
    OrderedProgram,
    ProgramError,
    Rule,
    UnknownRuleError,
    pos,
    validate_order,
)

__all__ = [
    "SourceSpan",
    "ParseError",
    "ParseErrorKind",
    "parse_program",
    "render_program",
]


@dataclass(frozen=True)
class SourceSpan:
    """1-based line/column position and length of a source region."""

    line: int
    column: int
    length: int

    def __post_init__(self):
        if self.line < 1 or self.column < 1 or self.length < 0:
            raise ValueError(f"invalid span {self}")

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseErrorKind(enum.Enum):
    LEXICAL = "lexical"
    SYNTAX = "syntax"
    DUPLICATE_NAME = "duplicate-name"
    CYCLIC_ORDER = "cyclic-order"
    UNKNOWN_RULE = "unknown-rule"


class ParseError(Exception):
    def __init__(self, kind: ParseErrorKind, span: SourceSpan, message: str):
        super().__init__(f"{span}: {kind.value}: {message}")
        self.kind = kind
        self.span = span
        self.message = message


_COMMENT_RE = re.compile(r"%[^\n]*")
# Whitespace is these four characters only: \s and str.split would also
# skip \x0b, \xa0 or \u2028, which are stray characters here.
_WORD_RE = re.compile(r"[a-z][A-Za-z0-9_]*|:-|[^ \t\r\n]")
# A stray is a one-character word of _WORD_RE that is no mark: a character
# outside the identifiers, marks and whitespace, or a capital, digit or
# underscore that starts a run of identifier characters.
_STRAY_RE = re.compile(r"[^A-Za-z0-9_ \t\r\n:<,.-]|(?<![A-Za-z0-9_])[A-Z0-9_]")
# The words that are not identifiers: the punctuation marks, the reserved
# word not, and "" at the end of the input.
_RESERVED = frozenset({":-", ":", "<", ",", ".", "-", "not", ""})
_NO_LITERALS: frozenset[Literal] = frozenset()


class _Failure(Exception):
    """A failed parse: the index of the word at fault, its kind and message."""


def _expected(words: list[str], k: int, what: str) -> _Failure:
    found = words[k] or "end of input"
    return _Failure(k, ParseErrorKind.SYNTAX, f"expected {what}, found {found!r}")


def parse_program(text: str) -> OrderedProgram:
    """Parse ``.olp`` text into a validated program.

    Raises ParseError with a span inside the input and one of the kinds
    lexical, syntax, duplicate-name, cyclic-order, unknown-rule.  A stray
    character is reported before any other error.  Each atom's two literals
    are looked up once per parse, and those pairs are the program's universe.
    """
    code = _COMMENT_RE.sub("", text) if "%" in text else text
    failure = None
    # In ASCII, str.split skips only these six besides the four, so a text
    # outside this guard holds a stray.  A parse that succeeds has checked
    # every word: an atom or rule name as an identifier, a preference name
    # against the rule names, any other word against a mark.  So a stray
    # fails a parse, and the split words of a text with no stray are the
    # scan's.  ":-" alone pads to ":  -".
    if code.isascii() and not any(c in code for c in "\x0b\x0c\x1c\x1d\x1e\x1f"):
        spaced = code.replace(",", " , ").replace(".", " . ").replace("<", " < ")
        spaced = spaced.replace(":", " : ").replace("-", " - ").replace(":  -", ":-")
        try:
            return _parse_words([*spaced.split(), ""])
        except _Failure as exc:  # its args alone, so the partial program goes
            failure = exc.args
        except ProgramError:  # Atom or Rule refused a name: a stray made it
            pass
    # Only a failed parse scans the text: for a stray, else for the failed
    # word.  Comments are blanked to spaces, which keeps every offset; every
    # character is one column, and the final word "" sits at the end.
    if "%" in text:
        text = _COMMENT_RE.sub(lambda comment: " " * len(comment[0]), text)
    match = _STRAY_RE.search(text)
    if match:
        kind, message = ParseErrorKind.LEXICAL, f"unexpected character {match[0]!r}"
    else:
        k, kind, message = failure
        match = next(itertools.islice(_WORD_RE.finditer(text), k, None), None)
    offset, length = (match.start(), len(match[0])) if match else (len(text), 0)
    line_start = text.rfind("\n", 0, offset) + 1
    span = SourceSpan(text.count("\n", 0, offset) + 1, offset - line_start + 1, length)
    raise ParseError(kind, span, message)


def _parse_words(words: list[str]) -> OrderedProgram:
    """The program that ``words`` spell."""
    literals: dict[str, tuple[Literal, Literal]] = {}  # atom -> (positive, negated)
    rules: list = []  # a Rule, or an unnamed rule's (head, pbody, nbody)
    unnamed: list[int] = []  # positions of the unnamed rules in ``rules``
    pairs: dict[tuple[str, str], int] = {}  # (lower, higher) -> index of its first lower word
    i = 0
    while word := words[i]:
        # Every word but "" has a successor, and so does a name before "<".
        follow = words[i + 1]
        if word not in _RESERVED and follow == "<":
            if words[i + 2] in _RESERVED:
                raise _expected(words, i + 2, "a rule name")
            if words[i + 3] != ".":
                raise _expected(words, i + 3, "'.'")
            pairs.setdefault((word, words[i + 2]), i)
            i += 4
            continue
        if word not in _RESERVED and follow == ":":
            name = word
            i += 2
        elif word in _RESERVED and word != "-":
            message = f"expected a rule or preference, found {word!r}"
            raise _Failure(i, ParseErrorKind.SYNTAX, message)
        else:
            name = None
        # The head, then body elements; "not" is read only in the body.
        head = None
        pbody: list[Literal] = []
        nbody: list[Literal] = []
        separator = ":-"
        while True:
            default_negated = head is not None and words[i] == "not"
            i += default_negated
            negated = words[i] == "-"
            i += negated
            atom = words[i]
            if atom in _RESERVED:
                raise _expected(words, i, "an atom")
            pair = literals.get(atom)
            if pair is None:
                positive = pos(atom)
                pair = literals[atom] = (positive, positive.complement())
            lit = pair[negated]
            if head is None:
                head = lit
            else:
                (nbody if default_negated else pbody).append(lit)
            i += 1
            if words[i] != separator:
                break
            i += 1
            separator = ","
        if words[i] != ".":
            raise _expected(words, i, "'.'")
        i += 1
        # Bodies are often empty; they share one empty set.
        pbody = frozenset(pbody) if pbody else _NO_LITERALS
        nbody = frozenset(nbody) if nbody else _NO_LITERALS
        if name is None:
            unnamed.append(len(rules))
            rules.append((head, pbody, nbody))
        else:
            rules.append(Rule(name, head, pbody, nbody))

    if unnamed:
        taken = {r.name for r in rules if isinstance(r, Rule)}
        counter = 1
        for k in unnamed:
            while f"r{counter}" in taken:
                counter += 1
            rules[k] = Rule(f"r{counter}", *rules[k])
            counter += 1

    try:
        order = validate_order(pairs, rules)
    except DuplicateRuleError as exc:
        # Only explicit names can repeat; point at the second one.
        at = [k for k, w in enumerate(words) if w == exc.name and words[k + 1] == ":"][1]
        message = f"rule name {exc.name!r} is already in use"
        raise _Failure(at, ParseErrorKind.DUPLICATE_NAME, message)
    except UnknownRuleError:
        # Name the first unknown rule in source order.
        taken = {r.name for r in rules}
        at, name = next((k, n) for (a, b), k in pairs.items() for n in (a, b) if n not in taken)
        message = f"preference mentions unknown rule {name!r}"
        raise _Failure(at, ParseErrorKind.UNKNOWN_RULE, message)
    except CycleError as exc:
        at = next(k for (a, b), k in pairs.items() if exc.name in (a, b))
        message = f"cyclic preference through rule {exc.name!r}"
        raise _Failure(at, ParseErrorKind.CYCLIC_ORDER, message)
    op = OrderedProgram(tuple(rules), order)
    # The parse has met every atom, so it hands over the program's universe,
    # the set literal_universe defines: both literals of each atom.
    vars(op)["universe"] = frozenset(itertools.chain.from_iterable(literals.values()))
    return op


def render_program(p: OrderedProgram) -> str:
    """Canonical text: rules in source order, then sorted preference pairs.

    Every rule is rendered with its name; body literals are sorted, positive
    elements first.  ``parse_program(render_program(p))`` reproduces p.
    """
    return f"{p}\n" if p.rules else ""
