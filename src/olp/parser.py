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
used as a rule name or atom.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass

from .syntax import (
    CycleError,
    Literal,
    OrderedProgram,
    Rule,
    UnknownRuleError,
    interned_literal,
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


# One match per word: the whitespace and comments before it, then an
# identifier, a punctuation mark, a stray character, or "" at the end of
# the input.  A word's kind is read off the word itself.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]|%[^\n]*)*([a-z][A-Za-z0-9_]*|:-|[:<,.-]|.|\Z)", re.DOTALL
)
# The words that are not identifiers: the punctuation marks, the reserved
# word not, and "" at the end of the input.
_RESERVED = frozenset({":-", ":", "<", ",", ".", "-", "not", ""})


def _error(text: str, k: int, kind: ParseErrorKind, message: str) -> ParseError:
    """An error spanning word ``k`` of ``text``; every character is one column.

    Offsets are found again only here, so a parse that succeeds keeps none.
    """
    match = next(itertools.islice(_TOKEN_RE.finditer(text), k, None))
    offset = match.start(1)
    line_start = text.rfind("\n", 0, offset) + 1
    span = SourceSpan(text.count("\n", 0, offset) + 1, offset - line_start + 1, len(match[1]))
    return ParseError(kind, span, message)


def _expected(text: str, words: list[str], k: int, what: str) -> ParseError:
    found = words[k] or "end of input"
    return _error(text, k, ParseErrorKind.SYNTAX, f"expected {what}, found {found!r}")


def parse_program(text: str) -> OrderedProgram:
    """Parse ``.olp`` text into a validated program.

    Raises ParseError with a span inside the input and one of the kinds
    lexical, syntax, duplicate-name, cyclic-order, unknown-rule.  The text
    is split into words by one regex scan; a stray character anywhere is
    reported before any syntax error.  Each atom's two literals are looked
    up once per parse, as the complement pair interned for its name: rules
    share literal and atom objects, within a parse and across parses.
    """
    words = _TOKEN_RE.findall(text)
    strays = [w for w in set(words) if w not in _RESERVED and not "a" <= w[0] <= "z"]
    if strays:
        k = min(map(words.index, strays))
        raise _error(text, k, ParseErrorKind.LEXICAL, f"unexpected character {words[k]!r}")

    literals: dict[str, tuple[Literal, Literal]] = {}  # atom -> (positive, negated)
    raw_rules = []  # (index of the name word or None, head, pbody, nbody)
    prefs: list[tuple[int, str, str]] = []  # (index of the lower word, lower, higher)
    i = 0
    while word := words[i]:
        # Every word but "" has a successor, and so does a name before "<".
        follow = words[i + 1]
        if word not in _RESERVED and follow == "<":
            if words[i + 2] in _RESERVED:
                raise _expected(text, words, i + 2, "a rule name")
            if words[i + 3] != ".":
                raise _expected(text, words, i + 3, "'.'")
            prefs.append((i, word, words[i + 2]))
            i += 4
            continue
        if word not in _RESERVED and follow == ":":
            name_at = i
            i += 2
        elif word in _RESERVED and word != "-":
            message = f"expected a rule or preference, found {word!r}"
            raise _error(text, i, ParseErrorKind.SYNTAX, message)
        else:
            name_at = None
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
            name = words[i]
            if name in _RESERVED:
                raise _expected(text, words, i, "an atom")
            pair = literals.get(name)
            if pair is None:
                positive = interned_literal(name)
                pair = literals[name] = (positive, positive.complement())
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
            raise _expected(text, words, i, "'.'")
        i += 1
        raw_rules.append((name_at, head, frozenset(pbody), frozenset(nbody)))

    taken: set[str] = set()
    for name_at, *_ in raw_rules:
        if name_at is not None:
            if words[name_at] in taken:
                message = f"rule name {words[name_at]!r} is already in use"
                raise _error(text, name_at, ParseErrorKind.DUPLICATE_NAME, message)
            taken.add(words[name_at])

    rules: list[Rule] = []
    counter = 1
    for name_at, head, pbody, nbody in raw_rules:
        if name_at is not None:
            name = words[name_at]
        else:
            while f"r{counter}" in taken:
                counter += 1
            name = f"r{counter}"
            taken.add(name)
            counter += 1
        rules.append(Rule(name, head, pbody, nbody))

    try:
        order = validate_order({(a, b) for _, a, b in prefs}, rules)
    except UnknownRuleError as exc:
        # Name the first unknown rule in source order.
        at, name = next((k, n) for k, a, b in prefs for n in (a, b) if n not in taken)
        message = f"preference mentions unknown rule {name!r}"
        raise _error(text, at, ParseErrorKind.UNKNOWN_RULE, message) from exc
    except CycleError as exc:
        at = next(k for k, a, b in prefs if exc.name in (a, b))
        message = f"cyclic preference through rule {exc.name!r}"
        raise _error(text, at, ParseErrorKind.CYCLIC_ORDER, message) from exc
    return OrderedProgram(tuple(rules), order)


def render_program(p: OrderedProgram) -> str:
    """Canonical text: rules in source order, then sorted preference pairs.

    Every rule is rendered with its name; body literals are sorted, positive
    elements first.  ``parse_program(render_program(p))`` reproduces p.
    """
    lines = [str(r) for r in p.rules]
    lines += [f"{a} < {b}." for a, b in sorted(p.order.generators)]
    return "".join(line + "\n" for line in lines)
