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
import re
from dataclasses import dataclass

from .syntax import (
    Atom,
    CycleError,
    Literal,
    OrderedProgram,
    Rule,
    UnknownRuleError,
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


# One match per token: the whitespace and comments before it, then an
# identifier (group 1), a punctuation mark (group 2), a stray character
# (group 3), or no group at the end of the input.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]|%[^\n]*)*(?:([a-z][A-Za-z0-9_]*)|(:-|[:<,.-])|(.)|\Z)", re.DOTALL
)


def _error(text: str, kind: ParseErrorKind, token: tuple, message: str) -> ParseError:
    """An error spanning ``token``; every character is one column."""
    _, word, offset = token
    line_start = text.rfind("\n", 0, offset) + 1
    span = SourceSpan(text.count("\n", 0, offset) + 1, offset - line_start + 1, len(word))
    return ParseError(kind, span, message)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` tuples ending with an ``eof`` token; the
    kind is ``ident``, ``not`` or the punctuation mark itself."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        group = match.lastindex
        if group is None:
            break
        word, offset = match[group], match.start(group)
        if group == 3:
            message = f"unexpected character {word!r}"
            raise _error(text, ParseErrorKind.LEXICAL, (word, word, offset), message)
        kind = word if group == 2 else "not" if word == "not" else "ident"
        tokens.append((kind, word, offset))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens of ``text``.

    Each distinct literal is built once per parse: rules share literal and
    atom objects, and a literal and its complement cache each other.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.literals: dict[tuple[str, bool], Literal] = {}

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        # Nothing is taken past eof, and nothing looks ahead from it.
        return self.tokens[self.pos + ahead]

    def take(self) -> tuple[str, str, int]:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def accept(self, kind: str) -> bool:
        """Take the next token if it is of ``kind``."""
        if self.tokens[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            found = tok[1] or "end of input"
            raise _error(self.text, ParseErrorKind.SYNTAX, tok, f"expected {what}, found {found!r}")
        self.pos += 1
        return tok

    def literal(self) -> Literal:
        negated = self.accept("-")
        name = self.expect("ident", "an atom")[1]
        lit = self.literals.get((name, negated))
        if lit is None:
            twin = self.literals.get((name, not negated))
            lit = twin.complement() if twin else Literal(Atom(name), negated)
            self.literals[name, negated] = lit
        return lit

    def rule_tail(self, name_tok: tuple[str, str, int] | None):
        head = self.literal()
        pbody: list[Literal] = []
        nbody: list[Literal] = []
        if self.accept(":-"):
            while True:
                (nbody if self.accept("not") else pbody).append(self.literal())
                if not self.accept(","):
                    break
        self.expect(".", "'.'")
        return name_tok, head, frozenset(pbody), frozenset(nbody)


def parse_program(text: str) -> OrderedProgram:
    """Parse ``.olp`` text into a validated program.

    Raises ParseError with a span inside the input and one of the kinds
    lexical, syntax, duplicate-name, cyclic-order, unknown-rule.
    """
    parser = _Parser(text)
    raw_rules = []
    prefs: list[tuple[tuple[str, str, int], str]] = []
    while (tok := parser.peek())[0] != "eof":
        ahead = parser.peek(1)[0]
        if tok[0] == "ident" and ahead == ":":
            parser.take()
            parser.take()
            raw_rules.append(parser.rule_tail(tok))
        elif tok[0] == "ident" and ahead == "<":
            parser.take()
            parser.take()
            higher = parser.expect("ident", "a rule name")[1]
            parser.expect(".", "'.'")
            prefs.append((tok, higher))
        elif tok[0] in ("ident", "-"):
            raw_rules.append(parser.rule_tail(None))
        else:
            message = f"expected a rule or preference, found {tok[1]!r}"
            raise _error(text, ParseErrorKind.SYNTAX, tok, message)

    taken: set[str] = set()
    for name_tok, *_ in raw_rules:
        if name_tok is not None:
            if name_tok[1] in taken:
                message = f"rule name {name_tok[1]!r} is already in use"
                raise _error(text, ParseErrorKind.DUPLICATE_NAME, name_tok, message)
            taken.add(name_tok[1])

    rules: list[Rule] = []
    counter = 1
    for name_tok, head, pbody, nbody in raw_rules:
        name = name_tok and name_tok[1]
        if name is None:
            while f"r{counter}" in taken:
                counter += 1
            name = f"r{counter}"
            taken.add(name)
            counter += 1
        rules.append(Rule(name, head, pbody, nbody))

    try:
        order = validate_order({(a[1], b) for a, b in prefs}, rules)
    except UnknownRuleError as exc:
        # Name the first unknown rule in source order.
        lower, name = next((a, n) for a, b in prefs for n in (a[1], b) if n not in taken)
        message = f"preference mentions unknown rule {name!r}"
        raise _error(text, ParseErrorKind.UNKNOWN_RULE, lower, message) from exc
    except CycleError as exc:
        lower = next(a for a, b in prefs if exc.name in (a[1], b))
        message = f"cyclic preference through rule {exc.name!r}"
        raise _error(text, ParseErrorKind.CYCLIC_ORDER, lower, message) from exc
    return OrderedProgram(tuple(rules), order)


def render_program(p: OrderedProgram) -> str:
    """Canonical text: rules in source order, then sorted preference pairs.

    Every rule is rendered with its name; body literals are sorted, positive
    elements first.  ``parse_program(render_program(p))`` reproduces p.
    """
    lines = [str(r) for r in p.rules]
    lines += [f"{a} < {b}." for a, b in sorted(p.order.generators)]
    return "".join(line + "\n" for line in lines)
