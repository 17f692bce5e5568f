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


_PUNCT = {":-": ":-", "<": "<", ",": ",", ".": ".", ":": ":", "-": "-"}


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "not", one of _PUNCT values, or "eof"
    text: str
    span: SourceSpan


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if text.startswith(":-", i):
            tokens.append(_Token(":-", ":-", SourceSpan(line, col, 2)))
            i += 2
            col += 2
            continue
        if ch in ":<,.-":
            tokens.append(_Token(ch, ch, SourceSpan(line, col, 1)))
            i += 1
            col += 1
            continue
        if ch.isascii() and ch.islower():
            start = i
            startcol = col
            while i < n and (text[i].isascii() and (text[i].isalnum() or text[i] == "_")):
                i += 1
                col += 1
            word = text[start:i]
            span = SourceSpan(line, startcol, len(word))
            kind = "not" if word == "not" else "ident"
            tokens.append(_Token(kind, word, span))
            continue
        raise ParseError(
            ParseErrorKind.LEXICAL,
            SourceSpan(line, col, 1),
            f"unexpected character {ch!r}",
        )
    tokens.append(_Token("eof", "", SourceSpan(line, col, 0)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                ParseErrorKind.SYNTAX,
                tok.span,
                f"expected {what}, found {tok.text or 'end of input'!r}",
            )
        return self.take()

    def literal(self) -> Literal:
        negated = False
        if self.peek().kind == "-":
            self.take()
            negated = True
        tok = self.expect("ident", "an atom")
        return Literal(Atom(tok.text), negated)

    def rule_tail(self, name: str | None, name_span: SourceSpan | None):
        head = self.literal()
        pbody: list[Literal] = []
        nbody: list[Literal] = []
        if self.peek().kind == ":-":
            self.take()
            while True:
                if self.peek().kind == "not":
                    self.take()
                    nbody.append(self.literal())
                else:
                    pbody.append(self.literal())
                if self.peek().kind != ",":
                    break
                self.take()
        self.expect(".", "'.'")
        return name, name_span, head, frozenset(pbody), frozenset(nbody)


def parse_program(text: str) -> OrderedProgram:
    """Parse ``.olp`` text into a validated program.

    Raises ParseError with a span inside the input and one of the kinds
    lexical, syntax, duplicate-name, cyclic-order, unknown-rule.
    """
    parser = _Parser(_tokenize(text))
    raw_rules = []
    prefs: list[tuple[str, str, SourceSpan]] = []
    while parser.peek().kind != "eof":
        tok = parser.peek()
        if tok.kind == "ident" and parser.peek(1).kind == ":":
            name_tok = parser.take()
            parser.take()
            raw_rules.append(parser.rule_tail(name_tok.text, name_tok.span))
        elif tok.kind == "ident" and parser.peek(1).kind == "<":
            lower = parser.take()
            parser.take()
            higher = parser.expect("ident", "a rule name")
            parser.expect(".", "'.'")
            prefs.append((lower.text, higher.text, lower.span))
        elif tok.kind in ("ident", "-"):
            raw_rules.append(parser.rule_tail(None, None))
        else:
            raise ParseError(
                ParseErrorKind.SYNTAX,
                tok.span,
                f"expected a rule or preference, found {tok.text or 'end of input'!r}",
            )

    explicit: dict[str, SourceSpan] = {}
    for name, span, *_ in raw_rules:
        if name is None:
            continue
        if name in explicit:
            raise ParseError(
                ParseErrorKind.DUPLICATE_NAME,
                span,  # type: ignore[arg-type]
                f"rule name {name!r} is already in use",
            )
        explicit[name] = span  # type: ignore[assignment]

    rules: list[Rule] = []
    counter = 1
    for name, _, head, pbody, nbody in raw_rules:
        if name is None:
            while f"r{counter}" in explicit:
                counter += 1
            name = f"r{counter}"
            explicit[name] = SourceSpan(1, 1, 0)
            counter += 1
        rules.append(Rule(name, head, pbody, nbody))

    for lower, higher, span in prefs:
        for name in (lower, higher):
            if name not in explicit:
                raise ParseError(
                    ParseErrorKind.UNKNOWN_RULE,
                    span,
                    f"preference mentions unknown rule {name!r}",
                )
    try:
        order = validate_order({(a, b) for a, b, _ in prefs}, rules)
    except CycleError as exc:
        span = next(
            s for a, b, s in prefs if exc.name in (a, b)
        )
        raise ParseError(
            ParseErrorKind.CYCLIC_ORDER,
            span,
            f"cyclic preference through rule {exc.name!r}",
        ) from exc
    except UnknownRuleError as exc:  # pragma: no cover - caught above
        raise ParseError(
            ParseErrorKind.UNKNOWN_RULE,
            parser.peek().span,
            str(exc),
        ) from exc
    return OrderedProgram(tuple(rules), order)


def render_program(p: OrderedProgram) -> str:
    """Canonical text: rules in source order, then sorted preference pairs.

    Every rule is rendered with its name; body literals are sorted, positive
    elements first.  ``parse_program(render_program(p))`` reproduces p.
    """
    lines = [str(r) for r in p.rules]
    lines += [f"{a} < {b}." for a, b in sorted(p.order.generators)]
    return "".join(line + "\n" for line in lines)
