"""Parse gate: ``parse_program`` must answer every recorded text as before.

``parse_digests.json`` holds 2,200 seeded mutations of the corpus texts
and of small chain and random texts, then a second seeded batch of 500
whose pieces add characters that ``str.split`` takes for whitespace and
identifier characters, each with what
``parse_program`` made of it when recorded: ``ok`` and the sha256 of the
``render_program`` output, or the error as ``kind line:column length
message``.  A mutation deletes, inserts or replaces one to three pieces of
text, drawn from the words and characters below, so most texts are
malformed and the error kinds, spans and messages are pinned as tightly as
the canonical output of the well-formed ones.  A rewrite of the parser
must reproduce every record.  After an intended change of behaviour,
re-record with

    PYTHONPATH=src python -m tests.test_parse_digests
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from olp.oracle import GeneratorConfig, chain_program, generate_program
from olp.parser import ParseError, parse_program, render_program

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "parse_digests.json"
MUTATION_SEED = 20261018
MUTANTS_PER_TEXT = 50
PIECES = (
    "a", "b", "p0", "r1", "r2", "r9", "not", "-", ":-", ":", "<", ",", ".", "%",
    " ", "\t", "\r", "\n", "A", "1", "é", "\x0c", "\x00", "﻿",
)
SECOND_SEED = 20261020
SECOND_COUNT = 500
SECOND_PIECES = PIECES + ("\x0b", "\x1c", "\x1f", "\x85", "_", "aB")


def outcome(text: str) -> str:
    try:
        rendered = render_program(parse_program(text))
    except ParseError as err:
        span = err.span
        return f"{err.kind.value} {span.line}:{span.column} {span.length} {err.message}"
    return "ok " + hashlib.sha256(rendered.encode()).hexdigest()


def _base_texts() -> list[str]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    texts = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "corpus").glob("*.olp"))]
    texts += [workloads.chain_text(seed, n) for seed, n in ((1, 3), (2, 5), (3, 8))]
    texts += [workloads.random_text(k, 8, 10, seed=k) for k in range(14, 20)]
    texts += [render_program(chain_program(n)) for n in (2, 4)]
    for seed in range(24):
        op = generate_program(GeneratorConfig(seed=seed, order_density=0.3))
        texts.append(render_program(op))
    # Unnamed rules, comments, tabs and CRLF line ends; then texts whose
    # mutations mostly keep a cycle, a duplicate name or an unknown rule.
    texts.append("% head\na :- not b.\r\n\tr2: b :- not a. % tail\r\n-c :- a, not -b.\nr2 < r1.\n")
    texts.append("r1: a.\nr2: b :- not a.\nr3: c.\nr1 < r2.\nr2 < r3.\nr3 < r1.\n")
    texts.append("r1: a.\nr2: -b :- a.\nr1: b :- not -b.\nr2 < r1.\n")
    texts.append("a.\nb :- not a.\nr1 < r2.\nr2 < r9.\n")
    return texts


def _mutate(text: str, rng: random.Random, pieces: tuple[str, ...] = PIECES) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        cut = rng.randint(1, 3)
        edit = rng.choice(("delete", "insert", "replace"))
        if edit == "delete":
            text = text[:at] + text[at + cut:]
        elif edit == "insert":
            text = text[:at] + rng.choice(pieces) + text[at:]
        else:
            text = text[:at] + rng.choice(pieces) + text[at + cut:]
    return text


def mutations() -> list[str]:
    """The first batch, every base text mutated alike, then the second,
    each text a mutation of a base text drawn at random."""
    texts = _base_texts()
    rng = random.Random(MUTATION_SEED)
    first = [_mutate(text, rng) for text in texts for _ in range(MUTANTS_PER_TEXT)]
    rng = random.Random(SECOND_SEED)
    return first + [_mutate(rng.choice(texts), rng, SECOND_PIECES) for _ in range(SECOND_COUNT)]


def test_parse_outcomes_match_the_records():
    cases = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert len(cases) == len(_base_texts()) * MUTANTS_PER_TEXT + SECOND_COUNT
    changed = [(text, want, got) for text, want in cases if (got := outcome(text)) != want]
    assert not changed, f"{len(changed)} outcomes changed, first: {changed[:3]}"


if __name__ == "__main__":
    cases = [[text, outcome(text)] for text in mutations()]
    DIGESTS.write_text("[\n" + ",\n".join(map(json.dumps, cases)) + "\n]\n")
    errors = sum(not want.startswith("ok ") for _, want in cases)
    print(f"recorded {len(cases)} outcomes ({errors} errors) in {DIGESTS}", file=sys.stderr)
