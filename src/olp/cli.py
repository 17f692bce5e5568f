"""Command-line front end: check, solve, bench, fuzz.

``check FILE`` and ``solve FILE --mode M`` with exact switches are read
directly; argparse reads every other argv and prints all help and usage.

``solve`` renders every answer and trace from bitsets of literal ids:
true, false and unknown are int operations over the universe's bits,
``--atoms-only`` is one mask, and each literal's text comes from the
intern table (``syntax.texts_of``), so no literal set is decoded, built or
hashed, and no ``PartialModel`` is built.

Exit codes: 0 ok, 1 input error (parse, semantic, enumeration cap,
non-UTF-8 text or an out-of-range option value), 2 I/O error or an
argparse usage error (unknown ``--mode``, missing argument or unknown
command, with the usage text), 3 internal fixpoint divergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import replace
from typing import Callable, Sequence

from . import brewka, classical, preference, prefwfs
from .fixpoint import FixpointDivergence
from .oracle import GeneratorConfig, chain_program, check_theorems, generate_program
from .parser import ParseError, parse_program, render_program
from .syntax import (
    OrderedProgram, ProgramError, bit_positions, bits_at, bits_of, false_bits, texts_of,
)

__all__ = ["main"]

MODES = ("wfs", "pwfs", "pwfs-simplistic", "as", "pas", "brewka", "lfp-ap")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IO = 2
EXIT_DIVERGENCE = 3


class UsageError(Exception):
    """A command-line value outside the range its command accepts."""


def _shown(op: OrderedProgram, atoms_only: bool) -> Callable[[int], list[str]]:
    """How a listed set, a bitset, prints: all its literals sorted, or under
    ``--atoms-only`` without the classically negated literals the program
    never mentions."""
    if not atoms_only:
        return texts_of
    shown = bits_at([lit.id for lit in op.universe if not lit.negated])
    for r in op.rules:
        shown |= 1 << r.head_id | r.pmask | r.nmask
    return lambda bits: texts_of(bits & shown)


def _load_program(path: str) -> OrderedProgram:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_program(handle.read())


def cmd_check(args: argparse.Namespace) -> int:
    op = _load_program(args.file)
    sys.stdout.write(render_program(op))
    return EXIT_OK


def _trace(sets: Sequence[int], extra: Callable[[int], dict] | None) -> list[dict]:
    """The trace entries ``{"step": i, "set": ...}`` of the bitsets of a
    list of iterates; ``extra(i)`` adds a mode's own keys to entry i."""
    return [
        {"step": i, "set": texts_of(bits), **(extra(i) if extra else {})}
        for i, bits in enumerate(sets)
    ]


def _solve_payload(op: OrderedProgram, args: argparse.Namespace) -> dict:
    """The answer of ``args.mode`` and, under ``--trace``, the iterates
    that reached it."""
    mode, show = args.mode, _shown(op, args.atoms_only)
    names, sets, extra = op.order.rule_names, [], None
    if mode in ("as", "pas"):
        if mode == "as":
            found = classical.answer_sets(op.rules, op.universe)
        else:
            found = preference.preferred_answer_sets(op)
        payload = {"answer_sets": sorted(show(x.bits) for x in found)}
    elif mode == "lfp-ap":
        value, values = preference.lfp_ap_fixpoint(op)
        payload = {"set": show(value.bits)}
        sets = [x.bits for x in values]
    elif mode == "brewka":
        sets = [bits_of(x) for x in brewka.brewka_wf_iterates(op)]
        payload = {"wfset": show(sets[-1])}

        def extra(i):
            hit = prefwfs.hit_bits(op, sets[i])
            return {"defeated": {
                name: sorted(names[j] for j in bit_positions(prefwfs.defeat_bits(op, k, hit)))
                for k, name in enumerate(names)
            }}
    else:
        variant = {"wfs": None, "pwfs": "paper", "pwfs-simplistic": "simplistic"}[mode]
        if args.trace:
            lfp, supported, values = prefwfs.wf_model_trace(op, variant)
            true, sets = lfp.bits, [x.bits for x in values]
        else:  # no iterates to show, so an acyclic program is peeled
            true, supported = prefwfs.wf_model_bits(op, variant)
        universe = bits_at([lit.id for lit in op.universe])
        false = false_bits(universe, true, supported)
        payload = {
            "true": show(true),
            "false": show(false),
            "unknown": show(universe & ~true & ~false),
        }
        if variant is not None:

            def extra(i):
                # Removal sets at (iterate i, c_op of the previous iterate).
                if not i:
                    return {}
                context = classical.c_op(op.rules, values[i - 1], op.universe)
                removed = zip(names, prefwfs.removal_sets(op, values[i], context, variant))
                return {"dsets": {name: texts_of(bits) for name, bits in sorted(removed)}}
    payload["mode"] = mode
    if args.trace and sets:
        payload["trace"] = _trace(sets, extra)
    return payload


def _print_solve_text(payload: dict) -> None:
    mode = payload["mode"]
    if "true" in payload:
        parts = (", ".join(payload[key]) for key in ("true", "false", "unknown"))
        print("true: {%s} false: {%s} unknown: {%s}" % tuple(parts))
    elif "answer_sets" in payload:
        label = "answer set" if mode == "as" else "preferred answer set"
        if not payload["answer_sets"]:
            print(f"no {label}s")
        for literals in payload["answer_sets"]:
            print(f"{label}: {{{', '.join(literals)}}}")
    else:
        key = "set" if "set" in payload else "wfset"
        print(f"well-founded set: {{{', '.join(payload[key])}}}")
    for entry in payload.get("trace", ()):
        print(f"step {entry['step']}: {{{', '.join(entry['set'])}}}")
        for rule_name, removed in entry.get("dsets", {}).items():
            print(f"  D[{rule_name}] = {{{', '.join(removed)}}}")
        for rule_name, names in entry.get("defeated", {}).items():
            if names:
                print(f"  defeated[{rule_name}] = {{{', '.join(names)}}}")


def cmd_solve(args: argparse.Namespace) -> int:
    op = _load_program(args.file)
    payload = _solve_payload(op, args)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        _print_solve_text(payload)
    return EXIT_OK


def _fit_exponent(sizes: Sequence[int], times: Sequence[float]) -> float | None:
    """The least-squares slope of log time over log size, or None without
    two points at distinct sizes."""
    import statistics  # with decimal and fractions, ~5 ms that only `olp bench` needs
    points = [(math.log(n), math.log(t)) for n, t in zip(sizes, times) if t > 0]
    try:
        return statistics.linear_regression([x for x, _ in points], [y for _, y in points]).slope
    except statistics.StatisticsError:
        return None


def _sizes(text: str) -> list[int]:
    """The chain sizes of a comma-separated ``--sizes`` list."""
    error = UsageError(f"--sizes must list positive integers, got {text!r}")
    try:
        sizes = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise error from None
    if any(n < 1 for n in sizes):
        raise error
    return sizes


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = _sizes(args.sizes)
    wfs_times, pwfs_times = [], []
    for n in sizes:
        op = chain_program(n)
        t0 = time.perf_counter()
        classical.well_founded_model(op.rules, op.universe)
        t1 = time.perf_counter()
        prefwfs.preferred_wf_model(op)
        t2 = time.perf_counter()
        wfs_times.append(t1 - t0)
        pwfs_times.append(t2 - t1)
        print(f"size {n:>6}  wfs {t1 - t0:9.4f}s  pwfs {t2 - t1:9.4f}s")
    exponent = _fit_exponent(sizes, pwfs_times)
    if exponent is not None:
        print(f"fitted pwfs growth exponent: {exponent:.2f}")
        if exponent > 3.5:
            print("warning: pwfs growth exponent exceeds 3.5", file=sys.stderr)
    return EXIT_OK


def cmd_fuzz(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise UsageError(f"--count must not be negative, got {args.count}")
    try:
        base = GeneratorConfig(
            max_atoms=args.max_atoms,
            max_rules=args.max_rules,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(exc) from exc
    failures = 0
    for i in range(args.count):
        cfg = replace(base, seed=args.seed + i)
        report = check_theorems(generate_program(cfg), seed=cfg.seed)
        failures += len(report.failures)
        for result, line in zip(report.results, report.json_lines()):
            if not args.failures_only or result.status == "fail":
                print(line)
    print(
        f"fuzz: {args.count} programs, {failures} invariant failures",
        file=sys.stderr,
    )
    return EXIT_INPUT if failures else EXIT_OK


@functools.cache  # built once per process; parsing never changes it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="olp",
        description="Semantics of ordered extended logic programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and print the canonical form")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="compute a semantics of a program")
    p_solve.add_argument("file")
    p_solve.add_argument("--mode", choices=MODES, required=True)
    p_solve.add_argument("--json", action="store_true")
    p_solve.add_argument("--trace", action="store_true")
    p_solve.add_argument(
        "--atoms-only",
        action="store_true",
        help="hide classically negated literals that the program never mentions",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="time wfs/pwfs on chain programs")
    p_bench.add_argument("--sizes", default="")
    p_bench.set_defaults(func=cmd_bench)

    p_fuzz = sub.add_parser("fuzz", help="run the theorem battery on random programs")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--count", type=int, default=100)
    p_fuzz.add_argument("--max-atoms", type=int, default=4)
    p_fuzz.add_argument("--max-rules", type=int, default=7)
    p_fuzz.add_argument("--failures-only", action="store_true")
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


# What _read_plain reads, as build_parser declares it: func, switches by dest, needs --mode.
_PLAIN = {
    "check": (cmd_check, {}, False),
    "solve": (cmd_solve, {"--json": "json", "--trace": "trace", "--atoms-only": "atoms_only"}, True),
}


def _read_plain(argv: Sequence[str]) -> argparse.Namespace | None:
    """``build_parser().parse_args(argv)`` for one file after ``check``, or after
    ``solve`` with ``--mode M`` and exact switches, in any order; else None."""
    if not argv or argv[0] not in _PLAIN:
        return None
    func, switches, takes_mode = _PLAIN[argv[0]]
    args, files, words = dict.fromkeys(switches.values(), False), [], iter(argv[1:])
    for word in words:
        if word in switches:
            args[switches[word]] = True
        elif word == "--mode" and takes_mode:
            args["mode"] = next(words, None)
            if args["mode"] not in MODES:
                return None
        else:
            files.append(word)
    if len(files) != 1 or files[0].startswith("-") or takes_mode != ("mode" in args):
        return None
    return argparse.Namespace(command=argv[0], file=files[0], func=func, **args)


def main(argv: Sequence[str] | None = None) -> int:
    args = _read_plain(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ProgramError, UnicodeDecodeError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FixpointDivergence as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
