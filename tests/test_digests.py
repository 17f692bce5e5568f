"""Digest gate: ``olp solve`` output must stay byte-identical.

``solve_digests.json`` holds the sha256 of the standard output of
``olp solve FILE --mode M --json`` for every mode over the corpus, two
chain programs and the first 200 programs of the criterion-7 batch, and of
``--json --trace`` for every mode that has a trace over the corpus and the
chains.  Each of the other 800 programs of that batch gets one digest, taken
over its ``--json`` outputs in all modes, in ``MODES`` order.  The layered
random texts of the benchmark (``perfbench/workloads.random_text``) get
``--json`` digests in the modes the benchmark runs on them: they have
classical negation, shared heads and up to 320 literals, which the
generator's 6-atom programs never reach.  Every program but those random
texts also gets two more digests over all modes, one of ``--atoms-only
--json`` and one of the plain-text output (no ``--json``), so the two
other shapes the renderer prints are pinned too.  A refactor of an engine
or of the renderer must reproduce every digest.  After an intended change of output, re-record
with

    PYTHONPATH=src python -m tests.test_digests
"""

import hashlib
import json
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from olp.cli import main
from olp.oracle import GeneratorConfig, chain_program, generate_program
from olp.parser import render_program

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "solve_digests.json"
MODES = ("wfs", "pwfs", "pwfs-simplistic", "as", "pas", "brewka", "lfp-ap")
TRACE_MODES = ("wfs", "pwfs", "pwfs-simplistic", "brewka", "lfp-ap")
BATCH_SEED = 20260811
BATCH_PROGRAMS = 200
BATCH_SIZE = 1000
RANDOM_SEED = 1


def _random_programs() -> dict[str, tuple[str, tuple[str, ...]]]:
    """The benchmark's random texts, by name, with the modes run on each."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return {
        f"random{family}-{atoms}x{rules}": (
            workloads.random_text(family, atoms, rules, RANDOM_SEED), modes
        )
        for family, atoms, rules, modes in workloads.RANDOM_PROGRAMS
    }


def _programs(workdir: Path) -> dict[str, Path]:
    paths = {
        f"corpus-{path.stem}": path
        for path in sorted((ROOT / "corpus").glob("*.olp"))
    }
    generated = {f"chain{n}": chain_program(n) for n in (10, 60)}
    for i in range(BATCH_SIZE):
        seed = BATCH_SEED + i
        generated[f"g{seed}"] = generate_program(GeneratorConfig(seed=seed))
    texts = {name: render_program(op) for name, op in generated.items()}
    texts.update((name, text) for name, (text, _) in _random_programs().items())
    for name, text in texts.items():
        paths[name] = workdir / f"{name}.olp"
        paths[name].write_text(text, encoding="utf-8")
    return paths


def _jobs(paths: dict[str, Path]):
    """Pairs of a job name and the argvs whose outputs its digest covers."""
    random_modes = {name: modes for name, (_, modes) in _random_programs().items()}
    for name, path in paths.items():
        if name in random_modes:
            for mode in random_modes[name]:
                yield f"{name}/{mode}", [[str(path), "--mode", mode, "--json"]]
            continue
        for shape, flags in (("atoms-only", ["--atoms-only", "--json"]), ("text", [])):
            yield f"{name}/all-modes/{shape}", [
                [str(path), "--mode", mode, *flags] for mode in MODES
            ]
        if name.startswith("g") and int(name[1:]) >= BATCH_SEED + BATCH_PROGRAMS:
            yield f"{name}/all-modes", [
                [str(path), "--mode", mode, "--json"] for mode in MODES
            ]
            continue
        for mode in MODES:
            yield f"{name}/{mode}", [[str(path), "--mode", mode, "--json"]]
        if name.startswith(("corpus-", "chain")):
            for mode in TRACE_MODES:
                yield f"{name}/{mode}/trace", [
                    [str(path), "--mode", mode, "--json", "--trace"]
                ]


def collect(workdir: Path) -> dict[str, str]:
    digests = {}
    for job, argvs in _jobs(_programs(workdir)):
        out = StringIO()
        with redirect_stdout(out):
            for argv in argvs:
                assert main(["solve", *argv]) == 0, job
        digests[job] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return digests


def test_solve_output_matches_the_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    digests = collect(tmp_path)
    assert digests.keys() == recorded.keys()
    changed = sorted(job for job in recorded if digests[job] != recorded[job])
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        digests = collect(Path(workdir))
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}", file=sys.stderr)
