"""Workload inputs and job lists for the olp benchmark.

A job is one call into olp: a ``solve`` through ``olp.cli.main`` on a
generated ``.olp`` file, or one ``oracle.check_theorems`` call.  The chain
and random program texts are pure functions of (seed, size) and import
nothing from olp, so a change to the program cannot change its inputs.

The workload seed permutes statement order in the chain and random texts
and seeds the theorem battery's sampled interpretation pairs.  The program
structures themselves are fixed: their cost then depends on the code under
test and not on the draw, and every verdict can be checked against a
digest recorded once (see ``record.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("chain", "random", "battery")
MODES = ("wfs", "pwfs", "pwfs-simplistic", "as", "pas", "brewka", "lfp-ap")
MODEL_MODES = ("wfs", "pwfs", "pwfs-simplistic", "lfp-ap", "brewka")

# chain: wfs and pwfs at two sizes (outer alternation is linear in n, so the
# two sizes show the growth); the fast-growing engines near 100 rules; the
# enumerating engines on a chain small enough for the oracle (8 atoms).
CHAIN_JOBS = (
    ("wfs", 150), ("wfs", 300),
    ("pwfs", 150), ("pwfs", 300),
    ("pwfs-simplistic", 100), ("lfp-ap", 100), ("brewka", 100),
    ("as", 7), ("pas", 7),
)

# random: (family seed, atoms, rules, modes).  Wide programs for the cheap
# engines; narrower ones that brewka also runs, several of them because
# brewka's cost varies most from program to program; and 8-atom slices for
# the enumerating engines (within the oracle's 24-literal cap).
RANDOM_PROGRAMS = (
    *((k, 160, 200, MODEL_MODES[:4]) for k in range(6)),
    *((k, 64, 80, MODEL_MODES) for k in range(6, 14)),
    *((k, 8, 12, ("as", "pas")) for k in range(14, 20)),
)

# battery: the first programs of the acceptance suite's criterion-7 batch.
BATTERY_FIRST_SEED = 20260811
BATTERY_PROGRAMS = 100


@dataclass(frozen=True)
class Job:
    """One call into olp.  ``mode`` is a solve mode or ``"battery"``."""

    name: str
    mode: str
    program: str


@dataclass
class Inputs:
    """Everything a workload's jobs read, keyed by program name."""

    texts: dict[str, str] = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)
    theorem_seeds: dict[str, int] = field(default_factory=dict)
    battery_programs: dict = field(default_factory=dict)

    def digest(self) -> str:
        """sha256 over the program texts, the job list and the theorem seeds."""
        blob = json.dumps(
            [sorted(self.texts.items()), [(j.name, j.mode, j.program) for j in self.jobs],
             sorted(self.theorem_seeds.items())],
        )
        return hashlib.sha256(blob.encode()).hexdigest()


def _shuffled(lines: list[str], seed: int, tag: str) -> str:
    random.Random(f"{tag}/{seed}").shuffle(lines)
    return "".join(line + "\n" for line in lines)


def chain_text(seed: int, n: int) -> str:
    """``rK: aK :- not aK+1.`` for K = 1..n, earlier rules preferred."""
    lines = [f"r{k}: a{k} :- not a{k + 1}." for k in range(1, n + 1)]
    lines += [f"r{k + 1} < r{k}." for k in range(1, n)]
    return _shuffled(lines, seed, f"chain/{n}")


def random_text(
    family: int, atoms: int, rules: int, seed: int, layers: int = 8, cluster: int = 6
) -> str:
    """A layered random program drawn from ``family``, lines shuffled by ``seed``.

    Positive bodies only reach into lower layers, so derivation chains are
    acyclic and a Horn closure needs several passes.  More rules than atoms
    make heads shared.  A classically negated head appears only on a rule
    with a default-negated body that includes its own atom, so definite
    rules cannot contradict each other.  The order is sparse: about 1.5
    pairs per rule, drawn inside clusters of ``cluster`` rules, so its
    closure stays linear in the rule count.
    """
    rng = random.Random(f"random/{family}/{atoms}/{rules}")
    layer_of = [i * layers // atoms for i in range(atoms)]
    first_of = [layer_of.index(layer) for layer in range(layers)]
    lines = []
    for k in range(1, rules + 1):
        atom = rng.randrange(atoms)
        layer = layer_of[atom]
        body = []
        if layer and rng.random() < 0.8:
            body.append(f"p{rng.randrange(first_of[layer - 1], first_of[layer])}")
            if rng.random() < 0.4:
                body.append(f"p{rng.randrange(first_of[layer])}")
        head = f"p{atom}"
        if rng.random() < 0.5:
            for _ in range(rng.choice((1, 1, 2))):
                other = f"p{rng.randrange(atoms)}"
                body.append("not " + ("-" + other if rng.random() < 0.2 else other))
            if rng.random() < 0.15:
                head = "-" + head
                body.append(f"not p{atom}")
        body = list(dict.fromkeys(body))
        lines.append(f"r{k}: {head}" + (f" :- {', '.join(body)}." if body else "."))
    ranks = list(range(1, rules + 1))
    rng.shuffle(ranks)
    for start in range(0, rules, cluster):
        group = ranks[start:start + cluster]
        pairs = [(a, b) for i, a in enumerate(group) for b in group[i + 1:]]
        for low, high in rng.sample(pairs, min(len(pairs), round(1.5 * len(group)))):
            lines.append(f"r{low} < r{high}.")
    return _shuffled(lines, seed, f"random/{family}")


def corpus_texts(root: Path) -> dict[str, str]:
    return {
        f"corpus-{path.stem}": path.read_text(encoding="utf-8")
        for path in sorted((root / "corpus").glob("*.olp"))
    }


def build(workload: str, seed: int, root: Path) -> Inputs:
    """The inputs of one workload for one seed.

    ``battery`` draws its programs with olp's own generator, because the
    criterion-7 distribution is defined by it.
    """
    inputs = Inputs()
    texts, jobs = inputs.texts, inputs.jobs
    if workload == "chain":
        for mode, n in CHAIN_JOBS:
            texts.setdefault(f"chain{n}", chain_text(seed, n))
            jobs.append(Job(f"{mode}/chain{n}", mode, f"chain{n}"))
    elif workload == "random":
        for family, atoms, rules, modes in RANDOM_PROGRAMS:
            key = f"random{family}-{atoms}x{rules}"
            texts[key] = random_text(family, atoms, rules, seed)
            jobs += [Job(f"{mode}/{key}", mode, key) for mode in modes]
        for key, text in corpus_texts(root).items():
            texts[key] = text
            jobs += [Job(f"{mode}/{key}", mode, key) for mode in MODES]
    elif workload == "battery":
        from olp.oracle import GeneratorConfig, generate_program
        from olp.parser import render_program

        rng = random.Random(f"battery/{seed}")
        for i in range(BATTERY_PROGRAMS):
            program_seed = BATTERY_FIRST_SEED + i
            key = f"g{program_seed}"
            op = generate_program(GeneratorConfig(seed=program_seed))
            inputs.battery_programs[key] = op
            texts[key] = render_program(op)
            inputs.theorem_seeds[key] = rng.getrandbits(32)
            jobs.append(Job(f"battery/{key}", "battery", key))
            jobs += [Job(f"{mode}/{key}", mode, key) for mode in MODES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def reference_kind(job: Job) -> str:
    """How a job's answer is checked.

    ``corpus``: the hand-written ``corpus/expected`` sidecar.  ``oracle``:
    ``oracle_answer_sets`` (every ``as`` job here is within its 24-literal
    cap).  ``theorems``: no invariant may fail.  ``digest``: the recorded
    sha256 of the canonical JSON.
    """
    if job.program.startswith("corpus-"):
        return "corpus"
    if job.mode == "as":
        return "oracle"
    if job.mode == "battery":
        return "theorems"
    return "digest"


def output_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]
