"""The olp benchmark: time-to-verdict per mode on the chain, random and
battery workloads, driven from outside through olp's public API.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload chain --seed 1 --seconds 35 --trace 1

One process, one thread, a closed loop with one caller.  A pass runs every
job of the workload once; passes repeat until ``--seconds`` is used up and
each timing is the median over passes, scaled to a reference host speed.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics (see METRICS.md).  Every job's answer is
checked against its reference; a failure is counted and named, never fatal.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5


def load_olp():
    """Import olp from the checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import olp

    if Path(olp.__file__).resolve().parent != src / "olp":
        raise ImportError(f"olp was imported from {olp.__file__}, not {src}")
    return olp


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_rev": None, "git_dirty": None}

    def git(*args):
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_rev": git("rev-parse", "HEAD"), "git_dirty": None if status is None else bool(status)}


def environment(seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "optimize": sys.flags.optimize,
        "asserts": sys.flags.optimize == 0,
        "nproc": os.cpu_count(),
        **git_state(),
        "seed": seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


class Bench:
    """A workload's prepared inputs: program files, jobs and references."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import workloads

        self.workload = workload
        self.inputs = workloads.build(workload, seed, ROOT)
        self.jobs = self.inputs.jobs
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for key, text in self.inputs.texts.items():
            path = workdir / f"{key}.olp"
            path.write_text(text, encoding="utf-8")
            self.paths[key] = str(path)
        references = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        self.digests = references.get(workload, {})
        self.expected = {
            f"corpus-{path.stem}": json.loads(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "corpus" / "expected").glob("*.json"))
        }


def execute(bench: Bench, job) -> tuple[float, str | None, str | None]:
    """Run one job: (seconds, problem or None, stdout of a solve job).

    olp is looked up at call time, so a tracer's patched bindings apply.
    """
    from olp import cli, oracle
    from olp.syntax import OrderedProgram

    clock = time.perf_counter
    out, err = io.StringIO(), io.StringIO()
    if job.mode == "battery":
        # A fresh program object, so no pass reuses another's cached properties.
        op = bench.inputs.battery_programs[job.program]
        op = OrderedProgram(op.rules, op.order)
    start = clock()
    try:
        if job.mode == "battery":
            report = oracle.check_theorems(op, seed=bench.inputs.theorem_seeds[job.program])
            elapsed = clock() - start
            failed = [r.invariant for r in report.failures]
            return elapsed, ("invariant failed: " + ", ".join(failed)) if failed else None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["solve", bench.paths[job.program], "--mode", job.mode, "--json"])
        elapsed = clock() - start
    except (Exception, SystemExit) as exc:
        return clock() - start, f"raised {type(exc).__name__}: {exc}", None
    if code != 0:
        return elapsed, f"exit {code}: {err.getvalue().strip()}", None
    return elapsed, None, out.getvalue()


def reference_problem(bench: Bench, job, stdout: str) -> str | None:
    """Compare a solve job's output with its reference; None if it matches."""
    import workloads
    from olp import oracle, parser

    kind = workloads.reference_kind(job)
    if kind == "digest":
        want = bench.digests.get(job.name)
        if want is None:
            return "no recorded digest"
        got = workloads.output_digest(stdout)
        return None if got == want else f"digest {got} != recorded {want}"
    if kind == "corpus":
        want = bench.expected[job.program][job.mode]
    else:
        op = parser.parse_program(bench.inputs.texts[job.program])
        sets = oracle.oracle_answer_sets(op.rules, op.universe)
        want = {"mode": "as", "answer_sets": sorted(sorted(map(str, x.literals)) for x in sets)}
    got = json.loads(stdout)
    return None if got == want else f"{kind} reference {want} != output {got}"


class Ledger:
    """Per-job execution counts, first outputs and failures."""

    def __init__(self):
        self.executions: Counter = Counter()
        self.failed: Counter = Counter()
        self.reasons: dict[str, str] = {}
        self.first_output: dict[str, str] = {}

    def note(self, job, problem: str | None, stdout: str | None) -> None:
        self.executions[job.name] += 1
        if problem is None and stdout is not None:
            first = self.first_output.setdefault(job.name, stdout)
            if stdout != first:
                problem = "output differs from the first pass"
        if problem is not None:
            self.failed[job.name] += 1
            self.reasons.setdefault(job.name, problem)

    def check_references(self, bench: Bench) -> None:
        """A job whose first output is wrong fails on every execution."""
        for job in bench.jobs:
            stdout = self.first_output.get(job.name)
            if stdout is None:
                continue
            try:
                problem = reference_problem(bench, job, stdout)
            except Exception as exc:  # a broken output must not abort the run
                problem = f"reference check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                self.failed[job.name] = self.executions[job.name]
                self.reasons.setdefault(job.name, problem)


# Host speed.  On a shared host the interpreter's speed drifts by a factor
# of up to 1.8 over minutes, which no number of passes in one run averages
# out.  So a fixed quantum of pure-Python work (tuple hashing, frozenset
# and dict construction and lookups; no olp code) is timed at the start
# and end of a pass and after any job that ends QUANTUM_EVERY_S of job
# time after the last quantum, and each job time of the pass is scaled by
# REFERENCE_QUANTUM_S over the median quantum time of the pass: its time
# at the reference speed.  Spacing the quanta by job time keeps them from
# evicting the caches of short jobs.  Wall-clock times are printed and
# recorded beside them.
REFERENCE_QUANTUM_S = 0.001
QUANTUM_EVERY_S = 0.02
_QUANTUM_ITEMS = [(i, f"x{i}") for i in range(800)]


def speed_quantum() -> float:
    """Seconds one fixed quantum of pure-Python work takes now."""
    start = time.perf_counter()
    for _ in range(4):
        seen = frozenset(_QUANTUM_ITEMS)
        index = dict(_QUANTUM_ITEMS)
        sum(1 for key, name in _QUANTUM_ITEMS if (key, name) in seen and index[key] == name)
    return time.perf_counter() - start


def at_reference_speed(seconds: dict[str, float], quanta: list[float]) -> dict[str, float]:
    scale = REFERENCE_QUANTUM_S / statistics.median(quanta)
    return {name: value * scale for name, value in seconds.items()}


def run_pass(bench: Bench, ledger: Ledger, tracer=None) -> tuple[dict, dict]:
    """Run every job once: (wall seconds, seconds at reference speed) per job."""
    gc.collect()
    wall, quanta, since = {}, [speed_quantum()], 0.0
    for job in bench.jobs:
        if tracer is not None:
            tracer.job = job.name
        wall[job.name], problem, stdout = execute(bench, job)
        ledger.note(job, problem, stdout)
        since += wall[job.name]
        if since >= QUANTUM_EVERY_S:
            quanta.append(speed_quantum())
            since = 0.0
    quanta.append(speed_quantum())
    return wall, at_reference_speed(wall, quanta)


def end_to_end(bench: Bench, passes: list[dict[str, float]]) -> dict[str, list[float]]:
    """Per-pass samples of each timing metric."""
    import workloads

    samples: dict[str, list[float]] = {}
    for mode in workloads.MODES:
        names = [job.name for job in bench.jobs if job.mode == mode]
        samples[f"solve.{mode}_s"] = [sum(p[n] for n in names) for p in passes]
    samples["jobs_per_s"] = [len(p) / sum(p.values()) for p in passes]
    return samples


def probe_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Process start to first job ready on fresh processes: wall and scaled."""
    argv = [sys.executable, *(["-" + "O" * sys.flags.optimize] if sys.flags.optimize else []),
            str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--probe"]
    wall, quanta = {}, [speed_quantum()]
    for probe in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            wall[probe] = time.perf_counter() - start
            child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        quanta.append(speed_quantum())
    return list(wall.values()), list(at_reference_speed(wall, quanta).values())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def print_table(rows: dict[str, list[float]], units: dict[str, str]) -> None:
    print(f"{'metric':<42} {'median':>12} {'unit':<6} {'n':>3} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name, values in rows.items():
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<42} {med:>12.6g} {units.get(name, ''):<6} {len(values):>3} "
              f"{q1:>12.6g} {q3:>12.6g} {spread:>8.1%}")


def print_mode_breakdown(bench: Bench, values: Counter, names: list[str]) -> None:
    """Per-job counters of one traced pass, summed per job mode."""
    mode_of = {job.name: job.mode for job in bench.jobs}
    modes = list(dict.fromkeys(job.mode for job in bench.jobs))
    table = defaultdict(Counter)
    for (metric, job), value in values.items():
        table[metric][mode_of.get(job, "?")] += value
    print("counters of one traced pass, by job mode:")
    print(f"{'metric':<42}" + "".join(f" {m:>15}" for m in modes))
    for name in names:
        if name in table:
            print(f"{name:<42}" + "".join(f" {table[name][m]:>15.6g}" for m in modes))


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record to this JSON file")
    parser.add_argument("--spans", help="with --trace 1, write the last traced pass's spans here")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # The theorem battery samples interpretations while iterating sets, so
    # its work depends on the hash seed: fix it from the workload seed.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        flags = ["-" + "O" * sys.flags.optimize] if sys.flags.optimize else []
        os.execv(sys.executable, [sys.executable, *flags, str(HERE / "run.py"), *sys.argv[1:]])

    try:
        load_olp()
    except ImportError as exc:
        print(f"perfbench: cannot import olp from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, workdir)
        if args.probe:
            print("ready", flush=True)
            return 0
        return measure(bench, args)
    except (OSError, KeyError, ValueError, RuntimeError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def measure(bench: Bench, args) -> int:
    import tracing

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    env = environment(args.seed)
    setup_wall, setup = probe_setup(args.workload, args.seed)
    ledger = Ledger()
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = [], []
    last_wall = {False: 0.0, True: 0.0}
    started = time.perf_counter()
    while True:
        use_trace = bool(args.trace) and len(traced) < len(plain)
        elapsed = time.perf_counter() - started
        enough = len(plain) >= 1 and (not args.trace or len(traced) >= 1)
        if enough and elapsed + last_wall[use_trace] > args.seconds:
            break
        wall = time.perf_counter()
        if use_trace:
            tracer.install()
            try:
                _, scaled = run_pass(bench, ledger, tracer)
            finally:
                tracer.uninstall()
            traced.append((scaled, tracer.take()))
        else:
            plain.append(run_pass(bench, ledger))
        last_wall[use_trace] = time.perf_counter() - wall
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ledger.check_references(bench)

    attempted = sum(ledger.executions.values())
    failed = sum(ledger.failed.values())
    rows = {"setup_s": setup, **end_to_end(bench, [s for _, s in plain]),
            "peak_rss_mb": [peak_rss_mb]}
    wall_rows = {"setup_s": setup_wall, **end_to_end(bench, [w for w, _ in plain])}

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"{len(bench.jobs)} jobs per pass, {len(plain)} untraced and {len(traced)} traced passes")
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"inputs sha256: {bench.inputs.digest()}")
    print(f"timings at reference host speed ({REFERENCE_QUANTUM_S * 1e3:g} ms per speed quantum):")
    print_table(rows, units)
    print("wall-clock timings, not normalised:")
    print_table(wall_rows, units)
    print(f"{'failed_frac':<42} {failed / attempted:>12.6g} {'frac':<6} ({failed} of {attempted} jobs)")
    for name in sorted(ledger.failed):
        print(f"FAILED {name}: {ledger.failed[name]} of {ledger.executions[name]} runs: "
              f"{ledger.reasons[name]}")

    layer_samples = {}
    if args.trace:
        wanted = [m["name"] for m in benchmark["per_layer"]]
        per_pass = [tracing.layer_metrics(values) for _, values in traced]
        layer_samples = {name: [p.get(name, 0.0) for p in per_pass] for name in wanted}
        layer_samples["trace.overhead_frac"] = [
            statistics.median(sum(s.values()) for s, _ in traced)
            / statistics.median(sum(s.values()) for _, s in plain) - 1
        ]
        print_table({name: layer_samples[name] for name in wanted}, units)
        counters = [n for n in wanted if units[n] == "count"]
        print_mode_breakdown(bench, traced[-1][1], counters)
        if args.spans:
            tracer.write_spans(args.spans)
        metrics = {name: statistics.median(layer_samples[name]) for name in wanted}
    else:
        metrics = {m["name"]: statistics.median(rows[m["name"]]) for m in benchmark["end_to_end"]}

    if args.out:
        record = {
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "env": env, "inputs_sha256": bench.inputs.digest(),
            "samples": {**rows, **layer_samples}, "wall_samples": wall_rows,
            "failed": failed, "attempted": attempted,
            "failures": {n: ledger.reasons[n] for n in ledger.failed},
            "per_job": {f"{metric}|{job}": value for (metric, job), value
                        in (traced[-1][1].items() if traced else ())},
        }
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
