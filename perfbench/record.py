"""Record the reference digests that ``run.py`` checks answers against.

    python3 perfbench/record.py

For every job whose reference kind is ``digest`` (see
``workloads.reference_kind``) this runs the job on seeds 0 and 1, requires
the two canonical JSON outputs to agree (the seed only permutes statement
order, so the verdict must not move), and writes the sha256 prefix of the
output to ``reference.json``.  Run it only on a commit whose answers are
trusted: the file is the reference that later changes are checked against.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def record_workload(workload: str) -> dict[str, str]:
    digests: dict[str, str] = {}
    for seed in (0, 1):
        workdir = run.ROOT / ".perfbench_work" / f"record-{workload}-{seed}"
        try:
            bench = run.Bench(workload, seed, workdir)
            for job in bench.jobs:
                if workloads.reference_kind(job) != "digest":
                    continue
                _, problem, stdout = run.execute(bench, job)
                if problem is not None:
                    raise RuntimeError(f"{job.name} on seed {seed}: {problem}")
                digest = workloads.output_digest(stdout)
                if digests.setdefault(job.name, digest) != digest:
                    raise RuntimeError(f"{job.name}: the verdict depends on the seed")
        finally:
            run.shutil.rmtree(workdir, ignore_errors=True)
    return digests


def main() -> int:
    run.load_olp()
    if not __debug__:
        print("record.py: run with asserts on, as olp ships", file=sys.stderr)
        return 2
    path = run.HERE / "reference.json"
    references = {w: record_workload(w) for w in workloads.WORKLOADS}
    path.write_text(json.dumps(references, indent=0, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, references.values()))} digests in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
