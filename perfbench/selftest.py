"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Pinned inputs: each workload's generated inputs for seed 0 must hash to
   the digest pinned below.  If one moves, runs before and after the move
   measured different inputs and must not be compared.
2. Deterministic counters: two traced runs of each workload, in separate
   processes, must report identical counters (``.calls``, ``.yielded``,
   iterations, ``order_pairs``) for every job.

Exits 0 when both hold and 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads

PINNED = {
    "chain": "af71bf40c7591a485758ffc876ca70e95a64635459340fcb9bfae8697d7c1d64",
    "random": "933e509d1f4a915e0571f88d52b1617980d7fb6cee17cec5b61e3fff19b59361",
    "battery": "a06344a4861231e0d5d6d64d4149a9e2a85e407326bc258384f00a858f324820",
}


def traced_counters(workload: str, out) -> dict[str, float]:
    subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1", "--out", str(out)],
        check=True, stdout=subprocess.DEVNULL, timeout=600,
    )
    per_job = json.loads(out.read_text())["per_job"]
    return {key: value for key, value in per_job.items() if not key.split("|")[0].endswith("_s")}


def main() -> int:
    run.load_olp()
    ok = True
    scratch = run.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        digest = workloads.build(workload, 0, run.ROOT).digest()
        pinned = digest == PINNED[workload]
        print(f"{workload}: inputs {digest} {'pinned' if pinned else 'DIFFERS from ' + PINNED[workload]}")
        out = scratch / f"selftest-{workload}.json"
        try:
            first = traced_counters(workload, out)
            second = traced_counters(workload, out)
        finally:
            out.unlink(missing_ok=True)
        moved = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        print(f"{workload}: {len(first)} counters, {len(moved)} differ between two traced runs")
        for key in moved[:10]:
            print(f"  {key}: {first.get(key)} vs {second.get(key)}")
        ok = ok and pinned and not moved
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
