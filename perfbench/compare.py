"""Compare two result records written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) to compare records of different workloads, or records whose
assert setting differs: the ``__debug__`` cross-check in ``classical.c_op``
is most of chain ``wfs`` time, so such runs measure different programs.
Prints each end-to-end metric's two medians and the change as a share of
the base median, next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    settings = {
        "workload": (base["workload"], new["workload"]),
        "asserts": (base["env"]["asserts"], new["env"]["asserts"]),
    }
    for key, (was, now) in settings.items():
        if was != now:
            print(f"refusing to compare: {key} is {was} in the base and {now} in the new run",
                  file=sys.stderr)
            return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"{'metric':<28} {'base':>12} {'new':>12} {'worse by':>8} {'bound':>6}")
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        b = statistics.median(base["samples"][name])
        n = statistics.median(new["samples"][name])
        change = (n - b) / b if metric["better"] == "lower" else (b - n) / b
        flag = "  worse" if change > metric["bound"] else ""
        print(f"{name:<28} {b:>12.6g} {n:>12.6g} {change:>+8.1%} {metric['bound']:>6}{flag}")
    print(f"failed: {base['failed']} of {base['attempted']} -> {new['failed']} of {new['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
