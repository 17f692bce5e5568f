"""Committed benchmark records keep the shape that comparisons read.

Each ``bench/BENCH_*.json`` holds runs of ``perfbench/run.py --out``, one
per ``runs`` entry, labelled with the side (the parent commit or the
change) and the commit they measured.  This checks that every record has
the keys ``run.py`` writes and samples of every end-to-end metric that
``BENCHMARK.json`` names.  It never checks a timing.
"""

import json

import pytest

from .conftest import ROOT

RECORDS = sorted((ROOT / "bench").glob("BENCH_*.json"))
RECORD_KEYS = {
    "workload", "seconds", "trace", "env", "inputs_sha256", "samples",
    "wall_samples", "failed", "attempted", "failures", "per_job",
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def test_some_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_every_run_has_the_record_keys_and_end_to_end_samples(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert bench["runs"]
    for run in bench["runs"]:
        assert run["side"] in ("parent", "change")
        assert set(run["record"]) >= RECORD_KEYS
        record = run["record"]
        assert record["workload"] in WORKLOADS
        assert run["commit"] == record["env"]["git_rev"]
        for name in END_TO_END:
            samples = record["samples"][name]
            assert samples and all(isinstance(v, (int, float)) for v in samples), name
