"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest benchmark/test_benchmark.py

The smoke runs execute one op of each group for one pass per workload and
check that every metric BENCHMARK.json names is emitted with its unit, and
that no op fails on the exact and cli workloads (cli is not in
BENCHMARK.json, but run.py still runs it, and every traced run includes
one pass of it).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402


def smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["cli"])
def test_smoke_emits_every_metric(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert result["attempted"] >= 1
    if workload in ("exact", "cli"):
        assert result["failed"] == 0 and result["correct"]


def test_self_times_add_up():
    # op 0: root 0..100 with f 10..60 (which calls f again 20..30) and g 70..90
    spans = [["bench.op", 0, 100, -1, 0], ["f", 10, 60, 0, 0], ["f", 20, 30, 1, 0],
             ["g", 70, 90, 0, 0]]
    assert tracer.check_spans(spans) == ""
    stats = tracer.summary(spans)
    assert stats[0]["f"] == [2, 50, 50]          # calls, busy (outermost only), self
    assert stats[0]["g"] == [1, 20, 20]
    assert stats[0]["bench.op"] == [1, 100, 30]  # unattributed time
    assert sum(st[2] for st in stats[0].values()) == 100


@pytest.mark.parametrize("bad, problem", [
    ([["f", 10, 60, 0, 0], ["g", 55, 120, 0, 0]], "not inside its parent"),  # outlasts root
    ([["f", 10, 60, 0, 0], ["g", 50, 90, 0, 0]], "overlap"),                # siblings
    ([["f", 10, 60, 0, 0], ["g", 70, 90, 0, 1]], "has a parent in op 0"),   # wrong op
    ([["f", 10, 60, 0, 0], ["g", 70, 90, -1, 0]], "has no parent"),         # orphan span
    ([["f", 60, 10, 0, 0]], "ends before it starts"),
])
def test_check_spans_finds_bad_nesting(bad, problem):
    spans = [["bench.op", 0, 100, -1, 0]] + bad
    assert problem in tracer.check_spans(spans)
