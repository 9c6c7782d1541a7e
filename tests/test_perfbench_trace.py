"""perfbench's traced run must finish correct and report every per-layer metric.

A short ``churn`` run holds two rounds of syncs on long-lived pairs, so
both a first sync and a later one that updates a cached sketch are
traced. The traced run divides by counts of wrapped calls per sync, so
a library change that skips a wrapped function can crash it, and one
that calls a function around its wrapper makes its metric read 0.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_churn_run_reports_every_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "1", "--seconds", "5", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 6  # two rounds of three protocols
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= set(result["metrics"])
    # a 0 here means a call went around its wrapper; the one metric left
    # out, hashing.keyed_hash_per_element.cuckoo, reads 0 on a working
    # build, since cuckoo calls no scalar keyed_hash
    seen = [m["name"] for m in declared if m["name"].endswith("_s")]
    seen += ["field.poly_powmod_calls", "iblt.cells", "cuckoo.load"]
    assert [name for name in seen if not result["metrics"][name]["value"] > 0] == []
