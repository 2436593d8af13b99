"""The committed benchmark records at the repository root.

Each ``BENCH_*.json`` holds the before/after runs behind a speed claim.
Every record parses, has the keys that all records share, and claims a
workload and an end-to-end metric that ``BENCHMARK.json`` declares.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"change", "claim", "command", "method", "machine", "runs", "claim_result"}


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_the_shared_keys_and_a_declared_claim(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert KEYS <= record.keys(), sorted(KEYS - record.keys())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    claim = record["claim"]
    assert claim["workload"] in {w["name"] for w in benchmark["workloads"]}
    assert claim["metric"] in {m["name"] for m in benchmark["end_to_end"]}
    assert isinstance(record["runs"], list) and record["runs"]
