"""Self-tests of the benchmark: workloads at tiny size, seeded configs, and
output checks that count corrupted reports as failed."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import workloads

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=run.HERE.parent, script=run.HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _engine():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    from catent import cli

    return cli


def test_every_workload_runs_at_tiny_size():
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "0",
                  "--scale", "tiny", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith('{"correct"')]
    assert len(results) == len(workloads.WORKLOADS)
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= run.MIN_REPORTS
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = _bench("--workload", "preset-mix", "--seed", "3", "--seconds", "0",
                  "--scale", "tiny", "--trace", "1")
    metrics = _result(proc)["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    calls = metrics["graded.cone_bounds.calls"]["value"]
    assert calls > 0
    assert f"report work_units per batch {calls:.0f}" in proc.stdout


def test_traced_lattice_rank_does_no_cone_work():
    metrics = _result(_bench("--workload", "lattice-rank", "--seed", "3",
                             "--seconds", "0", "--scale", "tiny",
                             "--trace", "1"))["metrics"]
    for name, metric in metrics.items():
        if name.startswith("graded."):
            assert metric["value"] == 0, name
    assert metrics["lattice.char_poly.calls"]["value"] > 0


def test_fails_without_the_engine_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "hk-deep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("scale", workloads.SCALES)
def test_same_seed_gives_identical_configs(workload, scale):
    first = json.dumps(workloads.generate(workload, 7, scale))
    assert json.dumps(workloads.generate(workload, 7, scale)) == first
    assert json.dumps(workloads.generate(workload, 8, scale)) != first


def test_every_generated_series_is_pinned():
    digests = checks.load_digests()
    for workload in workloads.WORKLOADS:
        for scale in workloads.SCALES:
            for seed in range(5):
                for config in sum(workloads.generate(workload, seed, scale), []):
                    key = checks.series_key(config)
                    assert key is None or key in digests, key


def _reports(workload):
    cli = _engine()
    configs = workloads.generate(workload, 5, "tiny")[0]
    texts = [cli.emit_report(cli.run_scenario(cli.load_config(c))) for c in configs]
    return configs, texts


def _failed(configs, texts):
    bookkeeping = run.Run([configs], checks.load_digests(), seconds=0)
    bookkeeping.check(0, texts)
    assert bookkeeping.attempted == len(texts)
    return bookkeeping.failed


def test_clean_reports_pass():
    for workload in workloads.WORKLOADS:
        assert _failed(*_reports(workload)) == 0


def test_changed_series_entry_is_failed():
    configs, texts = _reports("hk-deep")
    report = json.loads(texts[0])
    report["series"][1]["lower"] += 1
    texts[0] = json.dumps(report)
    assert _failed(configs, texts) == 1


def test_flipped_exact_zero_flag_is_failed():
    configs, texts = _reports("lattice-rank")
    for i in (0, 1):  # one irrational word, one unipotent up to sign
        report = json.loads(texts[i])
        report["log_rho_exact_zero"] = not report["log_rho_exact_zero"]
        texts[i] = json.dumps(report)
    assert _failed(configs, texts) == 2


def test_error_and_crash_are_failed():
    configs, texts = _reports("preset-mix")
    report = json.loads(texts[0])
    report["error"] = {"type": "NumericError", "message": "injected"}
    texts[0] = json.dumps(report)
    texts[1] = "OverflowError: injected"
    assert _failed(configs, texts) == 2


def test_cert_mismatch_counts_disagreeing_flags():
    configs, texts = _reports("preset-mix")
    pairs = run.word_pairs(configs)
    assert pairs
    enriques, lattice_word = pairs[0]
    flags = [json.loads(texts[i])["log_rho_exact_zero"] for i in pairs[0]]
    report = json.loads(texts[enriques])
    report["log_rho_exact_zero"] = not flags[1]
    texts[enriques] = json.dumps(report)
    assert run.cert_mismatch(texts, pairs[:1]) == 1
    report["log_rho_exact_zero"] = flags[1]
    texts[enriques] = json.dumps(report)
    assert run.cert_mismatch(texts, pairs[:1]) == 0
