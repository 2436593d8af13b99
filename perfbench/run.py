#!/usr/bin/env python3
"""End-to-end benchmark of the catent engine.

One process, one thread, closed loop: each batch of configs is turned into
emitted JSON reports (``run_scenario`` then ``emit_report``) one after the
other, and every report is checked.  The workload's batches are cycled until
at least ``--seconds`` have been measured and at least ``MIN_REPORTS``
reports exist.

    python3 perfbench/run.py --workload hk-deep --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after the other, each in a
process of its own, so that each result block ends with its own JSON line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each batch
once untraced and once traced, prints the per-layer metrics and
the tracing overhead, and writes every span to ``perfbench/out/``.  Run it
from the root of a checkout; the engine is imported from ``src/``.  The last
line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import checks
import layers
import speed
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
#: Reports needed so that at least ten lie beyond the 90th percentile.
MIN_REPORTS = 100
#: A run that has not got MIN_REPORTS reports by then gives up.
DEADLINE_S = 150.0

clock = time.perf_counter
T_PROCESS = clock()


def import_engine():
    """Import catent afresh from src/ and return its cli module."""
    for name in [m for m in sys.modules if m == "catent" or m.startswith("catent.")]:
        del sys.modules[name]
    return importlib.import_module("catent.cli")


def set_up(workload: str, seed: int, scale: str):
    """Import the engine, generate the configs and load each one."""
    cli = import_engine()
    batches = workloads.generate(workload, seed, scale)
    return cli, batches, [[cli.load_config(c) for c in batch] for batch in batches]


def run_batch(cli, loaded, before=None, after=None):
    """Run one batch in a closed loop; returns (latencies, texts)."""
    latencies, texts = [], []
    for i, cfg in enumerate(loaded):
        if before is not None:
            before(i)
        t0 = clock()
        try:
            text = cli.emit_report(cli.run_scenario(cfg))
        except Exception as exc:  # a crash is a failed report, not a failed run
            text = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        texts.append(text)
        if after is not None:
            after(i)
    return latencies, texts


def word_pairs(configs):
    """(enriques index, lattice_word index) pairs that share one word."""
    return [
        (i, i + 1) for i, c in enumerate(configs[:-1])
        if c["kind"] == "enriques" and configs[i + 1]["kind"] == "lattice_word"
        and configs[i + 1]["word"] == c["word"]
    ]


def cert_mismatch(texts, pairs) -> int:
    """Words whose enriques and lattice_word exact-zero flags disagree."""
    def flag(i):
        try:
            return json.loads(texts[i]).get("log_rho_exact_zero")
        except json.JSONDecodeError:
            return None

    return sum(flag(a) != flag(b) for a, b in pairs)


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, 0 < q < 1.

    A weighted mean of the order statistics, with weights from the
    Beta(q (n + 1), (1 - q) (n + 1)) distribution.  The workloads mix report
    kinds of very different cost, so a quantile often falls between two
    kinds; a single order statistic there jumps with one report, the
    weighted mean does not.
    """
    ordered = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cells = 200  # midpoint-rule cells per order statistic
    mid = (numpy.arange(cells * n) + 0.5) / (cells * n)
    log_pdf = (a - 1) * numpy.log(mid) + (b - 1) * numpy.log1p(-mid)
    mass = numpy.exp(log_pdf - log_pdf.max()).reshape(n, cells).sum(axis=1)
    return float(mass @ ordered / mass.sum())


class Run:
    """Checks and counts reports, and decides when a run has measured enough."""

    def __init__(self, batches, digests, seconds):
        self.batches = batches
        self.digests = digests
        self.seconds = seconds
        self.exact_zero = [
            {i: checks.unipotent_up_to_sign(checks.word_matrix(c))
             for i, c in enumerate(batch) if "word" in c}
            for batch in batches
        ]
        self.pairs = [word_pairs(batch) for batch in batches]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, b, texts):
        for i, text in enumerate(texts):
            config = self.batches[b][i]
            found = checks.check_report(
                config, text, self.digests, self.exact_zero[b].get(i))
            self.attempted += 1
            if found:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(
                        f"batch {b} config {i} ({config['kind']}): " + "; ".join(found))

    def done(self, t_start, reports) -> bool:
        if clock() - t_start >= self.seconds and reports >= MIN_REPORTS:
            return True
        if clock() - T_PROCESS > DEADLINE_S:
            sys.exit(f"perfbench: only {reports} reports after {DEADLINE_S:.0f} s; "
                     f"need {MIN_REPORTS} for the 90th percentile")
        return False


def warm_up(cli, loaded):
    """Run the first config of each kind once, unmeasured."""
    seen = set()
    for cfg in loaded[0]:
        if cfg.kind not in seen:
            seen.add(cfg.kind)
            try:
                cli.emit_report(cli.run_scenario(cfg))
            except Exception:
                pass  # the measured batches count it


def measure(cli, loaded, run: Run):
    """Untraced closed loop.  Returns scaled batch times and latencies, raw
    batch times, and the cert mismatches of each batch."""
    times, latencies, raw_times, mismatches = [], [], [], []
    t_start = clock()
    while not run.done(t_start, len(latencies)):
        b = len(times) % len(loaded)
        (lat, texts), raw, factor = speed.timed(run_batch, cli, loaded[b])
        run.check(b, texts)
        times.append(raw * factor)
        latencies.extend(x * factor for x in lat)
        raw_times.append(raw)
        mismatches.append(cert_mismatch(texts, run.pairs[b]))
    return times, latencies, raw_times, mismatches


def measure_traced(cli, loaded, run: Run):
    """Run each batch untraced and traced, alternating which goes first;
    returns per-layer metrics, the tracer and notes to print."""
    mods = layers.catent_modules()
    twists = mods["twists"]
    tracer = layers.Tracer(mods)
    memo = {"hits": 0, "misses": 0, "repeated": 0, "computed": 0}
    seen_in_batch: set = set()
    # A span's scenario id is the index of its config in the whole workload.
    first_id = [0]
    for batch in run.batches:
        first_id.append(first_id[-1] + len(batch))
    batch_start = 0

    def before(i):
        tracer.scenario = batch_start + i
        tracer.memo_keys = set()

    def after(i):
        for name in layers.MEMOIZED:
            info = getattr(twists, name).cache_info()
            memo["hits"] += info.hits
            memo["misses"] += info.misses
        memo["computed"] += len(tracer.memo_keys)
        memo["repeated"] += len(tracer.memo_keys & seen_in_batch)
        seen_in_batch.update(tracer.memo_keys)

    tracer.install()
    try:
        for i, config in enumerate(c for batch in run.batches for c in batch):
            tracer.scenario = i
            cli.load_config(config)
    finally:
        tracer.uninstall()
    load_s = tracer.span_totals()["cli.load_config"]["s"]

    def untraced_batch(b):
        t0 = clock()
        _, texts = run_batch(cli, loaded[b])
        untraced.append(clock() - t0)
        run.check(b, texts)

    def traced_batch(b):
        nonlocal batch_start, units
        batch_start = first_id[b]
        seen_in_batch.clear()
        tracer.install()
        try:
            t0 = clock()
            _, texts = run_batch(cli, loaded[b], before, after)
            traced.append(clock() - t0)
        finally:
            tracer.uninstall()
        run.check(b, texts)
        mismatches.append(cert_mismatch(texts, run.pairs[b]))
        units += sum(json.loads(t)["timing"]["work_units"] for t in texts
                     if t.startswith("{"))

    untraced, traced, mismatches, units, reports = [], [], [], 0, 0
    t_start = clock()
    while not run.done(t_start, reports):
        b = len(traced) % len(loaded)
        reports += 2 * len(loaded[b])
        # Alternate which of the pair runs first.
        pair = (untraced_batch, traced_batch) if len(traced) % 2 == 0 else (
            traced_batch, untraced_batch)
        for step in pair:
            step(b)
    n = len(traced)
    totals = tracer.span_totals()

    def span(name, field):
        return totals[name][field] / n if name in totals else 0.0

    def count(key):
        return tracer.counts[key] / n

    def ratio(part, whole):
        return part / whole if whole else 0.0

    with_words = [ez for batch in run.exact_zero for ez in batch.values()]
    metrics = {
        "graded.cone_bounds.calls": (span("graded.cone_bounds", "calls"), "count"),
        "graded.cone_bounds.self_s": (span("graded.cone_bounds", "self_s"), "s"),
        "graded.convolve_interval.calls":
            (span("graded.convolve_interval", "calls"), "count"),
        "graded.convolve_interval.self_s":
            (span("graded.convolve_interval", "self_s"), "s"),
        "graded.cone_out_entries": (count("graded.cone_out_entries"), "count"),
        "graded.open_entries": (count("graded.open_entries"), "count"),
        "twists.ext_growth_series.self_s":
            (span("twists.ext_growth_series", "self_s"), "s"),
        "twists.spherical_twist_series.self_s":
            (span("twists.spherical_twist_series", "self_s"), "s"),
        "twists.verify_iterate_contract.calls":
            (count("twists.verify_iterate_contract.calls"), "count"),
        "twists.memo_hits": (memo["hits"] / n, "count"),
        "twists.memo_misses": (memo["misses"] / n, "count"),
        "twists.memo_hit_ratio":
            (ratio(memo["hits"], memo["hits"] + memo["misses"]), "ratio"),
        "twists.repeat_share": (ratio(memo["repeated"], memo["computed"]), "ratio"),
        "lattice.char_poly.calls": (span("lattice.char_poly", "calls"), "count"),
        "lattice.char_poly.self_s": (span("lattice.char_poly", "self_s"), "s"),
        "lattice.is_unipotent.calls": (span("lattice.is_unipotent", "calls"), "count"),
        "lattice.is_unipotent.self_s": (span("lattice.is_unipotent", "self_s"), "s"),
        "lattice.spectral_radius.self_s":
            (span("lattice.spectral_radius", "self_s"), "s"),
        "lattice.polyroots.calls": (span("lattice.polyroots", "calls"), "count"),
        "lattice.polyroots.s": (span("lattice.polyroots", "s"), "s"),
        "lattice.matmul.calls": (count("lattice.matmul.calls"), "count"),
        "words.induced_matrix.s": (span("words.induced_matrix", "s"), "s"),
        "words.log_rho_is_exact_zero.s":
            (span("words.log_rho_is_exact_zero", "s"), "s"),
        "words.exact_zero_ratio": (ratio(
            tracer.counts["words.exact_zero_true"],
            totals["words.log_rho_is_exact_zero"]["calls"]), "ratio"),
        "words.exact_zero_share": (ratio(sum(with_words), len(with_words)), "ratio"),
        "words.cert_mismatch": (statistics.mean(mismatches), "count"),
        "descent.integer_kernel_basis.s":
            (span("descent.integer_kernel_basis", "s"), "s"),
        "descent.quotient_verdict.self_s":
            (span("descent.quotient_verdict", "self_s"), "s"),
        "hilbert.hilbert_lift_verdict.self_s":
            (span("hilbert.hilbert_lift_verdict", "self_s"), "s"),
        "cli.load_config.s": (load_s / len(run.batches), "s"),
        "cli.run_scenario.self_s": (span("cli.run_scenario", "self_s"), "s"),
        "cli.emit_report.s": (span("cli.emit_report", "s"), "s"),
        "trace.batch_s": (statistics.median(traced), "s"),
        "trace.untraced_batch_s": (statistics.median(untraced), "s"),
        "trace.overhead_ratio":
            (statistics.median(traced) / statistics.median(untraced), "ratio"),
    }
    notes = [
        f"{n} batches run traced and untraced; per-layer values are per batch",
        f"cone_bounds calls per batch {span('graded.cone_bounds', 'calls'):.0f}, "
        f"report work_units per batch {units / n:.0f}",
    ]
    return metrics, tracer, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",),
                        help="all: run every workload, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="tiny: small batches of the same shape, for self-tests")
    args = parser.parse_args(argv)

    if args.workload == "all":
        status = 0
        for name in workloads.WORKLOADS:
            child = subprocess.run([
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scale", args.scale,
            ])
            status = status or child.returncode
        return status

    if not (SRC / "catent").is_dir():
        print(f"perfbench: no engine source at {SRC / 'catent'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    importlib.import_module("mpmath")  # third-party imports stay out of setup_s

    speed.kernel()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        (cli, batches, loaded), raw, factor = speed.timed(
            set_up, args.workload, args.seed, args.scale)
        setups.append(raw * factor)
        raw_setups.append(raw)
    run = Run(batches, checks.load_digests(), args.seconds)
    warm_up(cli, loaded)

    lines = [f"workload {args.workload}, seed {args.seed}, scale {args.scale}: "
             f"{len(batches)} batches of {len(batches[0])} configs, trace {args.trace}"]
    if args.trace:
        metrics, tracer, notes = measure_traced(cli, loaded, run)
        lines += notes
        lines += [f"  {name:40} {value:.6g} {unit}"
                  for name, (value, unit) in metrics.items()]
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write_spans(path)
        lines.append(f"{len(tracer.start)} spans written to "
                     f"{path.relative_to(HERE.parent)}")
    else:
        times, latencies, raw_times, mismatches = measure(cli, loaded, run)
        n = len(latencies)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "batch_s": (statistics.median(times), "s"),
            "report_p50_ms": (1e3 * percentile(latencies, 0.5), "ms"),
            "report_p90_ms": (1e3 * percentile(latencies, 0.9), "ms"),
            "peak_rss_mb":
                (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        samples = {
            "setup_s": f"median of {len(setups)} set-ups",
            "batch_s": f"median of {len(times)} batches",
            "report_p50_ms": f"{n} reports",
            "report_p90_ms": f"{n} reports, {n - math.ceil(0.9 * n)} beyond",
            "peak_rss_mb": "whole process",
        }
        lines += [f"  {name:14} {value:12.6g} {unit:3} ({samples[name]})"
                  for name, (value, unit) in metrics.items()]
        lines.append(f"  times above are scaled to the reference speed; raw medians: "
                     f"setup_s {statistics.median(raw_setups):.6g} s, "
                     f"batch_s {statistics.median(raw_times):.6g} s")
        lines.append(f"  words.cert_mismatch per batch: {statistics.mean(mismatches):.6g}")
    lines.append(f"  failed_frac    {run.failed / run.attempted:.6g} "
                 f"({run.failed} of {run.attempted} reports)")
    lines += [f"  FAILED {p}" for p in run.problems]
    print("\n".join(lines))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
