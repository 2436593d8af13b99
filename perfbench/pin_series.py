#!/usr/bin/env python3
"""Regenerate ``series_digests.json``: the digest of the series rows of every
config the workloads can produce, computed by the engine in ``src/``.

    python3 perfbench/pin_series.py

The pinned file is the reference the benchmark checks reports against, so
regenerate it only on a commit whose series are known to be right.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from catent.cli import emit_report, load_config, run_scenario

    digests = {}
    for config in workloads.series_domain():
        report = json.loads(emit_report(run_scenario(load_config(config))))
        if report["error"] is not None:
            sys.exit(f"{config}: {report['error']}")
        digests[checks.series_key(config)] = checks.series_digest(report["series"])
    with open(checks.DIGEST_FILE, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    print(f"pinned {len(digests)} series digests in {checks.DIGEST_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
