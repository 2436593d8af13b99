"""Print the count and SHA-256 of the reference reports.

The reference set is the ``emit_report`` JSON text of the four builtin
presets, in catalog order, followed by every config of the ``hk-deep``,
``lattice-rank`` and ``preset-mix`` benchmark workloads at seed 1 and then
seed 5.  The texts are hashed concatenated, in that order.  A change that
keeps every report byte-identical keeps the line this prints equal to
``tests/golden/reports.sha256``:

    python tests/report_digest.py | diff - tests/golden/reports.sha256

It takes about a minute.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (perfbench/workloads.py, used read-only)
from catent import cli  # noqa: E402

SEEDS = (1, 5)


def reference_configs() -> list[dict]:
    configs = list(cli.list_builtin_models().values())
    for workload in ("hk-deep", "lattice-rank", "preset-mix"):
        for seed in SEEDS:
            configs += sum(workloads.generate(workload, seed), [])
    return configs


def main() -> None:
    digest = hashlib.sha256()
    configs = reference_configs()
    for config in configs:
        text = cli.emit_report(cli.run_scenario(cli.load_config(config)))
        digest.update(text.encode("utf-8"))
    print(len(configs), digest.hexdigest())


if __name__ == "__main__":
    main()
