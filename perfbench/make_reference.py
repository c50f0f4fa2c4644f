"""Regenerate reference.json: the committed results fingerprints.

Usage, from the repository root::

    python3 perfbench/make_reference.py [--seeds 0-31]

Records one untraced sample's fingerprint per workload: under ``"*"`` for
the seed-free workloads (``incast``, ``rdcn``) and per seed for
``websearch`` and ``sweep``.  Only rerun it for a change that is meant to
alter simulation results, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31",
                        help="seed range for the seeded workloads, as A-B")
    args = parser.parse_args(argv)
    low, _, high = args.seeds.partition("-")
    seeds = range(int(low), int(high or low) + 1)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from run import run_sample
    from workloads import DEFAULT_SEED, WORKLOADS, inputs

    table = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as scratch:
        for workload in WORKLOADS:
            seeded = bool(inputs(workload, DEFAULT_SEED))
            keys = sorted({DEFAULT_SEED, *seeds}) if seeded else ["*"]
            table[workload] = {}
            for key in keys:
                seed = DEFAULT_SEED if key == "*" else key
                record, error = run_sample(
                    workload, inputs(workload, seed), "light", scratch, 600
                )
                if record is None:
                    raise SystemExit(f"{workload} seed {seed}: {error}")
                table[workload][str(key)] = record["fingerprint"]
                print(workload, key, record["fingerprint"], flush=True)
    (HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
