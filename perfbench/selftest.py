"""Self-checks of the benchmark itself (not collected by pytest).

Usage, from the repository root::

    python3 perfbench/selftest.py

* fidelity gate: ``incast`` under ``engine_defaults(tx_batch_limit=8)``
  (packet-train batching, which changes results) must be reported failed
  on every sample, while the default engine matches the reference;
* seed plumbing: the same seed gives the same fingerprint in separate
  processes, a different seed gives a different ``websearch`` and
  ``sweep`` fingerprint, and ``incast``/``rdcn`` take no seed;
* trace sanity: a traced ``rdcn`` run matches its untraced fingerprint and
  shows circuit calls; a traced ``websearch`` run shows no routing-policy
  calls (run.py fails the run otherwise).

Takes about two minutes; exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args):
    """Run run.py; returns (result dict, full stdout)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=240,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from run import reference_fingerprint, run_sample
    from workloads import DEFAULT_SEED, inputs

    failures = []

    def check(name, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'}  {name}{'  ' + detail if detail else ''}",
              flush=True)
        if not ok:
            failures.append(name)

    result, _ = bench("--workload", "incast", "--seconds", "1")
    check("default engine matches the incast reference", result["correct"]
          and result["failed"] == 0, json.dumps(result["metrics"]))
    result, _ = bench("--workload", "incast", "--seconds", "1",
                      "--tx-batch-limit", "8")
    check("gate rejects incast under tx_batch_limit=8",
          not result["correct"] and result["failed"] == result["attempted"],
          f"attempted {result['attempted']} failed {result['failed']}")

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as scratch:
        def fingerprint(workload, seed):
            record, error = run_sample(
                workload, inputs(workload, seed), "light", scratch, 120
            )
            if record is None:
                raise RuntimeError(error)
            return record["fingerprint"]

        for workload in ("websearch", "sweep"):
            first = fingerprint(workload, DEFAULT_SEED)
            check(f"{workload}: default seed matches its reference",
                  first == reference_fingerprint(workload, DEFAULT_SEED))
            check(f"{workload}: same seed, same fingerprint",
                  fingerprint(workload, DEFAULT_SEED) == first)
            other = fingerprint(workload, DEFAULT_SEED + 1)
            check(f"{workload}: another seed, another fingerprint", other != first,
                  f"seed {DEFAULT_SEED + 1}: {other[:16]}")
    for workload in ("incast", "rdcn"):
        check(f"{workload} is seed-free",
              inputs(workload, DEFAULT_SEED) == inputs(workload, 12345) == {})

    result, out = bench("--workload", "rdcn", "--seconds", "1", "--trace", "1")
    check("traced rdcn matches untraced and reference", result["correct"])
    check("traced rdcn shows circuit calls",
          result["metrics"]["circuit.calls"]["value"] > 0)
    result, _ = bench("--workload", "websearch", "--seconds", "1", "--trace", "1")
    check("traced websearch: inline ECMP path live (no routing.select calls)",
          result["correct"]
          and result["metrics"]["routing.select_calls"]["value"] == 0)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
