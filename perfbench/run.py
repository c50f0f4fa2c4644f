"""Results-exact simulator benchmark: one workload, several fresh processes.

Usage, from the repository root::

    python3 perfbench/run.py --workload websearch|incast|rdcn|sweep \\
        [--seed N] [--seconds S] [--trace 0|1]

Runs the workload (see workloads.py) again and again, each time in a
fresh ``python3 perfbench/sample.py`` process on the default engine, until
``--seconds`` have passed (at least ``MIN_SAMPLES`` times).  Every
sample's results fingerprint must equal the committed reference for this
seed (reference.json) when there is one, and must equal every other
sample's; a sample that raised or whose fingerprint differs is failed.
The engine identity (resolved scheduler, batch limit, compiled core) of
every sample must agree, so results from different engine configurations
are never pooled.

``--trace 0`` reports the end-to-end metrics as medians over the
samples: ``wall_s`` (workload seconds, imports excluded), ``setup_s``
(process start to the first ``Simulator.run``; to ``SweepRunner.run`` on
``sweep``) and ``peak_rss_mb``.  Every host time is reported at nominal
machine speed: the median seconds times ``NOMINAL_S`` over the median
seconds of the reference kernel (refkernel.py) that each sample times
right after its workload.  The raw medians are printed too.  ``fail_frac`` is ``failed/attempted`` of
the result line.  ``--trace 1`` runs one untraced sample, then traced
samples (tracer.py) for the rest of the time, and reports the per-layer
metrics; the traced fingerprint must equal the untraced one and every
layer the workload must use must show calls.

The last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a human-readable account of the run.  Exits 2 without a result when
the repository's ``src/repro`` is not next to this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_SAMPLES = 3
#: every run must end well inside the 180 s a run may take
HARD_LIMIT_S = 165.0

#: layers each workload must exercise (zero calls = broken trace or code)
REQUIRED_LAYERS = {
    "websearch": ("port", "switch", "transport", "cc", "pool"),
    "incast": ("port", "switch", "transport", "cc", "pool"),
    "rdcn": ("port", "circuit", "switch", "transport", "cc", "pool"),
    "sweep": ("port", "switch", "transport", "cc", "pool"),
}


def log(*parts) -> None:
    print(*parts, flush=True)


def metric_units(kind: str):
    """Name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer``
    metrics, in file order (the one definition of both lists)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def reference_fingerprint(workload: str, seed: int):
    """The committed fingerprint for (workload, seed), or None."""
    table = json.loads((HERE / "reference.json").read_text()).get(workload, {})
    return table.get("*", table.get(str(seed)))


def _kill_group(proc) -> None:
    """SIGKILL a sample's process group and reap the sample."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the whole group already exited
    proc.communicate()


def run_sample(workload, inputs, mode, scratch, timeout_s, tx_batch_limit=None):
    """One fresh-process sample; returns (record or None, error text)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(HERE / "sample.py"), workload, json.dumps(inputs),
        "--mode", mode, "--scratch", scratch,
    ]
    if tx_batch_limit is not None:
        cmd += ["--tx-batch-limit", str(tx_batch_limit)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    # Own session, so a timed-out sample is killed with any pool workers.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        return None, f"sample timed out after {timeout_s:.0f}s"
    except BaseException:
        _kill_group(proc)
        raise
    if proc.returncode != 0:
        return None, stderr.strip()[-2000:] or f"exit {proc.returncode}"
    try:
        return json.loads(stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, f"unparsable sample output: {stdout[-500:]!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tx-batch-limit", type=int, default=None,
        help="run under engine_defaults(tx_batch_limit=N) (gate self-test)",
    )
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running sample is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repository sources at {SRC / 'repro'}; run from a "
            "checkout that holds src/repro", file=sys.stderr,
        )
        return 2
    started = time.monotonic()
    # Byte-compile first, so no sample pays for it in setup_s.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    sys.path[:0] = [str(SRC), str(HERE)]
    from refkernel import NOMINAL_S
    from workloads import DEFAULT_SEED, WORKLOADS, inputs

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(WORKLOADS)}", file=sys.stderr,
        )
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workload_inputs = inputs(args.workload, seed)
    expected = reference_fingerprint(args.workload, seed)
    log(f"workload {args.workload}  seed {seed}  inputs {json.dumps(workload_inputs)}")

    samples, problems = [], []
    attempted = failed = 0
    longest = 0.0
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as scratch:
        while True:
            mode = "traced" if args.trace == 1 and attempted > 0 else "light"
            begun = time.monotonic()
            record, error = run_sample(
                args.workload, workload_inputs, mode, scratch,
                HARD_LIMIT_S - (begun - started), args.tx_batch_limit,
            )
            longest = max(longest, time.monotonic() - begun)
            attempted += 1
            if record is None:
                failed += 1
                problems.append(f"{mode} sample failed: {error}")
                log(f"  {mode:6s} FAILED: {error.splitlines()[-1] if error else ''}")
                if not samples:
                    break
            else:
                # Without a committed reference, the first sample is it.
                want = expected or (samples or [record])[0]["fingerprint"]
                ok = record["fingerprint"] == want
                failed += not ok
                samples.append(record)
                log(
                    f"  {mode:6s} wall_s {record['wall_s']:.4f}  setup_s "
                    f"{record['setup_s']:.4f}  kernel_s {record['kernel_s']:.4f}  "
                    f"peak_rss_mb "
                    f"{record['peak_rss_mb']:.1f}  events "
                    f"{record['engine_events']:.0f}  fingerprint "
                    f"{record['fingerprint'][:16]}{'' if ok else '  MISMATCH'}"
                )
            elapsed = time.monotonic() - started
            if args.trace == 1:
                enough = any(s["mode"] == "traced" for s in samples)
            else:
                enough = attempted >= MIN_SAMPLES
            if (enough and elapsed >= args.seconds) or (
                elapsed + 1.5 * longest > HARD_LIMIT_S
            ):
                break
    if not samples:
        print("perfbench: every sample failed:\n" + "\n".join(problems), file=sys.stderr)
        return 1

    engines = {json.dumps(s["engine"], sort_keys=True) for s in samples}
    if len(engines) != 1:
        problems.append(f"samples ran on different engines: {sorted(engines)}")
    log(f"engine {samples[0]['engine']}")
    fingerprints = sorted({s["fingerprint"] for s in samples})
    log(f"fingerprint {' '.join(fingerprints)}")
    if expected is None:
        log(f"  no committed reference for seed {seed}: compare this fingerprint "
            "between parent and change")
    elif fingerprints != [expected]:
        problems.append(f"fingerprint differs from the committed reference {expected}")
    else:
        log("  matches the committed reference")

    light = [s for s in samples if s["mode"] == "light"]
    # Host seconds -> seconds at the reference kernel's nominal speed.
    speed = NOMINAL_S / statistics.median(s["kernel_s"] for s in samples)
    log("raw medians: " + "  ".join(
        f"{name} {statistics.median(s[name] for s in light):.4f}"
        for name in ("wall_s", "setup_s", "kernel_s")
    ) + f"  -> speed factor {speed:.4f}")
    if args.trace == 0:
        metrics = {
            name: {
                "value": statistics.median(s[name] for s in light)
                * (speed if unit == "s" else 1.0),
                "unit": unit,
            }
            for name, unit in metric_units("end_to_end").items()
        }
    else:
        metrics, trace_problems = trace_metrics(
            args.workload, light[0], samples, speed
        )
        problems += trace_problems
    log(f"attempted {attempted}  failed {failed}  fail_frac {failed / attempted:.3f}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def trace_metrics(workload, light, samples, speed):
    """Per-layer metrics from the traced samples plus their checks; host
    times are multiplied by the run's ``speed`` factor."""
    problems = []
    traced = [s for s in samples if s["mode"] == "traced"]
    if not traced:
        return {}, ["no traced sample completed"]
    from tracer import IN_RUN_LAYERS

    # The wrappers' cost is only partly removed by calibration, so the
    # in-run self times are traced shares of the untraced run time.
    run_s = light["engine_run_s"] * speed
    in_run = [f"{layer}.self_s" for layer in IN_RUN_LAYERS]
    set_up = ("topology.build_s", "driver.start_flow_s", "analysis.collect_s")
    scaled = []
    for s in traced:
        layers = dict(s["layers"])
        total = sum(layers[key] for key in in_run)
        scale = run_s / total if total else 0.0
        for key in in_run:
            layers[key] *= scale
        for key in set_up:
            layers[key] *= speed
        layers["attribution_scale"] = scale / speed
        scaled.append(layers)
    values = {}
    for name in scaled[0]:
        column = [layers[name] for layers in scaled]
        if name.endswith("_s") or name == "attribution_scale":
            values[name] = statistics.median(column)
        else:
            if len(set(column)) != 1:
                problems.append(f"traced count {name} differs between samples: {column}")
            values[name] = column[0]
    if light["engine_events"] != values["engine.events"]:
        problems.append(
            f"traced run processed {values['engine.events']} events, "
            f"untraced {light['engine_events']}"
        )
    values["engine.run_s"] = run_s
    values["engine.ns_per_event"] = (
        1e9 * run_s / light["engine_events"] if light["engine_events"] else 0.0
    )
    sweep = light.get("sweep")
    values["sweep.cells"] = sweep["cells"] if sweep else 0
    values["sweep.cell_s_max"] = sweep["cell_s_max"] * speed if sweep else 0.0
    values["sweep.parallel_eff"] = (
        sweep["cell_s_sum"] / (sweep["jobs"] * light["wall_s"]) if sweep else 0.0
    )
    values["trace.overhead"] = (
        statistics.median(s["wall_s"] for s in traced) / light["wall_s"]
    )
    for s in traced:
        if s["fingerprint"] != light["fingerprint"]:
            problems.append("traced fingerprint differs from the untraced one")
    for layer in REQUIRED_LAYERS[workload]:
        if values[f"{layer}.calls"] == 0:
            problems.append(f"layer {layer} shows zero calls on {workload}")
    if workload != "rdcn" and values["circuit.calls"] != 0:
        problems.append(f"circuit layer called on {workload}")
    if workload == "websearch" and values["routing.select_calls"] != 0:
        problems.append(
            "routing.select_calls != 0 on websearch: the inline _EcmpSwitch "
            "path is no longer the live one"
        )
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in metric_units("per_layer").items()
    }
    log_layers(values, traced[len(traced) // 2], IN_RUN_LAYERS)
    return metrics, problems


def log_layers(values, sample, layers) -> None:
    """Human-readable layer table: self seconds and share of the sum."""
    total = sum(values[f"{layer}.self_s"] for layer in layers)
    log("layer       calls        self_s   share")
    for layer in layers:
        calls = values["engine.events"] if layer == "engine" else values[f"{layer}.calls"]
        self_s = values[f"{layer}.self_s"]
        log(f"  {layer:9s} {calls:>10.0f} {self_s:10.4f} {self_s / total if total else 0:7.1%}")
    log(f"  calibration {sample['calibration']}  attribution scale "
        f"{values['attribution_scale']:.3f}")
    for key, entry in sample["entries"].items():
        if entry["calls"]:
            log(f"    {key:34s} {entry['layer']:9s} {entry['calls']:>9d} "
                f"incl {entry['incl_s']:.4f} self {entry['self_s']:.4f}")


if __name__ == "__main__":
    sys.exit(main())
