#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload certified_run --seed 0 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced closed loop
(one client, one op at a time).  ``--trace 1`` spends half the time
untraced and half traced, and prints the per-layer metrics, each layer's
self time with its share of the traced op, and ``trace_overhead``.  The
last line of standard output is the JSON result; the full result (run
manifest, op samples, failures and, when traced, every span) is written
under ``.perfbench/results/``.

Set-up (imports, fixed inputs, one warm-up op) is timed three times and
``setup_s`` is the import time plus the median of the other part.  Every
op is checked against the reference engine tier (see ``workloads.py``);
an op that raises or mismatches counts as failed.  The default seed is 0
and the held-out seed is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
#: Share of a traced run's time spent traced (the rest is the untraced baseline).
TRACED_SHARE = 0.5
#: Named layers must cover at least this share of a traced op.
MIN_COVERAGE = 0.9


def tail(samples):
    """``(value, percentile, ops beyond)`` for the highest percentile that
    has at least 10 samples beyond it; with fewer than 11 samples no
    percentile qualifies and the maximum is returned."""
    xs = sorted(samples)
    if len(xs) >= 11:
        return xs[-11], 100.0 * (len(xs) - 10) / len(xs), 10
    return xs[-1], 100.0, 0


def git_state():
    """``(sha, dirty)`` of the checkout, or ``("unknown", None)`` outside git."""
    if not (ROOT / ".git").exists():
        return "unknown", None

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return "unknown", None
    return sha, dirty


def version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def measure(workload, tracer, budget: float, first: int, ops: list) -> int:
    """Run ops until their measured time reaches ``budget`` seconds; append
    one sample per op to ``ops`` and return the next op index."""
    spent, i = 0.0, first
    while spent < budget or i == first:
        tracer.op = i
        outcome, failures = None, []
        start = time.perf_counter()
        try:
            with tracer.span("bench.op") as attrs:
                outcome = workload.op(i, tracer)
        except Exception as exc:  # a raising op is a failed op, not a crash
            failures = [f"op {i} raised {exc!r}"]
        elapsed = time.perf_counter() - start
        sample = {"index": i, "seconds": elapsed, "traced": tracer.enabled}
        if outcome is not None:
            for key in ("node_rounds", "cold_s", "warm_s"):
                if key in outcome:
                    sample[key] = outcome[key]
            if tracer.enabled:
                attrs.update(workload.counters(outcome))
            try:
                failures = workload.check(outcome)
            except Exception as exc:
                failures = [f"check of op {i} raised {exc!r}"]
        sample["failures"] = failures
        ops.append(sample)
        spent += elapsed
        i += 1
    return i


def end_to_end(workload, samples, setup_s):
    """The end-to-end metrics of the untraced ops, and notes to print with
    them.  Workloads without a cache run every cell cold, so their warm
    rate equals the cold one."""
    good = [s for s in samples if not s["failures"]] or samples
    times = [s["seconds"] for s in good]
    value, pct, beyond = tail(times)
    notes = {"op_s_tail": f"p{pct:.0f} of {len(times)} ops, {beyond} beyond it"
             if beyond else f"p100 of {len(times)} ops: fewer than 11, so the maximum"}
    cells = workload.cells
    cold = [s.get("cold_s", s["seconds"]) for s in good]
    warm = [s.get("warm_s", s["seconds"]) for s in good]
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (value, "s"),
        "node_rounds_per_s": (sum(s["node_rounds"] for s in good) / sum(times), "1/s"),
        "cells_per_s_cold": (statistics.median(cells / t for t in cold), "1/s"),
        "cells_per_s_warm": (statistics.median(cells / t for t in warm), "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, notes


def per_layer(summary, overhead):
    """The per-layer metrics from a :func:`tracing.summarize` summary."""
    from perfbench.tracing import LAYERS

    selfs, named, counts = summary["self"], summary["named"], summary["counts"]

    def ratio(num, den):
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    metrics = {f"{layer}.self_s": (selfs[layer], "s") for layer in LAYERS}
    for name in ("graphs.generators.snapshots", "graphs.generators.edges",
                 "graphs.properties.windows", "sim.topology.snapshots_converted",
                 "sim.engine.rounds", "sim.engine.messages", "sim.engine.tokens",
                 "obs.stream.events", "obs.stream.drops", "obs.recorder.deltas",
                 "experiments.cache.entries_written"):
        metrics[name] = (counts.get(name, 0.0), "count")
    for name in ("io.bytes_written", "io.bytes_read",
                 "experiments.cache.bytes_stored"):
        metrics[name] = (counts.get(name, 0.0), "B")
    metrics["sim.engine.node_rounds_per_s"] = (
        counts.get("sim.engine.node_rounds", 0.0) / selfs["sim.engine"]
        if selfs["sim.engine"] else 0.0, "1/s")
    for name, span in (("obs.recorder.state_at_s", "obs.recorder.state_at"),
                       ("io.encode_s", "io.encode"), ("io.decode_s", "io.decode"),
                       ("experiments.cache.fingerprint_s",
                        "experiments.cache.fingerprint")):
        metrics[name] = (named.get(span, 0.0), "s")
    metrics["experiments.cache.hit_ratio"] = (
        ratio("experiments.cache.hits", "experiments.cache.lookups"), "ratio")
    metrics["experiments.parallel.busy_s"] = (
        counts.get("experiments.parallel.busy_s", 0.0), "s")
    metrics["experiments.parallel.utilization"] = (
        ratio("experiments.parallel.busy_s", "experiments.parallel.capacity_s"),
        "ratio")
    metrics["experiments.parallel.queue_wait_s"] = (
        counts.get("experiments.parallel.queue_wait_s", 0.0), "s")
    metrics["trace_coverage"] = (
        1.0 - sum(summary["unattributed"].values()) / summary["total"], "ratio")
    metrics["trace_overhead"] = (overhead, "ratio")
    return metrics


def accounting(name, summary, metrics, traced_ops):
    """Lines stating where the traced op's time went, and whether the
    named layers cover it and the expected attributions hold."""
    from perfbench.tracing import LAYERS

    total = summary["total"]
    lines = [f"trace accounting for {name}: {traced_ops} traced ops, "
             f"{total:.4f} s of span self time per op (summed over processes)"]
    for layer in LAYERS:
        s = summary["self"][layer]
        lines.append(f"  {layer:<22} {s:10.4f} s  {100 * s / total:5.1f}%")
    for span, s in sorted(summary["unattributed"].items()):
        lines.append(f"  {'(' + span + ')':<22} {s:10.4f} s  {100 * s / total:5.1f}%")
    coverage = metrics["trace_coverage"][0]
    if coverage >= MIN_COVERAGE:
        lines.append(f"  named layers cover {100 * coverage:.1f}% of the op (>= 90%)")
    else:
        worst = max(summary["unattributed"], key=summary["unattributed"].get)
        lines.append(
            f"  MISSING LAYER: named layers cover only {100 * coverage:.1f}% of "
            f"the op; the rest is self time of '{worst}' spans, which no "
            f"named layer's span covers")
    share = {layer: summary["self"][layer] / total for layer in LAYERS}
    claims = {
        "certified_run": ("graphs.generators + graphs.properties",
                          share["graphs.generators"] + share["graphs.properties"]),
        "columnar_scale": ("sim.engine", share["sim.engine"]),
    }
    if name in claims:
        what, value = claims[name]
        verdict = "holds" if value > 0.5 else "MISMATCH"
        lines.append(f"  attribution: {what} self time is {100 * value:.1f}% of "
                     f"the op; majority expected: {verdict}")
    lines.append(f"  trace_overhead {metrics['trace_overhead'][0]:.4f} "
                 "(traced / untraced op wall-time median)")
    return lines


def run_workload(name, seed, seconds, trace, smoke=False, pins=None):
    """Set up and run one workload; returns the full result dict."""
    from perfbench import tracing
    from perfbench.workloads import WORKLOADS

    if pins is None:
        pins_path = HERE / "pins.json"
        pins = json.loads(pins_path.read_text()) if pins_path.exists() else {}
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, smoke, scratch, pins)
        setups = []
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            workload.setup()
            workload.op(f"warmup{rep}", tracing.NullTracer())
            setups.append(time.perf_counter() - start)
        untraced, traced = [], []
        budget = seconds * (1 - TRACED_SHARE) if trace else seconds
        nxt = measure(workload, tracing.NullTracer(), budget, 0, untraced)
        tracer = tracing.Tracer()
        if trace:
            measure(workload, tracer, seconds * TRACED_SHARE, nxt, traced)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"workload": workload, "setups": setups, "untraced": untraced,
            "traced": traced, "spans": tracer.spans, "references": workload.references}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes (self-tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    try:
        from perfbench import tracing, workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program under {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       smoke=args.smoke)
    workload, samples = run["workload"], run["untraced"] + run["traced"]
    if args.trace:
        overhead = (statistics.median(s["seconds"] for s in run["traced"])
                    / statistics.median(s["seconds"] for s in run["untraced"]))
        summary = tracing.summarize(run["spans"], len(run["traced"]))
        metrics, notes = per_layer(summary, overhead), {}
        lines = accounting(args.workload, summary, metrics, len(run["traced"]))
    else:
        setup_s = import_s + statistics.median(run["setups"])
        metrics, notes = end_to_end(workload, run["untraced"], setup_s)
        lines = []
    failures = [f for s in samples for f in s["failures"]]
    sha, dirty = git_state()
    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "git_sha": sha, "git_dirty": dirty,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": version("numpy"), "networkx": version("networkx"),
        "scipy": version("scipy"),
        "ops": {"untraced": len(run["untraced"]), "traced": len(run["traced"])},
        "setup_reps": [round(s, 6) for s in run["setups"]],
        "import_s": import_s,
    }
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (results_dir / f"{stem}.json").write_text(json.dumps({
        "manifest": manifest, "result": result, "samples": samples,
        "spans": run["spans"],
    }))

    print("manifest " + json.dumps(manifest, sort_keys=True))
    for line in lines:
        print(line)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    print(f"failed_ratio {result['failed']}/{result['attempted']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
