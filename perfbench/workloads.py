"""The benchmark's workloads, each driven through the program's public API.

Every workload builds its inputs from the workload seed (per-op seeds come
from :func:`repro.sim.rng.derive_seed`), runs one op at a time in a closed
loop with one client, and checks every op against statistics of the
``engine="reference"`` tier -- never against the tier under test.  The
reference statistics come from ``pins.json`` when the input is pinned
there and are otherwise computed at run time, outside the timed region.

The array-native workloads (columnar_scale, recorded_replay) take their
token assignment from a pool of :data:`POOL` pinned instances, picked by
``seed % POOL``: a reference-tier run at n = 10^5 takes about 90 s, too
long to repeat inside a benchmark run, so each pool instance is pinned
once by ``perfbench/pin.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

from repro.core.algorithm1 import make_algorithm1_factory
from repro.experiments.runner import execute
from repro.experiments.scenarios import hinet_interval_scenario, hinet_one_scenario
from repro.experiments.sweeps import sweep_records
from repro.graphs.generators.static import clustered_star_arrays
from repro.graphs.properties import is_hinet, is_T_interval_connected, windows_of
from repro.io import load_recording, run_record_to_dict, save_recording
from repro.obs.stream import JsonlStreamSink, TelemetryBus
from repro.sim.engine import SynchronousEngine
from repro.sim.rng import derive_seed
from repro.sim.topology import CSRNetwork

from . import tracing

#: Pinned token-assignment instances per array-native workload.
POOL = 4

#: Round whose reconstructed state recorded_replay checks.
REPLAY_ROUND = 36


# -- shared helpers -------------------------------------------------------------

def run_stats(result) -> Dict[str, Any]:
    """The simulated statistics every op is checked on."""
    m = result.metrics
    return {
        "rounds": m.rounds,
        "completion_round": m.completion_round,
        "tokens_sent": m.tokens_sent,
        "messages_sent": m.messages_sent,
        "coverage": sum(len(toks) for toks in result.outputs.values()),
    }


def outputs_digest(result) -> str:
    """SHA-256 over every node's final token set (as a bit mask)."""
    outputs = result.outputs
    masks = np.fromiter(
        (sum(1 << t for t in outputs.get(v, ())) for v in range(result.n)),
        dtype=np.int64, count=result.n,
    )
    return hashlib.sha256(masks.tobytes()).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dense_initial(n: int, k: int, seed: int) -> Dict[int, frozenset]:
    """Every node starts with one uniformly drawn token."""
    tokens = np.random.default_rng(seed).integers(0, k, n)
    return {v: frozenset((int(t),)) for v, t in enumerate(tokens)}


def trace_counts(trace) -> Dict[str, int]:
    return {
        "graphs.generators.snapshots": len(trace),
        "graphs.generators.edges": sum(
            sum(len(nbrs) for nbrs in snap.adj) // 2 for snap in trace
        ),
    }


def block_windows(trace, T: int) -> int:
    return sum(1 for _ in windows_of(trace.horizon, T, "blocks"))


def mismatches(got: Dict[str, Any], want: Dict[str, Any], what: str) -> List[str]:
    return [
        f"{what}: {key} = {got.get(key)!r}, reference tier gives {value!r}"
        for key, value in want.items() if got.get(key) != value
    ]


class TracedBus(TelemetryBus):
    """A telemetry bus whose engine-facing calls are ``obs`` spans."""

    def __init__(self, sinks, tracer) -> None:
        super().__init__(sinks)
        self._tracer = tracer

    def on_round(self, timeline) -> None:
        with self._tracer.span("obs.stream"):
            super().on_round(timeline)

    def end_run(self, result=None, summary=None) -> None:
        with self._tracer.span("obs.stream"):
            super().end_run(result, summary)


def make_bus(tracer, path: Path) -> TelemetryBus:
    sinks = [JsonlStreamSink(path)]
    return TracedBus(sinks, tracer) if tracer.enabled else TelemetryBus(sinks)


# -- traced scenario builders for cached_sweep cells -----------------------------
#
# Module-level so they pickle into parallel_map workers.  Verification is
# split out of the builder so generation and certification get spans of
# their own; the built scenario is the same as the untraced builder's.

def traced_interval_scenario(verify: bool = True, **kwargs):
    tracer = tracing.task_tracer()
    with tracer.span("graphs.generators") as attrs:
        scenario = hinet_interval_scenario(verify=False, **kwargs)
    attrs.update(trace_counts(scenario.trace))
    if verify:
        T, L = scenario.params["T"], scenario.params["L"]
        with tracer.span("graphs.properties") as attrs:
            ok = is_hinet(scenario.trace, T, L)
        attrs["graphs.properties.windows"] = 2 * block_windows(scenario.trace, T)
        if not ok:
            raise AssertionError("generated trace failed (T, L)-HiNet verification")
    return scenario


def traced_one_scenario(verify: bool = True, **kwargs):
    tracer = tracing.task_tracer()
    with tracer.span("graphs.generators") as attrs:
        scenario = hinet_one_scenario(verify=False, **kwargs)
    attrs.update(trace_counts(scenario.trace))
    if verify:
        L = scenario.params["L"]
        with tracer.span("graphs.properties") as attrs:
            ok = is_hinet(scenario.trace, 1, L) and is_T_interval_connected(
                scenario.trace, 1
            )
        attrs["graphs.properties.windows"] = 3 * scenario.trace.horizon
        if not ok:
            raise AssertionError("generated trace failed (1, L)-HiNet verification")
    return scenario


# -- workloads ------------------------------------------------------------------

class Workload:
    """One set of inputs, run op by op.

    ``op(i, tracer)`` is the timed region and returns an outcome dict with
    at least ``node_rounds``; ``check(outcome)`` returns the op's
    mismatches against the reference tier; ``counters(outcome)`` gives
    per-layer counts for a traced op (computed after the op's span closed).
    """

    name = ""
    #: Algorithm executions ("cells") per op; none of them hits a cache.
    cells = 1

    def __init__(self, seed: int, smoke: bool, tmp: Path,
                 pins: Dict[str, Dict[str, Any]]) -> None:
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp
        self.pins = pins.get(self.name, {})
        #: reference statistics used so far, by pin key
        self.references: Dict[str, Any] = {}

    def reference(self, key: str, compute: Callable[[], Any]) -> Any:
        if key not in self.references:
            self.references[key] = (
                self.pins[key] if key in self.pins else compute()
            )
        return self.references[key]

    def setup(self) -> None:
        """Build the fixed inputs (called before each warm-up op)."""

    def op(self, i, tracer) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, outcome: Dict[str, Any]) -> List[str]:
        raise NotImplementedError

    def counters(self, outcome: Dict[str, Any]) -> Dict[str, float]:
        return {}


class CertifiedRun(Workload):
    name = "certified_run"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        n0, theta, k = (60, 18, 8) if self.smoke else (200, 60, 16)
        self.params = dict(n0=n0, theta=theta, k=k, alpha=3, L=2)

    def op(self, i, tracer) -> Dict[str, Any]:
        seed = derive_seed(self.seed, self.name, i)
        with tracer.span("graphs.generators"):
            scenario = hinet_interval_scenario(verify=False, seed=seed, **self.params)
        T, L = scenario.params["T"], scenario.params["L"]
        with tracer.span("graphs.properties"):
            certified = is_hinet(scenario.trace, T, L)
        with tracer.span("sim.topology"):
            for snapshot in scenario.trace:
                snapshot.arrays()
        with tracer.span("obs.stream"):
            bus = make_bus(tracer, self.tmp / "events.jsonl")
        with tracer.span("sim.engine"):
            record = execute("algorithm1", scenario, engine="columnar",
                             cache=False, obs="timeline", stream=bus)
        with tracer.span("obs.stream"):
            bus.close()
        out = self.tmp / "record.json"
        with tracer.span("io.encode"):
            out.write_text(json.dumps(run_record_to_dict(record)))
        return {
            "seed": seed,
            "scenario": scenario,
            "certified": certified,
            "record": record,
            "bus": bus,
            "bytes": out.stat().st_size,
            "node_rounds": record.n * record.rounds,
        }

    def check(self, outcome) -> List[str]:
        scenario = outcome["scenario"]
        key = f"n0={self.params['n0']}/seed={outcome['seed']}"
        want = self.reference(key, lambda: run_stats(
            execute("algorithm1", scenario, engine="reference", cache=False,
                    obs="timeline").result
        ))
        problems = mismatches(run_stats(outcome["record"].result), want, key)
        if not outcome["certified"]:
            problems.append(f"{key}: generated trace is not a (T, L)-HiNet")
        return problems

    def counters(self, outcome) -> Dict[str, float]:
        scenario, record, bus = outcome["scenario"], outcome["record"], outcome["bus"]
        return {
            **trace_counts(scenario.trace),
            "graphs.properties.windows": 2 * block_windows(
                scenario.trace, scenario.params["T"]
            ),
            "sim.topology.snapshots_converted": len({id(s) for s in scenario.trace}),
            **tracing.engine_counts(record.n, record.result.metrics),
            "obs.stream.events": bus.published,
            "obs.stream.drops": bus.drops,
            "io.bytes_written": outcome["bytes"],
        }


class _ClusteredStar(Workload):
    """Algorithm 1 (T=12, M=6, k=16, 72 rounds) on a clustered star."""

    k, T, M, rounds = 16, 12, 6, 72
    full_size = smoke_size = (0, 0)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.n, self.theta = self.smoke_size if self.smoke else self.full_size
        self.instance = self.seed % POOL
        self.key = f"n={self.n}/instance={self.instance}"

    def setup(self) -> None:
        self.initial = dense_initial(
            self.n, self.k, derive_seed(self.instance, self.name, "initial")
        )
        self.factory = make_algorithm1_factory(T=self.T, M=self.M)

    def reference_run(self, obs: str):
        net = CSRNetwork(clustered_star_arrays(self.n, self.theta))
        return SynchronousEngine(engine="reference", obs=obs).run(
            net, self.factory, self.k, self.initial, self.rounds
        )


class ColumnarScale(_ClusteredStar):
    name = "columnar_scale"
    full_size, smoke_size = (100_000, 3000), (1500, 50)

    def op(self, i, tracer) -> Dict[str, Any]:
        with tracer.span("graphs.generators"):
            arrays = clustered_star_arrays(self.n, self.theta)
        with tracer.span("sim.topology"):
            net = CSRNetwork(arrays)
        with tracer.span("sim.engine"):
            result = SynchronousEngine(engine="columnar", obs="timeline").run(
                net, self.factory, self.k, self.initial, self.rounds
            )
        return {"result": result, "arrays": arrays,
                "node_rounds": self.n * result.metrics.rounds}

    def check(self, outcome) -> List[str]:
        def compute():
            ref = self.reference_run("timeline")
            return {**run_stats(ref), "digest": outputs_digest(ref)}

        want = self.reference(self.key, compute)
        result = outcome["result"]
        got = {**run_stats(result), "digest": outputs_digest(result)}
        return mismatches(got, want, self.key)

    def counters(self, outcome) -> Dict[str, float]:
        return {
            "graphs.generators.snapshots": 1,
            "graphs.generators.edges": int(outcome["arrays"].indptr[-1]) // 2,
            **tracing.engine_counts(self.n, outcome["result"].metrics),
        }


class RecordedReplay(_ClusteredStar):
    name = "recorded_replay"
    full_size, smoke_size = (10_000, 300), (1000, 30)

    def setup(self) -> None:
        super().setup()
        self.net = CSRNetwork(clustered_star_arrays(self.n, self.theta))

    def op(self, i, tracer) -> Dict[str, Any]:
        with tracer.span("obs.stream"):
            bus = make_bus(tracer, self.tmp / "events.jsonl")
        with tracer.span("sim.engine"):
            result = SynchronousEngine(
                engine="columnar", obs="record", stream=bus
            ).run(self.net, self.factory, self.k, self.initial, self.rounds)
        with tracer.span("obs.stream"):
            bus.close()
        path = self.tmp / "recording.json"
        with tracer.span("io.encode"):
            save_recording(result.recording, path)
        with tracer.span("io.decode"):
            loaded = load_recording(path)
        with tracer.span("obs.recorder.state_at"):
            state = loaded.state_at(REPLAY_ROUND)
        return {"result": result, "bus": bus, "path": path, "loaded": loaded,
                "state_coverage": sum(len(t) for t in state.values()),
                "node_rounds": self.n * result.metrics.rounds}

    def check(self, outcome) -> List[str]:
        def compute():
            ref = self.reference_run("record")
            ref_path = self.tmp / "reference.json"
            save_recording(ref.recording, ref_path)
            return {**run_stats(ref), "digest": file_digest(ref_path),
                    "coverage_at_replay_round": ref.timeline.coverage[REPLAY_ROUND]}

        want = self.reference(self.key, compute)
        result = outcome["result"]
        got = {**run_stats(result), "digest": file_digest(outcome["path"]),
               "coverage_at_replay_round": outcome["state_coverage"]}
        problems = mismatches(got, want, self.key)
        live = result.timeline.coverage[REPLAY_ROUND]
        if outcome["state_coverage"] != live:
            problems.append(
                f"{self.key}: state_at({REPLAY_ROUND}) covers "
                f"{outcome['state_coverage']} pairs, live timeline {live}"
            )
        return problems

    def counters(self, outcome) -> Dict[str, float]:
        bus = outcome["bus"]
        size = outcome["path"].stat().st_size
        return {
            **tracing.engine_counts(self.n, outcome["result"].metrics),
            "obs.stream.events": bus.published,
            "obs.stream.drops": bus.drops,
            "obs.recorder.deltas": sum(
                len(d.gained) + len(d.lost) for d in outcome["loaded"].rounds
            ),
            "io.bytes_written": size,
            "io.bytes_read": size,
        }


class CachedSweep(Workload):
    name = "cached_sweep"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.processes = min(2, os.cpu_count() or 1)
        # (n0, seeds): algorithm 2 stays at n0=48 because generating and
        # certifying a (1, L)-HiNet (horizon n0-1) costs ~1 s of CPU at
        # n0=96 and ~4 s at n0=160 -- one cell longer than a whole pass
        a1 = ((48, 2),) if self.smoke else ((48, 2), (96, 1), (160, 1))
        a2 = ((48, 1),) if self.smoke else ((48, 2),)
        self.grids = {
            "algorithm1": [
                dict(n0=n0, theta=max(n0 * 3 // 10, 5), k=8, alpha=5, L=2,
                     seed=derive_seed(self.seed, self.name, "algorithm1", n0, s))
                for n0, seeds in a1 for s in range(seeds)
            ],
            "algorithm2": [
                dict(n0=n0, theta=max(n0 * 3 // 10, 5), k=8, L=2,
                     seed=derive_seed(self.seed, self.name, "algorithm2", n0, s))
                for n0, seeds in a2 for s in range(seeds)
            ],
        }
        self.cells = sum(len(g) for g in self.grids.values())
        self.builders = {"algorithm1": hinet_interval_scenario,
                         "algorithm2": hinet_one_scenario}

    def _pass(self, cache: Path, tracer) -> List[Any]:
        if not tracer.enabled:
            return self._sweep(cache, self.builders)
        with tracing.traced_sweeps(tracer):
            return self._sweep(cache, {"algorithm1": traced_interval_scenario,
                                       "algorithm2": traced_one_scenario})

    def _sweep(self, cache: Path, builders) -> List[Any]:
        records = []
        for algorithm, grid in self.grids.items():
            cells = [dict(cell, verify=True) for cell in grid]
            records += sweep_records(algorithm, builders[algorithm], cells,
                                     processes=self.processes, cache=str(cache))
        return records

    def op(self, i, tracer) -> Dict[str, Any]:
        cache = self.tmp / f"cache-{i}"
        shutil.rmtree(cache, ignore_errors=True)
        start = time.perf_counter()
        cold = self._pass(cache, tracer)
        middle = time.perf_counter()
        entries = _entries(cache)
        resumed = time.perf_counter()
        warm = self._pass(cache, tracer)
        end = time.perf_counter()
        return {
            "cold": cold, "warm": warm, "cache": cache,
            "cold_s": middle - start, "warm_s": end - resumed,
            "entries_after_cold": entries, "entries_after_warm": _entries(cache),
            # only the cold pass executes; warm cells are cache hits
            "node_rounds": sum(r.n * r.rounds for r in cold),
        }

    @staticmethod
    def key(algorithm: str, cell: Dict[str, Any]) -> str:
        return f"{algorithm}/n0={cell['n0']}/seed={cell['seed']}"

    def _reference_stats(self) -> Dict[str, Any]:
        """Reference-tier statistics of every cell, by pin key.  Unpinned
        cells run as one reference sweep in the worker pool, which keeps
        the oracle's memory out of this process's peak RSS."""
        stats = {}
        for algorithm, grid in self.grids.items():
            todo = [c for c in grid if self.key(algorithm, c) not in self.pins]
            records = sweep_records(
                algorithm, self.builders[algorithm],
                [dict(c, verify=False) for c in todo],
                processes=self.processes, cache=False, engine="reference",
            ) if todo else []
            for cell, record in zip(todo, records):
                stats[self.key(algorithm, cell)] = run_stats(record.result)
            for cell in grid:
                key = self.key(algorithm, cell)
                stats.setdefault(key, self.pins.get(key))
        return stats

    def check(self, outcome) -> List[str]:
        if not self.references:
            self.references = self._reference_stats()
        problems = []
        cells = [(a, c) for a, grid in self.grids.items() for c in grid]
        for (algorithm, cell), record in zip(cells, outcome["cold"]):
            key = self.key(algorithm, cell)
            problems += mismatches(run_stats(record.result),
                                   self.references[key], key)
        cold = [run_record_to_dict(r) for r in outcome["cold"]]
        warm = [run_record_to_dict(r) for r in outcome["warm"]]
        if cold != warm:
            problems.append("warm-pass records differ from the cold pass")
        if len(outcome["entries_after_cold"]) != self.cells:
            problems.append(
                f"cold pass wrote {len(outcome['entries_after_cold'])} cache "
                f"entries for {self.cells} cells"
            )
        if outcome["entries_after_warm"] != outcome["entries_after_cold"]:
            problems.append("warm pass wrote cache entries")
        shutil.rmtree(outcome["cache"], ignore_errors=True)
        return problems


def _entries(cache: Path) -> Dict[str, int]:
    """Cache entry file -> modification time (ns)."""
    return {str(p): p.stat().st_mtime_ns for p in cache.glob("*/*.json")}


WORKLOADS = {w.name: w for w in (CertifiedRun, ColumnarScale, CachedSweep,
                                 RecordedReplay)}
