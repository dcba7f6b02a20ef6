"""Fleet execution: measure matrix cases, gate them against history.

:func:`measure_case` runs one :class:`~repro.bench.matrix.BenchCase`
through the one true pipeline — :func:`repro.experiments.runner.execute`
— and produces a flat stats dict:

* **counters** (``rounds``/``tokens_sent``/``messages_sent``) from a
  single canonical run (optionally through a
  :class:`~repro.experiments.cache.ResultCache`, so a warm CI cache
  skips recomputation; timing never touches the cache);
* **equivalence** against the case's ``baseline_engine`` — outputs,
  metrics and timeline must be bit-identical, the registry-wide
  engine-tier contract (an overhead case's metrics must instead equal
  those of its observer-free run);
* **paired timing** via :func:`~repro.bench.history.time_ms_paired`
  (interleaved samples) yielding the machine-portable ``speedup`` ratio,
  or an overhead case's ``overhead`` ratio; unpaired cases record
  absolute wall-clock instead;
* **peak traced memory** (tracemalloc) from a separate *untimed* run, so
  instrumentation never distorts the timing samples.

:func:`run_fleet` maps that over the matrix with
:func:`repro.experiments.parallel.parallel_map` (cases are plain frozen
dataclasses, so they pickle into worker processes), and
:func:`gate_fleet` turns the results + the previous history bucket into
:class:`GateViolation`\\ s — the seven gate kinds are ``equivalence``,
``counter`` (exact match vs history), ``speedup`` (ratio floor vs
history), ``overhead``, ``budget`` and ``memory`` (absolute per-case
ceilings), and ``envelope`` (benign-family counters must stay inside
the analytical bounds :func:`repro.analysis.predict` evaluates for the
case, and the measured/predicted ratio must not drift vs the previous
bucket).
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .history import time_ms, time_ms_paired
from .matrix import BenchCase, build_scenario

__all__ = [
    "CaseResult",
    "GateViolation",
    "equivalent",
    "fleet_rows",
    "gate_fleet",
    "measure_case",
    "measure_ratio",
    "run_fleet",
]

#: History stat keys gated as exact-match deterministic counters.
COUNTER_KEYS = ("rounds", "tokens_sent", "messages_sent")

#: (stat ratio key, measured counter key) pairs the envelope gate tracks.
ENVELOPE_KEYS = (
    ("envelope_ratio_rounds", "rounds"),
    ("envelope_ratio_messages", "messages_sent"),
    ("envelope_ratio_tokens", "tokens_sent"),
)


def equivalent(a, b) -> bool:
    """The engine-tier bit-identity contract: two :class:`RunResult`\\ s
    agree on outputs, metrics and the telemetry timeline."""
    return (
        a.outputs == b.outputs
        and a.metrics == b.metrics
        and a.timeline == b.timeline
    )


def measure_ratio(
    fn_base: Callable[[], object],
    fn_case: Callable[[], object],
    repeats: int = 5,
    inject_ms: float = 0.0,
) -> Tuple[Dict[str, float], Dict[str, float], float]:
    """Paired timing of case-vs-baseline: ``(base_stats, case_stats, speedup)``.

    Samples interleave (:func:`time_ms_paired`) so allocator drift lands
    on both sides; ``speedup`` is baseline median / case median.
    ``inject_ms`` sleeps inside the *case* callable only — the testing
    hook behind ``--inject-slowdown`` and the gate's self-tests.
    """
    sleep_s = inject_ms / 1000.0

    def timed_case():
        if sleep_s:
            time.sleep(sleep_s)
        return fn_case()

    base_stats, case_stats = time_ms_paired(fn_base, timed_case,
                                            repeats=repeats)
    return base_stats, case_stats, base_stats["median_ms"] / case_stats["median_ms"]


@dataclass
class CaseResult:
    """One measured matrix case: the case plus its flat stats dict
    (exactly what lands in the history bucket)."""

    case: BenchCase
    stats: Dict[str, object]

    @property
    def name(self) -> str:
        return self.case.name

    def row(self) -> Dict[str, object]:
        """Fixed-width table row for the CLI run summary."""
        stats = self.stats
        speedup, overhead = stats.get("speedup"), stats.get("overhead")
        return {
            "case": self.name,
            "rounds": stats.get("rounds"),
            "tokens": stats.get("tokens_sent"),
            "median_ms": stats.get("median_ms"),
            "speedup": f"{speedup:.2f}x" if speedup is not None else "-",
            "overhead": f"{overhead:.2f}x" if overhead is not None else "-",
            "peak_mb": stats.get("peak_mb"),
            "identical": stats.get("identical", "-"),
        }


def fleet_rows(results: Sequence[CaseResult]) -> List[Dict[str, object]]:
    return [result.row() for result in results]


def _envelope_stats(case: BenchCase, scenario, stats: Dict[str, object],
                    inject_envelope: float) -> None:
    """Attach analytical-envelope columns to a benign case's stats.

    ``inject_envelope`` scales the measured/predicted *ratios* only
    (never the counters, which stay gated as exact history matches) — a
    factor > 1/ratio pushes the case outside its envelope, the testing
    hook behind ``--inject-envelope`` and the gate's self-tests.
    """
    if case.family != "benign":
        return
    try:
        from ..analysis import predict
        pred = predict(case.algorithm, scenario)
    except Exception:
        return  # no envelope registered / unbound symbols / sympy absent
    stats["envelope_rounds"] = pred.rounds
    stats["envelope_messages"] = pred.messages
    stats["envelope_tokens"] = pred.tokens
    ratios = {}
    for key, bound in (("rounds", pred.rounds),
                       ("messages_sent", pred.messages),
                       ("tokens_sent", pred.tokens)):
        measured = stats.get(key)
        if isinstance(measured, (int, float)) and bound:
            ratios[key] = round(measured * inject_envelope / bound, 4)
    stats["envelope_ratio_rounds"] = ratios.get("rounds")
    stats["envelope_ratio_messages"] = ratios.get("messages_sent")
    stats["envelope_ratio_tokens"] = ratios.get("tokens_sent")
    stats["envelope_ok"] = all(r <= 1.0 for r in ratios.values())


def measure_case(
    case: BenchCase,
    repeats: int = 3,
    inject_ms: float = 0.0,
    cache=None,
    memory: bool = True,
    inject_envelope: float = 1.0,
) -> CaseResult:
    """Measure one matrix case end to end (see module docstring).

    ``cache`` (directory or :class:`ResultCache`) backs the *counter*
    run only; the timing/memory runs always execute fresh
    (``cache=False``) — a cached replay has no kernel cost to measure.
    """
    from ..experiments.runner import execute
    from ..obs import BufferSink, TelemetryBus

    scenario = build_scenario(case)
    if case.pinned is not None:
        # gate instances always run fresh (the star has no fingerprint)
        cache = None

    def run(engine: str, use_cache=False, obs=case.obs, stream=case.stream):
        bus = TelemetryBus([BufferSink()]) if stream else None
        try:
            return execute(
                case.algorithm,
                scenario,
                engine=engine,
                obs=obs,
                stream=bus,
                cache=cache if (use_cache and cache is not None) else False,
            )
        finally:
            if bus is not None:
                bus.close()

    record = run(case.engine, use_cache=True)
    stats: Dict[str, object] = {
        "engine": case.engine,
        "obs": case.obs,
        "n": record.n,
        "rounds": record.rounds,
        "tokens_sent": record.tokens_sent,
        "messages_sent": record.messages_sent,
        "complete": record.complete,
    }
    _envelope_stats(case, scenario, stats, inject_envelope)

    baseline = case.baseline_engine
    if baseline is not None:
        base_record = run(baseline, use_cache=True)
        stats["identical"] = equivalent(record.result, base_record.result)
        stats["baseline_engine"] = baseline
    if case.overhead_budget is not None:
        def plain():  # the same engine without the extra observer
            return run(case.engine, obs=case.obs if case.stream else "off",
                       stream=False)

        stats["identical"] = record.result.metrics == plain().result.metrics
        base_stats, timing, _ = measure_ratio(
            plain,
            lambda: run(case.engine),
            repeats=repeats,
            inject_ms=inject_ms,
        )
        stats["baseline_median_ms"] = base_stats["median_ms"]
        stats["overhead"] = round(
            timing["median_ms"] / base_stats["median_ms"], 4
        )
    elif baseline is not None and case.paired:
        base_stats, timing, speedup = measure_ratio(
            lambda: run(baseline),
            lambda: run(case.engine),
            repeats=repeats,
            inject_ms=inject_ms,
        )
        stats["baseline_median_ms"] = base_stats["median_ms"]
        stats["speedup"] = round(speedup, 4)
    else:
        sleep_s = inject_ms / 1000.0

        def timed():
            if sleep_s:
                time.sleep(sleep_s)
            return run(case.engine)

        timing = time_ms(timed, repeats=repeats)
    stats["best_ms"] = timing["best_ms"]
    stats["median_ms"] = timing["median_ms"]
    stats["mean_ms"] = timing["mean_ms"]
    stats["repeats"] = timing["repeats"]

    if memory:
        # separate untimed run: tracing allocations slows execution, so it
        # must never share a run with the timing samples
        tracemalloc.start()
        try:
            run(case.engine)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stats["peak_mb"] = round(peak / (1024 * 1024), 3)
    return CaseResult(case=case, stats=stats)


def _fleet_task(item) -> CaseResult:
    """Module-level worker (``parallel_map``'s pickling contract)."""
    case, repeats, inject_ms, cache_dir, memory, inject_env = item
    return measure_case(case, repeats=repeats, inject_ms=inject_ms,
                        cache=cache_dir, memory=memory,
                        inject_envelope=inject_env)


def _stall_limit_ms(case: BenchCase, repeats: int, memory: bool) -> float:
    """Default mid-run stall threshold for one fleet case.

    :func:`measure_case` executes the scenario many times (counter +
    baseline runs, ``2·repeats`` paired timing samples, the memory
    pass), so the threshold is the per-run ``budget_ms`` scaled by a
    generous execution count — a case flagged here is far beyond
    blowing its budget, not merely noisy.
    """
    executions = 3 + 2 * repeats + (1 if memory else 0)
    return max(10_000.0, case.budget_ms * 2.0 * executions)


def run_fleet(
    cases: Sequence[BenchCase],
    repeats: int = 3,
    processes: Optional[int] = 1,
    inject: Optional[Dict[str, float]] = None,
    cache=None,
    memory: bool = True,
    inject_envelope: Optional[Dict[str, float]] = None,
    heartbeat: Optional[Callable[[Dict[str, object]], None]] = None,
    stall_after_ms: Optional[float] = None,
) -> List[CaseResult]:
    """Measure a set of cases, optionally across worker processes.

    ``processes`` defaults to 1 (serial): paired timing wants an
    otherwise-idle machine, so process-parallelism is an explicit opt-in
    for counter-heavy sweeps on large runners.  ``inject`` maps case
    names to artificial slowdowns in ms (the ``--inject-slowdown``
    hook); ``inject_envelope`` maps case names to ratio-inflation
    factors (the ``--inject-envelope`` hook).  Results come back in
    input order.

    ``heartbeat`` receives one ``case`` event as each case starts and
    finishes (``{"type": "case", "case": name, "status": "start" |
    "done" | "stall", …}``) — live per-case progress instead of fleet
    silence.  While a heartbeat is attached, a watchdog flags any case
    still running past ``stall_after_ms`` (default: a generous multiple
    of the case's ``budget_ms`` via :func:`_stall_limit_ms`) with a
    ``"stall"`` event *while it runs* — the case is not killed, just
    surfaced.  A case that overruns its limit and finishes between two
    watchdog polls gets its one ``"stall"`` event just before its
    ``"done"`` event.
    """
    from ..experiments.parallel import parallel_map

    inject = inject or {}
    inject_envelope = inject_envelope or {}
    cache_dir = cache if isinstance(cache, (str, type(None))) else str(cache)
    items = [
        (case, repeats, float(inject.get(case.name, 0.0)), cache_dir, memory,
         float(inject_envelope.get(case.name, 1.0)))
        for case in cases
    ]
    if heartbeat is None:
        return parallel_map(_fleet_task, items, processes=processes)

    import threading

    cases = list(cases)
    lock = threading.Lock()
    running: Dict[int, float] = {}
    flagged: set = set()

    def overdue(idx: int, t0: float) -> Optional[Dict[str, object]]:
        """The case's one ``stall`` event once it runs past its limit
        (caller holds ``lock``)."""
        limit = (
            stall_after_ms
            if stall_after_ms is not None
            else _stall_limit_ms(cases[idx], repeats, memory)
        )
        elapsed_ms = (time.monotonic() - t0) * 1000.0
        if idx in flagged or elapsed_ms <= limit:
            return None
        flagged.add(idx)
        return {
            "type": "case",
            "case": cases[idx].name,
            "status": "stall",
            "elapsed_ms": round(elapsed_ms, 1),
            "stall_after_ms": round(limit, 1),
            "budget_ms": cases[idx].budget_ms,
        }

    def case_event(event: Dict[str, object]) -> None:
        if event.get("type") != "task":
            heartbeat(event)
            return
        idx = event.get("item")
        case = cases[idx]
        out: Dict[str, object] = {
            "type": "case",
            "case": case.name,
            "status": event.get("status"),
        }
        for key in ("pid", "ms", "elapsed_s"):
            if key in event:
                out[key] = event[key]
        stall = None
        with lock:
            if out["status"] == "start":
                running[idx] = time.monotonic()
            elif out["status"] == "done" and idx in running:
                # a case that overran its limit between two watchdog polls
                # is still flagged, before its done event
                stall = overdue(idx, running.pop(idx))
        if stall is not None:
            heartbeat(stall)
        heartbeat(out)

    stop = threading.Event()

    def watchdog() -> None:
        while not stop.wait(0.05):
            with lock:
                stalls = [overdue(idx, t0) for idx, t0 in running.items()]
            for stall in stalls:
                if stall is not None:
                    heartbeat(stall)

    watcher = threading.Thread(target=watchdog, daemon=True)
    watcher.start()
    try:
        return parallel_map(
            _fleet_task, items, processes=processes, heartbeat=case_event
        )
    finally:
        stop.set()
        watcher.join(timeout=2.0)


@dataclass
class GateViolation:
    """One tripped fleet gate, attributable to a (case, engine) pair."""

    case: str
    engine: str
    # "equivalence" | "counter" | "speedup" | "overhead" | "budget" |
    # "memory" | "envelope"
    kind: str
    message: str
    measured: object = None
    expected: object = None
    metric: str = field(default="")

    def format(self) -> str:
        return f"[{self.kind}] {self.case} (engine={self.engine}): {self.message}"


def gate_fleet(
    results: Sequence[CaseResult],
    previous_cases: Optional[Dict[str, Dict[str, object]]] = None,
    threshold: float = 0.5,
    envelope_drift: float = 0.25,
) -> List[GateViolation]:
    """Gate fleet results against budgets and the previous history bucket.

    Absolute gates (no history needed): engine equivalence, an overhead
    case's ratio against its ``overhead_budget``, per-case time and
    memory budgets, and the analytical envelope — a benign case whose
    measured counters exceed the Table 2 bounds
    (``envelope_ok == False``) fails outright.  History gates
    (``previous_cases`` is the previous bucket's case dict):
    deterministic counters must match **exactly**, the speedup ratio must
    stay above ``previous · (1 − threshold)``, and each
    measured/predicted envelope ratio must stay within
    ``envelope_drift`` (relative) of the previous bucket's ratio.  The
    default speedup threshold is deliberately loose (50%) — the fleet
    runs small-n cases on shared CI runners, and its job is catching
    cliffs, not 10% noise; a case's own ``speedup_threshold`` (25% on
    the n0 = 100 gate case) tightens it.
    """
    previous_cases = previous_cases or {}
    violations: List[GateViolation] = []
    for result in results:
        case, stats = result.case, result.stats
        if stats.get("envelope_ok") is False:
            bad = [
                f"{counter} at {stats.get(key):.2f}x of bound"
                for key, counter in ENVELOPE_KEYS
                if isinstance(stats.get(key), (int, float))
                and stats[key] > 1.0
            ]
            violations.append(GateViolation(
                case=case.name, engine=case.engine, kind="envelope",
                message=(
                    "measured trajectory exited the analytical envelope: "
                    + "; ".join(bad)
                ),
                measured=False, expected=True, metric="envelope_ok",
            ))
        if stats.get("identical") is False:
            if case.overhead_budget is not None:
                message = (f"obs={case.obs!r}"
                           f"{' with a telemetry bus' if case.stream else ''}"
                           " changed the run's metrics")
            else:
                message = (f"engine {case.engine!r} diverged from "
                           f"{case.baseline_engine!r} "
                           "(outputs/metrics/timeline)")
            violations.append(GateViolation(
                case=case.name, engine=case.engine, kind="equivalence",
                message=message,
                measured=False, expected=True, metric="identical",
            ))
        overhead = stats.get("overhead")
        if (
            isinstance(overhead, (int, float))
            and case.overhead_budget is not None
            and overhead > case.overhead_budget
        ):
            violations.append(GateViolation(
                case=case.name, engine=case.engine, kind="overhead",
                message=(
                    f"{overhead:.2f}x the observer-free run blew the "
                    f"{case.overhead_budget:g}x overhead budget"
                ),
                measured=overhead, expected=case.overhead_budget,
                metric="overhead",
            ))
        median = stats.get("median_ms")
        if isinstance(median, (int, float)) and median > case.budget_ms:
            violations.append(GateViolation(
                case=case.name, engine=case.engine, kind="budget",
                message=(
                    f"median {median:.1f} ms blew the {case.budget_ms:.0f} ms "
                    "case budget"
                ),
                measured=median, expected=case.budget_ms, metric="median_ms",
            ))
        peak = stats.get("peak_mb")
        if isinstance(peak, (int, float)) and peak > case.memory_budget_mb:
            violations.append(GateViolation(
                case=case.name, engine=case.engine, kind="memory",
                message=(
                    f"peak traced memory {peak:.1f} MB blew the "
                    f"{case.memory_budget_mb:.0f} MB case budget"
                ),
                measured=peak, expected=case.memory_budget_mb,
                metric="peak_mb",
            ))

        previous = previous_cases.get(case.name)
        if not isinstance(previous, dict):
            continue
        for key in COUNTER_KEYS:
            want, got = previous.get(key), stats.get(key)
            if want is not None and got is not None and got != want:
                violations.append(GateViolation(
                    case=case.name, engine=case.engine, kind="counter",
                    message=(
                        f"{key} drifted: measured {got} != {want} recorded "
                        "last bucket (deterministic counter — engine "
                        "semantics changed)"
                    ),
                    measured=got, expected=want, metric=key,
                ))
        prev_speedup = previous.get("speedup")
        speedup = stats.get("speedup")
        if (
            isinstance(prev_speedup, (int, float))
            and isinstance(speedup, (int, float))
        ):
            allowed = case.speedup_allowance(threshold)
            floor = float(prev_speedup) * (1.0 - allowed)
            if speedup < floor:
                violations.append(GateViolation(
                    case=case.name, engine=case.engine, kind="speedup",
                    message=(
                        f"speedup regressed: {speedup:.2f}x < floor "
                        f"{floor:.2f}x (last bucket {prev_speedup:.2f}x, "
                        f"threshold {allowed:.0%})"
                    ),
                    measured=speedup, expected=floor, metric="speedup",
                ))
        for key, counter in ENVELOPE_KEYS:
            prev_ratio, ratio = previous.get(key), stats.get(key)
            if (
                not isinstance(prev_ratio, (int, float))
                or not isinstance(ratio, (int, float))
                or prev_ratio <= 0
            ):
                continue
            drift = abs(ratio - prev_ratio) / prev_ratio
            if drift > envelope_drift:
                violations.append(GateViolation(
                    case=case.name, engine=case.engine, kind="envelope",
                    message=(
                        f"measured/predicted {counter} ratio drifted "
                        f"{drift:.0%} vs last bucket ({prev_ratio:.3f} -> "
                        f"{ratio:.3f}; allowed {envelope_drift:.0%})"
                    ),
                    measured=ratio, expected=prev_ratio, metric=key,
                ))
    return violations
