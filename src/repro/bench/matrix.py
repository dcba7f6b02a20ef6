"""The declarative benchmark matrix: cases, tiers, budgets, scenarios.

A :class:`BenchCase` is one cell of the fleet's matrix over

    {algorithm spec} × {scenario family} × {n} × {engine tier} × {obs level}

— all plain scalars, so cases pickle into process-pool workers and print
as one row each (``repro bench --list``).  :func:`default_matrix` expands
the axes into every *valid* combination (family supported by the spec,
engine supported by the spec's kernel tags) and assigns each case to
named tiers:

* ``"quick"`` — the per-PR CI tier: small n, ``timeline`` telemetry,
  the vectorised engine paired against the reference engine, plus the
  five gate cases (:func:`gate_cases`);
* ``"full"`` — the nightly tier: everything in quick, plus larger n,
  reference-engine absolute-time cases, and raised obs levels
  (``trace``/``record``) whose overhead trajectory is worth tracking.

Every case carries generous **time and memory budgets** (roughly 10×
the expected cost on a laptop) — they exist to catch pathological
blowups on any machine, while the machine-*portable* regression signal
is the paired speedup ratio gated against the previous history bucket.

The gate cases run on two frozen instances instead of a family builder
(:attr:`BenchCase.pinned`): the n0 = 100, seed-47 Algorithm 1 HiNet
(:func:`regression_gate_scenario`) and the n = 10⁴ clustered star
(:func:`columnar_gate_scenario`), whose counters are pinned in
``tests/test_regression_pins.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..registry import AlgorithmSpec, get_spec

__all__ = [
    "BenchCase",
    "TIERS",
    "build_scenario",
    "case_rows",
    "columnar_gate_scenario",
    "default_matrix",
    "expand",
    "gate_cases",
    "regression_gate_scenario",
    "select",
]

#: Named tiers, cheapest first.  Every quick case is also a full case.
TIERS = ("quick", "full")

#: Fleet axes (what the default matrix expands).
FAMILIES = ("benign", "adversarial", "lossy", "churn")
ENGINES = ("reference", "columnar")
OBS_LEVELS = ("timeline", "trace", "record")

#: Matrix knobs: the specs worth tracking continuously (one per
#: implementation layer + the flooding baseline that runs on every
#: family), the per-tier sizes, and the fault parameters.
_ALGORITHMS = ("algorithm1", "algorithm2", "flood-all")
_QUICK_N = 48
_FULL_NS = (48, 160)
_K = 4
_SEED = 2013
_LOSS_P = 0.1
_CHURN_RATE = 0.02
_FAULT_SEED = 11


@dataclass(frozen=True)
class BenchCase:
    """One benchmark-matrix cell — everything needed to reproduce it.

    ``baseline_engine`` names the engine the case must be bit-identical
    to, and (when ``paired``) the engine it is timed against with
    interleaved samples: the recorded ``speedup`` (baseline median /
    case median) is a same-machine ratio and therefore the
    machine-portable metric the gate tracks.  ``paired=False`` keeps the
    baseline engine as an untimed equivalence oracle; ``None`` checks no
    equivalence.  Either way the case then records absolute wall-clock
    (never gated across machines).

    An *overhead* case (``overhead_budget`` set) is instead paired
    against the same engine without its extra observer — ``obs="off"``,
    or the same ``obs`` level without the telemetry bus when ``stream``
    attaches one — must leave that run's metrics unchanged, and may cost
    at most ``overhead_budget`` times as much.
    """

    algorithm: str
    family: str
    n: int
    engine: str
    obs: str = "timeline"
    k: int = _K
    seed: int = _SEED
    baseline_engine: Optional[str] = "reference"
    tiers: Tuple[str, ...] = ("full",)
    budget_ms: float = 5_000.0
    memory_budget_mb: float = 256.0
    paired: bool = True
    #: a frozen gate instance (see :data:`PINNED`) replacing the family's
    #: scenario builder
    pinned: Optional[str] = None
    #: a tighter per-case speedup floor than the fleet-wide threshold
    speedup_threshold: Optional[float] = None
    #: max case / observer-free wall-clock ratio (makes an overhead case)
    overhead_budget: Optional[float] = None
    #: attach a ``TelemetryBus(BufferSink)`` to every run of the case
    stream: bool = False

    @property
    def name(self) -> str:
        """Unique, colon-free id (colon is the ``--inject-slowdown``
        separator): ``algorithm_family_nN_engine_obs``, with the pinned
        instance in place of the family and a ``_stream`` suffix when a
        telemetry bus is attached."""
        return (
            f"{self.algorithm}_{self.pinned or self.family}_n{self.n}"
            f"_{self.engine}_{self.obs}{'_stream' if self.stream else ''}"
        )

    def row(self) -> Dict[str, object]:
        """Flat dict for ``repro bench --list`` tables."""
        return {
            "case": self.name,
            "algorithm": self.algorithm,
            "family": self.pinned or self.family,
            "n": self.n,
            "engine": self.engine,
            "obs": self.obs,
            "vs": self._vs(),
            "tiers": ",".join(self.tiers),
            "budget_ms": self.budget_ms,
            "mem_mb": self.memory_budget_mb,
        }

    def speedup_allowance(self, threshold: float) -> float:
        """The fractional speedup loss this case may show against the
        previous bucket: the fleet-wide ``threshold``, tightened by the
        case's own ``speedup_threshold``."""
        return min(threshold, self.speedup_threshold or threshold)

    def _vs(self) -> str:
        if self.overhead_budget is not None:
            plain = "no bus" if self.stream else "obs=off"
            return f"{plain} (<= {self.overhead_budget:g}x)"
        if self.baseline_engine is None:
            return "-"
        if not self.paired:
            return f"{self.baseline_engine} (untimed)"
        if self.speedup_threshold is not None:
            return f"{self.baseline_engine} (floor -{self.speedup_threshold:.0%})"
        return self.baseline_engine


def _budget_ms(n: int, engine: str, obs: str) -> float:
    """Generous per-case wall-clock budget for one timed sample.

    ~10× a laptop's expected cost, so the budget only trips on
    pathological blowups (accidental O(n²) round loops, a spin in an obs
    hook), never on a slow CI runner.
    """
    base = 1_500.0 * (n / _QUICK_N) ** 1.5
    if engine == "reference":
        base *= 8.0
    if obs in ("trace", "record"):
        base *= 3.0
    return round(base, 1)


def _memory_budget_mb(n: int, obs: str) -> float:
    """Generous traced-allocation budget (Python-heap peak, tracemalloc)."""
    base = 96.0 + 0.05 * n
    if obs == "record":
        base *= 2.0
    return round(base, 1)


def _case(
    spec: AlgorithmSpec,
    family: str,
    n: int,
    engine: str,
    obs: str,
    tiers: Tuple[str, ...],
    baseline: Optional[str],
) -> BenchCase:
    return BenchCase(
        algorithm=spec.name,
        family=family,
        n=n,
        engine=engine,
        obs=obs,
        baseline_engine=baseline,
        tiers=tiers,
        budget_ms=_budget_ms(n, engine, obs),
        memory_budget_mb=_memory_budget_mb(n, obs),
    )


def _supports_engine(spec: AlgorithmSpec, engine: str) -> bool:
    # the columnar tier is only meaningful where the spec opted in
    return engine != "columnar" or spec.columnar


def gate_cases() -> List[BenchCase]:
    """The five quick-tier gate cases on the two pinned instances.

    * the n0 = 100 Algorithm 1 run, columnar paired against reference,
      with a 25% speedup floor;
    * the n = 10⁴ clustered star: counters and equivalence with the
      reference engine, timed alone (one reference run costs seconds)
      under a tight absolute budget;
    * ``obs="trace"`` and ``obs="record"`` at most 3× the ``obs="off"``
      run, and a telemetry bus at most 1.15× the bus-free run.
    """
    quick = ("quick", "full")

    def pinned(obs: str = "timeline", **kw) -> BenchCase:
        return BenchCase(
            algorithm="algorithm1", family="benign", n=100,
            engine="columnar", obs=obs, k=8, seed=47, tiers=quick,
            pinned="hinet47", budget_ms=_budget_ms(100, "columnar", obs),
            memory_budget_mb=_memory_budget_mb(100, obs), **kw,
        )

    return [
        pinned(speedup_threshold=0.25),
        BenchCase(
            algorithm="algorithm1", family="benign", n=10_000,
            engine="columnar", k=16, paired=False, tiers=quick,
            pinned="star", budget_ms=300.0,
            memory_budget_mb=_memory_budget_mb(10_000, "timeline"),
        ),
        pinned("trace", baseline_engine=None, overhead_budget=3.0),
        pinned("record", baseline_engine=None, overhead_budget=3.0),
        pinned(baseline_engine=None, overhead_budget=1.15, stream=True),
    ]


def default_matrix() -> List[BenchCase]:
    """Expand the fleet's axes into every valid case, tiers assigned.

    Validity is registry-driven: a (spec, family) pair is skipped unless
    the spec declares the family (``AlgorithmSpec.families``), and the
    columnar engine only appears for specs with columnar kernels.  The
    :func:`gate_cases` close the list.
    """
    cases: List[BenchCase] = []
    for name in _ALGORITHMS:
        spec = get_spec(name)
        for family in FAMILIES:
            if family not in spec.families:
                continue
            for n in _FULL_NS:
                for engine in ENGINES:
                    if not _supports_engine(spec, engine):
                        continue
                    if engine == "reference":
                        # absolute wall-clock context, nightly only
                        cases.append(_case(spec, family, n, engine,
                                           "timeline", ("full",), None))
                        continue
                    tiers = (
                        ("quick", "full")
                        if n == _QUICK_N
                        else ("full",)
                    )
                    cases.append(_case(spec, family, n, engine,
                                       "timeline", tiers, "reference"))
            # raised obs levels: track telemetry overhead trajectories on
            # the benign columnar path (one engine is enough for a ratio)
            for obs in ("trace", "record"):
                if family == "benign":
                    cases.append(_case(spec, family, _QUICK_N, "columnar",
                                       obs, ("full",), "reference"))
    return cases + gate_cases()


def expand(tier: Optional[str] = None,
           matrix: Optional[Sequence[BenchCase]] = None) -> List[BenchCase]:
    """The matrix filtered to one named tier (``None`` = every case)."""
    if tier is not None and tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; known: {', '.join(TIERS)}")
    cases = list(default_matrix() if matrix is None else matrix)
    if tier is None:
        return cases
    return [case for case in cases if tier in case.tiers]


def select(names: Sequence[str],
           matrix: Optional[Sequence[BenchCase]] = None) -> List[BenchCase]:
    """Resolve case names against the matrix; unknown names raise."""
    cases = list(default_matrix() if matrix is None else matrix)
    by_name = {case.name: case for case in cases}
    missing = [name for name in names if name not in by_name]
    if missing:
        raise KeyError(
            f"unknown fleet case(s) {missing}; see 'repro bench --list'"
        )
    return [by_name[name] for name in names]


def case_rows(cases: Sequence[BenchCase]) -> List[Dict[str, object]]:
    """``--list`` table rows for a set of cases."""
    return [case.row() for case in cases]


# -- scenario construction ----------------------------------------------------

def _base_kind(spec: AlgorithmSpec) -> str:
    """The benign scenario family matching a spec's model class (the same
    mapping the CLI's ``--scenario auto`` applies)."""
    if spec.family == "multihop":
        return "dhop"
    if spec.model_class.startswith("(T"):
        return "hinet-interval"
    if spec.model_class.startswith("(1"):
        return "hinet-one"
    if spec.model_class.startswith("T-interval"):
        return "klo-interval"
    return "one-interval"


@lru_cache(maxsize=64)
def _benign_scenario(kind: str, n: int, k: int, seed: int):
    """Deterministic benign base scenario for one matrix cell, memoized so
    engine siblings of the same cell share one build per process.

    Builders run unverified (``verify=False``): the generators are
    property-tested, and a fleet re-verifying every cell would time the
    checkers, not the engines.
    """
    from ..experiments import scenarios as sc

    alpha, L = 3, 2
    theta = max(n * 3 // 10, alpha)
    if kind == "hinet-interval":
        return sc.hinet_interval_scenario(n0=n, theta=theta, k=k, alpha=alpha,
                                          L=L, seed=seed, verify=False)
    if kind == "hinet-one":
        return sc.hinet_one_scenario(n0=n, theta=theta, k=k, L=L, seed=seed,
                                     verify=False)
    if kind == "klo-interval":
        return sc.klo_interval_scenario(n0=n, k=k, alpha=alpha, L=L,
                                        seed=seed, verify=False)
    if kind == "dhop":
        return sc.dhop_scenario(n0=n, k=k, L=L, seed=seed)
    return sc.one_interval_scenario(n0=n, k=k, seed=seed, verify=False)


@lru_cache(maxsize=64)
def _adversarial_scenario(n: int, k: int, seed: int):
    from ..experiments.scenarios import haeupler_kuhn_scenario

    # verify=False: certification is the scenario suite's job; the fleet
    # times engines on the already-property-tested materialization
    return haeupler_kuhn_scenario(n0=n, k=k, seed=seed, verify=False)


def build_scenario(case: BenchCase):
    """The scenario one case runs on — deterministic in the case alone."""
    if case.pinned is not None:
        return _pinned_scenario(case.pinned)
    spec = get_spec(case.algorithm)
    if case.family == "adversarial":
        return _adversarial_scenario(case.n, case.k, case.seed)
    base = _benign_scenario(_base_kind(spec), case.n, case.k, case.seed)
    if case.family == "lossy":
        from ..experiments.scenarios import lossy_scenario

        return lossy_scenario(base, _LOSS_P, seed=_FAULT_SEED)
    if case.family == "churn":
        from ..experiments.scenarios import churn_scenario

        return churn_scenario(base, _CHURN_RATE, seed=_FAULT_SEED)
    return base


# -- the pinned gate instances ----------------------------------------------

def regression_gate_scenario():
    """The ``hinet47`` gate instance: n0 = 100, seed 47, 126 rounds.

    The same instance as the full-run case of
    ``benchmarks/bench_engine_throughput.py``; its 126-round /
    3498-token counters are pinned in tier-1.
    """
    from ..experiments.scenarios import hinet_interval_scenario

    return hinet_interval_scenario(
        n0=100, theta=30, k=8, alpha=5, L=2, seed=47, verify=False
    )


def columnar_gate_scenario():
    """The ``star`` gate instance: a clustered star at n = 10⁴.

    An array-native CSR topology in the columnar tier's home regime, not
    a certified HiNet: ``alpha`` is chosen only so that Theorem 1's plan,
    ⌈θ/α⌉ + 1 phases of T, reproduces the frozen 6 × 12 = 72-round
    budget whose 31300-token counter is pinned in tier-1.  It has no
    cache fingerprint, so the fleet always executes it fresh.
    """
    from ..experiments.scenarios import Scenario
    from ..graphs.generators.static import clustered_star_arrays
    from ..sim.topology import CSRNetwork

    n, theta, k = 10_000, 300, 16
    return Scenario(
        name=f"clustered_star(n={n}, theta={theta})",
        trace=CSRNetwork(clustered_star_arrays(n, theta)),
        k=k,
        initial={v: frozenset({v % k}) for v in range(n)},
        params={"T": 12, "theta": theta, "alpha": 60},
    )


#: Pinned instance name -> builder (see :attr:`BenchCase.pinned`).
PINNED = {"hinet47": regression_gate_scenario, "star": columnar_gate_scenario}


@lru_cache(maxsize=None)
def _pinned_scenario(name: str):
    return PINNED[name]()
