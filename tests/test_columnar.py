"""Vectorised-engine equivalence: ``engine="columnar"`` (and its alias
``engine="fast"``) must be bit-identical to the reference engine for
every supported algorithm and scenario family, sharded or not, at every
``obs`` level, with monitors and at any latency, and must fall back to
the reference engine everywhere else.  Also covers the packed-bitset
codecs, the array-native :class:`~repro.sim.topology.CSRNetwork`, and
the array-native topology builders."""

import argparse
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.baselines.flooding import make_flood_all_factory, make_flood_new_factory
from repro.baselines.gossip import make_gossip_factory
from repro.baselines.klo import make_klo_interval_factory, make_klo_one_factory
from repro.core.algorithm1 import make_algorithm1_factory
from repro.core.algorithm1_stable import make_algorithm1_stable_factory
from repro.core.algorithm2 import make_algorithm2_factory
from repro.experiments.runner import execute
from repro.experiments.scenarios import (
    hinet_interval_scenario,
    hinet_one_scenario,
    one_interval_scenario,
)
from repro.graphs.generators.static import clustered_star_arrays, ring_lattice_arrays
from repro.obs.monitors import default_monitors
from repro.registry import all_specs
from repro.sim import columnar
from repro.sim.engine import SynchronousEngine
from repro.sim.linkmodel import CrashChurn, IidLoss, LinkChain
from repro.sim.topology import CSRNetwork, Snapshot


def _hinet(seed, n0=50, theta=16, k=5, alpha=4, L=2):
    return hinet_interval_scenario(
        n0=n0, theta=theta, k=k, alpha=alpha, L=L, seed=seed, verify=False
    )


def _hinet1(seed, n0=40, theta=12, k=4):
    return hinet_one_scenario(n0=n0, theta=theta, k=k, seed=seed, verify=False)


def _flat(seed, n0=30, k=4):
    return one_interval_scenario(n0=n0, k=k, seed=seed, verify=False)


def _case_id(case):
    return case[0]


#: Nightly CI widens the seed sweep (REPRO_EQUIV_SEEDS=6); default 2.
SEEDS = list(range(1, 1 + int(os.environ.get("REPRO_EQUIV_SEEDS", "2"))))

#: Engines the vectorised engine is cross-checked against: the reference
#: engine is the oracle (``"fast"`` is an alias of the vectorised engine).
BASELINE_ENGINES = [
    e.strip()
    for e in os.environ.get("REPRO_EQUIV_ENGINES", "reference").split(",")
    if e.strip()
]

# (name, scenario builder, factory builder, max_rounds) — mirrors
# tests/test_fastpath.py so both suites pin the vectorised engine on the
# same grid.
CASES = [
    ("alg1", _hinet, lambda s: make_algorithm1_factory(T=12, M=5), 60),
    ("alg1-strict", _hinet, lambda s: make_algorithm1_factory(T=12, M=5, strict=True), 60),
    ("alg1-stable", _hinet, lambda s: make_algorithm1_stable_factory(T=12, M=5), 60),
    ("alg2", _hinet1, lambda s: make_algorithm2_factory(M=s.n - 1), 45),
    ("klo-interval", _hinet, lambda s: make_klo_interval_factory(T=12, M=5), 60),
    ("klo-one", _flat, lambda s: make_klo_one_factory(M=s.n - 1), 35),
    ("klo-one-clustered", _hinet1, lambda s: make_klo_one_factory(M=s.n - 1), 45),
    ("flood-all", _flat, lambda s: make_flood_all_factory(), 35),
    ("flood-new", _flat, lambda s: make_flood_new_factory(), 35),
    ("flood-new-clustered", _hinet, lambda s: make_flood_new_factory(), 40),
]


def _columnar_ran(result) -> bool:
    """Whether the vectorised engine (not the reference fallback) executed
    the run: only the reference engine hands back per-node objects."""
    return result.algorithms is None


def assert_matches_reference(scenario, factory, max_rounds, monitors=False,
                             **engine_kwargs):
    """Run the vectorised and the reference engine; compare every
    observable, including causal traces, recordings and violations."""
    results = []
    for engine in ("columnar", "reference"):
        results.append(SynchronousEngine(engine=engine, **engine_kwargs).run(
            scenario.trace, factory, scenario.k, scenario.initial, max_rounds,
            monitors=default_monitors() if monitors else None,
        ))
    col, ref = results
    assert _columnar_ran(col) and not _columnar_ran(ref)
    assert col.outputs == ref.outputs
    assert col.complete == ref.complete
    assert col.metrics == ref.metrics
    assert col.timeline == ref.timeline
    assert col.causal_trace == ref.causal_trace
    assert col.recording == ref.recording
    assert col.violations == ref.violations
    return col


def assert_columnar_equivalent(scenario, factory, max_rounds, **engine_kwargs):
    """Run columnar + baseline engines and compare every observable."""
    col = SynchronousEngine(engine="columnar", **engine_kwargs).run(
        scenario.trace, factory, scenario.k, scenario.initial, max_rounds
    )
    for engine in BASELINE_ENGINES:
        kwargs = dict(engine_kwargs)
        if engine != "reference":
            kwargs["engine"] = engine
        base = SynchronousEngine(**kwargs).run(
            scenario.trace, factory, scenario.k, scenario.initial, max_rounds
        )
        assert col.n == base.n and col.k == base.k
        assert col.outputs == base.outputs
        assert col.complete == base.complete
        assert col.metrics == base.metrics
        assert col.timeline == base.timeline
    assert col.trace is None and col.algorithms is None
    return col


class TestEquivalence:
    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical(self, case, seed):
        name, scen_fn, fac_fn, max_rounds = case
        scenario = scen_fn(seed)
        assert_columnar_equivalent(scenario, fac_fn(scenario), max_rounds)

    def test_stop_when_complete(self):
        scenario = _flat(4)
        factory = make_flood_all_factory()
        ref = SynchronousEngine().run(
            scenario.trace, factory, scenario.k, scenario.initial, 40,
            stop_when_complete=True,
        )
        col = SynchronousEngine(engine="columnar").run(
            scenario.trace, factory, scenario.k, scenario.initial, 40,
            stop_when_complete=True,
        )
        assert col.metrics.rounds == ref.metrics.rounds
        assert col.outputs == ref.outputs

    def test_wide_token_sets(self):
        # k > 64 exercises multi-word bitset rows through the spmm kernel
        n, k = 20, 130
        scenario = _flat(8, n0=n, k=4)  # topology only; assignment built here
        initial = {v: frozenset(range(v * 7, min(v * 7 + 7, k))) for v in range(n)}
        factory = make_flood_all_factory()
        ref = SynchronousEngine().run(scenario.trace, factory, k, initial, 25)
        col = SynchronousEngine(engine="columnar").run(
            scenario.trace, factory, k, initial, 25
        )
        assert col.outputs == ref.outputs
        assert col.metrics == ref.metrics


class TestRegistryWideIdentity:
    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_columnar_matches_fast_per_spec(self, spec):
        """Every registered algorithm: outputs, metrics and (at
        obs="record") the full RunRecording agree columnar⇄reference — or
        the vectorised engine falls back to the reference and trivially
        agrees.  ``"fast"`` is an alias of ``"columnar"``, so the
        reference is the only meaningful oracle."""
        args = argparse.Namespace(scenario="auto", n0=24, theta=7, k=3,
                                  alpha=3, L=2, seed=5)
        scenario = cli._build_scenario(args, spec)
        overrides = {"seed": 9} if spec.seeded else {}
        ref = execute(spec, scenario, engine="reference", obs="record",
                      **overrides)
        col = execute(spec, scenario, engine="columnar", obs="record",
                      **overrides)
        assert col.result.outputs == ref.result.outputs
        assert col.result.metrics == ref.result.metrics
        rec_ref, rec_col = ref.result.recording, col.result.recording
        assert rec_ref is not None and rec_col is not None
        assert rec_col == rec_ref
        assert rec_col.fingerprint() == rec_ref.fingerprint()
        last = rec_col.rounds_recorded - 1
        assert rec_col.state_at(last) == col.result.outputs


class TestSharded:
    def test_serial_shards_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR_SHARDS", "3")
        for seed in SEEDS:
            scenario = _hinet(seed)
            assert_columnar_equivalent(
                scenario, make_algorithm1_factory(T=12, M=5), 60
            )

    def test_shard_count_does_not_change_results(self, monkeypatch):
        scenario = _flat(6)
        factory = make_flood_new_factory()

        def go():
            return SynchronousEngine(engine="columnar").run(
                scenario.trace, factory, scenario.k, scenario.initial, 30
            )

        monkeypatch.delenv("REPRO_COLUMNAR_SHARDS", raising=False)
        unsharded = go()
        results = {}
        for shards in (2, 4, 7):
            monkeypatch.setenv("REPRO_COLUMNAR_SHARDS", str(shards))
            results[shards] = go()
        for shards, res in results.items():
            assert res.outputs == unsharded.outputs, f"shards={shards}"
            assert res.metrics == unsharded.metrics, f"shards={shards}"

    def test_process_pool_shards_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR_SHARDS", "2")
        monkeypatch.setenv("REPRO_COLUMNAR_SHARD_PROCESSES", "2")
        scenario = _flat(3)
        assert_columnar_equivalent(scenario, make_flood_new_factory(), 30)


class TestDispatch:
    def test_supported_kinds_match_fastpath(self):
        from repro.sim import fastpath

        assert columnar.supported_kinds() == fastpath.supported_kinds()

    def test_columnar_tier_actually_runs(self):
        scenario = _flat(3)
        result = SynchronousEngine(engine="columnar", obs="profile").run(
            scenario.trace, make_flood_all_factory(), scenario.k,
            scenario.initial, 10
        )
        assert _columnar_ran(result)
        assert result.algorithms is None

    def test_untagged_factory_falls_back(self):
        scenario = _flat(3)
        factory = make_gossip_factory(seed=1)
        assert not hasattr(factory, "fastpath")
        result = SynchronousEngine(engine="columnar").run(
            scenario.trace, factory, scenario.k, scenario.initial, 10
        )
        # reference path ran: per-node objects are present
        assert result.algorithms is not None

    def test_loss_runs_natively_and_matches_reference(self):
        # the LinkModel seam runs lossy channels on the vectorised engine
        # itself, bit-identical to the reference
        scenario = _flat(3)
        result = SynchronousEngine(engine="columnar", obs="profile",
                                   loss_p=0.25, loss_seed=11).run(
            scenario.trace, make_flood_all_factory(), scenario.k,
            scenario.initial, 10
        )
        assert _columnar_ran(result)
        ref = SynchronousEngine(loss_p=0.25, loss_seed=11).run(
            scenario.trace, make_flood_all_factory(), scenario.k,
            scenario.initial, 10
        )
        assert result.outputs == ref.outputs
        assert result.metrics == ref.metrics

    # Latency, tracing and monitors run natively (the test names are kept
    # for continuity) and must match the reference on every observable.

    def test_latency_falls_back(self):
        scenario = _hinet(3)
        for latency in (2, 3):
            assert_matches_reference(
                scenario, make_algorithm1_factory(T=12, M=5), 60,
                latency=latency, obs="record",
            )

    def test_obs_trace_falls_back(self):
        scenario = _hinet(3)
        col = assert_matches_reference(
            scenario, make_algorithm1_factory(T=12, M=5), 60, obs="trace",
        )
        assert col.causal_trace is not None

    def test_monitors_fall_back(self):
        scenario = _hinet(3)
        col = assert_matches_reference(
            scenario, make_algorithm2_factory(M=20), 30, monitors=True,
        )
        assert col.violations is not None

    @pytest.mark.parametrize("obs", ["trace", "record"])
    def test_latency_loss_churn_trace_monitors_combined(self, obs):
        """Everything at once on clustered strict Algorithm 1: latency 3,
        i.i.d. loss, crash-stop churn, an observer and monitors."""
        scenario = _hinet(5)
        link = LinkChain([IidLoss(0.2, seed=3), CrashChurn(0.01, seed=4)])
        col = assert_matches_reference(
            scenario, make_algorithm1_factory(T=12, M=5, strict=True), 60,
            monitors=True, latency=3, link=link, obs=obs,
        )
        assert col.metrics.lost_deliveries > 0
        assert col.metrics.crashed_nodes > 0

    def test_invalid_engine_mode_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            SynchronousEngine(engine="warp")


class TestPackedCodecs:
    @given(
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=149),
                          max_size=12),
            min_size=1, max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_pack_unpack_round_trip(self, rows):
        k = 150
        bits = columnar.pack_rows(rows, k)
        assert bits.shape == (len(rows), columnar.words_for(k))
        assert bits.dtype == np.uint64
        assert columnar.unpack_rows(bits) == [tuple(sorted(r)) for r in rows]

    def test_pack_single_tokens_matches_pack_rows(self):
        tokens = np.array([0, 63, 64, 127, -1, 5])
        k = 128
        single = columnar.pack_single_tokens(tokens, k)
        rows = [frozenset() if t < 0 else frozenset({int(t)})
                for t in tokens]
        assert np.array_equal(single, columnar.pack_rows(rows, k))

    def test_pack_single_tokens_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            columnar.pack_single_tokens(np.array([4]), 4)

    def test_words_for(self):
        assert [columnar.words_for(k) for k in (1, 64, 65, 128, 129)] == \
            [1, 1, 2, 2, 3]


class TestCSRNetwork:
    def test_snapshot_matches_arrays(self):
        arrs = ring_lattice_arrays(12, 4)
        net = CSRNetwork(arrs)
        assert net.n == 12
        snap = net.snapshot(0)
        assert isinstance(snap, Snapshot)
        for v in range(12):
            start, end = int(arrs.indptr[v]), int(arrs.indptr[v + 1])
            assert snap.adj[v] == frozenset(
                int(u) for u in arrs.indices[start:end]
            )
        assert net.snapshot(0) is snap  # memoized

    def test_clustered_star_is_valid_hierarchy(self):
        net = CSRNetwork(clustered_star_arrays(40, 5))
        snap = net.snapshot(0)
        snap.validate_hierarchy()

    def test_sequence_of_snapshots_bounds_checked(self):
        arrs = [ring_lattice_arrays(10, 2), ring_lattice_arrays(10, 4)]
        net = CSRNetwork(arrs)
        assert net.horizon == 2
        net.snapshot_arrays(1)
        with pytest.raises(ValueError, match="outside"):
            net.snapshot_arrays(2)

    def test_single_arrays_repeat_forever(self):
        net = CSRNetwork(ring_lattice_arrays(10, 2))
        assert net.snapshot_arrays(0) is net.snapshot_arrays(999)

    def test_columnar_equals_fast_on_csr_network(self):
        # "fast" is an alias of "columnar"; the reference is the oracle
        n, k = 64, 8
        net = CSRNetwork(clustered_star_arrays(n, 8))
        initial = {v: frozenset({v % k}) for v in range(n)}
        factory = make_algorithm1_factory(T=6, M=4)
        ref = SynchronousEngine().run(net, factory, k, initial, 36)
        for engine in ("fast", "columnar"):
            col = SynchronousEngine(engine=engine).run(net, factory, k,
                                                       initial, 36)
            assert col.outputs == ref.outputs
            assert col.metrics == ref.metrics
            assert col.timeline == ref.timeline


class TestArrayBuilders:
    def test_ring_lattice_arrays_validates(self):
        with pytest.raises(ValueError, match="even"):
            ring_lattice_arrays(10, 3)
        with pytest.raises(ValueError, match="n > degree"):
            ring_lattice_arrays(4, 4)

    def test_clustered_star_arrays_validates(self):
        with pytest.raises(ValueError, match="heads"):
            clustered_star_arrays(10, 2)
        with pytest.raises(ValueError, match="n > theta"):
            clustered_star_arrays(5, 5)

    def test_run_columnar_low_level_entry(self):
        """The benchmark entry point: packed initial state, no frozenset
        materialisation, coverage tracked from popcounts."""
        n, k = 200, 16
        net = CSRNetwork(ring_lattice_arrays(n, 4))
        TA0 = columnar.pack_single_tokens(np.arange(n) % k, k)
        res = columnar.run_columnar(
            SynchronousEngine(engine="columnar"), net, "flood_new", {},
            k, TA0.copy(), 40, materialize_outputs=False,
        )
        assert res.outputs == {}
        assert res.complete
        assert res.metrics.rounds <= 40

        full = columnar.run_columnar(
            SynchronousEngine(engine="columnar"), net, "flood_new", {},
            k, TA0.copy(), 40,
        )
        assert full.complete
        assert all(full.outputs[v] == frozenset(range(k)) for v in range(n))
        assert full.metrics == res.metrics
