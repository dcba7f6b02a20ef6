"""Regression pins: exact numbers for fixed seeds.

A released library's behaviour should not drift silently.  These tests
pin the *exact* outputs of a handful of seeded runs; any engine,
generator or algorithm change that alters them must be deliberate (and
update the pins with a note in the commit).

The analytic pins are timeless (Table 3 is math); the simulation pins
encode the current deterministic behaviour of the whole stack: rng
streams, generator construction order, engine scheduling.
"""

import pytest

from repro.bench.matrix import columnar_gate_scenario, regression_gate_scenario
from repro.bench.runner import equivalent
from repro.core.analysis import table3
from repro.experiments.runner import execute, run_algorithm1, run_klo_interval
from repro.experiments.scenarios import hinet_interval_scenario
from repro.experiments.tables import simulated_table3
from repro.graphs.generators.hinet import HiNetParams, generate_hinet


class TestAnalyticPins:
    def test_table3_values_forever(self):
        rows = table3()
        assert [(r["time_rounds"], r["comm_tokens"]) for r in rows] == [
            (180, 8000),
            (126, 4320),
            (99, 79200),
            (99, 50720),
        ]


class TestSimulationPins:
    """Exact measured values for the canonical seeds used in the docs."""

    def test_quickstart_scenario_pin(self):
        scenario = hinet_interval_scenario(
            n0=100, theta=30, k=8, alpha=5, L=2, seed=2013,
        )
        ours = run_algorithm1(scenario)
        theirs = run_klo_interval(scenario)
        assert ours.complete and theirs.complete
        # the paper-scale headline, pinned exactly
        assert theirs.tokens_sent == 8000
        assert 3400 <= ours.tokens_sent <= 3650  # narrow band: churn rng
        assert theirs.tokens_sent / ours.tokens_sent > 2.1

    def test_generator_structure_pin(self):
        scen = generate_hinet(
            HiNetParams(n=20, theta=6, num_heads=4, T=8, phases=4, L=2,
                        reaffiliation_p=0.2, churn_p=0.05),
            seed=42,
        )
        snap = scen.trace.snapshot(0)
        assert sorted(snap.heads()) == sorted(
            generate_hinet(
                HiNetParams(n=20, theta=6, num_heads=4, T=8, phases=4, L=2,
                            reaffiliation_p=0.2, churn_p=0.05),
                seed=42,
            ).trace.snapshot(0).heads()
        )
        # structural constants for this seed
        assert scen.trace.horizon == 32
        assert len(snap.heads()) == 4

    def test_simulated_table3_pin(self):
        rows = simulated_table3(seed=2013, n0=100)
        assert all(r["complete"] for r in rows)
        klo_T, hinet_T, klo_1, hinet_1 = rows
        assert klo_T["measured_comm"] == 8000  # KLO fills its budget exactly
        # shape pins with slack for rng-stream evolution
        assert hinet_T["measured_comm"] < 0.5 * klo_T["measured_comm"]
        assert hinet_1["measured_comm"] < klo_1["measured_comm"]


class TestGateInstancePins:
    """Exact counters of the two fleet gate instances (``repro bench``
    cases ``algorithm1_hinet47_*`` and ``algorithm1_star_*``)."""

    def test_hinet47_run_pin_and_bit_identity(self):
        scenario = regression_gate_scenario()
        col = execute("algorithm1", scenario, engine="columnar", cache=False)
        ref = execute("algorithm1", scenario, engine="reference", cache=False)
        assert (col.rounds, col.tokens_sent) == (126, 3498)
        assert equivalent(col.result, ref.result)

    def test_star_n10000_columnar_pin(self):
        col = execute("algorithm1", columnar_gate_scenario(),
                      engine="columnar", cache=False)
        assert (col.rounds, col.tokens_sent) == (72, 31300)
