"""Shared fixtures: small verified scenarios and reusable snapshots."""

from __future__ import annotations

import pytest

from repro.graphs.generators.hinet import HiNetParams, generate_hinet
from repro.roles import Role
from repro.sim import engine as engine_module
from repro.sim.linkmodel import LinkChain, PinpointFault, effective_link
from repro.sim.topology import Snapshot


@pytest.fixture
def triangle() -> Snapshot:
    """A 3-cycle, the smallest 2-connected graph."""
    return Snapshot.from_edges(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def path5() -> Snapshot:
    """A 5-node path 0-1-2-3-4."""
    return Snapshot.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def two_clusters() -> Snapshot:
    """Two clusters (heads 0 and 3) bridged by gateway 2; L = 2.

    layout: 1 - 0(h) - 2(g) - 3(h) - 4
    """
    return Snapshot.from_edges(
        5,
        [(0, 1), (0, 2), (2, 3), (3, 4)],
        roles=[Role.HEAD, Role.MEMBER, Role.GATEWAY, Role.HEAD, Role.MEMBER],
        head_of=[0, 0, 0, 3, 3],
    )


@pytest.fixture
def small_hinet():
    """A compact verified (T, L)-HiNet: n=20, k implied by the caller."""
    params = HiNetParams(
        n=20, theta=6, num_heads=4, T=8, phases=4, L=2,
        reaffiliation_p=0.2, churn_p=0.05,
    )
    return generate_hinet(params, seed=42)


@pytest.fixture
def vectorised_fault(monkeypatch):
    """Inject a :class:`PinpointFault` into every vectorised run in-process.

    ``vectorised_fault(r, v, t)`` flips token ``t`` at node ``v`` after
    round ``r`` on ``engine="fast"``/``"columnar"`` runs only — including
    runs built deep inside the CLI, the runner or a gate script — so the
    reference engine stays a clean oracle to diverge from.  Returns an
    undo callable.
    """

    def inject(r: int, v: int, t: int):
        fault = PinpointFault(r, v, t, tiers=("fast", "columnar"))

        def faulted(link, tier):
            return effective_link(
                fault if link is None else LinkChain([link, fault]), tier
            )

        monkeypatch.setattr(engine_module, "effective_link", faulted)
        return lambda: monkeypatch.setattr(
            engine_module, "effective_link", effective_link
        )

    return inject


@pytest.fixture
def gate_passes():
    """``gate_passes(name)`` runs bench gate case ``name`` once on the
    healthy engine and asserts it passes its gate against its own stats.

    An overhead gate runs under a generous 20x budget: it passes anywhere
    unless the observer became outright pathological relative to the
    observer-free run.
    """
    from dataclasses import replace

    from repro.bench import gate_fleet, run_fleet, select

    def check(name: str):
        case = select([name])[0]
        if case.overhead_budget is not None:
            case = replace(case, overhead_budget=20.0)
        results = run_fleet([case], repeats=1, memory=False)
        stats = results[0].stats
        assert stats["identical"] is True
        assert gate_fleet(results, {case.name: dict(stats)}) == []

    return check


@pytest.fixture
def gate_trips(tmp_path, capsys):
    """``gate_trips(name, kind)`` runs ``repro bench`` on gate case
    ``name`` with a 300 ms injected slowdown and asserts it exits 1 with
    a ``kind`` gate failure.  A history gate (``speedup``) first records
    a 3-repeat baseline bucket to gate against."""
    from repro.cli import main

    def check(name: str, kind: str):
        path = tmp_path / "BENCH_engine.json"
        if kind == "speedup":
            assert main(["bench", "--cases", name, "--repeats", "3",
                         "--no-memory", "--commit", "c1",
                         "--json", str(path)]) == 0
            capsys.readouterr()
        rc = main(["bench", "--cases", name, "--repeats", "1", "--no-memory",
                   "--commit", "c2", "--json", str(path),
                   "--inject-slowdown", f"{name}:300"])
        assert rc == 1
        assert f"FAIL: [{kind}] {name}" in capsys.readouterr().out

    return check
