"""Self-tests of the benchmark (``python3 -m pytest perfbench``).

They run the workloads at reduced size (``--smoke``), so each finishes in
seconds; they are not part of the repository's ``tests/`` suite.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_TABLE = json.loads((ROOT / "perfbench" / "layers.json").read_text())["table"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def bench(*args, cwd=ROOT, timeout=120):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout)


def printed_metrics(stdout: str):
    """Metric names of the ``name = value unit`` lines and the result line."""
    lines = stdout.strip().splitlines()
    shown = [line.split(" = ")[0] for line in lines if " = " in line]
    return shown, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric_of_benchmark_json(workload, trace):
    done = bench("--workload", workload, "--seed", "0", "--seconds", "0.5",
                 "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    shown, result = printed_metrics(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert shown == list(result["metrics"])
    assert set(shown) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert all(NAME.fullmatch(name) for name in shown)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_pin_counts_as_failed(workload):
    from perfbench.run import run_workload

    first = run_workload(workload, 0, 0.01, False, smoke=True, pins={})
    assert all(not s["failures"] for s in first["untraced"])
    pins = copy.deepcopy(first["references"])
    key = sorted(pins)[0]
    pins[key]["tokens_sent"] += 1
    second = run_workload(workload, 0, 0.01, False, smoke=True,
                          pins={workload: pins})
    failed = [s for s in second["untraced"] if s["failures"]]
    assert failed and "tokens_sent" in failed[0]["failures"][0]


def test_pins_match_the_reference_tier():
    from perfbench.workloads import WORKLOADS as classes, run_stats
    from repro.experiments.runner import execute

    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    workload = classes["cached_sweep"](0, False, ROOT / ".perfbench", {})
    algorithm, cell = "algorithm1", workload.grids["algorithm1"][0]
    key = f"{algorithm}/n0={cell['n0']}/seed={cell['seed']}"
    got = run_stats(execute(algorithm, workload.builders[algorithm](**cell),
                            engine="reference", cache=False).result)
    assert pins["cached_sweep"][key] == got


def test_benchmark_json_records_workloads_and_layer_table():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"]
        assert 0 < len(w["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    e2e = set(bounds)
    layer = {m["name"] for m in SPEC["per_layer"]}
    covered = set()
    for row in LAYER_TABLE:
        assert set(row["per_layer"]) <= layer
        assert set(row["should_move"]) <= e2e
        assert set(row["on"]) <= set(WORKLOADS)
        assert set(row["should_not_move"]) <= set(WORKLOADS) | e2e
        covered |= set(row["per_layer"])
    assert covered == layer


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "certified_run", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
