"""Tests of the benchmark itself: determinism of the counts it reports,
what a seed may change, the oracle, and the metric names it emits.

    python3 -m pytest -q perfbench

They run the real workloads at their real sizes for their shortest
measured span (the modeled prefix), so they take about a minute.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def counts(name: str, seed: int):
    """One set-up and the shortest run; returns the exact counts."""
    workload = WORKLOADS[name](seed)
    workload.setup()
    try:
        outcomes = workload.run(0.0)
    finally:
        workload.close()
    prefix = workload.model_prefix(outcomes)
    per_class = collections.Counter()
    for o in prefix:
        per_class[o.cls] += o.passes
    return {
        "passes_per_query": [o.passes for o in prefix],
        "modeled_ms_per_query": [o.modeled_ms for o in prefix],
        "routes": [(o.session, o.seq, o.route) for o in prefix],
        "class_passes": dict(per_class),
    }, workload, outcomes


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def twice(request):
    first, workload, outcomes = counts(request.param, 5)
    second, _, _ = counts(request.param, 5)
    return request.param, first, second, workload, outcomes


def test_counts_repeat_exactly_for_one_seed(twice):
    _name, first, second, _workload, _outcomes = twice
    assert first == second
    assert sum(first["passes_per_query"]) > 0


def test_answers_match_the_oracle(twice):
    _name, _first, _second, workload, outcomes = twice
    assert workload.check(outcomes) == []
    assert all(o.error is None for o in outcomes)


def test_oracle_catches_a_wrong_answer(twice):
    name, _first, _second, workload, outcomes = twice
    value = outcomes[0].value
    if name == "stream-window":
        value = dict(value, median=value["median"] + 1)
    elif isinstance(value, list):
        value = value[1:]
    else:
        value = value + 1
    corrupted = [dataclasses.replace(outcomes[0], value=value)] + outcomes[1:]
    assert len(workload.check(corrupted)) == 1


def test_end_to_end_metric_names_match_the_spec(twice):
    _name, _first, _second, workload, outcomes = twice
    attempted, failed, _ = run.check(workload, outcomes)
    metrics = run.end_to_end(workload, outcomes, [0.5], attempted, failed)
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: unit for k, (_v, unit) in metrics.items()} == spec
    assert all(value > 0 for value, _unit in metrics.values())


def _classes(name: str, seed: int) -> tuple[list, list]:
    """(query classes in generation order, SQL/constants) for a seed."""
    workload = WORKLOADS[name](seed)
    if name == "paper-olap":
        queries = workload.round(np.random.default_rng([seed, 0]))
    elif name == "service-mix":
        queries = [q for qs in workload.lists for q in qs]
    else:
        return ([func for _cq, func, _col, _w in workload.cqs],
                [where for _cq, _f, _c, where in workload.cqs])
    return sorted(q.cls for q in queries), [q.sql for q in queries]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_second_seed_changes_constants_not_the_class_mix(name):
    classes_a, constants_a = _classes(name, 1)
    classes_b, constants_b = _classes(name, 2)
    assert classes_a == classes_b
    assert constants_a != constants_b


@pytest.mark.parametrize("name", ["service-mix", "stream-window"])
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    workload = WORKLOADS[name](3)
    workload.setup()
    try:
        outcomes, metrics = layers.traced_run(workload, 0.0, str(tmp_path))
    finally:
        workload.close()
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: unit for k, (_v, unit) in metrics.items()} == spec
    assert workload.check(outcomes) == []
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["traceEvents"]
    assert (tmp_path / "summary.txt").exists()
    shares = [v for k, (v, _u) in metrics.items() if k.startswith("self_share.")]
    assert sum(shares) == pytest.approx(1.0)


def test_self_times_add_up_to_the_root():
    spans = [
        {"id": 1, "parent": None, "local_parent": False, "start": 0, "end": 100},
        {"id": 2, "parent": 1, "local_parent": True, "start": 10, "end": 60},
        {"id": 3, "parent": 2, "local_parent": True, "start": 20, "end": 30},
        # A pool-thread span beside its parent is not subtracted.
        {"id": 4, "parent": 2, "local_parent": False, "start": 20, "end": 50},
    ]
    own = layers.self_times(spans)
    assert own == {1: 50, 2: 40, 3: 10, 4: 30}
    assert own[1] + own[2] + own[3] == 100


def test_busy_time_of_overlapping_clients_is_the_wall_time():
    class Fake:
        clients, last_wall_s = 2, 3.0

    outcomes = [workloads.Outcome("scan", "t", 0, i, 2.0) for i in range(3)]
    assert workloads.busy_seconds(Fake(), outcomes) == 3.0
    Fake.clients = 1
    assert workloads.busy_seconds(Fake(), outcomes) == 6.0
