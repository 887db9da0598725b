"""Tests of the benchmark's own helpers and of the tracer's counts.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import gc
import hashlib
import json
import os

import pytest

from perfbench import checks, trace
from perfbench.layers import SELF_TIME_LAYERS, Totals, per_layer_metrics, probes, unit_of
from perfbench.run import trimmed_mean
from perfbench.trace import ROOT, Tracer, layer_of_module, self_times
from perfbench.workloads import (
    WORKLOADS, CommitCounter, pass_seed, run_cell, run_cell_and_collect,
)
from perfbench.yardstick import sample

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Counts of the fast figure-2 grid at the default seed.
FIG2_FAST_EXECUTE = 91584
FIG2_FAST_POOL_TIMER = 167961


def test_self_time_is_span_minus_children():
    spans = [
        (0, None, 0.0, 10.0),
        (1, 0, 2.0, 5.0),
        (2, 1, 3.0, 4.0),
        (3, 0, 6.0, 7.0),
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_layers_follow_modules():
    assert layer_of_module("repro.sim.engine") == "sim.engine"
    assert layer_of_module("repro.dbms.cpu") == "dbms.cpu"
    assert layer_of_module("repro.workloads.tpcc") == "workloads"
    assert layer_of_module("repro.queueing.mva") == "queueing"
    assert layer_of_module("perfbench.workloads") == ROOT
    assert layer_of_module("random") is None


def test_digest_is_canonical():
    assert checks.digest({"b": 1, "a": [1.5]}) == checks.digest({"a": [1.5], "b": 1})
    expected = hashlib.sha256(b'{"a":[1.5],"b":1}').hexdigest()
    assert checks.digest({"b": 1, "a": [1.5]}) == expected
    assert checks.digest({"x": 0.1 + 0.2}) != checks.digest({"x": 0.3})


def test_invariants():
    assert checks.invariant_errors("grid", {"completed": 560, "expected_completed": 560}) == []
    assert checks.invariant_errors("grid", {"completed": 559, "expected_completed": 560})
    balanced = {"admitted": 10, "completed": 6, "timed_out": 2, "shed": 1, "in_flight": 1}
    assert checks.invariant_errors("scenario", {"resilience": balanced}) == []
    leaky = dict(balanced, admitted=11)
    assert checks.invariant_errors("scenario", {"resilience": leaky})
    assert checks.invariant_errors(
        "scenario", {"distributed": {"atomicity_violations": []}}
    ) == []
    assert checks.invariant_errors(
        "scenario", {"distributed": {"atomicity_violations": [7]}}
    )
    assert checks.invariant_errors("tune", {"converged": True}) == []
    assert checks.invariant_errors("tune", {"converged": False})


def test_reference_check_fails_a_shrunk_or_renamed_workload():
    expected = checks.reference_for(checks.load_references(), "closed-sweep", 11)
    ran = [cell.cell_id for cell in WORKLOADS["closed-sweep"](11)]
    digests = {cell_id: expected[cell_id] + "0" * 48 for cell_id in ran}
    assert checks.digest_errors(ran, digests, expected, "the reference") == {}
    dropped = ran[5]
    shrunk = [cell_id for cell_id in ran if cell_id != dropped]
    errors = checks.digest_errors(shrunk, digests, expected, "the reference")
    assert list(errors) == [dropped]
    assert "did not run" in errors[dropped][0]
    renamed = shrunk + ["s1-m99-n700"]
    errors = checks.digest_errors(renamed, digests, expected, "the reference")
    assert set(errors) == {dropped, "s1-m99-n700"}
    assert "not in the reference" in errors["s1-m99-n700"][0]
    changed = dict(digests, **{dropped: "f" * 64})
    errors = checks.digest_errors(ran, changed, expected, "the reference")
    assert list(errors) == [dropped] and "differs" in errors[dropped][0]


def test_trimmed_mean_drops_the_extremes():
    assert trimmed_mean([1.0, 2.0, 3.0, 4.0, 100.0]) == 3.0
    assert trimmed_mean([0.0, 2.0, 4.0]) == 2.0
    assert trimmed_mean([1.0, 3.0]) == 2.0


def test_yardstick_sample_returns_seconds():
    assert sample() > 0.0


def test_each_pass_draws_new_seeds():
    assert pass_seed(11, 0) == 11
    seeds = {pass_seed(seed, index) for seed in range(1, 13) for index in range(20)}
    assert len(seeds) == 12 * 20


def test_benchmark_json_names_every_metric():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "pass_s", "pass_cpu_s", "sim_tx_per_s", "peak_rss_mb",
    }
    layer_names = set(per_layer_metrics(Tracer(probes()), Totals(), 0)) | {
        "core.scenario.build_s",
        "experiments.parallel.cache_store_s",
        "experiments.parallel.cache_load_s",
        "trace.overhead_s",
        "trace.overhead_ratio",
    }
    assert {m["name"] for m in bench["per_layer"]} == layer_names
    for metric in bench["per_layer"]:
        assert metric["unit"] == unit_of(metric["name"]), metric["name"]
    assert {f"{layer}.self_s" for layer in SELF_TIME_LAYERS} <= layer_names


def _fig2_fast_cells():
    """The fast figure-2 grid, as the closed-sweep workload builds it."""
    from repro.experiments.figures import GRID_DEFS

    fig2 = GRID_DEFS["2"].build(True)
    return [cell for cell in WORKLOADS["closed-sweep"](11) if cell.spec in fig2]


def _traced_pass(cells):
    gc.collect()  # as run.run_pass does: no garbage of earlier cells is traced
    counter = CommitCounter().install()
    try:
        tracer = Tracer(probes())
        digests = {}
        for cell in cells:
            run = tracer.run(cell.cell_id, lambda: run_cell_and_collect(cell, counter))
            tracer.take_instances()
            digests[cell.cell_id] = checks.digest(run.outcome)
        return tracer, digests, counter.commits
    finally:
        counter.uninstall()


@pytest.fixture(scope="module")
def fig2_traced():
    cells = _fig2_fast_cells()
    assert len(cells) == 36
    return cells, _traced_pass(cells)


def test_tracer_reproduces_fig2_counts(fig2_traced):
    _cells, (tracer, _digests, commits) = fig2_traced
    assert tracer.counts["execute"] == FIG2_FAST_EXECUTE
    assert tracer.counts["pool_timer"] == FIG2_FAST_POOL_TIMER
    assert commits == 2 * 9 * 700 + 2 * 9 * 400


def test_tracing_does_not_perturb_outcomes(fig2_traced):
    cells, (_tracer, digests, _commits) = fig2_traced
    counter = CommitCounter().install()
    try:
        for cell in cells[:6]:
            assert checks.digest(run_cell(cell, counter).outcome) == digests[cell.cell_id]
    finally:
        counter.uninstall()


def test_traced_counts_repeat_exactly(fig2_traced):
    cells, (tracer, digests, commits) = fig2_traced
    again, digests_again, commits_again = _traced_pass(cells)
    assert again.counts == tracer.counts
    assert again.span_counts == tracer.span_counts
    assert digests_again == digests
    assert commits_again == commits


def test_accumulated_self_time_matches_kept_spans(fig2_traced, monkeypatch):
    cells, _traced = fig2_traced
    monkeypatch.setattr(trace, "MAX_KEPT_SPANS", 10**6)
    tracer, _digests, _commits = _traced_pass(cells[:2])
    assert len(tracer.spans) == tracer.spans_total  # every span was kept
    own = self_times([(s[0], s[1], s[3], s[4]) for s in tracer.spans])
    by_layer = {}
    for span_id, _parent, layer, _start, _end, _request in tracer.spans:
        by_layer[layer] = by_layer.get(layer, 0.0) + own[span_id]
    # the root layer also runs outside every span (the benchmark's own frames)
    by_layer.pop(ROOT, None)
    assert by_layer
    for layer, seconds in by_layer.items():
        assert tracer.self_time(layer) == pytest.approx(seconds, rel=1e-6, abs=1e-6)
