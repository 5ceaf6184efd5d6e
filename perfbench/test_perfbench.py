"""The benchmark's own tests: metric names, span arithmetic, wrappers, inputs."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.metrics import END_TO_END_UNITS, tail
from perfbench.spans import LayerTotals, Recorder, SpanFile, self_times
from perfbench.workloads import WORKLOADS, build_inputs, cells_of

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_plain_and_match_benchmark_json():
    contract = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    declared = {entry["name"]: entry["unit"] for entry in contract["end_to_end"]}
    traced = {entry["name"]: entry["unit"] for entry in contract["per_layer"]}
    assert declared == END_TO_END_UNITS
    assert traced == layers.PER_LAYER_UNITS
    names = [*declared, *traced, *(entry["name"] for entry in contract["workloads"])]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert {entry["name"] for entry in contract["workloads"]} == set(WORKLOADS)


def test_self_time_subtracts_the_union_of_child_spans():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: union 5 s)
    # and [8, 9]; the first child has a grandchild [2, 3].
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 9.0]
    parent = [-1, 0, 1, 0, 0]
    assert self_times(start, end, parent) == pytest.approx([4.0, 2.0, 1.0, 3.0, 1.0])


def test_layer_totals_survive_a_flush_round_trip(tmp_path):
    recorder = Recorder()
    outer = recorder.wrap("outer", lambda: inner())
    inner = recorder.wrap("inner", lambda: None, count="inner.calls")
    for _ in range(3):
        outer()
    path = recorder.flush(tmp_path)
    assert len(recorder) == 0
    spans = SpanFile(path)
    assert [spans.names[index] for index in spans.name_of] == [
        "outer", "inner"] * 3
    assert list(spans.parent) == [-1, 0, -1, 2, -1, 4]
    totals = LayerTotals()
    totals.add_directory(tmp_path)
    assert totals.calls == {"outer": 3, "inner": 3}
    assert totals.counts == {"inner.calls": 3}
    assert totals.total_s["outer"] == pytest.approx(
        totals.self_s["outer"] + totals.total_s["inner"])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert tail([float(value) for value in range(40)]) == (29.0, 75.0, 40)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def _attributes(patch_list):
    return [owner.__dict__[attribute] if isinstance(owner, type)
            else getattr(owner, attribute)
            for owner, attribute, _layer, _count in patch_list]


def test_wrappers_restore_originals_and_leave_digests_unchanged():
    from repro.campaign import runner
    from repro.scenarios import ScenarioParams, run_scenario
    from repro.sim.kernel import Simulator

    params = ScenarioParams(topology="leaf-spine", flow_count=2, seed=5,
                            faults="ack-loss(probability=0.5)", recovery="on")
    bare = run_scenario("path-migration", "barrier", params).digest()
    before = _attributes(layers.patches())
    run_before = Simulator.__dict__["run"]
    cell_before = runner.run_cell
    recorder = Recorder()
    layers.install(recorder)
    try:
        traced = run_scenario("path-migration", "barrier", params).digest()
    finally:
        recorder.restore()
    assert _attributes(layers.patches()) == before
    assert Simulator.__dict__["run"] is run_before
    assert runner.run_cell is cell_before
    assert traced == bare
    totals = LayerTotals()
    totals.add(recorder.names, recorder.name_of, recorder.start, recorder.end,
               recorder.parent, recorder.counts)
    for layer in ("sim", "net", "switches.dataplane", "controller", "faults",
                  "recovery", "openflow.flowmod"):
        assert totals.calls.get(layer), layer
    assert totals.counts["sim.events"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_same_seed_builds_the_same_inputs(name):
    workload = WORKLOADS[name]

    def cell_ids(seed):
        return [[cell.cell_id for cell in cells_of(specs)]
                for specs in build_inputs(workload, seed, 10)]

    first = cell_ids(7)
    assert first == cell_ids(7)
    assert first != cell_ids(8)
    flat = [cell for cells in first for cell in cells]
    assert len(flat) == len(set(flat))
