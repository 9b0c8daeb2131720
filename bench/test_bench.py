"""Tests of the benchmark's own parts: seeded inputs, oracles and span maths.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

import json

import numpy as np
import pytest

import inputs
import jobs
import oracles as o
import spans


def _files(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_inputs(tmp_path, workload):
    a = jobs.make_job(workload, 7, 0, tmp_path / "a")
    b = jobs.make_job(workload, 7, 0, tmp_path / "b")
    c = jobs.make_job(workload, 8, 0, tmp_path / "c")
    d = jobs.make_job(workload, 7, 1, tmp_path / "d")
    assert _files(a.dir) == _files(b.dir)
    assert _files(a.dir) != _files(c.dir)
    assert _files(a.dir) != _files(d.dir)


def test_ensemble_grid_is_fixed_across_seeds():
    for seed in (0, 1):
        doc = inputs.make_ensemble_doc(inputs.instance_rng("ensemble", seed, 0))
        thresholds = {}
        stack = list(doc["trees"])
        while stack:
            node = stack.pop()
            if "leaf" not in node:
                thresholds.setdefault(node["split"], set()).add(node["threshold"])
                stack += [node["left"], node["right"]]
        assert len(thresholds) == inputs.ENS_FEATURES
        assert {len(t) for t in thresholds.values()} == {inputs.ENS_THRESHOLDS}


# --------------------------------------------------------------------------
# Oracles on a hand-built 2 x 2 model (the Boolean AND, impure and pure forms)
# --------------------------------------------------------------------------

EDGES = {"a": np.array([0.5]), "b": np.array([0.5])}
IMPURE = [((), np.asarray(0.0)), (("a", "b"), np.array([[0.0, 0.0], [0.0, 1.0]]))]
PURE = [((), np.asarray(0.25)),
        (("a",), np.array([-0.25, 0.25])),
        (("b",), np.array([-0.25, 0.25])),
        (("a", "b"), np.array([[0.25, -0.25], [-0.25, 0.25]]))]
POINTS = {"a": np.array([0.1, 0.5, 0.9, 0.2]), "b": np.array([0.7, 0.2, 0.5, 0.3])}


def test_cells_put_edge_values_in_the_upper_cell():
    cells = o.cell_indices(EDGES, POINTS)
    assert cells["a"].tolist() == [0, 1, 1, 0]
    assert cells["b"].tolist() == [1, 0, 1, 0]


def test_predictions_of_hand_model():
    cells = o.cell_indices(EDGES, POINTS)
    assert o.predict_rows(IMPURE, cells).tolist() == [0.0, 0.0, 1.0, 0.0]
    assert o.predict_rows(PURE, cells).tolist() == [0.0, 0.0, 1.0, 0.0]
    grid = o.predict_grid(PURE, {"a": 2, "b": 2})
    assert grid.tolist() == [[0.0, 0.0], [0.0, 1.0]]
    assert o.check_predictions(o.predict_rows(PURE, cells),
                               o.predict_rows(IMPURE, cells), 1.0, "x") == []
    assert o.check_predictions(np.zeros(4), o.predict_rows(IMPURE, cells), 1.0, "x")


def test_slice_means_of_hand_model():
    uniform = o.uniform_weights(EDGES)
    assert o.check_pure(PURE, uniform, 1.0) == []
    assert o.max_slice_mean(IMPURE[1][1], uniform(("a", "b"))) == 0.5
    assert o.check_pure(IMPURE, uniform, 1.0)
    # Under weights that put no mass on cell (1, 1) the impure table is pure.
    skew = np.array([[0.5, 0.25], [0.25, 0.0]])
    assert o.check_pure(IMPURE, lambda u: skew, 1.0) == []


def test_count_table_from_rows():
    cells = o.cell_indices(EDGES, POINTS)
    t = o.count_table(("a", "b"), cells, {"a": 2, "b": 2})
    assert t.tolist() == [[0.25, 0.25], [0.25, 0.25]]
    t = o.count_table(("a",), cells, {"a": 2, "b": 2})
    assert t.tolist() == [0.5, 0.5]


def test_model_json_round_trip(tmp_path):
    doc = {"features": [{"name": n, "kind": "continuous", "edges": [0.5]}
                        for n in ("a", "b")],
           "effects": [{"vars": list(u), "values": np.asarray(v).tolist()}
                       for u, v in PURE]}
    edges, effects = o.load_model(json.dumps(doc))
    assert edges["a"].tolist() == [0.5]
    assert [u for u, _ in effects] == [u for u, _ in PURE]
    assert o.model_scale(effects) == 1.0


def test_tree_walk_and_scale():
    doc = {"base_score": 1.0, "trees": [
        {"split": "a", "threshold": 0.5,
         "left": {"leaf": -1.0},
         "right": {"split": "b", "threshold": 0.5,
                   "left": {"leaf": 2.0}, "right": {"leaf": 3.0}}}]}
    assert o.ensemble_predict(doc, POINTS).tolist() == [0.0, 3.0, 4.0, 0.0]
    assert o.ensemble_scale(doc) == 4.0


def test_read_trace_groups_masses_by_tensor(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("tensor_vars,iteration,mass\n"
                    "x1;x2,0,2.0\nx1;x2,1,0.5\nx1,0,1.0\n")
    assert o.read_trace(path) == {"x1;x2": [2.0, 0.5], "x1": [1.0]}
    path.write_text("vars,it,m\n")
    with pytest.raises(ValueError):
        o.read_trace(path)


def test_self_time_subtracts_children():
    tr = spans.Tracer()
    tr.spans = [spans.Span(0, "cli.job", 0.0, 10.0, None, 0),
                spans.Span(1, "engine.purify", 1.0, 5.0, 0, 0),
                spans.Span(2, "density.bin_dataset", 2.0, 3.0, 1, 0),
                spans.Span(3, "model.model_to_json", 6.0, 7.5, 0, 0)]
    self_s = tr.self_times()
    assert self_s["cli.job"] == pytest.approx(4.5)
    assert self_s["engine.purify"] == pytest.approx(3.0)
    assert self_s["density.bin_dataset"] == pytest.approx(1.0)
    assert self_s["model.model_to_json"] == pytest.approx(1.5)


def test_span_records_parent_and_job():
    tr = spans.Tracer()
    tr.job = 3
    with tr.span("cli.job"), tr.span("engine.purify"):
        pass
    outer, inner = tr.spans
    assert (outer.parent, inner.parent, inner.job) == (None, outer.id, 3)
    assert outer.start <= inner.start <= inner.end <= outer.end
