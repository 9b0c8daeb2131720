import json
import subprocess
import sys

import numpy as np
import pytest

from purefx import (AdditiveModel, DensitySpec, EffectTensor, FeatureBins,
                    TreeEnsemble, TreeNode, dataset_from_csv, ensemble_to_json,
                    estimate_density, gen_boolean_fig1, gen_random_bench,
                    model_from_json, model_to_json, purify_model)
from purefx.generators import bench_model


def run_cli(*argv, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "purefx.cli", *argv],
        input=stdin, capture_output=True, text=True)


def read_trace(text):
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    return [(name, int(it), float(mass)) for name, it, mass in rows]


def test_purify_fig1a_yields_canonical_row_d(tmp_path):
    src = tmp_path / "a.json"
    src.write_text(model_to_json(gen_boolean_fig1("a")))
    res = run_cli("purify", "--model", str(src))
    assert res.returncode == 0, res.stderr
    out = model_from_json(res.stdout)
    target = gen_boolean_fig1("d")
    for u in target.effects:
        assert np.allclose(out.effects[u].values, target.effects[u].values,
                           atol=1e-12)


def test_purify_writes_report_and_trace(tmp_path):
    src = tmp_path / "a.json"
    src.write_text(model_to_json(gen_boolean_fig1("a")))
    report = tmp_path / "purity.json"
    trace = tmp_path / "trace.csv"
    res = run_cli("purify", "--model", str(src), "--out",
                  str(tmp_path / "out.json"), "--report", str(report),
                  "--trace", str(trace))
    assert res.returncode == 0, res.stderr
    doc = json.loads(report.read_text())
    assert doc["pass"] is True
    rows = read_trace(trace.read_text())
    assert rows[0][0] == "x1;x2"
    assert all(b[2] <= a[2] or b[0] != a[0]
               for a, b in zip(rows, rows[1:]))


def test_purify_reads_stdin_when_model_omitted():
    res = run_cli("purify", stdin=model_to_json(gen_boolean_fig1("b")))
    assert res.returncode == 0, res.stderr
    out = model_from_json(res.stdout)
    assert np.allclose(out.effects[("x1", "x2")].values,
                       np.array([[-0.25, 0.25], [0.25, -0.25]]), atol=1e-12)


def test_gen_pipes_into_purify():
    gen = run_cli("gen", "--wright", "No Interaction")
    assert gen.returncode == 0, gen.stderr
    res = run_cli("purify", stdin=gen.stdout)
    assert res.returncode == 0, res.stderr
    out = model_from_json(res.stdout)
    assert np.allclose(out.effects[("snp1", "snp2")].values, 0.0, atol=1e-12)


def test_outputs_are_byte_identical_across_runs():
    for argv in (("gen", "--fig1-row", "c"),
                 ("bench", "--sigma", "1", "--dims", "25", "--weights",
                  "random", "--seed", "5")):
        a = run_cli(*argv)
        b = run_cli(*argv)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


def test_bench_uniform_converges_in_one_pass():
    res = run_cli("bench", "--sigma", "1", "--dims", "100",
                  "--weights", "uniform")
    assert res.returncode == 0, res.stderr
    rows = read_trace(res.stdout)
    masses = {it: mass for _, it, mass in rows}
    assert masses[2] <= 1e-10 * masses[0]


def test_cascade_reports_and_traces_follow_one_order(tmp_path):
    # A lone 3-way effect: the cascade creates and purifies all six lower
    # subsets, highest order first and lexicographic within an order.
    rng = np.random.default_rng(61)
    names = ("a", "b", "c")
    bins = {n: FeatureBins(n, "continuous", edges=(0.5,)) for n in names}
    model = AdditiveModel(
        bins, {names: EffectTensor(names, rng.normal(size=(2, 2, 2)))})
    src = tmp_path / "cube.json"
    src.write_text(model_to_json(model))
    data = tmp_path / "rows.csv"
    data.write_text("a,b,c\n" + "0,0,0\n" * 5 + "1,1,0\n0,1,1\n")
    w = estimate_density(model, DensitySpec("laplace", dataset_from_csv(data)))
    _, reports = purify_model(model, w)
    order = [("a", "b", "c"), ("a", "b"), ("a", "c"), ("b", "c"),
             ("a",), ("b",), ("c",)]
    assert list(reports) == order
    trace = tmp_path / "trace.csv"
    report = tmp_path / "report.json"
    res = run_cli("purify", "--model", str(src), "--weights", "laplace",
                  "--data", str(data), "--out", str(tmp_path / "pure.json"),
                  "--trace", str(trace), "--report", str(report))
    assert res.returncode == 0, res.stderr
    rows = read_trace(trace.read_text())
    assert rows == [
        (";".join(u), it, mass) for u in order for it, mass in reports[u].trace]
    # The report lists the tensors in the trace's order.
    traced = list(dict.fromkeys(name for name, _, _ in rows))
    listed = [";".join(t["vars"]) for t in json.loads(report.read_text())["tensors"]]
    assert listed == traced

    res = run_cli("bench", "--dims", "25", "--weights", "random", "--seed", "5")
    assert res.returncode == 0, res.stderr
    tensor, w = gen_random_bench(1.0, 25, "random", 5)
    _, reports = purify_model(bench_model(tensor), w)
    assert read_trace(res.stdout) == [
        ("x1;x2", it, mass) for it, mass in reports[("x1", "x2")].trace]


def test_check_reports_impure_model(tmp_path):
    src = tmp_path / "a.json"
    src.write_text(model_to_json(gen_boolean_fig1("a")))
    res = run_cli("check", "--model", str(src))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["pass"] is False
    assert doc["max_abs_slice_mean"] == pytest.approx(0.5)


def test_density_subcommand_emits_tables(tmp_path):
    src = tmp_path / "a.json"
    src.write_text(model_to_json(gen_boolean_fig1("a")))
    data = tmp_path / "rows.csv"
    data.write_text("x1,x2\n0,0\n1,1\n1,1\n1,0\n")
    res = run_cli("density", "--model", str(src), "--weights", "empirical",
                  "--data", str(data))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    joint = {tuple(s["vars"]): s["weights"] for s in doc["subsets"]}
    assert joint[("x1", "x2")] == [[0.25, 0.0], [0.25, 0.5]]


def test_predict_round_trip_agrees_after_purify(tmp_path):
    src = tmp_path / "a.json"
    src.write_text(model_to_json(gen_boolean_fig1("a")))
    data = tmp_path / "points.csv"
    data.write_text("x1,x2\n0,0\n0,1\n1,0\n1,1\n")
    before = run_cli("predict", "--model", str(src), "--data", str(data))
    purified = run_cli("purify", "--model", str(src))
    after = run_cli("predict", "--data", str(data), stdin=purified.stdout)
    assert before.returncode == after.returncode == 0
    a = [float(x) for x in before.stdout.strip().splitlines()[1:]]
    b = [float(x) for x in after.stdout.strip().splitlines()[1:]]
    assert np.allclose(a, b, atol=1e-10)


def test_csv_row_with_wrong_field_count_exits_2(tmp_path):
    src = tmp_path / "a.json"
    src.write_text(model_to_json(gen_boolean_fig1("a")))
    for rows, what in (
            ("0,1\n1\n", "row 1: 1 fields, the header has 2"),
            ("0,1\n1,0\n0,1,1\n", "row 2: 3 fields, the header has 2")):
        data = tmp_path / "rows.csv"
        data.write_text("x1,x2\n" + rows)
        for argv in (("purify", "--weights", "empirical"), ("predict",)):
            res = run_cli(*argv, "--model", str(src), "--data", str(data))
            assert res.returncode == 2, res.stderr
            err = json.loads(res.stderr)
            assert err == {"error": "DomainError",
                           "message": f"{data}, {what}"}


def test_repeated_csv_header_name_exits_2(tmp_path):
    src = tmp_path / "a.json"
    src.write_text(model_to_json(gen_boolean_fig1("a")))
    data = tmp_path / "rows.csv"
    data.write_text("x1,x1,x2\n0.9,0.8,0\n")
    for argv in (("purify", "--weights", "empirical"), ("predict",)):
        res = run_cli(*argv, "--model", str(src), "--data", str(data))
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stderr) == {
            "error": "DomainError",
            "message": f"{data}: feature 'x1' repeats in the header"}


def test_blank_and_unparseable_cells_name_feature_and_row(tmp_path):
    src = tmp_path / "a.json"
    src.write_text(model_to_json(gen_boolean_fig1("a")))
    for cell, what in (("", "blank value"),
                       ("high", "cannot parse 'high' as a number")):
        data = tmp_path / "rows.csv"
        data.write_text(f"x1,x2\n0,1\n1,{cell}\n")
        for argv in (("purify", "--weights", "empirical"), ("predict",)):
            res = run_cli(*argv, "--model", str(src), "--data", str(data))
            assert res.returncode == 2, res.stderr
            err = json.loads(res.stderr)
            assert err == {"error": "DomainError",
                           "message": f"feature 'x2', row 1: {what}"}


def test_purify_ingests_ensemble(tmp_path):
    tree = TreeNode(
        feature="x1", threshold=0.5,
        left=TreeNode(value=0.0),
        right=TreeNode(feature="x2", threshold=0.5,
                       left=TreeNode(value=0.0), right=TreeNode(value=1.0)),
    )
    ens = tmp_path / "ens.json"
    ens.write_text(ensemble_to_json(TreeEnsemble((tree,))))
    res = run_cli("purify", "--ensemble", str(ens))
    assert res.returncode == 0, res.stderr
    out = model_from_json(res.stdout)
    assert np.allclose(out.effects[("x1", "x2")].values,
                       np.array([[0.25, -0.25], [-0.25, 0.25]]), atol=1e-12)


def test_purify_ensemble_tree_feature_limit(tmp_path):
    def split(f, thr, left, right):
        return TreeNode(feature=f, threshold=thr, left=left, right=right)

    def leaf(v):
        return TreeNode(value=v)

    aba = split("a", 0.5, split("b", 0.5, split("a", 0.25, leaf(1.0),
                                                leaf(2.0)), leaf(3.0)),
                leaf(4.0))
    abcd = split("a", 0.5, split("b", 0.5, split("c", 0.5, split(
        "d", 0.5, leaf(0.0), leaf(1.0)), leaf(0.0)), leaf(0.0)), leaf(0.0))
    ens = tmp_path / "ens.json"
    ens.write_text(ensemble_to_json(TreeEnsemble((aba,))))
    res = run_cli("purify", "--ensemble", str(ens))
    assert res.returncode == 0, res.stderr
    assert set(model_from_json(res.stdout).effects) == {(), ("a",), ("b",),
                                                        ("a", "b")}
    ens.write_text(ensemble_to_json(TreeEnsemble((aba, abcd))))
    res = run_cli("purify", "--ensemble", str(ens))
    assert res.returncode == 2
    assert '"error": "UnsupportedTreeError"' in res.stderr
    assert "tree 1 " in json.loads(res.stderr)["message"]


SPLIT = {"split": "x1", "threshold": 0.5,
         "left": {"leaf": 1.0}, "right": {"leaf": 2.0}}


@pytest.mark.parametrize("doc, message", [
    ({"trees": [SPLIT, {"leaf": None}]}, "tree 1: "),
    ({"trees": [{**SPLIT, "threshold": [0.5]}]}, "tree 0: "),
    ({"trees": 5}, "an ensemble is a JSON object with a list of 'trees'"),
    ({"trees": [SPLIT], "base_score": None},
     "base_score must be a number, not None"),
])
def test_malformed_ensemble_json_exits_2(tmp_path, doc, message):
    ens = tmp_path / "ens.json"
    ens.write_text(json.dumps(doc))
    res = run_cli("purify", "--ensemble", str(ens))
    assert res.returncode == 2, res.stderr
    err = json.loads(res.stderr)
    assert err["error"] == "DomainError"
    assert err["message"].startswith(message)


def test_bad_model_json_exits_2():
    res = run_cli("purify", stdin="{not json")
    assert res.returncode == 2
    err = json.loads(res.stderr)
    assert "message" in err


def test_empirical_without_data_exits_2(tmp_path):
    src = tmp_path / "a.json"
    src.write_text(model_to_json(gen_boolean_fig1("a")))
    res = run_cli("purify", "--model", str(src), "--weights", "empirical")
    assert res.returncode == 2
    assert json.loads(res.stderr)["error"] == "DomainError"


def test_missing_model_file_exits_1():
    res = run_cli("check", "--model", "/nonexistent/model.json")
    assert res.returncode == 1


def test_nonconvergence_exits_3(tmp_path):
    src = tmp_path / "a.json"
    src.write_text(model_to_json(gen_boolean_fig1("a")))
    res = run_cli("purify", "--model", str(src), "--weights", "laplace",
                  "--data", str(_skewed_csv(tmp_path)), "--max-passes", "1")
    assert res.returncode == 3
    assert json.loads(res.stderr)["error"] == "NonConvergenceError"


def test_cube_nonconvergence_exits_3(tmp_path):
    rng = np.random.default_rng(47)
    names = ("x1", "x2", "x3")
    bins = {n: FeatureBins(n, "continuous", edges=(0.5,)) for n in names}
    src = tmp_path / "cube.json"
    src.write_text(model_to_json(AdditiveModel(
        bins, {names: EffectTensor(names, rng.normal(size=(2, 2, 2)))})))
    data = tmp_path / "skew.csv"
    rows = ["x1,x2,x3"] + ["0,0,0"] * 40 + ["1,1,0"] * 5 + ["0,1,1"] * 2
    data.write_text("\n".join(rows) + "\n")
    res = run_cli("purify", "--model", str(src), "--weights", "laplace",
                  "--data", str(data), "--max-passes", "1")
    assert res.returncode == 3
    err = json.loads(res.stderr)
    assert err["error"] == "NonConvergenceError"
    assert "tensor ('x1', 'x2', 'x3')" in err["message"]
    assert "after 1 passes" in err["message"]


def _skewed_csv(tmp_path):
    p = tmp_path / "skew.csv"
    rows = ["x1,x2"] + ["0,0"] * 60 + ["1,1"] * 3 + ["0,1"] * 1
    p.write_text("\n".join(rows) + "\n")
    return p


def test_gen_requires_exactly_one_generator():
    res = run_cli("gen")
    assert res.returncode == 2
    res = run_cli("gen", "--fig1-row", "a", "--wright", "Redundant")
    assert res.returncode == 2


def test_gen_mult_flag(tmp_path):
    res = run_cli("gen", "--mult", "0,1,1,1,0,0", "--grid", "8")
    assert res.returncode == 0, res.stderr
    m = model_from_json(res.stdout)
    assert m.bins["x1"].n_cells == 8
    res = run_cli("gen", "--mult", "0,1,1", "--grid", "8")
    assert res.returncode == 2
