import csv
import errno
import inspect
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from purefx import (AdditiveModel, EffectTensor, FeatureBins, TreeEnsemble,
                    TreeNode, check_purity, dataset_from_csv, estimate_density,
                    gen_boolean_fig1, gen_log_lambda, gen_random_bench,
                    model_from_json, model_to_json, purify_model)
from purefx import cli, engine

from helpers import ensemble_to_json

# A child with block-buffered stdout: output that is never flushed is lost.
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def run_cli(*argv, stdin="", env=None):
    return subprocess.run(
        [sys.executable, "-m", "purefx.cli", *argv],
        input=stdin, capture_output=True, text=True, env=env)


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
    bins = [FeatureBins(n, "continuous", edges=(0.5,)) for n in names]
    model = AdditiveModel(
        bins, [EffectTensor(names, rng.normal(size=(2, 2, 2)))])
    src = tmp_path / "cube.json"
    src.write_text(model_to_json(model))
    data = tmp_path / "rows.csv"
    data.write_text("a,b,c\n" + "0,0,0\n" * 5 + "1,1,0\n0,1,1\n")
    w = estimate_density(model, "laplace", dataset_from_csv(data))
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
    model, w = gen_random_bench(1.0, 25, "random", 5)
    _, reports = purify_model(model, w)
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


@pytest.mark.parametrize("n", [0, 1, 10_000])
def test_predict_csv_bytes_match_csv_writer(tmp_path, monkeypatch, n):
    rng = np.random.default_rng(n)
    values = np.concatenate([[-0.0, 5e-324, -1e300, 1 / 3],
                             rng.normal(scale=1e6, size=n)])[:n]
    monkeypatch.setattr(cli, "predict", lambda model, data: values)
    src, data, out = (tmp_path / name for name in ("a.json", "d.csv", "p.csv"))
    src.write_text(model_to_json(gen_boolean_fig1("a")))
    data.write_text("x1,x2\n")
    assert cli.main(["predict", "--model", str(src), "--data", str(data),
                     "--out", str(out)]) == 0
    oracle = io.StringIO()
    writer = csv.writer(oracle)
    writer.writerow(["prediction"])
    writer.writerows([repr(v)] for v in values.tolist())
    assert out.read_bytes() == oracle.getvalue().encode()


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


def test_intercept_only_predict_on_header_only_and_blank_csv(tmp_path, capsys):
    src, data, out = (tmp_path / name for name in ("m.json", "d.csv", "p.csv"))
    src.write_text('{"features": [], "effects": [{"vars": [], "values": 1.5}]}')
    argv = ["predict", "--model", str(src), "--data", str(data), "--out", str(out)]
    data.write_text("x\n")
    assert cli.main(argv) == 0
    assert out.read_bytes() == b"prediction\r\n"
    data.write_text("\n")
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "DomainError", "message": f"{data}: empty CSV"}


def test_csv_with_byte_order_mark_reads_as_without(tmp_path):
    # Excel's "CSV UTF-8" starts the file with a BOM, before the first name.
    model = gen_boolean_fig1("a")
    src = tmp_path / "a.json"
    src.write_text(model_to_json(model))
    text = "x1,x2\n0.1,0.9\n0.8,0.2\n0.7,0.6\n"
    runs = []
    for name, encoding in (("plain.csv", "utf-8"), ("bom.csv", "utf-8-sig")):
        data, out = tmp_path / name, tmp_path / f"pred-{name}"
        data.write_text(text, encoding=encoding)
        w = estimate_density(model, "empirical", dataset_from_csv(data))
        assert cli.main(["predict", "--model", str(src), "--data", str(data),
                         "--out", str(out)]) == 0
        runs.append((w, out.read_bytes()))
    (w_plain, pred_plain), (w_bom, pred_bom) = runs
    assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbfx1,")
    assert w_bom.keys() == w_plain.keys()
    assert all(np.array_equal(w_bom[u], w_plain[u]) for u in w_plain)
    assert pred_bom == pred_plain == b"prediction\r\n0.25\r\n0.25\r\n-0.25\r\n"


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
    assert '"error": "DomainError"' in res.stderr
    assert "tree 1 " in json.loads(res.stderr)["message"]


SPLIT = {"split": "x1", "threshold": 0.5,
         "left": {"leaf": 1.0}, "right": {"leaf": 2.0}}


@pytest.mark.parametrize("doc, message", [
    ({"trees": [SPLIT, {"leaf": None}]}, "tree 1: "),
    ({"trees": [{**SPLIT, "threshold": [0.5]}]}, "tree 0: "),
    ({"trees": 5}, "an ensemble is a JSON object with a list of 'trees'"),
    ({"trees": [SPLIT], "base_score": None},
     "base_score must be a number, not None"),
    ({"trees": [5]}, "tree 0: not a JSON object"),
    ({"trees": [{"split": "x1", "threshold": 0.5, "left": 5,
                 "right": {"leaf": 1}}]},
     "tree 0: a node is not a JSON object: 5"),
    ({"trees": [{**SPLIT, "left": {"leaf": 0}, "right": [1]}]},
     "tree 0: a node is not a JSON object: [1]"),
    ({"trees": [SPLIT], "base_score": "0.25"},
     "base_score must be a number, not '0.25'"),
    ({"trees": [{**SPLIT, "threshold": "0.5"}]},
     "tree 0: a threshold must be a number, not '0.5'"),
    ({"trees": [{**SPLIT, "threshold": True}]},
     "tree 0: a threshold must be a number, not True"),
    ({"trees": [{**SPLIT, "right": {"leaf": True}}]},
     "tree 0: a leaf must be a number, not True"),
    ({"trees": [SPLIT, {**SPLIT, "leaf": 7.0}]},
     "tree 1: a node is a leaf or a split, not both"),
    ({"trees": [{"leaf": 10 ** 400}]}, "tree 0: a leaf is too large for a float"),
    # A NaN leaf in an empty box (x < 0.25 below x >= 0.5) reaches no cell.
    ({"trees": [{**SPLIT, "split": "x", "right": {
        "split": "x", "threshold": 0.25, "left": {"leaf": float("nan")},
        "right": {"leaf": 2.0}}}]}, "tree 0: a leaf must be finite, not nan"),
    ({"trees": [SPLIT, {"leaf": float("-inf")}]},
     "tree 1: a leaf must be finite, not -inf"),
    ({"trees": [SPLIT], "base_score": float("inf")},
     "base_score must be finite, not inf"),
    ({"trees": [SPLIT], "base_score": float("nan")},
     "base_score must be finite, not nan"),
    ({"trees": [{**SPLIT, "right": {"leaf": 2.0, "weight": 1.0}}]},
     "tree 0: unknown key 'weight' in a leaf"),
    ({"trees": [SPLIT], "bias": 7}, "unknown key 'bias' in an ensemble"),
    ({"trees": [SPLIT, {**SPLIT, "gain": 0.5}]},
     "tree 1: unknown key 'gain' in a split"),
    ({"trees": [{**SPLIT, "threshold": {"labels": ["a"], "missing": "left"}}]},
     "tree 0: unknown key 'missing' in a label threshold"),
    ({"trees": [{**SPLIT, "leaf": 7.0, "weight": 1.0}]},
     "tree 0: a node is a leaf or a split, not both"),
])
def test_malformed_ensemble_json_exits_2(tmp_path, doc, message):
    ens = tmp_path / "ens.json"
    ens.write_text(json.dumps(doc))
    res = run_cli("purify", "--ensemble", str(ens))
    assert res.returncode == 2, res.stderr
    assert res.stderr.count("\n") == 1
    err = json.loads(res.stderr)
    assert err["error"] == "DomainError"
    assert err["message"].startswith(message)


FEATURE = {"name": "x1", "kind": "continuous", "edges": [0.5]}


@pytest.mark.parametrize("doc, message", [
    ({"features": 5, "effects": []}, "a model is a JSON object with lists"),
    ([1], "a model is a JSON object with lists"),
    ({"features": [FEATURE], "effects": {"vars": []}},
     "a model is a JSON object with lists"),
    ({"features": [FEATURE, 5], "effects": []}, "feature 1: not a JSON object"),
    ({"features": [{"name": "x1", "kind": "weird", "labels": ["a"]}],
      "effects": []}, "feature 0: unknown bins kind 'weird'"),
    ({"features": [FEATURE], "effects": [{"vars": 5, "values": 1.0}]},
     "effect 0: "),
    ({"features": [FEATURE], "effects": [{"vars": ["x1"]}]},
     "effect 0: lacks the key 'values'"),
    ({"features": [{"name": "x1", "kind": "foo"}], "effects": []},
     "feature 0: unknown bins kind 'foo'"),
    ({"features": [FEATURE, {**FEATURE, "edges": [0.9]}],
      "effects": [{"vars": ["x1"], "values": [1.0, 2.0]}]},
     "feature 1: feature 'x1' repeats"),
    ({"features": [{**FEATURE, "edges": ["5"]}], "effects": []},
     "feature 0: an edge must be a number, not '5'"),
    ({"features": [{**FEATURE, "edges": [True]}], "effects": []},
     "feature 0: an edge must be a number, not True"),
    ({"features": [{**FEATURE, "edges": [10 ** 400]}], "effects": []},
     "feature 0: an edge is too large for a float"),
    ({"features": [FEATURE], "effects": [{"vars": ["x1"], "values": ["1", "2"]}]},
     "effect 0: values must be numbers"),
    ({"features": [], "effects": [{"vars": [], "values": "1.5"}]},
     "effect 0: values must be numbers"),
    ({"features": [FEATURE], "effects": [{"vars": ["x1"],
                                          "values": [True, False]}]},
     "effect 0: values must be numbers"),
    ({"features": [FEATURE], "effects": [{"vars": ["x1"], "values": [1.5, True]}]},
     "effect 0: values must be numbers"),
    ({"features": [FEATURE, {**FEATURE, "name": "x2"}], "effects": [
        {"vars": ["x1"], "values": [1.0, 2.0]},
        {"vars": ["x1", "x2"], "values": [[1.5, 2.5], [False, 0.5]]}]},
     "effect 1: values must be numbers"),
    ({"features": [FEATURE], "effects": [
        {"vars": ["x1"], "values": [1.0, 2.0], "valeus": [1.0, 2.0]}]},
     "effect 0: unknown key 'valeus' in an effect"),
    ({"features": [{**FEATURE, "edge": [0.5]}], "effects": []},
     "feature 0: unknown key 'edge' in a continuous feature"),
    ({"features": [FEATURE, {"name": "c", "kind": "categorical",
                             "labels": ["a"], "edges": [0.5]}], "effects": []},
     "feature 1: unknown key 'edges' in a categorical feature"),
    ({"features": [], "effects": [], "extra": 1},
     "unknown key 'extra' in a model"),
    ({"features": [FEATURE], "effects": [{"vars": ["x1"], "values": [1.0, 2.0]},
                                         {"vars": ["x1"], "values": [3.0, 4.0]}]},
     "effect 1: duplicate effect subset ('x1',)"),
    ({"features": [{"name": "c", "kind": "categorical", "labels": ["red", "blue"]}],
      "effects": []},
     "feature 0: feature 'c': labels must be strictly increasing"),
])
def test_malformed_model_json_exits_2(doc, message):
    res = run_cli("purify", stdin=json.dumps(doc))
    assert res.returncode == 2, res.stderr
    assert res.stderr.count("\n") == 1
    err = json.loads(res.stderr)
    assert err["error"] == "DomainError"
    assert err["message"].startswith(message)


@pytest.mark.parametrize("flag, doc, message", [
    ("--ensemble", {"trees": [SPLIT, {**SPLIT, "split": 5}]},
     "tree 1: a split feature is a string, not 5"),
    ("--ensemble", {"trees": [{**SPLIT, "split": 5}]},
     "tree 0: a split feature is a string, not 5"),
    ("--model", {"features": [{**FEATURE, "name": []}], "effects": []},
     "feature 0: a feature name is a string, not []"),
])
def test_feature_name_that_is_not_a_string_exits_2(tmp_path, flag, doc, message):
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc))
    res = run_cli("purify", flag, str(src))
    assert res.returncode == 2, res.stderr
    assert res.stderr.count("\n") == 1
    assert json.loads(res.stderr) == {"error": "DomainError", "message": message}


@pytest.mark.parametrize("flag, doc, message", [
    ("--model", {"features": [FEATURE],
                 "effects": [{"vars": "x1", "values": [1.0, 2.0]}]},
     "effect 0: vars must be a list"),
    ("--model", {"features": [{"name": "c", "kind": "categorical",
                               "labels": "ab"}], "effects": []},
     "feature 0: labels must be a list"),
    ("--model", {"features": [{**FEATURE, "edges": "5"}], "effects": []},
     "feature 0: edges must be a list"),
    ("--ensemble", {"trees": [{**SPLIT, "split": "c",
                               "threshold": {"labels": "ab"}}]},
     "tree 0: labels must be a list"),
])
def test_string_where_a_list_belongs_exits_2(tmp_path, capsys, flag, doc,
                                             message):
    # A string is iterable: read as a list, it would split into characters.
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc))
    assert cli.main(["purify", flag, str(src)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "DomainError", "message": message}


@pytest.mark.parametrize("bad", ["null", "5", "-1", "0.5", "true", "NaN",
                                 "Infinity"])
def test_label_that_is_not_a_string_exits_2(tmp_path, capsys, bad):
    split = ('{"split": "c", "threshold": {"labels": ["a", %s]}, '
             '"left": {"leaf": 1}, "right": {"leaf": 2}}' % bad)
    src = tmp_path / "ens.json"
    src.write_text('{"trees": [%s]}' % split)
    assert cli.main(["purify", "--ensemble", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    message = json.loads(err)["message"]
    assert message.startswith("tree 0: split on feature 'c': a label is a string")


@pytest.mark.parametrize("argv, message", [
    (("purify", "--tol", "-1"), "tol must be finite and >= 0, not -1.0"),
    (("purify", "--tol", "nan"), "tol must be finite and >= 0, not nan"),
    (("purify", "--max-passes", "0"), "max_passes must be at least 1, not 0"),
    (("check", "--tol", "nan"), "tol must be finite and >= 0, not nan"),
])
def test_bad_tol_or_max_passes_exits_2(tmp_path, argv, message):
    src = tmp_path / "a.json"
    src.write_text(model_to_json(gen_boolean_fig1("a")))
    res = run_cli(*argv, "--model", str(src))
    assert res.returncode == 2, res.stderr
    assert json.loads(res.stderr) == {"error": "DomainError", "message": message}


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


def test_intercept_only_ensemble_takes_empirical_weights(tmp_path):
    ens = tmp_path / "ens.json"
    ens.write_text('{"trees":[{"leaf":1.5}]}')
    data = tmp_path / "rows.csv"
    data.write_text("x1\n0.1\n0.9\n")
    res = run_cli("purify", "--ensemble", str(ens), "--weights", "empirical",
                  "--data", str(data))
    assert res.returncode == 0, res.stderr
    assert float(model_from_json(res.stdout).effects[()].values) == 1.5


@pytest.mark.parametrize("command", ["purify", "check", "density", "predict"])
def test_model_with_ensemble_exits_2(tmp_path, command):
    src = tmp_path / "a.json"
    src.write_text(model_to_json(gen_boolean_fig1("a")))
    ens = tmp_path / "ens.json"
    ens.write_text('{"trees":[{"leaf":1.5}]}')
    data = tmp_path / "rows.csv"
    data.write_text("x1,x2\n0,1\n")
    res = run_cli(command, "--model", str(src), "--ensemble", str(ens),
                  "--data", str(data))
    assert res.returncode == 2, res.stderr
    assert json.loads(res.stderr) == {
        "error": "DomainError",
        "message": "argument --ensemble: not allowed with argument --model"}


def test_overlong_csv_field_exits_2_naming_its_line(tmp_path, capsys):
    # The csv module refuses a field over 131072 characters by default;
    # numpy would read the finite one, 0.111..., so the CSV fast path must not.
    src, data = tmp_path / "a.json", tmp_path / "big.csv"
    src.write_text(model_to_json(gen_boolean_fig1("a")))
    big = "1" * 200_000
    for text, line in ((f"x1,x2\n0.5,0.5\n\n0.5,{big}\n", 4), (f"x1,{big}\n", 1),
                       (f"x1,x2\n0.5,0.{big}\n", 2)):
        data.write_text(text)
        assert cli.main(["predict", "--model", str(src), "--data", str(data)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "DomainError",
            "message": f"{data}, line {line}: field larger than field limit (131072)"}


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
    bins = [FeatureBins(n, "continuous", edges=(0.5,)) for n in names]
    src = tmp_path / "cube.json"
    src.write_text(model_to_json(AdditiveModel(
        bins, [EffectTensor(names, rng.normal(size=(2, 2, 2)))])))
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


def test_zero_weight_slice_exits_4_when_strict(tmp_path):
    src = tmp_path / "a.json"
    src.write_text(model_to_json(gen_boolean_fig1("a")))
    data = tmp_path / "data.csv"
    data.write_text("x1,x2\n0.2,0.2\n0.3,0.7\n")
    argv = ("purify", "--model", str(src), "--weights", "empirical",
            "--data", str(data))
    res = run_cli(*argv, "--strict")
    assert res.returncode == 4
    assert json.loads(res.stderr) == {
        "error": "DegenerateSliceError",
        "message": "zero-weight slice of ('x1', 'x2') along 'x2'"}
    res = run_cli(*argv)
    assert res.returncode == 0, res.stderr


def test_strict_refuses_a_degenerate_table_before_an_earlier_tensor_fails(tmp_path):
    # ('x1', 'x2') is swept first and cannot converge in one pass; only
    # ('x2', 'x3') has a zero-weight slice, since x3 is always 0.
    bins = [FeatureBins(n, "continuous", edges=(0.5,)) for n in ("x1", "x2", "x3")]
    effects = [EffectTensor(("x1", "x2"), np.array([[1.0, -2.0], [0.5, 3.0]])),
               EffectTensor(("x2", "x3"), np.array([[1.0, 2.0], [-1.0, 0.0]]))]
    src = tmp_path / "m.json"
    src.write_text(model_to_json(AdditiveModel(bins, effects)))
    data = tmp_path / "data.csv"
    rows = ["0,0,0"] * 5 + ["0,1,0", "1,0,0"] + ["1,1,0"] * 3
    data.write_text("\n".join(["x1,x2,x3", *rows]) + "\n")
    argv = ("purify", "--model", str(src), "--weights", "empirical",
            "--data", str(data), "--max-passes", "1")
    res = run_cli(*argv)
    assert res.returncode == 3
    assert "tensor ('x1', 'x2')" in json.loads(res.stderr)["message"]
    res = run_cli(*argv, "--strict")
    assert res.returncode == 4
    assert json.loads(res.stderr) == {
        "error": "DegenerateSliceError",
        "message": "zero-weight slice of ('x2', 'x3') along 'x2'"}


def test_data_is_read_by_the_counting_modes_only(tmp_path, capsys):
    src = tmp_path / "a.json"
    src.write_text(model_to_json(gen_boolean_fig1("a")))
    data = tmp_path / "data.csv"
    data.write_text("x1,x2\n0.2,0.2\n0.3,0.7\n")

    def error(*argv):
        code = cli.main(list(argv))
        return code, json.loads(capsys.readouterr().err)

    for command in ("purify", "check", "density"):
        base = (command, "--model", str(src))
        assert error(*base, "--weights", "uniform", "--data", str(data)) == (
            2, {"error": "DomainError", "message": "uniform density reads no dataset"})
        code, err = error(*base, "--data", str(tmp_path / "missing.csv"))
        assert (code, err["error"]) == (1, "FileNotFoundError")
        for mode in ("empirical", "laplace"):
            assert error(*base, "--weights", mode) == (2, {
                "error": "DomainError",
                "message": f"{mode} density requires a nonempty dataset"})


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


def test_gen_mult_with_a_negative_first_value_takes_the_equals_form(capsys):
    # After a space, argparse reads "-1,..." as a flag, not as --mult's value.
    assert cli.main(["gen", "--mult=-1,1,1,1,0,0", "--grid", "4"]) == 0
    assert model_from_json(capsys.readouterr().out).bins["x1"].n_cells == 4
    assert cli.main(["gen", "--mult", "-1,1,1,1,0,0"]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "DomainError", "message": "argument --mult: expected one argument"}


def test_files_are_read_and_written_as_utf8_under_any_locale(tmp_path):
    # Under the C locale, without UTF-8 mode, open()'s default encoding is ASCII.
    model = {"features": [{"name": "é", "kind": "categorical", "labels": ["a", "b"]}],
             "effects": [{"vars": ["é"], "values": [1.0, -1.0]}]}
    (tmp_path / "u.json").write_text(json.dumps(model, ensure_ascii=False),
                                     encoding="utf-8")
    (tmp_path / "u.csv").write_text("é\na\na\nb\n", encoding="utf-8")
    traces = []
    for locale in ({"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
                   {"PYTHONUTF8": "1"}):
        trace = tmp_path / "t.csv"
        res = run_cli("purify", "--model", str(tmp_path / "u.json"), "--weights",
                      "empirical", "--data", str(tmp_path / "u.csv"), "--trace",
                      str(trace), env={**os.environ, **locale})
        assert res.returncode == 0, res.stderr
        traces.append(trace.read_bytes())
    assert traces[0] == traces[1]
    assert "\né,0," in traces[0].decode("utf-8")


def test_cli_process_exits_without_interpreter_teardown():
    # atexit handlers run only in the interpreter's normal exit.
    code = ("import atexit, runpy, sys; atexit.register(print, 'atexit ran'); "
            "sys.argv = ['purefx', 'gen', '--fig1-row', 'a']; "
            "runpy.run_module('purefx.cli', run_name='__main__')")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=BUFFERED_ENV)
    assert res.returncode == 0, res.stderr
    # Less than a buffer's worth: it reaches the pipe only by the flush.
    assert res.stdout == model_to_json(gen_boolean_fig1("a"))


def test_buffered_output_is_flushed_before_exit(tmp_path):
    src = tmp_path / "lam.json"
    src.write_text(model_to_json(gen_log_lambda(0.5, 64)))
    out = tmp_path / "pure.json"
    res = run_cli("purify", "--model", str(src), "--out", str(out),
                  env=BUFFERED_ENV)
    assert res.returncode == 0, res.stderr
    assert out.stat().st_size > 65536  # more than a pipe buffer holds
    res = run_cli("purify", "--model", str(src), env=BUFFERED_ENV)
    assert res.returncode == 0, res.stderr
    assert res.stdout == out.read_text()

    res = run_cli("purify", "--model", str(src), "--max-passes", "0",
                  env=BUFFERED_ENV)
    assert res.returncode == 2
    assert json.loads(res.stderr)["error"] == "DomainError"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_stdout_on_a_full_device_exits_nonzero():
    with open("/dev/full", "w") as full:
        res = subprocess.run(
            [sys.executable, "-m", "purefx.cli", "gen", "--fig1-row", "a"],
            stdout=full, stderr=subprocess.PIPE, env=BUFFERED_ENV)
    assert res.returncode != 0


COUNTED = ["--model", "a.json", "--weights", "empirical", "--data", "d.csv"]


@pytest.mark.parametrize("argv", [
    ["purify", *COUNTED], ["check", "--model", "a.json"],
    ["gen", "--fig1-row", "a"], ["bench", "--dims", "5"],
    ["density", *COUNTED], ["predict", "--model", "a.json", "--data", "d.csv"]],
    ids=lambda argv: argv[0])
def test_every_command_writes_the_same_bytes_to_out_or_stdout(
        tmp_path, monkeypatch, capsys, argv):
    # `--out -` names stdout, as `--model -` names stdin: it makes no file.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_text(model_to_json(gen_boolean_fig1("a")))
    (tmp_path / "d.csv").write_text("x1,x2\n0,0\n1,1\n1,0\n")
    printed = []
    for out in ([], ["--out", "-"], ["--out", "doc"]):
        assert cli.main([*argv, *out]) == 0
        printed.append(capsys.readouterr().out)
    assert not (tmp_path / "-").exists()
    assert printed[0] and printed[1] == printed[0] and printed[2] == ""
    assert (tmp_path / "doc").read_bytes() == printed[0].encode()


@pytest.mark.parametrize("flag", ["--out", "--trace", "--report"])
def test_purify_to_an_empty_path_exits_1_as_one_json_line(
        tmp_path, monkeypatch, capsys, flag):
    # An empty path names no file, whichever of purify's outputs it is.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_text(model_to_json(gen_boolean_fig1("a")))
    assert cli.main(["purify", "--model", "a.json", flag, ""]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert json.loads(err) == {
        "error": "FileNotFoundError",
        "message": f"[Errno {errno.ENOENT}] No such file or directory: ''"}


@pytest.mark.parametrize("fd, argv, name", [
    (1, ["gen", "--fig1-row", "a"], "stdout"), (0, ["purify"], "stdin")])
def test_closed_standard_stream_exits_1_as_one_json_line(fd, argv, name):
    # A descriptor closed at start leaves its sys stream None.
    res = subprocess.run([sys.executable, "-m", "purefx.cli", *argv],
                         stdin=subprocess.DEVNULL, capture_output=True,
                         text=True, preexec_fn=lambda: os.close(fd))
    assert res.returncode == 1
    assert res.stderr.count("\n") == 1
    assert json.loads(res.stderr) == {
        "error": "OSError", "message": f"[Errno {errno.EBADF}] {name} is closed"}


def test_cli_takes_its_tolerance_defaults_from_the_engine():
    parse = cli.build_parser().parse_args
    tol = {f: inspect.signature(f).parameters["tol"].default
           for f in (purify_model, check_purity)}
    assert parse(["purify"]).tol == engine.PURIFY_TOL
    assert parse(["check"]).tol == engine.CHECK_TOL
    assert tol == {purify_model: engine.PURIFY_TOL, check_purity: engine.CHECK_TOL}
