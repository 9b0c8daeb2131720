import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, strategies as st

import purefx.density
import purefx.model
from purefx import (AdditiveModel, DomainError, EffectTensor, FeatureBins, cli,
                    dataset_from_csv,
                    density_to_json, estimate_density,
                    model_to_json, purify_model,
                    required_subsets)
from purefx.model import bin_dataset


def boolean_model():
    bins = [FeatureBins(n, "continuous", edges=(0.5,)) for n in ("x1", "x2")]
    inter = EffectTensor(("x1", "x2"), np.array([[0.0, 0.0], [0.0, -1.0]]))
    return AdditiveModel(bins, [inter])


def boolean_rows(pairs):
    return {"x1": [a for a, _ in pairs], "x2": [b for _, b in pairs]}


def test_required_subsets_of_pair_model():
    m = boolean_model()
    assert required_subsets(m) == [("x1", "x2"), ("x1",), ("x2",)]


def test_required_subsets_of_triple_model_in_cascade_order():
    bins = [FeatureBins(n, "continuous", edges=(0.5,)) for n in ("x1", "x2", "x3")]
    m = AdditiveModel(bins, [EffectTensor(("x3",), np.zeros(2)),
                             EffectTensor(("x1", "x2", "x3"), np.zeros((2, 2, 2)))])
    assert required_subsets(m) == [
        ("x1", "x2", "x3"), ("x1", "x2"), ("x1", "x3"), ("x2", "x3"),
        ("x1",), ("x2",), ("x3",)]


def test_uniform_is_quarter_per_cell():
    w = estimate_density(boolean_model(), "uniform")
    assert np.array_equal(w[("x1", "x2")], np.full((2, 2), 0.25))
    assert np.array_equal(w[("x1",)], np.array([0.5, 0.5]))
    assert () not in w


def test_uniform_refuses_any_dataset():
    # Only the counting modes read data, so a dataset given to uniform
    # would be ignored; even an empty one is refused.
    for data in (boolean_rows([(0, 0)] * 5), {}):
        with pytest.raises(DomainError, match="^uniform density reads no dataset$"):
            estimate_density(boolean_model(), "uniform", data)


def test_empirical_counts_normalized():
    data = boolean_rows([(0, 0), (0, 0), (1, 1), (0, 1)])
    w = estimate_density(boolean_model(), "empirical", data)
    assert np.array_equal(w[("x1", "x2")],
                          np.array([[0.5, 0.25], [0.0, 0.25]]))
    assert np.array_equal(w[("x1",)], np.array([0.75, 0.25]))
    assert np.array_equal(w[("x2",)], np.array([0.5, 0.5]))


def test_empirical_marginals_consistent_with_joint():
    rng = np.random.default_rng(5)
    data = boolean_rows([(int(a), int(b))
                         for a, b in rng.integers(0, 2, size=(40, 2))])
    w = estimate_density(boolean_model(), "empirical", data)
    joint = w[("x1", "x2")]
    assert np.allclose(joint.sum(axis=1), w[("x1",)])
    assert np.allclose(joint.sum(axis=0), w[("x2",)])


def test_laplace_adds_one_to_every_cell():
    data = boolean_rows([(0, 0), (0, 0), (1, 1), (0, 1)])
    w = estimate_density(boolean_model(), "laplace", data)
    assert np.array_equal(w[("x1", "x2")],
                          np.array([[3.0, 2.0], [1.0, 2.0]]) / 8.0)


def test_laplace_is_strictly_positive_even_for_unseen_cells():
    data = boolean_rows([(0, 0)])
    w = estimate_density(boolean_model(), "laplace", data)
    for u in w:
        assert np.all(w[u] > 0)


def test_every_table_sums_to_one():
    data = boolean_rows([(0, 1), (1, 0), (1, 1)])
    for mode in ("uniform", "empirical", "laplace"):
        w = estimate_density(boolean_model(), mode,
                             None if mode == "uniform" else data)
        # One table per subset the cascade sweeps, none for the intercept.
        assert list(w) == [("x1", "x2"), ("x1",), ("x2",)]
        for u in w:
            assert w[u].sum() == pytest.approx(1.0)
            assert np.all(w[u] >= 0)


def test_counting_modes_require_data():
    for mode in ("empirical", "laplace"):
        with pytest.raises(DomainError, match="requires a nonempty dataset"):
            estimate_density(boolean_model(), mode)
        with pytest.raises(DomainError, match="requires a nonempty dataset"):
            estimate_density(boolean_model(), mode,
                             {"x1": [], "x2": []})


@pytest.mark.parametrize("mode", ["uniform", "empirical", "laplace"])
def test_intercept_only_model_has_no_tables(mode):
    data = None if mode == "uniform" else {"x1": ["0.1", "0.9"]}
    model = AdditiveModel([], [EffectTensor((), np.asarray(2.0))])
    assert estimate_density(model, mode, data) == {}


def test_unknown_mode_rejected():
    with pytest.raises(DomainError, match="unknown density mode 'kernel'"):
        estimate_density(boolean_model(), "kernel")


def test_columns_must_have_equal_length():
    with pytest.raises(DomainError, match="differ in length"):
        estimate_density(boolean_model(), "empirical", {"x1": [0, 1], "x2": [0]})


def test_dataset_missing_feature_column():
    data = {"x1": [0]}
    with pytest.raises(DomainError, match="x2"):
        estimate_density(boolean_model(), "empirical", data)


def test_blank_continuous_value_rejected():
    data = {"x1": ["0.1", "0.2"], "x2": ["0.3", " "]}
    with pytest.raises(DomainError, match="'x2', row 1: blank"):
        estimate_density(boolean_model(), "empirical", data)


def test_unparseable_continuous_value_rejected():
    data = {"x1": ["0.1", "0.2"], "x2": ["0.3", "high"]}
    with pytest.raises(DomainError, match="'x2', row 1: cannot parse 'high'"):
        estimate_density(boolean_model(), "empirical", data)


def test_unknown_categorical_label_rejected():
    bins = [FeatureBins("c", "categorical", labels=("a", "b"))]
    m = AdditiveModel(bins, [EffectTensor(("c",), np.array([1.0, -1.0]))])
    data = {"c": ["a", "b", "z"]}
    with pytest.raises(DomainError, match="'c', row 2: unknown label 'z'"):
        estimate_density(m, "empirical", data)


def test_value_on_edge_counts_in_upper_cell():
    data = boolean_rows([(0.5, 0.2)])
    w = estimate_density(boolean_model(), "empirical", data)
    assert w[("x1", "x2")][1, 0] == 1.0


def test_continuous_strings_parse_like_numbers():
    str_rows = {"x1": ["0.7"], "x2": ["0.1"]}
    num_rows = boolean_rows([(0.7, 0.1)])
    a = estimate_density(boolean_model(), "empirical", str_rows)
    b = estimate_density(boolean_model(), "empirical", num_rows)
    assert np.array_equal(a[("x1", "x2")], b[("x1", "x2")])


def test_dataset_from_csv(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("x1,x2\n0.1,0.9\n0.8,0.2\n")
    data = dataset_from_csv(p)
    assert data == {"x1": ("0.1", "0.8"), "x2": ("0.9", "0.2")}
    w = estimate_density(boolean_model(), "empirical", data)
    assert np.array_equal(w[("x1", "x2")],
                          np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_empty_csv_rejected(tmp_path):
    p = tmp_path / "empty.csv"
    for text in ("", "\n", "\r\n\n"):
        p.write_text(text)
        with pytest.raises(DomainError, match="empty CSV"):
            dataset_from_csv(p)


def test_blank_lines_before_the_header_are_skipped(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("\n\nx1,x2\n\n0.1,0.9\n")
    assert dataset_from_csv(p) == {"x1": ("0.1",), "x2": ("0.9",)}


NUMERIC = AdditiveModel(
    [FeatureBins("x1", "continuous", edges=(0.0, 0.5, 1.0)),
     FeatureBins("x2", "continuous", edges=(0.25,))],
    [EffectTensor(("x1", "x2"), np.arange(8.0).reshape(4, 2))])
LABELLED = AdditiveModel(
    [FeatureBins("c", "categorical", labels=("1", "2")),
     FeatureBins("x1", "continuous", edges=(0.5,))],
    [EffectTensor(("c", "x1"), np.arange(4.0).reshape(2, 2))])


def test_numeric_csv_comes_back_as_float64_columns(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("x1,x2\n0.1,0.9\n0.8,0.2\n")
    data = dataset_from_csv(p, NUMERIC)
    assert {k: (v.dtype, v.tolist()) for k, v in data.items()} == {
        "x1": (np.float64, [0.1, 0.8]), "x2": (np.float64, [0.9, 0.2])}
    # A label may read as a number, so a categorical feature keeps strings.
    p.write_text("x1,c\n0.1,1\n0.8,2\n")
    assert dataset_from_csv(p, LABELLED) == {"x1": ("0.1", "0.8"),
                                             "c": ("1", "2")}


def test_a_repeated_header_name_is_named_before_an_unreadable_line(tmp_path):
    # The header is checked once, before either reader reads a row; line 2
    # is over the csv module's field size limit.
    p = tmp_path / "data.csv"
    p.write_text("x1,x1,x2\n0.5,0.5,0." + "1" * 200_000 + "\n")
    for model in (None, NUMERIC):
        with pytest.raises(DomainError) as exc:
            dataset_from_csv(p, model)
        assert str(exc.value) == f"{p}: feature 'x1' repeats in the header"


def _cli_outcome(tmp_path, model, text, with_model):
    """Exit code, stdout and stderr of `density --weights empirical` and of
    `predict` over the CSV ``text``, and the cells ``bin_dataset`` returned;
    the CLI reads the CSV with the model or, as a reference, without."""
    src, data = tmp_path / "m.json", tmp_path / "data.csv"
    src.write_text(model_to_json(model))
    data.write_bytes(text.encode("utf-8"))
    cells = []

    def recording(model, data):
        out = bin_dataset(model, data)
        cells.append({name: c.tolist() for name, c in out.items()})
        return out

    outcome = []
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")  # a CLI process would print it
        mp.setattr(purefx.density, "bin_dataset", recording)
        mp.setattr(purefx.model, "bin_dataset", recording)
        if not with_model:
            mp.setattr(cli, "dataset_from_csv",
                       lambda path, model: dataset_from_csv(path))
        for argv in (["density", "--weights", "empirical"], ["predict"]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main([*argv, "--model", str(src), "--data", str(data)])
            outcome.append((code, out.getvalue(), err.getvalue()))
    return outcome, cells


# Bodies where numpy and the csv module could read a file apart.  On each,
# numpy's reader either raises, so the csv module decides, or gives the
# values float() gives.
TRICKY = [
    "x1,x2\n1_000,0.5\n", "x1,x2\n,0.5\n", "x1,x2\n0.5,0.5,\n",
    "x1,x2\n# note\n0.5,0.5\n", "x1,x2\n0.5,0.5\n0.7\n", 'x1,x2\n"0.5",0.5\n',
    "x1,x2\n0.5,0.5\n  \n", "x1,x2\n0.\x0c5,0.5\n", "x1,x2\n0.5,0.5\r0.7,0.1\n",
    "x1,x2\n\u0660.\u0665,0.5\n", "x1,x2\n 1.5,0.5\n", "x1,x2\nnan,0.5\n",
    "x1,x2\n0.5,1e400\n", "x1,x2\n+1,.5\n", "x1,x2\r\n1E5,0.5\r\n0.2,0.3\r\n",
    "x1,x2\n1\x1c,0.5\n", "x1,x2\n0.5,\xa00.3\u2028\n",
    "x1,x2\n0.5,0.5\n\n\n0.7,0.1",
    "x1,x2\n0.5,0.5,0.5\n", "x1,x2,x3\n0.5,0.5\n",
    "x1,x2\n", "x1,x2\n\r\n", "x1,x1\n0.5,0.5\n", "\ufeffx2,x1\n0.5,0.7\n",
    "x1,x2,name\n0.5,0.5,abc\n", "x1,x2,n\n0.5,0.5,nan\n", "x1,x2\n0.5,0.5\n\x00\n",
    '"x1\nz",x2\n0.5,0.5\n', "", "\r\n\n",
]


@pytest.mark.parametrize("model, text", [(NUMERIC, t) for t in TRICKY] + [
    (LABELLED, "x1,c\n0.2,1\n0.7,2\n"), (LABELLED, "c,x1\n2,0.2\n1,0.7\n")],
    ids=[f"tricky{i}" for i in range(len(TRICKY))] + ["labels0", "labels1"])
def test_reading_with_the_model_gives_what_reading_without_gives(tmp_path,
                                                                  model, text):
    want = _cli_outcome(tmp_path, model, text, with_model=False)
    assert _cli_outcome(tmp_path, model, text, with_model=True) == want


_CELL = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
         | st.floats(-2, 2).map(lambda v: f"{v:.6f}")
         | st.integers(-10 ** 6, 10 ** 6).map(str)
         | st.sampled_from(["nan", "inf", " 1.5", "+1", ".5", "1E5", "-0",
                            "1e400", "1_0", "", "a"]))


def _binned(path, model, with_model):
    """The cells ``bin_dataset`` gives from the CSV at ``path``, read with the
    model or, as a reference, without; or the error either raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a CLI process would print it
        try:
            data = dataset_from_csv(path, model if with_model else None)
            return {name: c.tolist() for name, c in bin_dataset(model, data).items()}
        except (DomainError, ValueError) as exc:
            return type(exc).__name__, str(exc)


@given(rows=st.lists(st.tuples(_CELL, _CELL), max_size=6),
       newline=st.sampled_from(["\n", "\r\n", "\r"]))
def test_random_numeric_csv_reads_alike_with_the_model(tmp_path_factory, rows,
                                                       newline):
    p = tmp_path_factory.mktemp("csv") / "data.csv"
    text = newline.join(["x1,x2", *map(",".join, rows)]) + newline
    p.write_bytes(text.encode())
    assert _binned(p, NUMERIC, True) == _binned(p, NUMERIC, False)


def test_density_json_round_trip():
    data = boolean_rows([(0, 0), (1, 1), (1, 0)])
    w = estimate_density(boolean_model(), "laplace", data)
    subsets = json.loads(density_to_json(w))["subsets"]
    assert {tuple(s["vars"]) for s in subsets} == set(w)
    for s in subsets:
        assert np.array_equal(np.array(s["weights"]), w[tuple(s["vars"])])


def test_estimated_densities_drive_the_purifier():
    rng = np.random.default_rng(9)
    m = boolean_model()
    data = boolean_rows([(int(a), int(b))
                         for a, b in rng.integers(0, 2, size=(30, 2))])
    for mode in ("uniform", "laplace"):
        w = estimate_density(m, mode, None if mode == "uniform" else data)
        out, _ = purify_model(m, w)
        assert set(out.effects) == {(), ("x1",), ("x2",), ("x1", "x2")}
