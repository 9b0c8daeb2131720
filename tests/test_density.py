import numpy as np
import pytest

from purefx import (AdditiveModel, DensitySpec, DomainError, EffectTensor,
                    FeatureBins, GridDataset, dataset_from_csv,
                    density_to_json, estimate_density, purify_model,
                    required_subsets)

import json


def boolean_model():
    bins = {n: FeatureBins(n, "continuous", edges=(0.5,)) for n in ("x1", "x2")}
    inter = EffectTensor(("x1", "x2"), np.array([[0.0, 0.0], [0.0, -1.0]]))
    return AdditiveModel(bins, {("x1", "x2"): inter})


def boolean_rows(pairs):
    return GridDataset({"x1": [a for a, _ in pairs],
                        "x2": [b for _, b in pairs]})


def test_required_subsets_of_pair_model():
    m = boolean_model()
    assert required_subsets(m) == [(), ("x1",), ("x2",), ("x1", "x2")]


def test_uniform_is_quarter_per_cell():
    w = estimate_density(boolean_model(), DensitySpec("uniform"))
    assert np.array_equal(w.table(("x1", "x2")), np.full((2, 2), 0.25))
    assert np.array_equal(w.table(("x1",)), np.array([0.5, 0.5]))
    assert float(w.table(())) == 1.0


def test_uniform_ignores_any_dataset():
    data = boolean_rows([(0, 0)] * 5)
    a = estimate_density(boolean_model(), DensitySpec("uniform"))
    b = estimate_density(boolean_model(), DensitySpec("uniform", data))
    for u in a.tables:
        assert np.array_equal(a.table(u), b.table(u))


def test_empirical_counts_normalized():
    data = boolean_rows([(0, 0), (0, 0), (1, 1), (0, 1)])
    w = estimate_density(boolean_model(), DensitySpec("empirical", data))
    assert np.array_equal(w.table(("x1", "x2")),
                          np.array([[0.5, 0.25], [0.0, 0.25]]))
    assert np.array_equal(w.table(("x1",)), np.array([0.75, 0.25]))
    assert np.array_equal(w.table(("x2",)), np.array([0.5, 0.5]))


def test_empirical_marginals_consistent_with_joint():
    rng = np.random.default_rng(5)
    data = boolean_rows([(int(a), int(b))
                         for a, b in rng.integers(0, 2, size=(40, 2))])
    w = estimate_density(boolean_model(), DensitySpec("empirical", data))
    joint = w.table(("x1", "x2"))
    assert np.allclose(joint.sum(axis=1), w.table(("x1",)))
    assert np.allclose(joint.sum(axis=0), w.table(("x2",)))


def test_laplace_adds_one_to_every_cell():
    data = boolean_rows([(0, 0), (0, 0), (1, 1), (0, 1)])
    w = estimate_density(boolean_model(), DensitySpec("laplace", data))
    assert np.array_equal(w.table(("x1", "x2")),
                          np.array([[3.0, 2.0], [1.0, 2.0]]) / 8.0)


def test_laplace_is_strictly_positive_even_for_unseen_cells():
    data = boolean_rows([(0, 0)])
    w = estimate_density(boolean_model(), DensitySpec("laplace", data))
    for u in w.tables:
        assert np.all(w.table(u) > 0)


def test_every_table_sums_to_one():
    data = boolean_rows([(0, 1), (1, 0), (1, 1)])
    for mode in ("uniform", "empirical", "laplace"):
        w = estimate_density(boolean_model(), DensitySpec(mode, data))
        for u in w.tables:
            assert w.table(u).sum() == pytest.approx(1.0)
            assert np.all(w.table(u) >= 0)


def test_counting_modes_require_data():
    for mode in ("empirical", "laplace"):
        with pytest.raises(DomainError):
            DensitySpec(mode)
        with pytest.raises(DomainError):
            DensitySpec(mode, GridDataset({"x1": [], "x2": []}))


def test_unknown_mode_rejected():
    with pytest.raises(DomainError):
        DensitySpec("kernel")


def test_columns_must_have_equal_length():
    with pytest.raises(DomainError, match="differ in length"):
        GridDataset({"x1": [0, 1], "x2": [0]})


def test_dataset_missing_feature_column():
    data = GridDataset({"x1": [0]})
    with pytest.raises(DomainError, match="x2"):
        estimate_density(boolean_model(), DensitySpec("empirical", data))


def test_blank_continuous_value_rejected():
    data = GridDataset({"x1": ["0.1", "0.2"], "x2": ["0.3", " "]})
    with pytest.raises(DomainError, match="'x2', row 1: blank"):
        estimate_density(boolean_model(), DensitySpec("empirical", data))


def test_unparseable_continuous_value_rejected():
    data = GridDataset({"x1": ["0.1", "0.2"], "x2": ["0.3", "high"]})
    with pytest.raises(DomainError, match="'x2', row 1: cannot parse 'high'"):
        estimate_density(boolean_model(), DensitySpec("empirical", data))


def test_unknown_categorical_label_rejected():
    bins = {"c": FeatureBins("c", "categorical", labels=("a", "b"))}
    m = AdditiveModel(bins, {("c",): EffectTensor(("c",), np.array([1.0, -1.0]))})
    data = GridDataset({"c": ["a", "b", "z"]})
    with pytest.raises(DomainError, match="'c', row 2: unknown label 'z'"):
        estimate_density(m, DensitySpec("empirical", data))


def test_value_on_edge_counts_in_upper_cell():
    data = boolean_rows([(0.5, 0.2)])
    w = estimate_density(boolean_model(), DensitySpec("empirical", data))
    assert w.table(("x1", "x2"))[1, 0] == 1.0


def test_continuous_strings_parse_like_numbers():
    str_rows = GridDataset({"x1": ["0.7"], "x2": ["0.1"]})
    num_rows = boolean_rows([(0.7, 0.1)])
    a = estimate_density(boolean_model(), DensitySpec("empirical", str_rows))
    b = estimate_density(boolean_model(), DensitySpec("empirical", num_rows))
    assert np.array_equal(a.table(("x1", "x2")), b.table(("x1", "x2")))


def test_dataset_from_csv(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("x1,x2\n0.1,0.9\n0.8,0.2\n")
    data = dataset_from_csv(p)
    assert data.columns == {"x1": ("0.1", "0.8"), "x2": ("0.9", "0.2")}
    assert len(data) == 2
    w = estimate_density(boolean_model(), DensitySpec("empirical", data))
    assert np.array_equal(w.table(("x1", "x2")),
                          np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_empty_csv_rejected(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(DomainError):
        dataset_from_csv(p)


def test_density_json_round_trip():
    data = boolean_rows([(0, 0), (1, 1), (1, 0)])
    w = estimate_density(boolean_model(), DensitySpec("laplace", data))
    subsets = json.loads(density_to_json(w))["subsets"]
    assert {tuple(s["vars"]) for s in subsets} == set(w.tables)
    for s in subsets:
        assert np.array_equal(np.array(s["weights"]), w.table(s["vars"]))


def test_estimated_densities_drive_the_purifier():
    rng = np.random.default_rng(9)
    m = boolean_model()
    data = boolean_rows([(int(a), int(b))
                         for a, b in rng.integers(0, 2, size=(30, 2))])
    for mode in ("uniform", "laplace"):
        w = estimate_density(m, DensitySpec(mode, data))
        out, _ = purify_model(m, w)
        assert set(out.effects) == {(), ("x1",), ("x2",), ("x1", "x2")}
