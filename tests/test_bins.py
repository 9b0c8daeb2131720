import numpy as np
import pytest
from hypothesis import given, strategies as st

from purefx import (DomainError, FeatureBins, bin_index, estimate_density,
                    gen_boolean_fig1, predict)

from helpers import representative


def test_value_below_only_edge():
    b = FeatureBins("x", "continuous", edges=(0.5,))
    assert bin_index(b, [0.2]).tolist() == [0]


def test_value_on_edge_goes_to_upper_cell():
    b = FeatureBins("x", "continuous", edges=(0.5,))
    assert bin_index(b, [0.5]).tolist() == [1]


def test_categorical_lookup():
    b = FeatureBins("x", "categorical", labels=("a", "b"))
    assert bin_index(b, ["b"]).tolist() == [1]


@pytest.mark.parametrize("value, ndim", [(0.2, 0), ("green", 0), ([[0.1]], 2)])
def test_data_is_one_column_per_feature(value, ndim):
    # A bare value is not read as one row, nor a bare string as its letters.
    m = gen_boolean_fig1("a")
    data = {"x1": value, "x2": [0.1]}
    color = FeatureBins("x1", "categorical", labels=("green",))
    for call in (lambda: bin_index(m.bins["x1"], value),
                 lambda: bin_index(color, value),
                 lambda: predict(m, data),
                 lambda: estimate_density(m, "empirical", data)):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == (
            f"feature 'x1': data is one column, not a {ndim}-D array")


@pytest.mark.parametrize("name", [5, None, ["x"]])
def test_feature_name_must_be_a_string(name):
    with pytest.raises(DomainError, match="a feature name is a string"):
        FeatureBins(name, "continuous", edges=(0.5,))


def test_unknown_label_names_feature_and_label():
    b = FeatureBins("color", "categorical", labels=("blue", "red"))
    with pytest.raises(DomainError) as exc:
        bin_index(b, ["green"])
    assert str(exc.value) == "feature 'color', row 0: unknown label 'green'"


def test_non_finite_value_names_feature_and_row():
    b = FeatureBins("x", "continuous", edges=(0.5,))
    for bad in ("nan", "inf", float("-inf")):
        with pytest.raises(DomainError, match="'x', row 2: non-finite"):
            bin_index(b, ["0.1", 0.7, bad])


def test_integer_too_large_for_a_float_names_feature_and_row():
    # A CSV never holds one: float("1e400") is inf, refused as non-finite.
    b = FeatureBins("x1", "continuous", edges=(0.5,))
    m = gen_boolean_fig1("a")
    for call, row in ((lambda: bin_index(b, [10 ** 400]), 0),
                      (lambda: bin_index(b, [0.1, 10 ** 400]), 1),
                      (lambda: predict(m, {"x1": [0.1, 10 ** 400],
                                           "x2": [0.2, 0.3]}), 1),
                      (lambda: estimate_density(m, "empirical", {
                          "x1": [10 ** 400], "x2": [0.1]}), 0)):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == (
            f"feature 'x1', row {row}: value too large for a float")


def test_edges_must_increase():
    with pytest.raises(DomainError):
        FeatureBins("x", "continuous", edges=(1.0, 1.0))
    with pytest.raises(DomainError):
        FeatureBins("x", "continuous", edges=(2.0, 1.0))


def test_each_kind_refuses_the_other_kinds_field():
    # model_to_json writes only a kind's own field, so another would not
    # survive a round trip.
    with pytest.raises(DomainError) as exc:
        FeatureBins("x", "continuous", edges=(0.5,), labels=("a", "b"))
    assert str(exc.value) == "feature 'x': continuous bins take no labels"
    with pytest.raises(DomainError) as exc:
        FeatureBins("c", "categorical", edges=(0.5,), labels=("a", "b"))
    assert str(exc.value) == "feature 'c': categorical bins take no edges"


def test_edges_must_be_finite():
    with pytest.raises(DomainError):
        FeatureBins("x", "continuous", edges=(0.0, float("inf")))


@pytest.mark.parametrize("label", [None, 5, -1, 0.5, True, float("nan"), [1]])
def test_labels_must_be_strings(label):
    with pytest.raises(DomainError) as exc:
        FeatureBins("x", "categorical", labels=("a", label))
    assert str(exc.value) == f"feature 'x': a label is a string, not {label!r}"


def test_labels_must_be_distinct():
    with pytest.raises(DomainError):
        FeatureBins("x", "categorical", labels=("a", "a"))


@pytest.mark.parametrize("labels", [("b", "a"), ("a", "c", "b"), ("a", "b", "b")])
def test_labels_must_increase(labels):
    # Like edges, labels have one order: a permutation is another document.
    with pytest.raises(DomainError) as exc:
        FeatureBins("x", "categorical", labels=labels)
    assert str(exc.value) == "feature 'x': labels must be strictly increasing"


def test_representative_lands_in_its_cell():
    b = FeatureBins("x", "continuous", edges=(-1.0, 0.0, 2.5))
    for cell in range(b.n_cells):
        assert bin_index(b, [representative(b, cell)]).tolist() == [cell]


@given(
    edges=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1, max_size=6, unique=True,
    ),
    value=st.floats(min_value=-1e7, max_value=1e7, allow_nan=False),
)
def test_cells_partition_the_reals(edges, value):
    b = FeatureBins("x", "continuous", edges=tuple(sorted(edges)))
    [cell] = bin_index(b, [value]).tolist()
    assert 0 <= cell < b.n_cells
    # exactly one half-open cell contains the value
    lo = -np.inf if cell == 0 else b.edges[cell - 1]
    hi = np.inf if cell == b.n_cells - 1 else b.edges[cell]
    assert lo <= value < hi
