import numpy as np
import pytest
from hypothesis import given, strategies as st

from purefx import DomainError, FeatureBins, bin_index


def test_value_below_only_edge():
    b = FeatureBins("x", "continuous", edges=(0.5,))
    assert bin_index(b, 0.2) == 0


def test_value_on_edge_goes_to_upper_cell():
    b = FeatureBins("x", "continuous", edges=(0.5,))
    assert bin_index(b, 0.5) == 1


def test_categorical_lookup():
    b = FeatureBins("x", "categorical", labels=("a", "b"))
    assert bin_index(b, "b") == 1


def test_unknown_label_names_feature_and_label():
    b = FeatureBins("color", "categorical", labels=("red", "blue"))
    with pytest.raises(DomainError, match="color.*green"):
        bin_index(b, "green")


def test_non_finite_value_names_feature_and_row():
    b = FeatureBins("x", "continuous", edges=(0.5,))
    for bad in ("nan", "inf", float("-inf")):
        with pytest.raises(DomainError, match="'x', row 2: non-finite"):
            bin_index(b, ["0.1", 0.7, bad])


def test_edges_must_increase():
    with pytest.raises(DomainError):
        FeatureBins("x", "continuous", edges=(1.0, 1.0))
    with pytest.raises(DomainError):
        FeatureBins("x", "continuous", edges=(2.0, 1.0))


def test_edges_must_be_finite():
    with pytest.raises(DomainError):
        FeatureBins("x", "continuous", edges=(0.0, float("inf")))


def test_labels_must_be_distinct():
    with pytest.raises(DomainError):
        FeatureBins("x", "categorical", labels=("a", "a"))


def test_representative_lands_in_its_cell():
    b = FeatureBins("x", "continuous", edges=(-1.0, 0.0, 2.5))
    for cell in range(b.n_cells):
        assert bin_index(b, b.representative(cell)) == cell


@given(
    edges=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1, max_size=6, unique=True,
    ),
    value=st.floats(min_value=-1e7, max_value=1e7, allow_nan=False),
)
def test_cells_partition_the_reals(edges, value):
    b = FeatureBins("x", "continuous", edges=tuple(sorted(edges)))
    cell = bin_index(b, value)
    assert 0 <= cell < b.n_cells
    # exactly one half-open cell contains the value
    lo = -np.inf if cell == 0 else b.edges[cell - 1]
    hi = np.inf if cell == b.n_cells - 1 else b.edges[cell]
    assert lo <= value < hi
