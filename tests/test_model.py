import re

import numpy as np
import pytest

from purefx import (AdditiveModel, DomainError, EffectTensor, FeatureBins,
                    GridDataset, WeightDensity, effect_variance,
                    gen_boolean_fig1, model_from_json, model_to_json, predict)
from purefx.density import bin_dataset

from helpers import (grid_predictions, oracle_bin, oracle_predict,
                     random_model, with_categorical)

BOOL_POINTS = [{"x1": a, "x2": b} for a in (0, 1) for b in (0, 1)]


def test_predict_fig1_row_a():
    m = gen_boolean_fig1("a")
    assert predict(m, {"x1": 1, "x2": 1}) == pytest.approx(-0.25, abs=0)


def test_predict_fig1_row_d():
    m = gen_boolean_fig1("d")
    assert predict(m, {"x1": 1, "x2": 1}) == pytest.approx(-0.25, abs=0)


def test_intercept_only_model():
    m = AdditiveModel({}, {(): EffectTensor((), np.asarray(3.0))})
    assert predict(m, {}) == 3.0
    assert predict(m, {"anything": 1.0}) == 3.0


def test_all_fig1_rows_agree_on_all_boolean_points():
    models = {row: gen_boolean_fig1(row) for row in "abcd"}
    for p in BOOL_POINTS:
        vals = [predict(models[row], p) for row in "abcd"]
        assert max(vals) - min(vals) <= 1e-12


def test_missing_feature_value_errors():
    m = gen_boolean_fig1("a")
    with pytest.raises(DomainError):
        predict(m, {"x1": 1})


@pytest.mark.parametrize("points, lengths", [
    ({"x1": [0.0], "x2": [0.0, 1.0, 1.0]}, {"x1": 1, "x2": 3}),
    ({"x1": [0.0, 1.0], "x2": [0.0, 1.0, 1.0]}, {"x1": 2, "x2": 3}),
    ({"x1": 0.0, "x2": [0.0, 1.0]}, {"x1": "one value", "x2": 2}),
])
def test_predict_rejects_columns_of_unequal_length(points, lengths):
    with pytest.raises(DomainError, match=re.escape(str(lengths))):
        predict(gen_boolean_fig1("a"), points)


def test_prediction_is_exactly_additive():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_model(rng)
        names = sorted(m.bins)
        point = {n: m.bins[n].representative(0) for n in names}
        total = predict(m, point)
        for u, eff in m.effects.items():
            others = AdditiveModel(
                m.bins, {k: v for k, v in m.effects.items() if k != u})
            entry = float(eff.values[tuple(0 for _ in u)])
            assert total - predict(others, point) == pytest.approx(entry, abs=1e-12)


def test_prediction_invariant_to_effect_order():
    rng = np.random.default_rng(11)
    m = random_model(rng)
    keys = list(m.effects)
    shuffled = {k: m.effects[k] for k in reversed(keys)}
    m2 = AdditiveModel(m.bins, shuffled)
    a = grid_predictions(m)
    b = grid_predictions(m2)
    assert np.allclose(a, b, rtol=1e-12, atol=0)


def test_columns_match_the_loop_oracle():
    # Values on edges, just below edges and at random; continuous columns as
    # numpy arrays, lists of floats and lists of decimal strings.
    rng = np.random.default_rng(23)
    n = 40
    for trial in range(60):
        m = random_model(rng)
        if trial % 2:
            m = with_categorical(rng, m)
        cols = {}
        for f, b in sorted(m.bins.items()):
            if b.kind == "categorical":
                cols[f] = [b.labels[k] for k in rng.integers(0, b.n_cells, n)]
                continue
            edges = np.array(b.edges)
            pool = np.concatenate([edges, np.nextafter(edges, -np.inf),
                                   rng.uniform(-3.0, 3.0, n)])
            x = rng.choice(pool, size=n)
            cols[f] = (x, x.tolist(), [repr(v) for v in x.tolist()])[trial % 3]
        points = [{f: col[i] for f, col in cols.items()} for i in range(n)]
        want = [oracle_predict(m, p) for p in points]
        assert predict(m, cols).tolist() == want
        assert [predict(m, p) for p in points[:3]] == want[:3]
        binned = bin_dataset(m, GridDataset(cols))
        for f, col in cols.items():
            want_cells = [oracle_bin(m.bins[f], v) for v in col]
            assert binned[f].tolist() == want_cells


def test_effect_variance_fig1d_interaction():
    m = gen_boolean_fig1("d")
    w = WeightDensity({("x1", "x2"): np.full((2, 2), 0.25)})
    assert effect_variance(m.effects[("x1", "x2")], w) == pytest.approx(0.0625)


def test_effect_variance_constant_tensor_is_zero():
    t = EffectTensor(("x",), np.full(3, 7.0))
    w = WeightDensity({("x",): np.array([0.2, 0.5, 0.3])})
    assert effect_variance(t, w) == 0.0


def test_effect_variance_two_cells():
    t = EffectTensor(("x",), np.array([1.0, -1.0]))
    w = WeightDensity({("x",): np.array([0.5, 0.5])})
    assert effect_variance(t, w) == pytest.approx(1.0)


def test_effect_variance_shape_mismatch():
    t = EffectTensor(("x",), np.array([1.0, -1.0]))
    w = WeightDensity({("x",): np.array([0.2, 0.3, 0.5])})
    with pytest.raises(DomainError):
        effect_variance(t, w)


def test_model_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = random_model(rng)
        text = model_to_json(m)
        back = model_from_json(text)
        assert model_to_json(back) == text
        for u in m.effects:
            assert np.array_equal(back.effects[u].values, m.effects[u].values)
        for n, b in m.bins.items():
            assert back.bins[n] == b


def test_effect_vars_must_be_sorted_and_distinct():
    with pytest.raises(DomainError):
        EffectTensor(("b", "a"), np.zeros((2, 2)))
    with pytest.raises(DomainError):
        EffectTensor(("a", "a"), np.zeros((2, 2)))


def test_effect_shape_must_match_bins():
    bins = {"x": FeatureBins("x", "continuous", edges=(0.0,))}
    with pytest.raises(DomainError):
        AdditiveModel(bins, {("x",): EffectTensor(("x",), np.zeros(3))})


def test_intercept_defaults_to_zero():
    m = AdditiveModel({}, {})
    assert m.intercept == 0.0
