import re

import numpy as np
import pytest

from purefx import (AdditiveModel, DomainError, EffectTensor, FeatureBins,
                    density_to_json, effect_variance, gen_boolean_fig1,
                    gen_log_lambda, gen_multiplicative, gen_wright,
                    ingest_ensemble, model_from_json, model_to_json, predict,
                    purify_model)
from purefx.density import bin_dataset
from purefx.generators import WRIGHT_COEFFS

from helpers import (FEATURES, columns, grid_predictions, oracle_bin,
                     oracle_density_json, oracle_model_json, oracle_predict,
                     random_density, random_ensemble, random_model,
                     random_points, representative, uniform_density,
                     with_categorical)

BOOL_POINTS = [{"x1": a, "x2": b} for a in (0, 1) for b in (0, 1)]


def test_predict_fig1_row_a():
    m = gen_boolean_fig1("a")
    assert predict(m, columns([{"x1": 1, "x2": 1}])).tolist() == [-0.25]


def test_predict_fig1_row_d():
    m = gen_boolean_fig1("d")
    assert predict(m, columns([{"x1": 1, "x2": 1}])).tolist() == [-0.25]


def test_intercept_only_model():
    # It bins no column: the rows are those of the first given column.
    m = AdditiveModel([], [EffectTensor((), np.asarray(3.0))])
    assert predict(m, {}).tolist() == []
    assert predict(m, columns([{"anything": 1.0}])).tolist() == [3.0]
    assert predict(m, {"a": ["x", "y"]}).tolist() == [3.0, 3.0]


def test_all_fig1_rows_agree_on_all_boolean_points():
    models = {row: gen_boolean_fig1(row) for row in "abcd"}
    for p in BOOL_POINTS:
        vals = [predict(models[row], columns([p]))[0] for row in "abcd"]
        assert max(vals) - min(vals) <= 1e-12


def test_missing_feature_value_errors():
    m = gen_boolean_fig1("a")
    with pytest.raises(DomainError):
        predict(m, {"x1": 1})


@pytest.mark.parametrize("points, lengths", [
    ({"x1": [0.0], "x2": [0.0, 1.0, 1.0]}, {"x1": 1, "x2": 3}),
    ({"x1": [0.0, 1.0], "x2": [0.0, 1.0, 1.0]}, {"x1": 2, "x2": 3}),
])
def test_predict_rejects_columns_of_unequal_length(points, lengths):
    with pytest.raises(DomainError, match=re.escape(str(lengths))):
        predict(gen_boolean_fig1("a"), points)


def test_prediction_is_exactly_additive():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_model(rng)
        names = sorted(m.bins)
        point = columns([{n: representative(m.bins[n], 0) for n in names}])
        [total] = predict(m, point)
        for u, eff in m.effects.items():
            others = AdditiveModel(
                m.bins.values(), [v for k, v in m.effects.items() if k != u])
            entry = float(eff.values[tuple(0 for _ in u)])
            [rest] = predict(others, point)
            assert total - rest == pytest.approx(entry, abs=1e-12)


def test_prediction_invariant_to_effect_order():
    rng = np.random.default_rng(11)
    m = random_model(rng)
    m2 = AdditiveModel(reversed(m.bins.values()), reversed(m.effects.values()))
    assert list(m2.effects) == list(m.effects)
    assert grid_predictions(m2).tobytes() == grid_predictions(m).tobytes()


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
        binned = bin_dataset(m, cols)
        assert set(binned) == {f for u in m.effects for f in u}
        for f in binned:
            want_cells = [oracle_bin(m.bins[f], v) for v in cols[f]]
            assert binned[f].tolist() == want_cells


def test_effect_variance_fig1d_interaction():
    m = gen_boolean_fig1("d")
    w = {("x1", "x2"): np.full((2, 2), 0.25)}
    assert effect_variance(m.effects[("x1", "x2")], w) == pytest.approx(0.0625)


def test_effect_variance_constant_tensor_is_zero():
    t = EffectTensor(("x",), np.full(3, 7.0))
    w = {("x",): np.array([0.2, 0.5, 0.3])}
    assert effect_variance(t, w) == 0.0


def test_effect_variance_two_cells():
    t = EffectTensor(("x",), np.array([1.0, -1.0]))
    w = {("x",): np.array([0.5, 0.5])}
    assert effect_variance(t, w) == pytest.approx(1.0)


def test_effect_variance_shape_mismatch():
    t = EffectTensor(("x",), np.array([1.0, -1.0]))
    w = {("x",): np.array([0.2, 0.3, 0.5])}
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


def test_models_predict_the_bits_of_their_json():
    # A model sums its effects in canonical order, the order its JSON keeps.
    # Ingestion makes them in tree order and purification in cascade order,
    # and either order rounds most of these sums differently.
    rng = np.random.default_rng(13)
    for _ in range(40):
        m = ingest_ensemble(random_ensemble(rng, max_trees=30, max_depth=3))
        cols = columns(random_points(rng, FEATURES, 200))
        for model in (m, purify_model(m, uniform_density(m))[0]):
            back = model_from_json(model_to_json(model))
            assert predict(back, cols).tobytes() == predict(model, cols).tobytes()


# Cells whose shortest text is easy to get wrong: signed zeros, the least
# subnormal, and the exponents where repr switches notation.
SPECIAL = (-0.0, 0.0, 5e-324, 1e-05, 1e16, 1e22)


def _redrawn(model, draw):
    return AdditiveModel(model.bins.values(), [
        EffectTensor(u, draw(e.values.shape)) for u, e in model.effects.items()])


def _writer_models(rng):
    """Models whose tensors repeat a few values or hold all-distinct ones."""
    pool = np.array(SPECIAL + (1.5, -2.25, 0.1))
    yield AdditiveModel([], [EffectTensor((), np.asarray(-0.0))])
    yield gen_multiplicative(1.0, 2.0, -3.0, 0.5, 0.25, -1.0, n=8)
    yield gen_log_lambda(0.5, 16)
    yield from (gen_boolean_fig1(row) for row in "abcd")
    yield from map(gen_wright, sorted(WRIGHT_COEFFS))
    names = ("température", "x")
    bins = [FeatureBins(names[0], "continuous", edges=(0.5, 1.5)),
            FeatureBins("x", "categorical", labels=("b", "naïve"))]
    yield AdditiveModel(bins, [
        EffectTensor((names[0],), np.array([-0.0, 0.0, 1e22])),
        EffectTensor(names, np.array(SPECIAL).reshape(3, 2))])

    def distinct(shape):
        # All distinct: a signed zero and a zero differ in their bits.
        v = np.array(rng.normal(size=shape))
        v.flat[:2] = [-0.0, 0.0][:v.size]
        return v

    for trial in range(40):
        m = random_model(rng, max_order=3)
        if trial % 3 == 0:
            m = with_categorical(rng, m)
        yield _redrawn(m, lambda shape: rng.choice(pool, size=shape)
                       if trial % 2 else distinct(shape))


def test_writers_match_the_json_dumps_oracle():
    rng = np.random.default_rng(31)
    for m in _writer_models(rng):
        assert model_to_json(m) == oracle_model_json(m)
        for w in (uniform_density(m), random_density(rng, m)):
            assert density_to_json(w) == oracle_density_json(w)


def test_effect_vars_must_be_sorted_and_distinct():
    with pytest.raises(DomainError):
        EffectTensor(("b", "a"), np.zeros((2, 2)))
    with pytest.raises(DomainError):
        EffectTensor(("a", "a"), np.zeros((2, 2)))


def test_effect_shape_must_match_bins():
    bins = [FeatureBins("x", "continuous", edges=(0.0,))]
    with pytest.raises(DomainError):
        AdditiveModel(bins, [EffectTensor(("x",), np.zeros(3))])


def test_model_keys_its_own_copies_in_canonical_order():
    bins = [FeatureBins(n, "continuous", edges=(0.5,)) for n in ("y", "x")]
    effects = [EffectTensor(("x", "y"), np.zeros((2, 2))),
               EffectTensor(("y",), np.ones(2))]
    m = AdditiveModel(bins, effects)
    bins[0] = FeatureBins("y", "continuous", edges=(0.9,))
    bins.append(FeatureBins("z", "continuous", edges=(0.5,)))
    effects.clear()
    assert m.bins == {n: FeatureBins(n, "continuous", edges=(0.5,))
                      for n in ("x", "y")}
    assert list(m.bins) == ["x", "y"]
    assert list(m.effects) == [(), ("y",), ("x", "y")]


def test_a_repeated_feature_or_subset_names_its_position():
    # The texts that model JSON gives for its entries at these positions.
    x1 = FeatureBins("x1", "continuous", edges=(0.5,))
    with pytest.raises(DomainError) as exc:
        AdditiveModel([x1, FeatureBins("x1", "continuous", edges=(0.9,))], [])
    assert str(exc.value) == "feature 1: feature 'x1' repeats"
    with pytest.raises(DomainError) as exc:
        AdditiveModel([x1], [EffectTensor(("x1",), np.zeros(2)),
                             EffectTensor(("x1",), np.ones(2))])
    assert str(exc.value) == "effect 1: duplicate effect subset ('x1',)"


def test_intercept_defaults_to_zero():
    m = AdditiveModel([], [])
    assert float(m.effects[()].values) == 0.0
