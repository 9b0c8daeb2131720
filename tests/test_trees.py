import numpy as np
import pytest

from purefx import (DomainError, TreeEnsemble, TreeNode, check_purity,
                    ensemble_from_json, gen_boolean_fig1, ingest_ensemble,
                    predict, purify_model)
from purefx.trees import collect_bins

from helpers import (FEATURES, columns, ensemble_eval, ensemble_to_json,
                     grid_points, oracle_ingest, random_ensemble,
                     random_points, random_tree, uniform_density)


def leaf(v):
    return TreeNode(value=v)


def stump(feature, threshold, lo, hi):
    return TreeNode(feature=feature, threshold=threshold,
                    left=leaf(lo), right=leaf(hi))


def and_tree():
    # x1 >= 0.5 and x2 >= 0.5 -> 1, else 0
    return TreeNode(
        feature="x1", threshold=0.5,
        left=leaf(0.0),
        right=TreeNode(feature="x2", threshold=0.5, left=leaf(0.0), right=leaf(1.0)),
    )


# --------------------------------------------------------------------------
# collect_bins
# --------------------------------------------------------------------------

def test_collect_bins_unions_thresholds_across_trees():
    ens = TreeEnsemble((stump("x", 0.5, -1.0, 1.0), stump("x", 0.3, 0.0, 2.0)))
    bins = collect_bins(ens)
    assert bins["x"].edges == (0.3, 0.5)
    assert bins["x"].n_cells == 3


def test_collect_bins_empty_ensemble():
    assert collect_bins(TreeEnsemble(())) == {}


def test_collect_bins_categorical_label_union():
    a = TreeNode(feature="c", label_set=frozenset({"red"}),
                 left=leaf(1.0), right=leaf(0.0))
    b = TreeNode(feature="c", label_set=frozenset({"blue", "green"}),
                 left=leaf(2.0), right=leaf(0.0))
    bins = collect_bins(TreeEnsemble((a, b)))
    assert bins["c"].labels == ("blue", "green", "red")


def test_mixed_split_kinds_on_one_feature_rejected():
    a = stump("x", 0.5, 0.0, 1.0)
    b = TreeNode(feature="x", label_set=frozenset({"a"}),
                 left=leaf(0.0), right=leaf(1.0))
    with pytest.raises(DomainError):
        collect_bins(TreeEnsemble((a, b)))


# --------------------------------------------------------------------------
# Tabulation: each tree adds into one tensor per feature set
# --------------------------------------------------------------------------

def ingest_exactly(*trees, base_score=0.0):
    """``ingest_ensemble`` of ``trees``, checked bit for bit against the
    per-tree oracle summed per feature set, effects in canonical order."""
    ens = TreeEnsemble(trees, base_score)
    m = ingest_ensemble(ens)
    expected = oracle_ingest(ens, m.bins)
    assert list(m.effects) == sorted(expected, key=lambda u: (len(u), u))
    for u, values in expected.items():
        assert m.effects[u].values.shape == values.shape
        assert m.effects[u].values.tobytes() == values.tobytes()
    return m


def test_stump_tabulates_to_two_cells():
    m = ingest_exactly(stump("x", 0.5, -1.0, 1.0))
    assert list(m.effects) == [(), ("x",)]
    assert m.effects[("x",)].values.tolist() == [-1.0, 1.0]


def test_and_tree_tabulates_to_boolean_interaction():
    m = ingest_exactly(and_tree())
    assert list(m.effects) == [(), ("x1", "x2")]
    assert np.array_equal(m.effects[("x1", "x2")].values,
                          np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_same_feature_twice_gives_one_dimensional_tensor():
    tree = TreeNode(
        feature="x", threshold=0.5,
        left=stump("x", 0.2, 1.0, 2.0),
        right=leaf(5.0),
    )
    m = ingest_exactly(tree)
    assert list(m.effects) == [(), ("x",)]
    assert m.effects[("x",)].values.tolist() == [1.0, 2.0, 5.0]


def test_local_split_broadcasts_onto_finer_global_bins():
    coarse = stump("x", 0.5, -1.0, 1.0)
    other = stump("x", 0.1, 0.0, 0.0)  # only refines the grid
    m = ingest_exactly(coarse, other)
    assert m.effects[("x",)].values.tolist() == [-1.0, -1.0, 1.0]


def test_leaf_only_tree_is_an_intercept():
    m = ingest_exactly(leaf(3.5), base_score=0.25)
    assert list(m.effects) == [()]
    assert float(m.effects[()].values) == 3.75


def chain(features, values):
    """A tree that splits ``features[0]`` at 0.5, then ``features[1]`` on its
    left, and so on; every right child is a leaf."""
    node = leaf(values[-1])
    for f, v in zip(reversed(features), reversed(values[:-1])):
        node = TreeNode(feature=f, threshold=0.5, left=node, right=leaf(v))
    return node


def test_four_distinct_features_rejected():
    deep = chain("abcd", [1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(DomainError,
                       match=r"tree 0 .*\['a', 'b', 'c', 'd'\]"):
        ingest_ensemble(TreeEnsemble((deep,)))
    with pytest.raises(DomainError, match="tree 1 "):
        ingest_ensemble(TreeEnsemble((stump("a", 0.5, 0.0, 1.0), deep)))


def test_deep_tree_over_two_features_gives_a_matrix():
    # a < 0.5 and b < 0.5 splits a again at 0.25: depth 3, features {a, b}
    tree = TreeNode(
        feature="a", threshold=0.5,
        left=TreeNode(feature="b", threshold=0.5,
                      left=stump("a", 0.25, 1.0, 2.0), right=leaf(3.0)),
        right=leaf(4.0),
    )
    m = ingest_exactly(tree)
    assert list(m.effects) == [(), ("a", "b")]
    assert np.array_equal(m.effects[("a", "b")].values,
                          np.array([[1.0, 3.0], [2.0, 3.0], [4.0, 4.0]]))


def test_depth_three_tree_over_three_features_gives_a_cube():
    m = ingest_exactly(chain("abc", [1.0, 2.0, 3.0, 4.0]))
    assert list(m.effects) == [(), ("a", "b", "c")]
    expected = np.full((2, 2, 2), 1.0)
    expected[0] = 2.0
    expected[0, 0] = 3.0
    expected[0, 0, 0] = 4.0
    assert np.array_equal(m.effects[("a", "b", "c")].values, expected)


def test_box_fill_matches_the_loop_oracle():
    unreachable = TreeNode(  # x >= 0.75 is dead below x < 0.5
        feature="f1", threshold=0.5,
        left=TreeNode(feature="f1", threshold=0.75,
                      left=stump("f2", 0.25, 1.0, 2.0), right=leaf(99.0)),
        right=TreeNode(feature="c", label_set=frozenset({"L1"}),
                       left=leaf(3.0), right=leaf(4.0)),
    )
    rng = np.random.default_rng(5)
    features = ("f1", "f2", "c")
    for _ in range(20):
        ingest_exactly(unreachable, *(
            random_tree(rng, features, max_depth=4, categorical=("c",))
            for _ in range(int(rng.integers(1, 20)))),
            base_score=float(rng.normal()))
    m = ingest_exactly(unreachable)
    assert 99.0 not in m.effects[("c", "f1", "f2")].values


def test_negative_zero_leaf_keeps_its_sign():
    tree = stump("x", 0.5, -0.0, 1.0)
    m = ingest_exactly(tree)
    assert np.signbit(m.effects[("x",)].values).tolist() == [True, False]
    m = ingest_exactly(tree, leaf(-0.0), base_score=-0.0)
    assert np.signbit(m.effects[()].values)
    assert np.signbit(m.effects[("x",)].values).tolist() == [True, False]


def test_label_set_splits_mix_with_threshold_splits():
    # Masks on two label axes must fill their product of cells; indexed
    # together, two masks of two labels each would pick only two cells.
    tree = TreeNode(
        feature="c", label_set=frozenset({"L0", "L2"}),
        left=TreeNode(feature="d", label_set=frozenset({"L0", "L1"}),
                      left=stump("x", 0.5, 1.0, 2.0), right=leaf(3.0)),
        right=TreeNode(feature="x", threshold=0.25, left=leaf(4.0),
                       right=TreeNode(feature="d", label_set=frozenset({"L2"}),
                                      left=leaf(5.0), right=leaf(6.0))))
    m = ingest_exactly(tree)
    assert list(m.effects) == [(), ("c", "d", "x")]
    values = m.effects[("c", "d", "x")].values
    assert np.count_nonzero(values == 1.0) == 2 * 2 * 2  # c, d, x < 0.5


def test_feature_split_twice_on_a_path_narrows_one_range():
    tree = TreeNode(feature="x", threshold=0.5,
                    left=stump("x", 0.25, 1.0, 2.0),
                    right=TreeNode(feature="x", threshold=0.75,
                                   left=stump("x", 0.25, 9.0, 3.0),
                                   right=leaf(4.0)))
    m = ingest_exactly(tree)
    assert m.effects[("x",)].values.tolist() == [1.0, 2.0, 3.0, 4.0]


# --------------------------------------------------------------------------
# ingest_ensemble
# --------------------------------------------------------------------------

def test_empty_ensemble_ingests_to_bare_intercept():
    m = ingest_ensemble(TreeEnsemble((), base_score=2.0))
    assert float(m.effects[()].values) == 2.0
    assert set(m.effects) == {()}


def test_stumps_on_one_feature_sum_into_one_tensor():
    rng = np.random.default_rng(12)
    trees = tuple(
        stump("x", float(k) / 51.0, float(rng.normal()), float(rng.normal()))
        for k in range(1, 51)
    )
    m = ingest_exactly(*trees)
    assert set(m.effects) == {(), ("x",)}
    assert m.bins["x"].n_cells == 51


def test_ingested_model_reproduces_ensemble_everywhere():
    rng = np.random.default_rng(21)
    for _ in range(10):
        ens = random_ensemble(rng)
        m = ingest_ensemble(ens)
        feats = sorted(m.bins) or list(FEATURES)
        for p in random_points(rng, feats, 100):
            assert predict(m, columns([p])) == pytest.approx(
                [ensemble_eval(ens, p)], abs=1e-12)


def test_fig1a_encoded_as_trees_matches_generator():
    gen = gen_boolean_fig1("a")
    trees = (
        stump("x1", 0.5, -0.25, 0.25),
        stump("x2", 0.5, -0.25, 0.25),
        TreeNode(
            feature="x1", threshold=0.5,
            left=leaf(0.0),
            right=stump("x2", 0.5, 0.0, -1.0),
        ),
    )
    base = 0.25
    m = ingest_ensemble(TreeEnsemble(trees, base_score=base))
    for p in ({"x1": a, "x2": b} for a in (0, 1) for b in (0, 1)):
        row = columns([p])
        assert predict(m, row) == pytest.approx(predict(gen, row), abs=1e-12)
    assert np.array_equal(m.effects[("x1", "x2")].values,
                          gen.effects[("x1", "x2")].values)


def test_deep_trees_ingest_exactly_before_and_after_purification():
    rng = np.random.default_rng(44)
    for _ in range(10):
        ens = random_ensemble(rng, max_trees=30, max_depth=4)
        m = ingest_ensemble(ens)
        feats = sorted(m.bins) or list(FEATURES)
        points = random_points(rng, feats, 200)
        truth = np.array([ensemble_eval(ens, p) for p in points])
        cols = columns(points)
        assert np.max(np.abs(predict(m, cols) - truth)) <= 1e-12
        if m.bins:
            out, _ = purify_model(m, uniform_density(m))
            assert np.max(np.abs(predict(out, cols) - truth)) <= 1e-12


def test_ingest_then_purify_preserves_predictions():
    rng = np.random.default_rng(33)
    for _ in range(5):
        ens = random_ensemble(rng)
        m = ingest_ensemble(ens)
        if not m.bins:
            continue
        w = uniform_density(m)
        out, _ = purify_model(m, w)
        for p in grid_points(m):
            assert predict(out, columns([p])) == pytest.approx(
                [ensemble_eval(ens, p)], abs=1e-10)
        assert check_purity(out, w)["pass"]


# --------------------------------------------------------------------------
# JSON
# --------------------------------------------------------------------------

def test_ensemble_json_round_trip():
    ens = TreeEnsemble((and_tree(), stump("x1", 0.5, -1.0, 1.0)), base_score=0.5)
    text = ensemble_to_json(ens)
    back = ensemble_from_json(text)
    assert ensemble_to_json(back) == text
    for p in ({"x1": a, "x2": b} for a in (0.0, 1.0) for b in (0.0, 1.0)):
        assert ensemble_eval(back, p) == ensemble_eval(ens, p)


def test_categorical_split_json_round_trip():
    tree = TreeNode(feature="c", label_set=frozenset({"a", "b"}),
                    left=leaf(1.0), right=leaf(-1.0))
    ens = TreeEnsemble((tree,))
    back = ensemble_from_json(ensemble_to_json(ens))
    assert back.trees[0].label_set == frozenset({"a", "b"})
    assert ensemble_eval(back, {"c": "a"}) == 1.0
    assert ensemble_eval(back, {"c": "z"}) == -1.0


def test_split_node_validation():
    with pytest.raises(DomainError):
        TreeNode(feature="x", left=leaf(0.0), right=leaf(1.0))
    with pytest.raises(DomainError):
        TreeNode(feature="x", threshold=0.5, label_set=frozenset({"a"}),
                 left=leaf(0.0), right=leaf(1.0))
    with pytest.raises(DomainError):
        TreeNode(feature="x", threshold=float("nan"),
                 left=leaf(0.0), right=leaf(1.0))
    with pytest.raises(DomainError, match="a split feature is a string"):
        TreeNode(feature=5, threshold=0.5, left=leaf(0.0), right=leaf(1.0))


def test_nodes_the_json_reader_refuses_are_refused_when_built():
    # Ingesting the first would drop its split; the second would split on
    # the labels 'a' and 'b'.
    with pytest.raises(DomainError) as exc:
        TreeNode(value=1.0, feature="x", threshold=0.5,
                 left=leaf(5.0), right=leaf(7.0))
    assert str(exc.value) == "a node is a leaf or a split, not both"
    with pytest.raises(DomainError) as exc:
        TreeNode(feature="c", label_set="ab", left=leaf(5.0), right=leaf(7.0))
    assert str(exc.value) == (
        "split on feature 'c': a label set is a set of strings, not 'ab'")


def test_base_score_is_checked_as_a_leaf_is():
    for bad in (float("inf"), float("nan")):
        with pytest.raises(DomainError) as exc:
            TreeEnsemble((leaf(1.0),), base_score=bad)
        assert str(exc.value) == f"base_score must be finite, not {bad!r}"
    with pytest.raises(TypeError) as exc:
        TreeEnsemble((leaf(1.0),), base_score="0.25")
    with pytest.raises(TypeError) as leaf_exc:
        leaf("0.25")
    assert str(exc.value) == str(leaf_exc.value)


@pytest.mark.parametrize("label", [None, 5, -1, 0.5, True, float("nan")])
def test_split_labels_must_be_strings(label):
    with pytest.raises(DomainError) as exc:
        TreeNode(feature="c", label_set=frozenset({"a", label}),
                 left=leaf(0.0), right=leaf(1.0))
    assert str(exc.value) == (
        f"split on feature 'c': a label is a string, not {label!r}")
