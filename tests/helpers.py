"""Shared test utilities: independent oracles and random instance builders.

The oracles here are deliberately plain-Python loops, separate from the
vectorized engine code paths they check.  The exception is the sweep oracle:
the plain full-tensor sweep, with neither running sums nor Anderson mixing.
``engine``'s sweep must take its passes until mixing starts, and land on its
fixed point after that.
"""

import itertools

import numpy as np

from purefx import (AdditiveModel, ConvergenceReport, DegenerateSliceError,
                    DomainError, EffectTensor, FeatureBins, NonConvergenceError,
                    TreeEnsemble, TreeNode, WeightDensity, predict,
                    required_subsets)

FEATURES = ("f1", "f2", "f3")
LABELS = ("L0", "L1", "L2")


# --------------------------------------------------------------------------
# Loop-based oracles
# --------------------------------------------------------------------------

def oracle_slice_means(values, weights):
    """All conditional weighted slice means, computed cell by cell."""
    values = np.asarray(values)
    weights = np.asarray(weights)
    means = []
    for axis in range(values.ndim):
        other = [r for r in range(values.ndim) if r != axis]
        for fixed in itertools.product(*(range(values.shape[r]) for r in other)):
            num = 0.0
            den = 0.0
            for k in range(values.shape[axis]):
                idx = [0] * values.ndim
                idx[axis] = k
                for r, c in zip(other, fixed):
                    idx[r] = c
                num += weights[tuple(idx)] * values[tuple(idx)]
                den += weights[tuple(idx)]
            if den > 0:
                means.append(num / den)
    return means


def oracle_matrix_mass(values, weights):
    """Sum_ij w_ij (|r_i| + |c_j|) with r, c the weighted row/column sums."""
    values = np.asarray(values)
    weights = np.asarray(weights)
    m, n = values.shape
    r = [sum(weights[i, j] * values[i, j] for j in range(n)) for i in range(m)]
    c = [sum(weights[i, j] * values[i, j] for i in range(m)) for j in range(n)]
    return sum(weights[i, j] * (abs(r[i]) + abs(c[j]))
               for i in range(m) for j in range(n))


def oracle_grid_fanova(values):
    """Uniform-weight fANOVA of a matrix by per-axis conditional means."""
    values = np.asarray(values)
    overall = values.mean()
    row = values.mean(axis=1) - overall
    col = values.mean(axis=0) - overall
    inter = values - overall - row[:, None] - col[None, :]
    return overall, row, col, inter


def oracle_bin(bins, value):
    """Cell of one value by scanning the edges; a value on an edge goes up."""
    if bins.kind == "categorical":
        return bins.labels.index(value)
    v = float(value)
    cell = 0
    for e in bins.edges:
        if v >= e:
            cell += 1
    return cell


def oracle_predict(model, point):
    """One point's prediction, adding entries in ``model.effects`` order."""
    total = 0.0
    for u, eff in model.effects.items():
        total += float(eff.values[tuple(oracle_bin(model.bins[f], point[f])
                                        for f in u)])
    return total


def tree_eval(node, point):
    while node.value is None:
        v = point[node.feature]
        if node.threshold is not None:
            go_left = float(v) < node.threshold
        else:
            go_left = v in node.label_set
        node = node.left if go_left else node.right
    return node.value


def ensemble_eval(ensemble, point):
    return ensemble.base_score + sum(tree_eval(t, point) for t in ensemble.trees)


def oracle_tree_tensor(tree, bins):
    """A tree's split features and its value at one representative per cell."""
    feats = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.value is None:
            feats.add(node.feature)
            stack += [node.left, node.right]
    feats = tuple(sorted(feats))
    shape = tuple(bins[f].n_cells for f in feats)
    values = np.zeros(shape)
    for cells in itertools.product(*(range(n) for n in shape)):
        point = {f: bins[f].representative(c) for f, c in zip(feats, cells)}
        values[cells] = tree_eval(tree, point)
    return feats, values


def oracle_slice_stats(T, W, wsums):
    """Trace mass, per-axis slice means and worst |slice mean| of ``T``.

    ``wsums[axis]`` is ``W.sum(axis)``.  A zero-weight slice has mean 0.
    """
    WT = W * T
    mass = 0.0
    means = []
    worst = 0.0
    for axis, wsum in enumerate(wsums):
        ssum = WT.sum(axis=axis)
        mass += float((np.asarray(wsum) * np.abs(ssum)).sum())
        m = np.zeros_like(np.asarray(ssum))
        np.divide(ssum, wsum, out=m, where=wsum > 0.0)
        means.append(m)
        worst = max(worst, float(np.max(np.abs(m))))
    return mass, means, worst


def oracle_purify_subset(tensors, w, u, tol, scale, max_passes, strict):
    """The full-tensor sweep: rewrite ``T`` and re-reduce it after every axis.

    Same contract as ``engine._purify_subset``; mutates ``tensors``.
    """
    T = tensors[u]
    W = w.table(u)
    if W.shape != T.shape:
        raise DomainError(f"weights for {u} have shape {W.shape}, tensor {T.shape}")
    for k in range(len(u)):
        sub = u[:k] + u[k + 1:]
        if not w.covers(sub):
            raise DomainError(f"no weight table for deposit target {sub}")
    wsums = [W.sum(axis=axis) for axis in range(W.ndim)]
    if strict:
        for axis in reversed(range(len(u))):
            if not np.all(wsums[axis] > 0.0):
                raise DegenerateSliceError(
                    f"zero-weight slice of {u} along {u[axis]!r}")

    mass, means, worst = oracle_slice_stats(T, W, wsums)
    trace = [(0, mass)]
    passes = 0
    while passes < max_passes:
        passes += 1
        for axis in reversed(range(len(u))):
            T = T - np.expand_dims(means[axis], axis)
            sub = u[:axis] + u[axis + 1:]
            target = tensors.get(sub)
            if target is None:
                target = np.zeros(means[axis].shape)
            tensors[sub] = target + means[axis]
            mass, means, worst = oracle_slice_stats(T, W, wsums)
            trace.append((len(trace), mass))
        tensors[u] = T
        if worst <= tol * scale:
            return ConvergenceReport(u, trace, passes)
    raise NonConvergenceError(
        f"tensor {u}: worst slice mean {worst:.3e} above limit "
        f"{tol * scale:.3e} after {passes} passes",
        ConvergenceReport(u, trace, passes),
    )


def oracle_purify_model(model, w, tol=1e-12, max_passes=10_000, strict=False):
    """``purify_model``'s cascade over ``oracle_purify_subset``.

    Returns the purified tensors by subset and the reports.
    """
    tensors = {u: np.array(e.values, dtype=float)
               for u, e in model.effects.items()}
    scale = max((float(np.max(np.abs(v))) for u, v in tensors.items() if u),
                default=0.0)
    reports = {}
    for order in range(max(map(len, tensors), default=0), 0, -1):
        for u in sorted(k for k in tensors if len(k) == order):
            reports[u] = oracle_purify_subset(tensors, w, u, tol, scale,
                                              max_passes, strict)
    return tensors, reports


# --------------------------------------------------------------------------
# Random instances
# --------------------------------------------------------------------------

def random_model(rng, max_features=3, max_order=3, max_cells=8):
    """A random additive model over continuous features with random tensors."""
    n_feat = int(rng.integers(1, max_features + 1))
    names = FEATURES[:n_feat]
    bins = {}
    for name in names:
        n_cells = int(rng.integers(2, max_cells + 1))
        edges = np.sort(rng.uniform(-2.0, 2.0, size=n_cells - 1))
        while len(np.unique(edges)) != len(edges):
            edges = np.sort(rng.uniform(-2.0, 2.0, size=n_cells - 1))
        bins[name] = FeatureBins(name, "continuous", edges=tuple(edges))
    effects = {(): EffectTensor((), np.asarray(float(rng.normal())))}
    for order in range(1, min(max_order, n_feat) + 1):
        for u in itertools.combinations(names, order):
            if rng.random() < 0.8:
                shape = tuple(bins[f].n_cells for f in u)
                effects[u] = EffectTensor(u, rng.normal(size=shape))
    return AdditiveModel(bins, effects)


def with_categorical(rng, model):
    """``model`` plus a categorical feature "c" with a main and a pair effect."""
    bins = dict(model.bins)
    bins["c"] = FeatureBins("c", "categorical", labels=("L0", "L1", "L2"))
    effects = dict(model.effects)
    for u in (("c",), ("c", sorted(model.bins)[0])):
        shape = tuple(bins[f].n_cells for f in u)
        effects[u] = EffectTensor(u, rng.normal(size=shape))
    return AdditiveModel(bins, effects)


def random_density(rng, model, positive=True):
    """Independent random weight tables for every subset the cascade touches."""
    tables = {}
    for u in required_subsets(model):
        shape = tuple(model.bins[f].n_cells for f in u)
        t = np.abs(rng.normal(size=shape)) + (0.05 if positive else 0.0)
        tables[u] = t / t.sum()
    return WeightDensity(tables)


def uniform_density(model):
    tables = {}
    for u in required_subsets(model):
        shape = tuple(model.bins[f].n_cells for f in u)
        t = np.ones(shape)
        tables[u] = t / t.sum()
    return WeightDensity(tables)


def grid_points(model):
    """One representative point per cell of the full feature grid."""
    names = sorted(model.bins)
    ranges = [range(model.bins[n].n_cells) for n in names]
    for cells in itertools.product(*ranges):
        yield {n: model.bins[n].representative(c) for n, c in zip(names, cells)}


def grid_predictions(model):
    """Predictions at ``grid_points``, in order, from one columnar call."""
    return np.atleast_1d(predict(model, columns(list(grid_points(model)))))


def columns(points):
    """The columns of a list of point dicts that share their features."""
    return {f: [p[f] for p in points] for f in points[0]}


def random_tree(rng, features, thresholds_per_feature=3, max_depth=2,
                categorical=()):
    """A random tree of depth <= ``max_depth``.

    Features named in ``categorical`` split on a random proper subset of
    ``LABELS``; the others split on a threshold from a fixed grid, so trees
    share thresholds.  The defaults keep the draw order that acceptance 9's
    inputs depend on: a label set or a deeper split is drawn only when used.
    """

    def leaf():
        return TreeNode(value=float(rng.normal()))

    def split(depth):
        f = str(rng.choice(features))
        if f in categorical:
            size = int(rng.integers(1, len(LABELS)))
            test = {"label_set": frozenset(
                str(x) for x in rng.choice(LABELS, size, replace=False))}
        else:
            test = {"threshold": float(rng.integers(
                1, thresholds_per_feature + 1)) / (thresholds_per_feature + 1)}
        kids = []
        for _ in range(2):
            if depth < max_depth - 1 and rng.random() < 0.6:
                kids.append(split(depth + 1))
            else:
                kids.append(leaf())
        return TreeNode(feature=f, left=kids[0], right=kids[1], **test)

    if rng.random() < 0.1:
        return leaf()
    return split(0)


def random_ensemble(rng, max_trees=50, n_features=3, max_depth=2):
    features = FEATURES[:n_features]
    n = int(rng.integers(1, max_trees + 1))
    trees = tuple(random_tree(rng, features, max_depth=max_depth)
                  for _ in range(n))
    return TreeEnsemble(trees=trees, base_score=float(rng.normal()))


def random_points(rng, features, n):
    return [{f: float(rng.uniform(-0.5, 1.5)) for f in features} for _ in range(n)]
