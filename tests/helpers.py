"""Shared test utilities: independent oracles and random instance builders.

The oracles here are deliberately plain-Python loops, separate from the
vectorized engine code paths they check.  The exception is the sweep oracle:
the plain full-tensor sweep, with neither running sums nor Anderson mixing.
``engine``'s sweep must take its passes until mixing starts, and land on its
fixed point after that; ``oracle_fixed_point`` gives that point in closed
form.
"""

import itertools
import json

import numpy as np

from purefx import (AdditiveModel, ConvergenceReport, DegenerateSliceError,
                    DomainError, EffectTensor, FeatureBins, NonConvergenceError,
                    TreeEnsemble, TreeNode, predict, required_subsets)
from purefx.model import canonical_order

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


def representative(bins, cell):
    """A value guaranteed to land in ``cell`` (midpoint where bounded)."""
    if bins.kind == "categorical":
        return bins.labels[cell]
    e = bins.edges
    if cell == 0:
        return e[0] - 1.0
    if cell == len(e):
        return e[-1] + 1.0
    return 0.5 * (e[cell - 1] + e[cell])


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
        point = {f: representative(bins[f], c) for f, c in zip(feats, cells)}
        values[cells] = tree_eval(tree, point)
    return feats, values


def oracle_ingest(ensemble, bins):
    """``oracle_tree_tensor`` of every tree, summed per feature set in tree
    order: the intercept from the base score, every other set from -0.0."""
    acc = {(): np.asarray(float(ensemble.base_score))}
    for tree in ensemble.trees:
        feats, values = oracle_tree_tensor(tree, bins)
        acc[feats] = acc.get(feats, -0.0) + values
    return acc


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


def oracle_purify_subset(T0, W, u, tol, scale, max_passes, strict):
    """The full-tensor sweep: rewrite ``T`` and re-reduce it after every axis.

    Same contract as ``engine._purify_subset``: returns the purified tensor,
    the sum of the means taken along each axis, and the report.
    """
    T = T0
    if W.shape != T.shape:
        raise DomainError(f"weights for {u} have shape {W.shape}, tensor {T.shape}")
    wsums = [W.sum(axis=axis) for axis in range(W.ndim)]
    if strict:
        for axis in reversed(range(len(u))):
            if not np.all(wsums[axis] > 0.0):
                raise DegenerateSliceError(
                    f"zero-weight slice of {u} along {u[axis]!r}")

    mass, means, worst = oracle_slice_stats(T, W, wsums)
    deposits = [np.zeros(m.shape) for m in means]
    trace = [(0, mass)]
    passes = 0
    while passes < max_passes:
        passes += 1
        for axis in reversed(range(len(u))):
            T = T - np.expand_dims(means[axis], axis)
            deposits[axis] = deposits[axis] + means[axis]
            mass, means, worst = oracle_slice_stats(T, W, wsums)
            trace.append((len(trace), mass))
        if worst <= tol * scale:
            return T, deposits, ConvergenceReport(u, trace, passes)
    raise NonConvergenceError(
        f"tensor {u}: worst slice mean {worst:.3e} above limit "
        f"{tol * scale:.3e} after {passes} passes",
        ConvergenceReport(u, trace, passes),
    )


def add_deposits(tensors, u, deposits):
    """Add ``deposits[a]`` to ``tensors[u minus u[a]]``, as ``purify_model`` does."""
    for axis in reversed(range(len(u))):
        sub = u[:axis] + u[axis + 1:]
        tensors[sub] = tensors.get(sub, 0.0) + deposits[axis]


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
            tensors[u], deposits, reports[u] = oracle_purify_subset(
                tensors[u], w[u], u, tol, scale, max_passes, strict)
            add_deposits(tensors, u, deposits)
    return tensors, reports


def oracle_fixed_point(T0, W):
    """The sweep's fixed point in closed form: ``(T, deposits)``.

    The unknowns are the deposits of every axis, laid end to end; the design
    ``X`` (cells x deposit entries) has a 1 where a cell receives an entry,
    so ``T = T0 - X d``.  Zero slice means are the normal equations
    ``A d = b`` with ``A = X' diag(w) X`` and ``b = X' (w T0)``.  The sweep
    from zero deposits is block Gauss-Seidel on them, in its axis order
    (last axis first), with splitting ``M = D + L`` and 1 on the diagonal of
    each zero-weight slice.  Every pass output lies in ``M^-1 range(A)``,
    and the one solution there is ``d = M^-1 Q c``, with ``Q`` an orthonormal
    basis of ``range(A)`` and ``c`` the weighted least-squares fit of ``T0``
    by ``X M^-1 Q``.
    """
    shape, k = T0.shape, T0.ndim
    subs = [shape[:a] + shape[a + 1:] for a in range(k)]
    starts = np.cumsum([0] + [int(np.prod(s)) for s in subs])
    idx = np.indices(shape).reshape(k, -1)
    X = np.zeros((T0.size, starts[-1]))
    block = np.empty(starts[-1], dtype=int)
    for a in range(k):
        cols = starts[a] + np.ravel_multi_index(np.delete(idx, a, axis=0), subs[a])
        X[np.arange(T0.size), cols] = 1.0
        block[starts[a]:starts[a + 1]] = a
    w = W.ravel()
    on = w > 0.0
    A = X[on].T @ (w[on, None] * X[on])
    # Block a's step sees the new deposits of the blocks swept before it in
    # the pass, the later axes, and the old ones of the rest.
    M = np.where(block[None, :] >= block[:, None], A, 0.0)
    diag = np.diagonal(A)
    M[np.diag_indices_from(M)] = np.where(diag > 0.0, diag, 1.0)
    # range(A) is the range of X' sqrt(w) over the weighted cells.  Fitting
    # with sqrt(w) keeps the conditioning near X's; A M^-1 A would square it.
    root, Xon = np.sqrt(w[on]), X[on]
    U, s, _ = np.linalg.svd(Xon.T * root, full_matrices=False)
    MinvQ = np.linalg.solve(M, U[:, s > s[0] * max(X.shape) * np.finfo(float).eps])
    d = MinvQ @ np.linalg.lstsq(root[:, None] * (Xon @ MinvQ),
                                root * T0.ravel()[on], rcond=None)[0]
    T = T0 - (X @ d).reshape(shape)
    return T, [d[starts[a]:starts[a + 1]].reshape(subs[a]) for a in range(k)]


def _oracle_dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def oracle_model_json(model):
    """The canonical model JSON, built as one document and dumped whole."""
    features = []
    for name in sorted(model.bins):
        b = model.bins[name]
        entry = {"name": name, "kind": b.kind}
        if b.kind == "continuous":
            entry["edges"] = list(b.edges)
        else:
            entry["labels"] = list(b.labels)
        features.append(entry)
    effects = []
    for key in sorted(model.effects, key=lambda u: (len(u), u)):
        eff = model.effects[key]
        effects.append({"vars": list(eff.vars), "values": eff.values.tolist()})
    return _oracle_dumps({"features": features, "effects": effects})


def oracle_density_json(w):
    """The canonical weight-table JSON, built as one document and dumped whole."""
    return _oracle_dumps({"subsets": [
        {"vars": list(u), "weights": w[u].tolist()}
        for u in sorted(w, key=lambda u: (len(u), u))]})


def _node_doc(node):
    if node.is_leaf:
        return {"leaf": node.value}
    thr = (node.threshold if node.threshold is not None
           else {"labels": sorted(node.label_set)})
    return {"split": node.feature, "threshold": thr,
            "left": _node_doc(node.left), "right": _node_doc(node.right)}


def ensemble_to_json(ensemble):
    """The canonical ensemble JSON, the format ``ensemble_from_json`` reads."""
    return _oracle_dumps({"base_score": ensemble.base_score,
                          "trees": [_node_doc(t) for t in ensemble.trees]})


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
    return AdditiveModel(bins.values(), effects.values())


def with_categorical(rng, model):
    """``model`` plus a categorical feature "c" with a main and a pair effect."""
    bins = dict(model.bins)
    bins["c"] = FeatureBins("c", "categorical", labels=("L0", "L1", "L2"))
    effects = dict(model.effects)
    for u in (("c",), ("c", sorted(model.bins)[0])):
        shape = tuple(bins[f].n_cells for f in u)
        effects[u] = EffectTensor(u, rng.normal(size=shape))
    return AdditiveModel(bins.values(), effects.values())


def random_density(rng, model, positive=True):
    """Independent random weight tables for every subset the cascade touches,
    and for ``()``, drawn in canonical order."""
    tables = {}
    for u in sorted({(), *required_subsets(model)}, key=canonical_order):
        shape = tuple(model.bins[f].n_cells for f in u)
        t = np.abs(rng.normal(size=shape)) + (0.05 if positive else 0.0)
        tables[u] = t / t.sum()
    return tables


def uniform_density(model):
    tables = {}
    for u in required_subsets(model):
        shape = tuple(model.bins[f].n_cells for f in u)
        t = np.ones(shape)
        tables[u] = t / t.sum()
    return tables


def grid_points(model):
    """One representative point per cell of the full feature grid."""
    names = sorted(model.bins)
    ranges = [range(model.bins[n].n_cells) for n in names]
    for cells in itertools.product(*ranges):
        yield {n: representative(model.bins[n], c) for n, c in zip(names, cells)}


def grid_predictions(model):
    """Predictions at ``grid_points``, in order, from one columnar call."""
    return predict(model, columns(list(grid_points(model))))


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
