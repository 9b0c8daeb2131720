"""Ingestion of dumped tree ensembles into effect tensors.

Trees may have any depth, as long as each splits on at most three distinct
features; a tree over k features becomes one k-dimensional tensor.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

import numpy as np

from .bins import FeatureBins
from .errors import DomainError, UnsupportedTreeError
from .model import AdditiveModel, EffectTensor, _entry, _list, _number

# Each tree becomes one dense tensor over its split features, whose size is
# the product of their cell counts; purefx models hold effects of order <= 3.
MAX_TREE_FEATURES = 3


@dataclass(frozen=True)
class TreeNode:
    """Leaf (value set) or split; a value < threshold, or label in the set, goes left."""

    value: float | None = None
    feature: str | None = None
    threshold: float | None = None
    label_set: frozenset | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.value is not None

    def __post_init__(self):
        if self.is_leaf:
            return
        if self.feature is None or self.left is None or self.right is None:
            raise DomainError("split node needs feature, left, and right")
        if not isinstance(self.feature, str):
            raise DomainError(
                f"a split feature is a string, not {self.feature!r}")
        if (self.threshold is None) == (self.label_set is None):
            raise DomainError("split node needs exactly one of threshold / label set")
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise DomainError(f"non-finite threshold on feature {self.feature!r}")
        for label in self.label_set or ():
            if not isinstance(label, str):
                raise DomainError(f"split on feature {self.feature!r}: "
                                  f"a label is a string, not {label!r}")


@dataclass(frozen=True)
class TreeEnsemble:
    trees: tuple[TreeNode, ...]
    base_score: float = 0.0


def _splits(tree: TreeNode):
    """Every split node of ``tree``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            yield node
            stack += [node.left, node.right]


def collect_bins(ensemble: TreeEnsemble) -> dict[str, FeatureBins]:
    """Global grid per feature: sorted distinct thresholds, or the label union."""
    found: dict[str, tuple[str, set]] = {}
    for tree in ensemble.trees:
        for n in _splits(tree):
            kind = "continuous" if n.threshold is not None else "categorical"
            seen, values = found.setdefault(n.feature, (kind, set()))
            if seen != kind:
                raise DomainError(f"feature {n.feature!r} split both ways")
            values.update((float(n.threshold),) if n.threshold is not None
                          else n.label_set)
    out = {}
    for name, (kind, values) in found.items():
        values = tuple(sorted(values))
        out[name] = (FeatureBins(name, kind, edges=values) if kind == "continuous"
                     else FeatureBins(name, kind, labels=values))
    return out


def tree_to_tensor(tree: TreeNode, bins: dict[str, FeatureBins],
                   index: int = 0) -> EffectTensor:
    """Tabulate the tree's leaf values on the global grid of its split features.

    Each leaf covers an axis-aligned box of grid cells: the descent keeps one
    index per feature, and every split narrows its feature's index.  A
    threshold split keeps a contiguous range of cells (``< cut`` goes left),
    so a box of threshold splits is a tuple of slices that fills by basic
    slicing; a label-set split keeps a boolean cell mask.  A tree splitting
    one feature twice yields a 1-D tensor.  Every threshold must be an edge
    of its feature's bins (as ``collect_bins`` makes them), so each cell lies
    wholly on one side of every split, and a label set must split a
    categorical feature.  A tree over more than ``MAX_TREE_FEATURES``
    features raises ``UnsupportedTreeError``.
    """
    feats = tuple(sorted({n.feature for n in _splits(tree)}))
    if len(feats) > MAX_TREE_FEATURES:
        raise UnsupportedTreeError(
            f"tree {index} splits on {len(feats)} distinct features "
            f"{list(feats)}; at most {MAX_TREE_FEATURES} are supported")
    if not feats:
        return EffectTensor((), np.asarray(float(tree.value)))
    for f in feats:
        if f not in bins:
            raise DomainError(f"tree {index}: no bins for feature {f!r}")
    axis = {f: k for k, f in enumerate(feats)}
    shape = tuple(bins[f].n_cells for f in feats)
    values = np.zeros(shape)
    # Boolean masks on two axes would index together, not as a product.
    masked = any(bins[f].kind == "categorical" for f in feats)

    def fill(node: TreeNode, box: tuple):
        if node.is_leaf:
            if masked:
                box = np.ix_(*(np.arange(n)[s] for n, s in zip(shape, box)))
            values[box] = node.value
            return
        k = axis[node.feature]
        if node.threshold is None:
            if bins[node.feature].kind != "categorical":
                raise DomainError(
                    f"tree {index}: label set splits continuous feature "
                    f"{node.feature!r}")
            left = np.array([label in node.label_set
                             for label in bins[node.feature].labels])
            sides = box[k] & left, box[k] & ~left
        else:
            cut = _cut(node, bins[node.feature], index)
            lo, hi = box[k].start, box[k].stop
            sides = slice(lo, min(hi, cut)), slice(max(lo, cut), hi)
        for child, side in zip((node.left, node.right), sides):
            fill(child, box[:k] + (side,) + box[k + 1:])

    fill(tree, tuple(slice(0, n) if bins[f].kind == "continuous"
                     else np.ones(n, dtype=bool) for f, n in zip(feats, shape)))
    return EffectTensor(feats, values)


def _cut(node: TreeNode, bins: FeatureBins, index: int) -> int:
    """The number of cells of ``bins`` that ``node``'s threshold sends left."""
    cut = bisect.bisect_right(bins.edges, node.threshold)
    if cut == 0 or bins.edges[cut - 1] != node.threshold:
        raise DomainError(
            f"tree {index}: threshold {node.threshold!r} is not a bin edge "
            f"of feature {node.feature!r}")
    return cut


def ingest_ensemble(ensemble: TreeEnsemble) -> AdditiveModel:
    """Sum per-tree tensors by variable set; base score becomes the intercept."""
    bins = collect_bins(ensemble)
    acc: dict[tuple[str, ...], np.ndarray] = {(): np.asarray(float(ensemble.base_score))}
    for i, tree in enumerate(ensemble.trees):
        t = tree_to_tensor(tree, bins, i)
        acc[t.vars] = acc.get(t.vars, -0.0) + t.values  # -0.0 + x is x, -0.0 too
    effects = {u: EffectTensor(u, v) for u, v in acc.items()}
    return AdditiveModel(bins, effects)


# --------------------------------------------------------------------------
# Ensemble JSON
# --------------------------------------------------------------------------

def _node_from_dict(doc) -> TreeNode:
    if not isinstance(doc, dict):
        raise DomainError(f"a node is not a JSON object: {doc!r}")
    if "leaf" in doc:
        if doc.keys() & {"split", "threshold", "left", "right"}:
            raise DomainError("a node is a leaf or a split, not both")
        return TreeNode(value=_number(doc["leaf"], "a leaf"))
    thr = doc["threshold"]
    labels = isinstance(thr, dict)
    return TreeNode(
        feature=doc["split"],
        threshold=None if labels else _number(thr, "a threshold"),
        label_set=frozenset(_list(thr, "labels")) if labels else None,
        left=_node_from_dict(doc["left"]),
        right=_node_from_dict(doc["right"]),
    )


def ensemble_from_json(text: str) -> TreeEnsemble:
    """Parse ensemble JSON; a malformed tree raises a ``DomainError`` naming it."""
    doc = json.loads(text)
    trees = doc.get("trees") if isinstance(doc, dict) else None
    if not isinstance(trees, list):
        raise DomainError("an ensemble is a JSON object with a list of 'trees'")
    nodes = []
    for i, tree in enumerate(trees):
        with _entry("tree", i, tree):
            nodes.append(_node_from_dict(tree))
    return TreeEnsemble(trees=tuple(nodes), base_score=_number(
        doc.get("base_score", 0.0), "base_score"))
