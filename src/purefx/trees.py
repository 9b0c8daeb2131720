"""Ingestion of dumped tree ensembles into effect tensors.

Trees may have any depth, as long as each splits on at most three distinct
features; the trees over one set of k features add into one k-dimensional
tensor.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .bins import FeatureBins
from .errors import DomainError
from .model import (AdditiveModel, EffectTensor, _entry, _json_document, _keys,
                    _list, _number)

# A tree adds into one dense tensor over its split features, whose size is
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
            if (self.feature, self.threshold, self.label_set, self.left,
                    self.right) != (None,) * 5:
                raise DomainError("a node is a leaf or a split, not both")
            if not math.isfinite(self.value):
                raise DomainError(f"a leaf must be finite, not {self.value!r}")
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
        if isinstance(self.label_set, str):
            raise DomainError(f"split on feature {self.feature!r}: a label set "
                              f"is a set of strings, not {self.label_set!r}")
        for label in self.label_set or ():
            if not isinstance(label, str):
                raise DomainError(f"split on feature {self.feature!r}: "
                                  f"a label is a string, not {label!r}")


@dataclass(frozen=True)
class TreeEnsemble:
    trees: tuple[TreeNode, ...]
    base_score: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.base_score):
            raise DomainError(f"base_score must be finite, not {self.base_score!r}")


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


def ingest_ensemble(ensemble: TreeEnsemble) -> AdditiveModel:
    """Add every tree into one running tensor per feature set.

    A tree adds to the tensor over its sorted split features, on the global
    grid of ``collect_bins``; a leaf-only tree adds to the intercept, which
    starts at the base score.  Each leaf adds its value to an axis-aligned
    box of grid cells: the descent keeps one index per feature, and every
    split narrows its feature's index.  Every threshold is an edge of the
    grid, so a threshold split keeps a contiguous range of cells (``< cut``
    goes left) and a box of threshold splits is a tuple of slices; a
    label-set split keeps a boolean cell mask.  The other tensors start at
    -0.0, so each cell sums ``-0.0 + v1 + v2 + ...`` in tree order and a
    lone -0.0 leaf keeps its sign.  A tree over more than
    ``MAX_TREE_FEATURES`` features raises ``DomainError``.
    """
    bins = collect_bins(ensemble)
    acc = {(): np.array(float(ensemble.base_score))}
    for i, tree in enumerate(ensemble.trees):
        feats = tuple(sorted({n.feature for n in _splits(tree)}))
        if len(feats) > MAX_TREE_FEATURES:
            raise DomainError(
                f"tree {i} splits on {len(feats)} distinct features "
                f"{list(feats)}; at most {MAX_TREE_FEATURES} are supported")
        axis = {f: k for k, f in enumerate(feats)}
        shape = tuple(bins[f].n_cells for f in feats)
        if feats not in acc:
            acc[feats] = np.full(shape, -0.0)
        total = acc[feats]
        # Boolean masks on two axes would index together, not as a product.
        masked = any(bins[f].kind == "categorical" for f in feats)

        def add(node: TreeNode, box: tuple):
            if node.is_leaf:
                if masked:
                    box = np.ix_(*(np.arange(n)[s] for n, s in zip(shape, box)))
                total[box] += node.value
                return
            k, b = axis[node.feature], bins[node.feature]
            if node.threshold is None:
                left = np.array([label in node.label_set for label in b.labels])
                sides = box[k] & left, box[k] & ~left
            else:
                cut = bisect.bisect_right(b.edges, node.threshold)
                lo, hi = box[k].start, box[k].stop
                sides = slice(lo, min(hi, cut)), slice(max(lo, cut), hi)
            for child, side in zip((node.left, node.right), sides):
                add(child, box[:k] + (side,) + box[k + 1:])

        add(tree, tuple(slice(0, n) if bins[f].kind == "continuous"
                        else np.ones(n, dtype=bool) for f, n in zip(feats, shape)))
    return AdditiveModel(bins.values(), map(EffectTensor, acc, acc.values()))


# --------------------------------------------------------------------------
# Ensemble JSON
# --------------------------------------------------------------------------

def _node_from_dict(doc) -> TreeNode:
    if not isinstance(doc, dict):
        raise DomainError(f"a node is not a JSON object: {doc!r}")
    split_keys = {"split", "threshold", "left", "right"}
    if "leaf" in doc:
        if doc.keys() & split_keys:
            raise DomainError("a node is a leaf or a split, not both")
        _keys(doc, {"leaf"}, "a leaf")
        return TreeNode(value=_number(doc["leaf"], "a leaf"))
    _keys(doc, split_keys, "a split")
    thr = doc["threshold"]
    labels = isinstance(thr, dict)
    if labels:
        _keys(thr, {"labels"}, "a label threshold")
    return TreeNode(
        feature=doc["split"],
        threshold=None if labels else _number(thr, "a threshold"),
        label_set=frozenset(_list(thr, "labels")) if labels else None,
        left=_node_from_dict(doc["left"]),
        right=_node_from_dict(doc["right"]),
    )


def ensemble_from_json(text: str) -> TreeEnsemble:
    """Parse ensemble JSON; a malformed tree raises a ``DomainError`` naming it."""
    with _json_document(text) as doc:
        trees = doc.get("trees") if isinstance(doc, dict) else None
        if not isinstance(trees, list):
            raise DomainError("an ensemble is a JSON object with a list of 'trees'")
        _keys(doc, {"trees", "base_score"}, "an ensemble")
        nodes = []
        for i, tree in enumerate(trees):
            with _entry("tree", i, tree):
                nodes.append(_node_from_dict(tree))
    return TreeEnsemble(tuple(nodes), _number(doc.get("base_score", 0.0), "base_score"))
