"""Ingestion of dumped tree ensembles into effect tensors.

Trees may have any depth, as long as each splits on at most three distinct
features; a tree over k features becomes one k-dimensional tensor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bins import FeatureBins
from .errors import DomainError, UnsupportedTreeError
from .model import AdditiveModel, EffectTensor, dumps_canonical

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
        if (self.threshold is None) == (self.label_set is None):
            raise DomainError("split node needs exactly one of threshold / label set")
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise DomainError(f"non-finite threshold on feature {self.feature!r}")


@dataclass(frozen=True)
class TreeEnsemble:
    trees: tuple[TreeNode, ...]
    base_score: float = 0.0


def tree_features(node: TreeNode, index: int = 0) -> tuple[str, ...]:
    """Sorted distinct split features; errors past ``MAX_TREE_FEATURES``."""
    seen: set[str] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if not n.is_leaf:
            seen.add(n.feature)
            stack += [n.left, n.right]
    feats = tuple(sorted(seen))
    if len(feats) > MAX_TREE_FEATURES:
        raise UnsupportedTreeError(
            f"tree {index} splits on {len(feats)} distinct features "
            f"{list(feats)}; at most {MAX_TREE_FEATURES} are supported")
    return feats


def collect_bins(ensemble: TreeEnsemble) -> dict[str, FeatureBins]:
    """Global grid per feature: sorted distinct thresholds, or the label union."""
    thresholds: dict[str, set[float]] = {}
    labels: dict[str, set[str]] = {}

    def visit(node: TreeNode):
        if node.is_leaf:
            return
        if node.threshold is not None:
            if node.feature in labels:
                raise DomainError(f"feature {node.feature!r} split both ways")
            thresholds.setdefault(node.feature, set()).add(float(node.threshold))
        else:
            if node.feature in thresholds:
                raise DomainError(f"feature {node.feature!r} split both ways")
            labels.setdefault(node.feature, set()).update(node.label_set)
        visit(node.left)
        visit(node.right)

    for t in ensemble.trees:
        visit(t)

    out = {}
    for name, edges in thresholds.items():
        out[name] = FeatureBins(name, "continuous", edges=tuple(sorted(edges)))
    for name, labs in labels.items():
        out[name] = FeatureBins(name, "categorical", labels=tuple(sorted(labs)))
    return out


def tree_to_tensor(tree: TreeNode, bins: dict[str, FeatureBins],
                   index: int = 0) -> EffectTensor:
    """Tabulate the tree's leaf values on the global grid of its split features.

    Each leaf covers an axis-aligned box of grid cells: the descent keeps one
    boolean cell mask per feature, and every split narrows its feature's
    mask.  A tree splitting one feature twice yields a 1-D tensor.  Every
    threshold must be an edge of its feature's bins (as ``collect_bins``
    makes them), so each cell lies wholly on one side of every split.
    """
    feats = tree_features(tree, index)
    if not feats:
        return EffectTensor((), np.asarray(float(tree.value)))
    for f in feats:
        if f not in bins:
            raise DomainError(f"tree {index}: no bins for feature {f!r}")
    axis = {f: k for k, f in enumerate(feats)}
    values = np.zeros(tuple(bins[f].n_cells for f in feats))

    def fill(node: TreeNode, masks: list[np.ndarray]):
        if node.is_leaf:
            values[np.ix_(*masks)] = node.value
            return
        k = axis[node.feature]
        left = _left_cells(node, bins[node.feature], index)
        for child, side in ((node.left, left), (node.right, ~left)):
            fill(child, masks[:k] + [masks[k] & side] + masks[k + 1:])

    fill(tree, [np.ones(bins[f].n_cells, dtype=bool) for f in feats])
    return EffectTensor(feats, values)


def _left_cells(node: TreeNode, bins: FeatureBins, index: int) -> np.ndarray:
    """Boolean mask of the cells of ``bins`` that ``node`` sends left."""
    if node.threshold is None:
        return np.array([label in node.label_set for label in bins.labels])
    cut = int(np.searchsorted(bins.edges, node.threshold, side="right"))
    if cut == 0 or bins.edges[cut - 1] != node.threshold:
        raise DomainError(
            f"tree {index}: threshold {node.threshold!r} is not a bin edge "
            f"of feature {node.feature!r}")
    return np.arange(bins.n_cells) < cut


def ingest_ensemble(ensemble: TreeEnsemble) -> AdditiveModel:
    """Sum per-tree tensors by variable set; base score becomes the intercept."""
    bins = collect_bins(ensemble)
    acc: dict[tuple[str, ...], np.ndarray] = {(): np.asarray(float(ensemble.base_score))}
    for i, tree in enumerate(ensemble.trees):
        t = tree_to_tensor(tree, bins, i)
        if t.vars in acc:
            acc[t.vars] = acc[t.vars] + t.values
        else:
            acc[t.vars] = np.array(t.values)
    effects = {u: EffectTensor(u, v) for u, v in acc.items()}
    return AdditiveModel(bins, effects)


# --------------------------------------------------------------------------
# Canonical ensemble JSON
# --------------------------------------------------------------------------

def _node_from_dict(doc: dict) -> TreeNode:
    if "leaf" in doc:
        return TreeNode(value=float(doc["leaf"]))
    thr = doc["threshold"]
    if isinstance(thr, dict):
        return TreeNode(
            feature=doc["split"],
            label_set=frozenset(thr["labels"]),
            left=_node_from_dict(doc["left"]),
            right=_node_from_dict(doc["right"]),
        )
    return TreeNode(
        feature=doc["split"],
        threshold=float(thr),
        left=_node_from_dict(doc["left"]),
        right=_node_from_dict(doc["right"]),
    )


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"leaf": node.value}
    thr = (node.threshold if node.threshold is not None
           else {"labels": sorted(node.label_set)})
    return {
        "split": node.feature,
        "threshold": thr,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def ensemble_from_json(text: str) -> TreeEnsemble:
    """Parse ensemble JSON; a malformed tree raises a ``DomainError`` naming it."""
    doc = json.loads(text)
    trees = doc.get("trees") if isinstance(doc, dict) else None
    if not isinstance(trees, list):
        raise DomainError("an ensemble is a JSON object with a list of 'trees'")
    nodes = []
    for i, tree in enumerate(trees):
        try:
            nodes.append(_node_from_dict(tree))
        except KeyError as exc:
            raise DomainError(f"tree {i}: a node lacks the key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise DomainError(f"tree {i}: {exc}") from None
    base_score = doc.get("base_score", 0.0)
    try:
        base_score = float(base_score)
    except (TypeError, ValueError):
        raise DomainError(
            f"base_score must be a number, not {base_score!r}") from None
    return TreeEnsemble(trees=tuple(nodes), base_score=base_score)


def ensemble_to_json(ensemble: TreeEnsemble) -> str:
    return dumps_canonical({
        "base_score": ensemble.base_score,
        "trees": [_node_to_dict(t) for t in ensemble.trees],
    })
