"""Effect tensors, additive models, prediction, and the canonical JSON format."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .bins import FeatureBins, _column, bin_index
from .errors import DomainError

Subset = tuple[str, ...]


def canonical_order(u: Subset) -> tuple[int, Subset]:
    """Sort key of the canonical subset order: by order, then by vars."""
    return (len(u), u)


@dataclass(frozen=True)
class EffectTensor:
    """One effect term: a dense tensor over the grid of a sorted feature subset.

    The empty subset is the intercept and holds a 0-d array.
    """

    vars: Subset
    values: np.ndarray

    def __post_init__(self):
        v = tuple(self.vars)
        if list(v) != sorted(set(v)):
            raise DomainError(f"effect vars must be sorted and distinct: {v}")
        arr = np.array(self.values, dtype=float)
        arr.setflags(write=False)
        if arr.ndim != len(v):
            raise DomainError(
                f"effect {v}: tensor rank {arr.ndim} does not match {len(v)} vars"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"effect {v}: non-finite values")
        object.__setattr__(self, "vars", v)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class AdditiveModel:
    """A set of effect tensors over a shared bins registry; predicts by summation.

    Built from ``FeatureBins`` and ``EffectTensor`` objects (any iterables),
    which it keys itself in canonical order: ``bins`` by sorted feature name,
    ``effects`` by (order, vars).  A repeated feature or subset raises a
    ``DomainError`` naming its position.  The intercept (empty subset) is
    always present, defaulting to 0.  A subset with no stored tensor
    contributes nothing.
    """

    bins: dict[str, FeatureBins]
    effects: dict[Subset, EffectTensor]

    def __post_init__(self):
        bins = {}
        for i, b in enumerate(self.bins):
            if b.feature_name in bins:
                raise DomainError(f"feature {i}: feature {b.feature_name!r} repeats")
            bins[b.feature_name] = b
        effects = {}
        for i, eff in enumerate(self.effects):
            if eff.vars in effects:
                raise DomainError(f"effect {i}: duplicate effect subset {eff.vars}")
            for k, name in enumerate(eff.vars):
                if name not in bins:
                    raise DomainError(f"effect {eff.vars}: no bins for feature {name!r}")
                if eff.values.shape[k] != bins[name].n_cells:
                    raise DomainError(
                        f"effect {eff.vars}: axis {k} has length "
                        f"{eff.values.shape[k]}, bins give {bins[name].n_cells}"
                    )
            effects[eff.vars] = eff
        effects.setdefault((), EffectTensor((), np.zeros(())))
        object.__setattr__(self, "bins", dict(sorted(bins.items())))
        object.__setattr__(self, "effects", {
            u: effects[u] for u in sorted(effects, key=canonical_order)})


def bin_dataset(model: AdditiveModel, data: dict) -> dict[str, np.ndarray]:
    """Cell indices of ``data``, a dict of columns, for every feature that
    some effect uses; the columns of features no effect uses are not read.
    The binned columns must all have one length.
    """
    cells: dict[str, np.ndarray] = {}
    for name in dict.fromkeys(name for u in model.effects for name in u):
        if name not in data:
            raise DomainError(f"data is missing feature {name!r}")
        cells[name] = bin_index(model.bins[name], data[name])
    lengths = {name: len(c) for name, c in cells.items()}
    if len(set(lengths.values())) > 1:
        raise DomainError(f"columns differ in length: {lengths}")
    return cells


def predict(model: AdditiveModel, points: dict) -> np.ndarray:
    """One prediction per row of ``points``, a dict of columns: the sum of
    every effect tensor's entry at the row's cells, added in
    ``model.effects`` order.  An intercept-only model bins no column and
    gives one prediction per row of the first given column, or none.
    """
    cells = bin_dataset(model, points)
    name, col = next(iter(cells.items() or points.items()), ("", ()))
    total = np.zeros(len(_column(name, np.asarray(col))))
    for eff in model.effects.values():
        total = total + eff.values[tuple(cells[name] for name in eff.vars)]
    return total


# --------------------------------------------------------------------------
# Canonical JSON (bit-exact round trip; fixed ordering for determinism)
# --------------------------------------------------------------------------

def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _json_array(a: np.ndarray) -> str:
    """``_dumps(a.tolist())`` for a nonempty array of finite floats.

    Each distinct value is formatted once and copied to its cells.  Values
    are told apart by their bits, so ``-0.0`` and ``0.0`` keep their own text.
    """
    distinct, inverse = np.unique(a.ravel().view(np.int64), return_inverse=True)
    text = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())),
                    dtype=object)
    parts = text[inverse].tolist()
    for n in reversed(a.shape):
        parts = ["[" + ",".join(parts[i:i + n]) + "]"
                 for i in range(0, len(parts), n)]
    return parts[0]


def dumps_canonical(doc: dict) -> str:
    """Serialize with sorted keys and shortest round-trip floats."""
    return _dumps(doc) + "\n"


def model_to_json(model: AdditiveModel) -> str:
    """The canonical JSON of ``model``: features and effects in the model's
    own order, keys sorted."""
    features = []
    for name, b in model.bins.items():
        entry = {"name": name, "kind": b.kind}
        if b.kind == "continuous":
            entry["edges"] = list(b.edges)
        else:
            entry["labels"] = list(b.labels)
        features.append(entry)
    effects = ",".join(
        '{"values":%s,"vars":%s}' % (_json_array(e.values), _dumps(list(u)))
        for u, e in model.effects.items())
    return '{"effects":[%s],"features":%s}\n' % (effects, _dumps(features))


def model_from_json(text: str) -> AdditiveModel:
    """Build a model from its JSON.

    A malformed document raises a ``DomainError``; one raised for a feature
    or effect entry names the entry's index.
    """
    with _json_document(text) as doc:
        if not (isinstance(doc, dict) and isinstance(doc.get("features"), list)
                and isinstance(doc.get("effects"), list)):
            raise DomainError(
                "a model is a JSON object with lists of 'features' and 'effects'")
        _keys(doc, {"features", "effects"}, "a model")
        bins = []
        for i, f in enumerate(doc["features"]):
            with _entry("feature", i, f):
                if f["kind"] == "continuous":
                    _keys(f, {"name", "kind", "edges"}, "a continuous feature")
                    b = FeatureBins(f["name"], "continuous", edges=[
                        _number(x, "an edge") for x in _list(f, "edges")])
                elif f["kind"] == "categorical":
                    _keys(f, {"name", "kind", "labels"}, "a categorical feature")
                    b = FeatureBins(f["name"], "categorical",
                                    labels=_list(f, "labels"))
                else:
                    b = FeatureBins(f["name"], f["kind"])  # names the unknown kind
            bins.append(b)
        effects = []
        for i, e in enumerate(doc["effects"]):
            with _entry("effect", i, e):
                _keys(e, {"vars", "values"}, "an effect")
                key = tuple(_list(e, "vars"))
                values = np.array(e["values"])  # numpy reads a true among numbers as 1
                if values.dtype.kind not in "iuf" or bool in map(
                        type, np.array(e["values"], dtype=object).flat):
                    raise DomainError("values must be numbers")
                effects.append(EffectTensor(key, values))
        return AdditiveModel(bins, effects)


@contextmanager
def _json_document(text: str):
    """The JSON document of ``text``, for a block that builds from it; nesting
    too deep for Python's recursion limit, in either, raises a DomainError."""
    try:
        yield json.loads(text)
    except RecursionError:
        raise DomainError("the JSON is nested too deeply to read") from None


def _keys(entry: dict, allowed: set, what: str):
    """Reject a key of ``entry`` that is not in ``allowed``."""
    unknown = sorted(entry.keys() - allowed)
    if unknown:
        raise DomainError(f"unknown key {unknown[0]!r} in {what}")


def _list(entry: dict, key: str) -> list:
    """``entry[key]``, which must be a JSON list: a string is not read as one."""
    value = entry[key]
    if not isinstance(value, list):
        raise DomainError(f"{key} must be a list")
    return value


def _number(value, what: str) -> float:
    """``value`` as a float; it must be a JSON number: ``true`` and ``"1"`` are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{what} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond a float's range
        raise DomainError(f"{what} is too large for a float") from None


@contextmanager
def _entry(what: str, index: int, entry):
    """Raise any error in parsing one JSON entry as a ``DomainError`` naming it."""
    if not isinstance(entry, dict):
        raise DomainError(f"{what} {index}: not a JSON object")
    try:
        yield
    except KeyError as exc:
        raise DomainError(f"{what} {index}: lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} {index}: {exc}") from None
