"""Effect tensors, additive models, prediction, and the canonical JSON format."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .bins import FeatureBins, bin_index
from .errors import DomainError

Subset = tuple[str, ...]


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


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
        arr = _frozen(self.values)
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

    The intercept (empty subset) is always present, defaulting to 0.  A subset
    with no stored tensor contributes nothing.
    """

    bins: dict[str, FeatureBins]
    effects: dict[Subset, EffectTensor]

    def __post_init__(self):
        effects = {}
        for key, eff in self.effects.items():
            if tuple(key) != eff.vars:
                raise DomainError(f"effect keyed {key} has vars {eff.vars}")
            for k, name in enumerate(eff.vars):
                if name not in self.bins:
                    raise DomainError(f"effect {eff.vars}: no bins for feature {name!r}")
                if eff.values.shape[k] != self.bins[name].n_cells:
                    raise DomainError(
                        f"effect {eff.vars}: axis {k} has length "
                        f"{eff.values.shape[k]}, bins give {self.bins[name].n_cells}"
                    )
            effects[eff.vars] = eff
        if () not in effects:
            effects[()] = EffectTensor((), np.zeros(()))
        object.__setattr__(self, "effects", effects)

    @property
    def intercept(self) -> float:
        return float(self.effects[()].values)


@dataclass(frozen=True)
class GridDataset:
    """Columns of feature values, one per feature name, all the same length.

    Continuous columns hold numbers or decimal strings, categorical columns
    hold labels.  The columns are kept as given, not copied.
    """

    columns: dict[str, object]

    def __post_init__(self):
        cols = dict(self.columns)
        _check_lengths({name: len(col) for name, col in cols.items()})
        object.__setattr__(self, "columns", cols)

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))


def _check_lengths(lengths: dict) -> None:
    if len(set(lengths.values())) > 1:
        raise DomainError(f"columns differ in length: {lengths}")


def predict(model: AdditiveModel, points: dict) -> float | np.ndarray:
    """Sum every effect tensor's entry at the cells of ``points``.

    ``points`` maps each feature to one value, giving a float, or each to a
    column of values of one length, giving an array of one prediction per
    row.  Effects are added in ``model.effects`` order, so every row sums
    exactly as a one-point call.
    """
    cells: dict[str, np.ndarray] = {}
    for name in dict.fromkeys(name for u in model.effects for name in u):
        if name not in points:
            raise DomainError(f"point is missing feature {name!r}")
        cells[name] = bin_index(model.bins[name], points[name])
    _check_lengths({name: len(c) if c.ndim else "one value"
                    for name, c in cells.items()})
    shape = (next(iter(cells.values())).shape if cells
             else np.shape(next(iter(points.values()), 0.0)))
    total = np.zeros(shape)
    for eff in model.effects.values():
        total = total + eff.values[tuple(cells[name] for name in eff.vars)]
    return total if total.ndim else float(total)


def effect_variance(tensor: EffectTensor, w) -> float:
    """Weighted variance of a tensor under the density's table for its subset."""
    wt = np.asarray(w.table(tensor.vars))
    if wt.shape != tensor.values.shape:
        raise DomainError(
            f"weight shape {wt.shape} does not match tensor shape {tensor.values.shape}"
        )
    mu = float((wt * tensor.values).sum())
    return float((wt * (tensor.values - mu) ** 2).sum())


# --------------------------------------------------------------------------
# Canonical JSON (bit-exact round trip; fixed ordering for determinism)
# --------------------------------------------------------------------------

def model_to_dict(model: AdditiveModel) -> dict:
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
    return {"features": features, "effects": effects}


def model_from_dict(doc: dict) -> AdditiveModel:
    bins = {}
    for f in doc["features"]:
        if f["kind"] == "continuous":
            b = FeatureBins(f["name"], "continuous", edges=tuple(f["edges"]))
        else:
            b = FeatureBins(f["name"], "categorical", labels=tuple(f["labels"]))
        bins[f["name"]] = b
    effects = {}
    for e in doc["effects"]:
        key = tuple(e["vars"])
        if key in effects:
            raise DomainError(f"duplicate effect subset {key}")
        effects[key] = EffectTensor(key, np.array(e["values"], dtype=float))
    return AdditiveModel(bins, effects)


def dumps_canonical(doc: dict) -> str:
    """Serialize with sorted keys and shortest round-trip floats."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def model_to_json(model: AdditiveModel) -> str:
    return dumps_canonical(model_to_dict(model))


def model_from_json(text: str) -> AdditiveModel:
    return model_from_dict(json.loads(text))
