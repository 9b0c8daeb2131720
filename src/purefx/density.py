"""Cell-weight estimators over a model's bin grids: uniform, empirical, Laplace."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .bins import bin_index
from .engine import WeightDensity, required_subsets
from .errors import DomainError
from .model import AdditiveModel, GridDataset, Subset, dumps_canonical

MODES = ("uniform", "empirical", "laplace")


@dataclass(frozen=True)
class DensitySpec:
    """Which estimator to use, and the dataset it counts over if it needs one."""

    mode: str
    data: GridDataset | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise DomainError(f"unknown density mode {self.mode!r}")
        if self.mode in ("empirical", "laplace"):
            if self.data is None or len(self.data) == 0:
                raise DomainError(f"{self.mode} density requires a nonempty dataset")


def bin_dataset(model: AdditiveModel, data: GridDataset) -> dict[str, np.ndarray]:
    """Cell index of every row for every model feature present in the data."""
    cols = {}
    for name, b in model.bins.items():
        if name not in data.columns:
            raise DomainError(f"dataset is missing model feature {name!r}")
        cols[name] = bin_index(b, data.columns[name])
    return cols


def _counts(model: AdditiveModel, u: Subset, cols: dict[str, np.ndarray]) -> np.ndarray:
    if not u:
        return np.asarray(float(len(next(iter(cols.values())))) if cols else 0.0)
    shape = tuple(model.bins[name].n_cells for name in u)
    flat = np.ravel_multi_index(tuple(cols[name] for name in u), shape)
    counts = np.bincount(flat, minlength=int(np.prod(shape)))
    return counts.reshape(shape).astype(float)


def estimate_density(model: AdditiveModel, spec: DensitySpec) -> WeightDensity:
    """Build normalized weight tables for every subset the purifier will touch."""
    subsets = required_subsets(model)
    cols = None
    if spec.mode in ("empirical", "laplace"):
        cols = bin_dataset(model, spec.data)

    tables: dict[Subset, np.ndarray] = {}
    for u in subsets:
        shape = tuple(model.bins[name].n_cells for name in u)
        if spec.mode == "uniform":
            t = np.ones(shape)
        elif spec.mode == "empirical":
            t = _counts(model, u, cols)
            if t.sum() <= 0:
                raise DomainError(f"empirical weights for {u}: no rows counted")
        else:
            t = _counts(model, u, cols) + 1.0
        tables[u] = np.asarray(t, dtype=float) / np.asarray(t, dtype=float).sum()
    return WeightDensity(tables)


# --------------------------------------------------------------------------
# File I/O
# --------------------------------------------------------------------------

def dataset_from_csv(path) -> GridDataset:
    """Header row of feature names, then one row of values per data point.

    Feature names must be distinct, and every row must have as many fields
    as the header; blank lines are skipped.  Cells stay strings until binning
    parses them.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DomainError(f"{path}: empty CSV")
        rows = [r for r in reader if r]
    for i, name in enumerate(header):
        if name in header[:i]:
            raise DomainError(f"{path}: feature {name!r} repeats in the header")
    for i, r in enumerate(rows):
        if len(r) != len(header):
            raise DomainError(
                f"{path}, row {i}: {len(r)} fields, "
                f"the header has {len(header)}")
    columns = list(zip(*rows)) or [()] * len(header)
    return GridDataset(dict(zip(header, columns)))


def density_to_dict(w: WeightDensity) -> dict:
    return {
        "subsets": [
            {"vars": list(u), "weights": w.tables[u].tolist()}
            for u in sorted(w.tables, key=lambda u: (len(u), u))
        ]
    }


def density_to_json(w: WeightDensity) -> str:
    return dumps_canonical(density_to_dict(w))

