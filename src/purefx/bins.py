"""Finite value domains for features: continuous bin edges or category labels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class FeatureBins:
    """The finite domain of one feature.

    Continuous features are partitioned into half-open cells
    ``(-inf, e_1), [e_1, e_2), ..., [e_k, +inf)`` by strictly increasing
    edges; a value equal to an edge falls in the upper cell (tree-split
    semantics: ``x < t`` goes left).  Categorical features have labels
    instead, strictly increasing; neither kind takes the other's field.
    """

    feature_name: str
    kind: str  # "continuous" | "categorical"
    edges: tuple[float, ...] = ()
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        name = self.feature_name
        if not isinstance(name, str):
            raise DomainError(f"a feature name is a string, not {name!r}")
        if self.kind not in ("continuous", "categorical"):
            raise DomainError(f"unknown bins kind {self.kind!r}")
        other = "labels" if self.kind == "continuous" else "edges"
        if getattr(self, other):
            raise _feature_error(name, f"{self.kind} bins take no {other}")
        if self.kind == "continuous":
            if not self.edges:
                raise _feature_error(name, "continuous bins need at least one edge")
            if not all(math.isfinite(e) for e in self.edges):
                raise _feature_error(name, "non-finite edge")
            if any(a >= b for a, b in zip(self.edges, self.edges[1:])):
                raise _feature_error(name, "edges must be strictly increasing")
            object.__setattr__(self, "edges", tuple(float(e) for e in self.edges))
        else:
            if not self.labels:
                raise _feature_error(name, "categorical bins need labels")
            for label in self.labels:
                if not isinstance(label, str):
                    raise _feature_error(name, f"a label is a string, not {label!r}")
            if any(a >= b for a, b in zip(self.labels, self.labels[1:])):
                raise _feature_error(name, "labels must be strictly increasing")
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_cells(self) -> int:
        if self.kind == "continuous":
            return len(self.edges) + 1
        return len(self.labels)


def bin_index(bins: FeatureBins, values):
    """Cell index of every value in the column ``values``, a 1-D int array.

    Continuous values may be numbers or decimal strings, parsed as by
    ``float()``; categorical values are labels.  A bare value or a nested list
    is not a column: it raises a ``DomainError`` naming the feature.  So does
    a blank, unparseable or non-finite value, an integer too large for a
    float, or an unknown label, naming its row too.
    """
    if bins.kind == "categorical":
        col = _column(bins.feature_name, np.asarray(values, dtype=object))
        code = {label: k for k, label in enumerate(bins.labels)}
        try:
            return np.fromiter(map(code.__getitem__, col), np.intp, count=len(col))
        except KeyError:
            row = next(i for i, v in enumerate(col) if v not in code)
            raise _value_error(bins, row, f"unknown label {col[row]!r}") from None
    try:
        x = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        _raise_for_first_unparseable(bins, values)
        raise
    bad = np.flatnonzero(~np.isfinite(_column(bins.feature_name, x)))
    if bad.size:
        row = int(bad[0])
        value = np.asarray(values, dtype=object)[row]
        raise _value_error(bins, row, f"non-finite value {value!r}")
    return np.searchsorted(bins.edges, x, side="right")


def _column(name: str, a: np.ndarray) -> np.ndarray:
    """``a``, the data of feature ``name``, if it is one column of values."""
    if a.ndim != 1:
        raise _feature_error(name, f"data is one column, not a {a.ndim}-D array")
    return a


def _feature_error(name: str, what: str) -> DomainError:
    return DomainError(f"feature {name!r}: {what}")


def _value_error(bins: FeatureBins, row: int, what: str) -> DomainError:
    return DomainError(f"feature {bins.feature_name!r}, row {row}: {what}")


def _raise_for_first_unparseable(bins: FeatureBins, values):
    for row, v in enumerate(_column(bins.feature_name, np.asarray(values, dtype=object))):
        if isinstance(v, str) and not v.strip():
            raise _value_error(bins, row, "blank value")
        try:
            float(v)
        except OverflowError:  # an integer beyond a float's range
            raise _value_error(bins, row, "value too large for a float") from None
        except (TypeError, ValueError):
            raise _value_error(bins, row,
                               f"cannot parse {v!r} as a number") from None
