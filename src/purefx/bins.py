"""Finite value domains for features: continuous bin edges or category labels."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class FeatureBins:
    """The finite domain of one feature.

    Continuous features are partitioned into half-open cells
    ``(-inf, e_1), [e_1, e_2), ..., [e_k, +inf)`` by strictly increasing
    edges; a value equal to an edge falls in the upper cell (tree-split
    semantics: ``x < t`` goes left).  Categorical features enumerate their
    labels directly.
    """

    feature_name: str
    kind: str  # "continuous" | "categorical"
    edges: tuple[float, ...] = ()
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("continuous", "categorical"):
            raise DomainError(f"unknown bins kind {self.kind!r}")
        if self.kind == "continuous":
            if not self.edges:
                raise DomainError(
                    f"feature {self.feature_name!r}: continuous bins need at least one edge"
                )
            if not all(math.isfinite(e) for e in self.edges):
                raise DomainError(f"feature {self.feature_name!r}: non-finite edge")
            if any(a >= b for a, b in zip(self.edges, self.edges[1:])):
                raise DomainError(
                    f"feature {self.feature_name!r}: edges must be strictly increasing"
                )
            object.__setattr__(self, "edges", tuple(float(e) for e in self.edges))
        else:
            if not self.labels:
                raise DomainError(
                    f"feature {self.feature_name!r}: categorical bins need labels"
                )
            if len(set(self.labels)) != len(self.labels):
                raise DomainError(f"feature {self.feature_name!r}: duplicate labels")
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_cells(self) -> int:
        if self.kind == "continuous":
            return len(self.edges) + 1
        return len(self.labels)

    def representative(self, cell: int):
        """A value guaranteed to land in ``cell`` (midpoint where bounded)."""
        if self.kind == "categorical":
            return self.labels[cell]
        e = self.edges
        if cell == 0:
            return e[0] - 1.0
        if cell == len(e):
            return e[-1] + 1.0
        return 0.5 * (e[cell - 1] + e[cell])


def bin_index(bins: FeatureBins, values):
    """Cell index of every value in ``values``, an int array of the same shape.

    A single value gives a 0-d result.  Continuous values may be numbers or
    decimal strings, parsed as by ``float()``; categorical values are labels.
    A blank, unparseable or non-finite value, or an unknown label, raises a
    ``DomainError`` naming the feature and the row (the flat position in
    ``values``).
    """
    if bins.kind == "categorical":
        col = np.asarray(values, dtype=object)
        code = {label: k for k, label in enumerate(bins.labels)}
        try:
            cells = np.fromiter(map(code.__getitem__, col.flat), np.intp,
                                count=col.size)
        except KeyError:
            row = next(i for i, v in enumerate(col.flat) if v not in code)
            raise _value_error(bins, row,
                               f"unknown label {col.flat[row]!r}") from None
        return cells.reshape(col.shape)[()]
    try:
        x = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        _raise_for_first_unparseable(bins, values)
        raise
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        row = int(bad[0])
        value = np.asarray(values, dtype=object).flat[row]
        raise _value_error(bins, row, f"non-finite value {value!r}")
    return np.searchsorted(bins.edges, x, side="right")


def _value_error(bins: FeatureBins, row: int, what: str) -> DomainError:
    return DomainError(f"feature {bins.feature_name!r}, row {row}: {what}")


def _raise_for_first_unparseable(bins: FeatureBins, values):
    for row, v in enumerate(np.asarray(values, dtype=object).flat):
        if isinstance(v, str) and not v.strip():
            raise _value_error(bins, row, "blank value")
        try:
            float(v)
        except (TypeError, ValueError):
            raise _value_error(bins, row,
                               f"cannot parse {v!r} as a number") from None
