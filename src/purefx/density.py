"""Cell-weight estimators over a model's bin grids: uniform, empirical, Laplace."""

from __future__ import annotations

import csv
import io

import numpy as np

from .engine import required_subsets
from .errors import DomainError
from .model import (AdditiveModel, Subset, _dumps, _json_array, bin_dataset,
                    canonical_order)

MODES = ("uniform", "empirical", "laplace")


def _counts(model: AdditiveModel, u: Subset, cols: dict[str, np.ndarray]) -> np.ndarray:
    shape = tuple(model.bins[name].n_cells for name in u)
    flat = np.ravel_multi_index(tuple(cols[name] for name in u), shape)
    counts = np.bincount(flat, minlength=int(np.prod(shape)))
    return counts.reshape(shape).astype(float)


def estimate_density(model: AdditiveModel, mode: str = "uniform",
                     data: dict | None = None) -> dict[Subset, np.ndarray]:
    """The weights: one normalized table per subset of ``required_subsets``,
    ``{subset: table}``; the intercept has none.

    ``mode`` is one of ``MODES``; ``empirical`` and ``laplace`` count the
    rows of ``data``, a dict of columns, which must be nonempty.  Only the
    columns of features that some effect uses are read.  ``uniform`` reads no
    data, and refuses any it is given.
    """
    if mode not in MODES:
        raise DomainError(f"unknown density mode {mode!r}")
    if mode == "uniform" and data is not None:
        raise DomainError("uniform density reads no dataset")
    cols = {}
    if mode in ("empirical", "laplace"):
        if data is not None:
            cols = bin_dataset(model, data)
        # An intercept-only model reads no column; any nonempty one will do.
        if data is None or not any(map(np.size, (cols or data).values())):
            raise DomainError(f"{mode} density requires a nonempty dataset")

    tables: dict[Subset, np.ndarray] = {}
    for u in required_subsets(model):
        if mode == "uniform":
            t = np.ones(tuple(model.bins[name].n_cells for name in u))
        elif mode == "empirical":
            t = _counts(model, u, cols)
        else:
            t = _counts(model, u, cols) + 1.0
        tables[u] = t / t.sum()
    return tables


# --------------------------------------------------------------------------
# File I/O
# --------------------------------------------------------------------------

def dataset_from_csv(path, model: AdditiveModel | None = None
                     ) -> dict[str, tuple[str, ...] | np.ndarray]:
    """Header row of feature names, then one row of values per data point.

    Feature names must be distinct, which is checked before any row is read,
    and every row must have as many fields as the header; blank lines and a
    leading UTF-8 byte-order mark are skipped.  Cells come back as strings,
    which binning parses.  Given the ``model`` the data is for, numpy's C
    reader parses the file instead when no header name is one of its
    categorical features and every cell is a plain finite number; each column
    is then a float64 array of the values ``float()`` gives, so binning gives
    the same cells.  A line the csv module cannot read, such as one over its
    field size limit, raises a ``DomainError`` naming it.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        text = fh.read()
    stream = io.StringIO(text, newline="")
    reader = csv.reader(stream)
    try:
        header = next(filter(None, reader), None)
        if header is None:
            raise DomainError(f"{path}: empty CSV")
        for i, name in enumerate(header):
            if name in header[:i]:
                raise DomainError(f"{path}: feature {name!r} repeats in the header")
        if model is not None:
            columns = _float_columns(header, text[stream.tell():], model)
            if columns is not None:
                return columns
        rows = [r for r in reader if r]
    except csv.Error as exc:
        raise DomainError(f"{path}, line {reader.line_num}: {exc}") from None
    for i, r in enumerate(rows):
        if len(r) != len(header):
            raise DomainError(
                f"{path}, row {i}: {len(r)} fields, "
                f"the header has {len(header)}")
    columns = list(zip(*rows)) or [()] * len(header)
    return dict(zip(header, columns))


def _float_columns(header: list[str], body: str, model: AdditiveModel
                   ) -> dict[str, np.ndarray] | None:
    """The columns of the CSV ``body`` under ``header`` as float64 arrays, or
    None wherever the csv module must decide: a categorical feature name, no
    rows, a line over its field size limit, one of the separators
    \\x1c-\\x1f, or a body numpy cannot parse into one finite column per
    name."""
    # The csv module's lines: it ends one at "\r", "\n" or "\r\n" (the empty
    # line this makes inside "\r\n" is skipped, as blank lines are).
    lines = body.replace("\r", "\n").split("\n")
    categorical = {n for n, b in model.bins.items() if b.kind == "categorical"}
    if (not categorical.isdisjoint(header) or not any(lines)
            or max(map(len, lines)) > csv.field_size_limit()
            # numpy strips these separators from around a number; float() does not
            or any(c in body for c in "\x1c\x1d\x1e\x1f")):
        return None
    try:
        x = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None, dtype=float)
    except ValueError:
        return None
    if x.shape[1] != len(header) or not np.isfinite(x).all():
        return None
    return dict(zip(header, x.T))


def density_to_json(w: dict[Subset, np.ndarray]) -> str:
    """Canonical JSON of the weight tables, by (order, vars)."""
    subsets = ",".join(
        '{"vars":%s,"weights":%s}' % (_dumps(list(u)), _json_array(w[u]))
        for u in sorted(w, key=canonical_order))
    return '{"subsets":[%s]}\n' % subsets
