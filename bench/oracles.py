"""Output checks that share no code with purefx: numpy gathers and slice means.

Every check returns a list of error strings; an empty list means the output
passed.  Tolerances are relative to ``model_scale`` (or ``ensemble_scale``) of
the *input*, an upper bound on the absolute value of any prediction, so a
numerically equivalent canonical form passes and a byte-level difference in
the last digits does not count as a failure.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

PRED_RTOL = 1e-9   # |prediction change| / input scale
SLICE_RTOL = 1e-9  # |weighted slice mean| / input scale


def load_model(text: str):
    """(edges by feature, [(vars, values)]) from model JSON; continuous only."""
    doc = json.loads(text)
    edges = {f["name"]: np.asarray(f["edges"], dtype=float) for f in doc["features"]}
    effects = [(tuple(e["vars"]), np.asarray(e["values"], dtype=float))
               for e in doc["effects"]]
    return edges, effects


def read_columns(path: Path) -> dict[str, np.ndarray]:
    """Float columns of a numeric CSV with a header row."""
    with open(path, newline="") as fh:
        names = next(csv.reader(fh))
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {n: data[:, j] for j, n in enumerate(names)}


def cell_indices(edges, cols) -> dict[str, np.ndarray]:
    """Cell of every value; a value equal to an edge falls in the upper cell."""
    return {n: np.searchsorted(e, cols[n], side="right") for n, e in edges.items()}


def model_scale(effects) -> float:
    return sum(float(np.abs(v).max()) for _, v in effects)


def predict_rows(effects, cells) -> np.ndarray:
    """Sum of one gather per effect."""
    n = len(next(iter(cells.values())))
    out = np.zeros(n)
    for u, values in effects:
        out += values[tuple(cells[name] for name in u)] if u else float(values)
    return out


def predict_grid(effects, n_cells: dict[str, int]) -> np.ndarray:
    """Prediction at every cell of the full grid, by broadcasting each effect."""
    names = sorted(n_cells)
    out = np.zeros(tuple(n_cells[n] for n in names))
    for u, values in effects:
        shape = [n_cells[n] if n in u else 1 for n in names]
        out += values.reshape(shape)
    return out


def count_table(u, cells, n_cells) -> np.ndarray:
    """Normalized count of rows per cell of subset ``u``."""
    shape = tuple(n_cells[n] for n in u)
    flat = np.ravel_multi_index(tuple(cells[n] for n in u), shape)
    t = np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape).astype(float)
    return t / t.sum()


def max_slice_mean(values: np.ndarray, weights: np.ndarray) -> float:
    """Largest |weighted mean| over every 1-D slice with positive weight."""
    worst = 0.0
    for axis in range(values.ndim):
        wsum = weights.sum(axis=axis)
        ssum = (weights * values).sum(axis=axis)
        ok = wsum > 0
        if np.any(ok):
            worst = max(worst, float(np.abs(ssum[ok] / wsum[ok]).max()))
    return worst


def check_predictions(got: np.ndarray, want: np.ndarray, scale: float,
                      what: str) -> list[str]:
    if got.shape != want.shape:
        return [f"{what}: {got.shape[0]} predictions, expected {want.shape[0]}"]
    err = float(np.abs(got - want).max()) if got.size else 0.0
    if not err <= PRED_RTOL * scale:
        return [f"{what}: max |difference| {err:.3e} > {PRED_RTOL} x scale {scale:.3g}"]
    return []


def check_pure(effects, weights_for, scale: float) -> list[str]:
    """Every effect of order >= 1 has all weighted slice means ~ 0."""
    errors = []
    for u, values in effects:
        if not u:
            continue
        worst = max_slice_mean(values, weights_for(u))
        if not worst <= SLICE_RTOL * scale:
            errors.append(f"effect {u}: slice mean {worst:.3e} > "
                          f"{SLICE_RTOL} x scale {scale:.3g}")
    return errors


def empirical_weights(edges, train_cols):
    """weights_for(u): the count table of the training rows over subset ``u``."""
    cells = cell_indices(edges, train_cols)
    n_cells = {n: len(e) + 1 for n, e in edges.items()}
    return lambda u: count_table(u, cells, n_cells)


def uniform_weights(edges):
    return lambda u: np.ones(tuple(len(edges[n]) + 1 for n in u))


def read_trace(path: Path) -> dict[str, list[float]]:
    """Mass trace per tensor from `tensor_vars,iteration,mass` CSV."""
    out: dict[str, list[float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["tensor_vars", "iteration", "mass"]:
            raise ValueError(f"{path.name}: unexpected trace header")
        for name, _, mass in reader:
            out.setdefault(name, []).append(float(mass))
    return out


# --------------------------------------------------------------------------
# Tree ensembles (numeric thresholds only)
# --------------------------------------------------------------------------

def _eval_node(node, cols) -> np.ndarray | float:
    if "leaf" in node:
        return float(node["leaf"])
    go_left = cols[node["split"]] < float(node["threshold"])
    return np.where(go_left, _eval_node(node["left"], cols),
                    _eval_node(node["right"], cols))


def ensemble_predict(doc: dict, cols) -> np.ndarray:
    """Walk every tree for every row: base score plus the sum of leaf values."""
    n = len(next(iter(cols.values())))
    out = np.full(n, float(doc.get("base_score", 0.0)))
    for tree in doc["trees"]:
        out += _eval_node(tree, cols)
    return out


def _leaves(node):
    if "leaf" in node:
        yield float(node["leaf"])
    else:
        yield from _leaves(node["left"])
        yield from _leaves(node["right"])


def ensemble_scale(doc: dict) -> float:
    return abs(float(doc.get("base_score", 0.0))) + sum(
        max(abs(v) for v in _leaves(t)) for t in doc["trees"])

