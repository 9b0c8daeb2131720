"""Seeded input generators for the three benchmark workloads.

Everything here is numpy plus the standard library: the inputs are written as
plain model JSON, ensemble JSON and CSV files, so the program under test
receives only files and command-line arguments, never objects built by its own
code.  ``instance_rng(workload, seed, k)`` derives the generator for the k-th
input instance of a run from the workload seed alone, so the same seed always
gives byte-identical files.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("data-path", "ensemble", "sweep-sparse")

# data-path: 10 continuous features x 32 cells, intercept + mains + 45 pairs.
# 10k rows keep a job near 2 s, so a run holds a dozen jobs or more.
DP_FEATURES = 10
DP_CELLS = 32
DP_ROWS = 10_000

# ensemble: 108 depth-2 pair trees over 4 features, exactly ENS_THRESHOLDS cuts
# per feature, so every tree tabulates 79 x 79 cells.  108 is the fewest trees
# that give each feature 78 threshold slots; a job stays under 2 s.
ENS_FEATURES = 4
ENS_TREES = 108
ENS_THRESHOLDS = 78
ENS_GRID = 256  # thresholds are drawn from k / ENS_GRID, k = 1..ENS_GRID-1
ENS_POINTS = 10_000  # oracle evaluation points

# sweep-sparse: 3 features x 32 cells, full hierarchy up to one 3-D tensor,
# empirical weights from Beta(3, 3) rows (sparse tails).  The rows come from
# one fixed stream: the pass count is set by where the few tail rows land,
# and at 50 cells it ranged 950-1850 passes across six row draws, which is
# far wider than any bound on job time.  The seed draws the model tensors:
# on these rows 40 model seeds took 1090-1349 passes.  32 cells rather than
# 50 halve the job, so a run holds about twice as many.
SS_FEATURES = 3
SS_CELLS = 32
SS_ROWS = 20_000
SS_DATA_SEED = 20191111


def instance_rng(workload: str, seed: int, k: int) -> np.random.Generator:
    """Generator for instance ``k`` of ``workload`` under the run's ``seed``."""
    return np.random.default_rng([WORKLOADS.index(workload), seed % 2**64, k])


def unit_edges(n_cells: int) -> list[float]:
    """Interior edges k/n of an n-cell partition of (0, 1)."""
    return [k / n_cells for k in range(1, n_cells)]


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def _write_csv(path: Path, names, rows: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        np.savetxt(fh, rows, fmt="%.6f", delimiter=",")


def _model_doc(names, edges, rng, max_order: int) -> dict:
    """Model JSON with every effect subset up to ``max_order``, N(0, 1) values."""
    features = [{"name": n, "kind": "continuous", "edges": edges} for n in names]
    cells = len(edges) + 1
    effects = [{"vars": [], "values": float(rng.normal())}]
    for order in range(1, max_order + 1):
        for u in itertools.combinations(names, order):
            values = rng.normal(size=(cells,) * order)
            effects.append({"vars": list(u), "values": values.tolist()})
    return {"features": features, "effects": effects}


def make_data_path(rng: np.random.Generator, out: Path) -> None:
    """model.json, train.csv and points.csv, all features uniform on (0, 1)."""
    names = [f"x{i}" for i in range(DP_FEATURES)]
    _write_json(out / "model.json",
                _model_doc(names, unit_edges(DP_CELLS), rng, max_order=2))
    _write_csv(out / "train.csv", names, rng.random((DP_ROWS, DP_FEATURES)))
    _write_csv(out / "points.csv", names, rng.random((DP_ROWS, DP_FEATURES)))


def _ensemble_layout():
    """(root, child) feature indices of every tree; fixed, not seeded.

    Tree i splits pair ``i mod 6``; the root alternates between the two
    features every 6 trees, so each feature gets exactly 81 threshold slots.
    """
    pairs = list(itertools.combinations(range(ENS_FEATURES), 2))
    return [pairs[i % len(pairs)][::1 if (i // len(pairs)) % 2 == 0 else -1]
            for i in range(ENS_TREES)]


def make_ensemble_doc(rng: np.random.Generator) -> dict:
    """Pair trees: the root and both children split one fixed feature pair.

    Every feature receives exactly ENS_THRESHOLDS distinct thresholds, so the
    global grid (and the tabulation work) is the same for every seed.
    """
    layout = _ensemble_layout()
    slots: dict[int, list[tuple[int, int]]] = {f: [] for f in range(ENS_FEATURES)}
    for i, (root, child) in enumerate(layout):
        slots[root].append((i, 0))
        slots[child] += [(i, 1), (i, 2)]
    thr = np.zeros((ENS_TREES, 3))
    for f, fslots in slots.items():
        pool = rng.choice(np.arange(1, ENS_GRID), ENS_THRESHOLDS, replace=False)
        extra = rng.choice(pool, len(fslots) - ENS_THRESHOLDS)
        picks = rng.permutation(np.concatenate([pool, extra]))
        for (i, j), k in zip(fslots, picks):
            thr[i, j] = k / ENS_GRID
    leaves = rng.normal(0.0, 0.1, size=(ENS_TREES, 4))

    def leaf(v):
        return {"leaf": float(v)}

    trees = []
    for i, (root, child) in enumerate(layout):
        a, b = f"f{root}", f"f{child}"
        trees.append({
            "split": a, "threshold": float(thr[i, 0]),
            "left": {"split": b, "threshold": float(thr[i, 1]),
                     "left": leaf(leaves[i, 0]), "right": leaf(leaves[i, 1])},
            "right": {"split": b, "threshold": float(thr[i, 2]),
                      "left": leaf(leaves[i, 2]), "right": leaf(leaves[i, 3])},
        })
    return {"base_score": 0.5, "trees": trees}


def make_ensemble(rng: np.random.Generator, out: Path) -> None:
    """trees.json plus points.csv, used only by the oracle."""
    _write_json(out / "trees.json", make_ensemble_doc(rng))
    names = [f"f{i}" for i in range(ENS_FEATURES)]
    _write_csv(out / "points.csv", names, rng.random((ENS_POINTS, ENS_FEATURES)))


def make_sweep_sparse(rng: np.random.Generator, out: Path) -> None:
    """Seeded model.json (order <= 3) and the fixed Beta(3, 3) train.csv."""
    names = [f"x{i}" for i in range(SS_FEATURES)]
    _write_json(out / "model.json",
                _model_doc(names, unit_edges(SS_CELLS), rng, max_order=3))
    rows = np.random.default_rng(SS_DATA_SEED).beta(3.0, 3.0, (SS_ROWS, SS_FEATURES))
    _write_csv(out / "train.csv", names, rows)

