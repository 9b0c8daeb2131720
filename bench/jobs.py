"""One job per workload: the CLI commands it runs and the oracle that checks them.

A job is the workload's command sequence, each command a fresh
``python -m purefx.cli`` process.  ``make_job`` writes the job's inputs into
its own directory and returns the commands, the output files whose bytes must
repeat when the same job runs again, and the check of those outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracles as o


@dataclass(frozen=True)
class Job:
    commands: list[list[str]]  # argv of each `purefx` command, in order
    outputs: list[Path]        # files compared byte-for-byte across reruns
    verify: Callable[[], list[str]]  # oracle errors; empty when correct
    dir: Path                  # inputs, outputs and the commands' stderr


def _check_report(path: Path) -> list[str]:
    """The --report JSON is well formed; purity itself is the oracle's check."""
    if not isinstance(json.loads(path.read_text()).get("pass"), bool):
        return [f"{path.name}: purity report has no boolean 'pass'"]
    return []


def _read_predictions(path: Path) -> np.ndarray:
    with open(path) as fh:
        if fh.readline().strip() != "prediction":
            raise ValueError(f"{path.name}: unexpected header")
        return np.loadtxt(fh, ndmin=1)


def _data_path(d: Path, rng) -> Job:
    inputs.make_data_path(rng, d)

    def verify():
        edges, effects = o.load_model((d / "model.json").read_text())
        scale = o.model_scale(effects)
        points = o.read_columns(d / "points.csv")
        want = o.predict_rows(effects, o.cell_indices(edges, points))
        p_edges, p_effects = o.load_model((d / "pure.json").read_text())
        got = o.predict_rows(p_effects, o.cell_indices(p_edges, points))
        weights = o.empirical_weights(p_edges, o.read_columns(d / "train.csv"))
        return (o.check_predictions(got, want, scale, "purified model on points.csv")
                + o.check_predictions(_read_predictions(d / "pred.csv"), want,
                                      scale, "predict output")
                + o.check_pure(p_effects, weights, scale)
                + _check_report(d / "report.json"))

    return Job(
        [["purify", "--model", str(d / "model.json"), "--weights", "empirical",
          "--data", str(d / "train.csv"), "--out", str(d / "pure.json"),
          "--report", str(d / "report.json")],
         ["predict", "--model", str(d / "pure.json"), "--data",
          str(d / "points.csv"), "--out", str(d / "pred.csv")]],
        [d / "pure.json", d / "report.json", d / "pred.csv"],
        verify, d)


def _ensemble(d: Path, rng) -> Job:
    inputs.make_ensemble(rng, d)

    def verify():
        doc = json.loads((d / "trees.json").read_text())
        scale = o.ensemble_scale(doc)
        points = o.read_columns(d / "points.csv")
        p_edges, p_effects = o.load_model((d / "pure.json").read_text())
        got = o.predict_rows(p_effects, o.cell_indices(p_edges, points))
        return (o.check_predictions(got, o.ensemble_predict(doc, points), scale,
                                    "purified model vs tree walk")
                + o.check_pure(p_effects, o.uniform_weights(p_edges), scale)
                + _check_report(d / "report.json"))

    return Job(
        [["purify", "--ensemble", str(d / "trees.json"), "--weights", "uniform",
          "--out", str(d / "pure.json"), "--report", str(d / "report.json")]],
        [d / "pure.json", d / "report.json"],
        verify, d)


def _sweep_sparse(d: Path, rng) -> Job:
    inputs.make_sweep_sparse(rng, d)

    def verify():
        edges, effects = o.load_model((d / "model.json").read_text())
        scale = o.model_scale(effects)
        n_cells = {n: len(e) + 1 for n, e in edges.items()}
        p_edges, p_effects = o.load_model((d / "pure.json").read_text())
        weights = o.empirical_weights(p_edges, o.read_columns(d / "train.csv"))
        traced = set(o.read_trace(d / "trace.csv"))
        missing = {";".join(u) for u, _ in effects if u} - traced
        return (o.check_predictions(o.predict_grid(p_effects, n_cells).ravel(),
                                    o.predict_grid(effects, n_cells).ravel(),
                                    scale, "purified model on every cell")
                + o.check_pure(p_effects, weights, scale)
                + [f"trace.csv: no rows for {sorted(missing)}"] * bool(missing))

    return Job(
        [["purify", "--model", str(d / "model.json"), "--weights", "empirical",
          "--data", str(d / "train.csv"), "--out", str(d / "pure.json"),
          "--trace", str(d / "trace.csv")]],
        [d / "pure.json", d / "trace.csv"],
        verify, d)


_BUILDERS = {
    "data-path": _data_path,
    "ensemble": _ensemble,
    "sweep-sparse": _sweep_sparse,
}


def make_job(workload: str, seed: int, k: int, work: Path) -> Job:
    """Write the inputs of instance ``k`` under ``work`` and describe its job."""
    d = work / f"{workload}-{k}"
    d.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](d, inputs.instance_rng(workload, seed, k))
