"""In-process traced run: spans around the purefx calls the CLI makes.

``instrumented`` replaces, for the duration of a ``with`` block, the names the
CLI (and ``estimate_density``) look up at call time with wrappers that record
a span per call and take counts from the returned objects.  The program is not
modified; running ``purefx.cli.main`` inside the block makes exactly the calls
a CLI process makes, in the same order.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

# (module, attribute, span name); the span name is "<layer>.<function>".
PATCHES = (
    ("purefx.cli", "model_from_json", "model.model_from_json"),
    ("purefx.cli", "model_to_json", "model.model_to_json"),
    ("purefx.cli", "predict", "model.predict"),
    ("purefx.cli", "dataset_from_csv", "density.dataset_from_csv"),
    ("purefx.cli", "estimate_density", "density.estimate_density"),
    ("purefx.density", "bin_dataset", "density.bin_dataset"),
    ("purefx.cli", "ensemble_from_json", "trees.ensemble_from_json"),
    ("purefx.cli", "ingest_ensemble", "trees.ingest_ensemble"),
    ("purefx.cli", "purify_model", "engine.purify"),
    ("purefx.cli", "check_purity", "engine.check_purity"),
)

SPAN_METRICS = tuple(dict.fromkeys(name for _, _, name in PATCHES))
COUNT_UNITS = {
    "density.rows_binned": "count", "model.json_bytes": "bytes",
    "model.rows_predicted": "count", "trees.cells_tabulated": "count",
    "engine.passes": "count", "engine.passes_max": "count",
    "engine.axis_sweeps": "count", "engine.cells_swept": "count",
    "engine.contraction": "ratio", "engine.nonconverged": "count",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.job = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = Span(len(self.spans), name, time.perf_counter(), math.nan,
                   self._open[-1] if self._open else None, self.job)
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> Counter:
        """Seconds per span name, minus the time covered by child spans.

        Calls are sequential in one thread, so children never overlap and the
        covered time is the sum of the children's durations.
        """
        out: Counter = Counter()
        for s in self.spans:
            out[s.name] += s.end - s.start
            if s.parent is not None:
                out[self.spans[s.parent].name] -= s.end - s.start
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": [asdict(s) for s in self.spans],
                                    "counts": dict(self.counts)}) + "\n")


def _tree_cells(node, n_cells) -> int:
    feats = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if not n.is_leaf:
            feats.add(n.feature)
            stack += [n.left, n.right]
    return math.prod(n_cells[f] for f in feats)


def _count(tr: Tracer, name: str, args, result) -> None:
    """Work counts taken from what a call returned."""
    c = tr.counts
    if name == "density.bin_dataset":
        c["density.rows_binned"] += len(next(iter(result.values()), ()))
    elif name == "model.model_to_json":
        c["model.json_bytes"] += len(result.encode())
    elif name == "model.predict":
        c["model.rows_predicted"] += 1
    elif name == "trees.ingest_ensemble":
        n_cells = {f: b.n_cells for f, b in result.bins.items()}
        c["trees.cells_tabulated"] += sum(_tree_cells(t, n_cells)
                                          for t in args[0].trees)
    elif name == "engine.purify":
        model, reports = result
        slowest = None
        for r in reports.values():
            sweeps = len(r.trace) - 1
            c["engine.passes"] += r.passes
            c["engine.axis_sweeps"] += sweeps
            c["engine.cells_swept"] += sweeps * model.effects[r.vars].values.size
            if slowest is None or r.passes > slowest.passes:
                slowest = r
        if slowest is not None and slowest.passes >= c["engine.passes_max"]:
            c["engine.passes_max"] = slowest.passes
            m0, m1 = slowest.trace[0][1], slowest.trace[-1][1]
            c["engine.contraction"] = (
                (m1 / m0) ** (1.0 / slowest.passes) if m0 > 0 else 0.0)


def _wrap(tr: Tracer, fn, name: str):
    def traced(*args, **kwargs):
        with tr.span(name):
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "NonConvergenceError":
                    tr.counts["engine.nonconverged"] += 1
                raise
        _count(tr, name, args, result)
        return result
    return traced


@contextmanager
def instrumented(tr: Tracer):
    """Install the span wrappers of PATCHES; restore the originals on exit."""
    saved = []
    try:
        for module, attr, name in PATCHES:
            mod = importlib.import_module(module)
            if not hasattr(mod, attr):
                raise RuntimeError(f"{module}.{attr} is gone: update bench/spans.py")
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, _wrap(tr, getattr(mod, attr), name))
        yield tr
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
