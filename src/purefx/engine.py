"""The mass-moving purifier: slice means, per-tensor centering, and the cascade.

A tensor is pure when every 1-D slice has zero weighted mean; numerically,
when every positive-weight slice mean is within ``tol * scale``, where
``scale`` is the model's largest |value| in any non-intercept effect.  The
sweep and ``check_purity`` use that one rule.  Purification repeatedly
subtracts slice means and deposits them into the tensor over the remaining
variables, so model predictions never change.  Mass cascades from high-order
tensors through lower orders and terminates in the intercept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSliceError, DomainError, NonConvergenceError
from .model import AdditiveModel, EffectTensor, Subset

MAX_PASSES = 10_000  # default sweep budget per tensor


@dataclass(frozen=True)
class WeightDensity:
    """Nonnegative normalized cell weights, one table per feature subset."""

    tables: dict[Subset, np.ndarray]

    def __post_init__(self):
        tables = {}
        for key, arr in self.tables.items():
            key = tuple(key)
            a = np.array(arr, dtype=float)
            if a.ndim != len(key):
                raise DomainError(f"weights for {key}: rank {a.ndim} != {len(key)} vars")
            if not np.all(np.isfinite(a)) or np.any(a < 0):
                raise DomainError(f"weights for {key}: entries must be finite and >= 0")
            if abs(a.sum() - 1.0) > 1e-12:
                raise DomainError(f"weights for {key}: sum {a.sum()} != 1")
            a.setflags(write=False)
            tables[key] = a
        object.__setattr__(self, "tables", tables)

    def table(self, u) -> np.ndarray:
        u = tuple(u)
        if u not in self.tables:
            raise DomainError(f"no weight table for subset {u}")
        return self.tables[u]

    def covers(self, u) -> bool:
        return tuple(u) in self.tables


@dataclass
class ConvergenceReport:
    """Per-axis-sweep trace of the unpurified mass for one tensor."""

    vars: Subset
    trace: list[tuple[int, float]]
    passes: int

    @property
    def initial_mass(self) -> float:
        return self.trace[0][1]

    @property
    def final_mass(self) -> float:
        return self.trace[-1][1]


@dataclass
class TensorPurity:
    vars: Subset
    max_abs_slice_mean: float
    passed: bool


@dataclass
class PurityReport:
    """Worst slice mean per tensor; a tensor passes when it is within tol * scale."""

    tol: float
    scale: float
    tensors: list[TensorPurity]

    @property
    def max_abs_slice_mean(self) -> float:
        return max((t.max_abs_slice_mean for t in self.tensors), default=0.0)

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.tensors)

    def to_dict(self) -> dict:
        return {
            "tol": self.tol,
            "scale": self.scale,
            "pass": self.passed,
            "max_abs_slice_mean": self.max_abs_slice_mean,
            "tensors": [
                {
                    "vars": list(t.vars),
                    "max_abs_slice_mean": t.max_abs_slice_mean,
                    "pass": t.passed,
                }
                for t in self.tensors
            ],
        }


def _slice_stats(T: np.ndarray, W: np.ndarray, wsums: list[np.ndarray]):
    """Trace mass, per-axis slice means and worst |slice mean| of ``T``.

    ``wsums[axis]`` is ``W.sum(axis)``.  The mass is the sum over axes of
    slice weight times |weighted slice sum|; for a matrix that is exactly
    sum_ij w_ij (|r_i| + |c_j|).  A zero-weight slice holds no mass: its mean
    is set to 0, so it neither moves anything nor counts toward the worst.
    """
    WT = W * T
    mass = 0.0
    means = []
    worst = 0.0
    for axis, wsum in enumerate(wsums):
        ssum = WT.sum(axis=axis)
        mass += float((np.asarray(wsum) * np.abs(ssum)).sum())
        m = np.zeros_like(np.asarray(ssum))
        np.divide(ssum, wsum, out=m, where=wsum > 0.0)
        means.append(m)
        worst = max(worst, float(np.max(np.abs(m))))
    return mass, means, worst


def _slice_weights(W: np.ndarray) -> list[np.ndarray]:
    return [W.sum(axis=axis) for axis in range(W.ndim)]


def _scale(tensors) -> float:
    """Largest |value| in any non-intercept effect; 0 if there is none."""
    return max((float(np.max(np.abs(v))) for u, v in tensors.items() if u),
               default=0.0)


def _pure(worst: float, tol: float, scale: float) -> bool:
    """The purity rule shared by the sweep and ``check_purity``."""
    return worst <= tol * scale


def unpurified_mass(tensor: EffectTensor, w: WeightDensity) -> float:
    wt = w.table(tensor.vars)
    if wt.shape != tensor.values.shape:
        raise DomainError("weight/tensor shape mismatch")
    return _slice_stats(tensor.values, wt, _slice_weights(wt))[0]


def _purify_subset(tensors: dict[Subset, np.ndarray], w: WeightDensity, u: Subset,
                   tol: float, scale: float, max_passes: int,
                   strict: bool) -> ConvergenceReport:
    """Center every slice of ``tensors[u]``, depositing means one order down.

    Mutates ``tensors`` in place; lower-order targets are created as zeros
    when absent.  Stops after the first full pass that leaves the tensor pure
    under ``_pure(worst, tol, scale)``.
    """
    T = tensors[u]
    W = w.table(u)
    if W.shape != T.shape:
        raise DomainError(f"weights for {u} have shape {W.shape}, tensor {T.shape}")
    for k in range(len(u)):
        sub = u[:k] + u[k + 1:]
        if not w.covers(sub):
            raise DomainError(f"no weight table for deposit target {sub}")
    wsums = _slice_weights(W)
    if strict:
        for axis in reversed(range(len(u))):
            if not np.all(wsums[axis] > 0.0):
                raise DegenerateSliceError(
                    f"zero-weight slice of {u} along {u[axis]!r}")

    mass, means, worst = _slice_stats(T, W, wsums)
    trace = [(0, mass)]
    passes = 0
    while passes < max_passes:
        passes += 1
        # Sweep the last axis first so deposits land in the lexicographically
        # smallest remaining subset first; the converged result is the same
        # for any sweep order.
        for axis in reversed(range(len(u))):
            T = T - np.expand_dims(means[axis], axis)
            sub = u[:axis] + u[axis + 1:]
            target = tensors.get(sub)
            if target is None:
                target = np.zeros(means[axis].shape)
            tensors[sub] = target + means[axis]
            mass, means, worst = _slice_stats(T, W, wsums)
            trace.append((len(trace), mass))
        tensors[u] = T
        if _pure(worst, tol, scale):
            return ConvergenceReport(u, trace, passes)
    raise NonConvergenceError(
        f"tensor {u}: worst slice mean {worst:.3e} above limit "
        f"{tol * scale:.3e} after {passes} passes",
        ConvergenceReport(u, trace, passes),
    )


def _working_tensors(model: AdditiveModel) -> dict[Subset, np.ndarray]:
    return {u: np.array(e.values, dtype=float) for u, e in model.effects.items()}


def _rebuild(model: AdditiveModel, tensors: dict[Subset, np.ndarray]) -> AdditiveModel:
    effects = {u: EffectTensor(u, v) for u, v in tensors.items()}
    return AdditiveModel(model.bins, effects)


def purify_tensor(model: AdditiveModel, u, w: WeightDensity, tol: float = 1e-12,
                  max_passes: int = MAX_PASSES, strict: bool = False):
    """Purify the single tensor ``u``; returns (modified model, report).

    ``tol`` is relative to the model's scale (its largest |effect value|).
    """
    u = tuple(u)
    if u not in model.effects:
        raise DomainError(f"model has no effect for subset {u}")
    tensors = _working_tensors(model)
    report = _purify_subset(tensors, w, u, tol, _scale(tensors), max_passes,
                            strict)
    return _rebuild(model, tensors), report


def required_subsets(model: AdditiveModel) -> list[Subset]:
    """Every effect subset plus everything reachable by removing features."""
    out: set[Subset] = set()
    for u in model.effects:
        for r in range(len(u) + 1):
            out.update(itertools.combinations(u, r))
    return sorted(out, key=lambda u: (len(u), u))


def purify_model(model: AdditiveModel, w: WeightDensity, tol: float = 1e-12,
                 max_passes: int = MAX_PASSES, strict: bool = False):
    """Purify every tensor, highest order first; returns (model, reports).

    Subsets of equal order are processed in lexicographic order.  Deposits
    create missing lower-order tensors, which are then purified in turn; all
    moved mass ends in the intercept.  ``tol`` is relative to the input
    model's scale (its largest |effect value|).
    """
    missing = [u for u in required_subsets(model) if not w.covers(u)]
    if missing:
        raise DomainError(f"weight density missing subsets: {missing}")

    tensors = _working_tensors(model)
    scale = _scale(tensors)
    reports: dict[Subset, ConvergenceReport] = {}
    max_order = max((len(u) for u in tensors), default=0)
    for order in range(max_order, 0, -1):
        for u in sorted(k for k in tensors if len(k) == order):
            reports[u] = _purify_subset(tensors, w, u, tol, scale, max_passes,
                                        strict)
    return _rebuild(model, tensors), reports


def check_purity(model: AdditiveModel, w: WeightDensity, tol: float = 1e-10) -> PurityReport:
    """Report the worst absolute weighted slice mean of every non-intercept tensor.

    A tensor passes under the sweep's own rule, with ``tol`` relative to this
    model's scale (its largest |effect value|).
    """
    scale = _scale({u: e.values for u, e in model.effects.items()})
    tensors = []
    for u in sorted((k for k in model.effects if k), key=lambda k: (len(k), k)):
        T = model.effects[u].values
        W = w.table(u)
        if W.shape != T.shape:
            raise DomainError(f"weights for {u} have shape {W.shape}, tensor {T.shape}")
        _, _, worst = _slice_stats(T, W, _slice_weights(W))
        tensors.append(TensorPurity(u, worst, _pure(worst, tol, scale)))
    return PurityReport(tol, scale, tensors)
