"""The mass-moving purifier: slice means, per-tensor centering, and the cascade.

A tensor is pure when every 1-D slice has zero weighted mean; numerically,
when every positive-weight slice mean is within ``tol * scale``, where
``scale`` is the model's largest |value| in any non-intercept effect.  The
sweep and ``check_purity`` use that one rule.  Purification repeatedly
subtracts slice means and deposits them into the tensor over the remaining
variables, so model predictions never change.  Mass cascades from high-order
tensors through lower orders and terminates in the intercept.

The sweep is backfitting (Buja, Hastie & Tibshirani 1989) on running partial
sums.  Per tensor it keeps each axis's weighted slice sums and the deposits
made along each axis, and updates the sums with one weight contraction per
other axis instead of rewriting and re-reducing the whole tensor.  The
tensor is rebuilt from its deposits only to decide the stop, which is exact:
its worst slice mean is recomputed from the rebuilt tensor, as
``check_purity`` computes it.
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


def _slice_sums(T: np.ndarray, W: np.ndarray) -> list[np.ndarray]:
    """``(W * T).sum(axis)`` for every axis: the weighted slice sums."""
    WT = W * T
    return [np.asarray(WT.sum(axis=axis)) for axis in range(W.ndim)]


def _slice_weights(W: np.ndarray) -> list[np.ndarray]:
    """``W.sum(axis)`` for every axis, with 1 in place of each zero.

    A zero-weight slice holds no mass: its weighted sum is exactly 0 (tensor
    values are finite), so dividing by 1 gives it mean 0, and it neither
    moves anything nor counts toward the mass or the worst mean.
    """
    return [np.where(wsum > 0.0, wsum, 1.0)
            for wsum in (W.sum(axis=axis) for axis in range(W.ndim))]


def _mass(sums, wsums) -> float:
    """Sum over axes of slice weight times |weighted slice sum|.

    For a matrix that is exactly sum_ij w_ij (|r_i| + |c_j|).
    """
    return sum(float(np.add.reduce(wsum * np.abs(ssum), axis=None))
               for ssum, wsum in zip(sums, wsums))


def _worst(sums, wsums) -> float:
    """Largest |slice mean|; zero-weight slices have mean 0."""
    return max((float(np.max(np.abs(ssum / wsum)))
                for ssum, wsum in zip(sums, wsums)), default=0.0)


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
    return _mass(_slice_sums(tensor.values, wt), _slice_weights(wt))


# The running slice sums drift from the built tensor's own by rounding (about
# 2e-4 of the limit after 1000 passes over a sparse 32^3 tensor), so the exact
# check runs on every pass whose running worst mean is within twice the limit.
_CHECK_MARGIN = 2.0


def _centered(T0: np.ndarray, deposits: list[np.ndarray]) -> np.ndarray:
    """``T0`` minus each axis's accumulated deposits, broadcast along that axis."""
    T = T0
    for axis in reversed(range(len(deposits))):
        T = T - np.expand_dims(deposits[axis], axis)
    return T


def _purify_subset(tensors: dict[Subset, np.ndarray], w: WeightDensity, u: Subset,
                   tol: float, scale: float, max_passes: int,
                   strict: bool) -> ConvergenceReport:
    """Center every slice of ``tensors[u]``, depositing means one order down.

    Mutates ``tensors`` in place; lower-order targets are created as zeros
    when absent.  ``w`` must cover every deposit target: ``purify_model``
    checks every required subset before it mutates anything.  The sweep
    works on the deposits, not on the tensor: it keeps the running slice
    sums ``S[a] = (W * T).sum(a)`` for every axis.
    An axis step takes its means ``m`` from ``S[axis]``, deposits them,
    subtracts ``wsum * m`` from ``S[axis]`` and one weight contraction of
    ``m`` from each other axis's sums, and records the trace mass from
    ``S``.  The tensor, ``T0`` minus every axis's accumulated deposits, is
    built only when the running sums say it may be pure.  The stop is exact:
    the sweep ends after the first full pass whose built tensor is pure
    under ``_pure(worst, tol, scale)``, with its worst mean recomputed from
    that tensor as ``check_purity`` does.  Otherwise the sums are resynced
    from the built tensor and the sweep goes on.
    """
    T0 = tensors[u]
    W = w.table(u)
    if W.shape != T0.shape:
        raise DomainError(f"weights for {u} have shape {W.shape}, tensor {T0.shape}")
    if strict:
        for axis in reversed(range(len(u))):
            if not np.all(W.sum(axis=axis) > 0.0):
                raise DegenerateSliceError(
                    f"zero-weight slice of {u} along {u[axis]!r}")

    wsums = _slice_weights(W)
    axes = list(range(len(u)))
    rest = [axes[:a] + axes[a + 1:] for a in axes]
    S = _slice_sums(T0, W)
    deposits = [np.zeros(ssum.shape) for ssum in S]
    trace = [(0, _mass(S, wsums))]
    passes = 0
    while passes < max_passes:
        passes += 1
        # Sweep the last axis first so deposits land in the lexicographically
        # smallest remaining subset first; the converged result is the same
        # for any sweep order.
        for axis in reversed(axes):
            m = S[axis] / wsums[axis]
            sub = u[:axis] + u[axis + 1:]
            target = tensors.get(sub)
            if target is None:
                target = np.zeros(m.shape)
            tensors[sub] = target + m
            deposits[axis] += m
            S[axis] -= wsums[axis] * m
            for j in rest[axis]:
                S[j] -= np.einsum(W, axes, m, rest[axis], rest[j])
            trace.append((len(trace), _mass(S, wsums)))
        if _worst(S, wsums) <= _CHECK_MARGIN * tol * scale:
            T = _centered(T0, deposits)
            S = _slice_sums(T, W)
            if _pure(_worst(S, wsums), tol, scale):
                tensors[u] = T
                return ConvergenceReport(u, trace, passes)
    T = _centered(T0, deposits)
    tensors[u] = T
    worst = _worst(_slice_sums(T, W), wsums)
    raise NonConvergenceError(
        f"tensor {u}: worst slice mean {worst:.3e} above limit "
        f"{tol * scale:.3e} after {passes} passes",
        ConvergenceReport(u, trace, passes),
    )


def required_subsets(model: AdditiveModel) -> list[Subset]:
    """Every effect subset plus everything reachable by removing features."""
    out: set[Subset] = set()
    for u in model.effects:
        for r in range(len(u) + 1):
            out.update(itertools.combinations(u, r))
    return sorted(out, key=lambda u: (len(u), u))


def purify_model(model: AdditiveModel, w: WeightDensity, tol: float = 1e-12,
                 max_passes: int = MAX_PASSES, strict: bool = False):
    """Purify every tensor of the model; returns (model, reports).

    The one purification call.  It walks every nonempty required subset
    once, highest order first and lexicographic within an order; ``reports``
    is keyed in that order.  The first pass over a tensor creates the
    lower-order tensors it deposits into, which are then purified in turn;
    all moved mass ends in the intercept.  ``tol`` is relative to the input
    model's scale (its largest |effect value|).
    """
    required = required_subsets(model)
    missing = [u for u in required if not w.covers(u)]
    if missing:
        raise DomainError(f"weight density missing subsets: {missing}")

    tensors = {u: np.array(e.values, dtype=float) for u, e in model.effects.items()}
    scale = _scale(tensors)
    reports: dict[Subset, ConvergenceReport] = {}
    for u in sorted(filter(None, required), key=lambda u: (-len(u), u)):
        reports[u] = _purify_subset(tensors, w, u, tol, scale, max_passes,
                                    strict)
    effects = {u: EffectTensor(u, v) for u, v in tensors.items()}
    return AdditiveModel(model.bins, effects), reports


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
        worst = _worst(_slice_sums(T, W), _slice_weights(W))
        tensors.append(TensorPurity(u, worst, _pure(worst, tol, scale)))
    return PurityReport(tol, scale, tensors)
