"""The mass-moving purifier: slice means, per-tensor centering, and the cascade.

A tensor is pure when every 1-D slice has zero weighted mean; numerically,
when every positive-weight slice mean is within ``tol * scale``, where
``scale`` is the model's largest |value| in any non-intercept effect.  The
sweep and ``check_purity`` use that one rule.  Purification repeatedly
subtracts slice means and deposits them into the tensor over the remaining
variables, so model predictions never change.  Mass cascades from high-order
tensors through lower orders and terminates in the intercept.

The sweep is backfitting (Buja, Hastie & Tibshirani 1989) on running partial
sums.  Per tensor it keeps every axis's weighted slice sums end to end in one
flat buffer, beside a matching flat vector of slice weights and a flat buffer
of the deposits made along each axis, so the trace mass and the worst mean
are each one call over the whole buffer.  An axis step updates the other
axes' sums with one batched matmul each, over a layout of the weights made
once per tensor, instead of rewriting and re-reducing the whole tensor.  The
deposits reach the lower-order targets once, when the tensor's sweep ends.
The tensor is rebuilt from its deposits only to decide the stop, which is
exact: its worst slice mean is recomputed from the rebuilt tensor, as
``check_purity`` computes it.

Once a pass fails to halve the unpurified mass, each pass is Anderson-mixed
with the last ten (``_Anderson``), which cuts the passes a slow tensor takes
about tenfold.  Where the weights determine the purified model it is unique
on their support.  On sparse weights they may not: lower-order effects can
then depend on the top tensor's zero-weight cells, so the result is the
sweep's fixed point from zero deposits in its fixed axis order.  Mixing
keeps that point.  For block Gauss-Seidel with splitting ``D + L`` that
point is the one solution of the normal equations ``A d = b`` in
``(D + L)^-1 range(A)``; every pass output lies in that subspace, and so
does every affine combination of pass outputs.
"""

from __future__ import annotations

import itertools
import math
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


def _views(flat: np.ndarray, shape: tuple[int, ...]) -> list[np.ndarray]:
    """One view of ``flat`` per axis ``a``, shaped like ``shape`` without ``a``."""
    views, start = [], 0
    for axis in range(len(shape)):
        sub = shape[:axis] + shape[axis + 1:]
        stop = start + math.prod(sub)
        views.append(flat[start:stop].reshape(sub))
        start = stop
    return views


def _slice_sums(A: np.ndarray) -> np.ndarray:
    """``A.sum(axis)`` for every axis, laid end to end in one flat buffer.

    ``_slice_sums(W * T)`` is the weighted slice sums of ``T`` and
    ``_slice_sums(W)`` its raw slice weights; ``_views`` splits either by axis.
    """
    flat = np.empty(sum(A.size // n for n in A.shape))
    for axis, view in enumerate(_views(flat, A.shape)):
        A.sum(axis=axis, out=view)
    return flat


def _slice_weights(wsum: np.ndarray) -> np.ndarray:
    """The raw slice weights ``wsum``, with 1 in place of each zero.

    A zero-weight slice holds no mass: its weighted sum is exactly 0 (tensor
    values are finite), so dividing by 1 gives it mean 0, and it neither
    moves anything nor counts toward the mass or the worst mean.
    """
    return np.where(wsum > 0.0, wsum, 1.0)


def _mass(sums: np.ndarray, wflat: np.ndarray) -> float:
    """Slice weight times |weighted slice sum|, over every slice of every axis.

    For a matrix that is exactly sum_ij w_ij (|r_i| + |c_j|).
    """
    return float(wflat @ np.abs(sums))


def _worst(sums: np.ndarray, wflat: np.ndarray) -> float:
    """Largest |slice mean|; zero-weight slices have mean 0."""
    return float(np.max(np.abs(sums / wflat), initial=0.0))


def _scale(tensors) -> float:
    """Largest |value| in any non-intercept effect; 0 if there is none."""
    return max((float(np.max(np.abs(v))) for u, v in tensors.items() if u),
               default=0.0)


def _pure(worst: float, tol: float, scale: float) -> bool:
    """The purity rule shared by the sweep and ``check_purity``."""
    return worst <= tol * scale


def _cascade_order(u: Subset):
    """Sort key of the cascade and the purity report: highest order first,
    lexicographic within an order."""
    return (-len(u), u)


def unpurified_mass(tensor: EffectTensor, w: WeightDensity) -> float:
    wt = w.table(tensor.vars)
    if wt.shape != tensor.values.shape:
        raise DomainError("weight/tensor shape mismatch")
    return _mass(_slice_sums(wt * tensor.values), _slice_weights(_slice_sums(wt)))


# The running slice means drift from the built tensor's own by rounding, the
# mixing's included: by at most 8.3e-3 of the limit over the 84-92 passes
# before the first check on sparse 32^3 and 50^3 tensors, and by at most
# 2.3e-4 over one pass after a resync.  So the exact check runs on every
# pass whose running worst mean is within twice the limit.
_CHECK_MARGIN = 2.0

_DEPTH = 10  # passes a mixed pass combines; 8 to 20 took 0.6-1.2x the passes


def _centered(T0: np.ndarray, deposits: list[np.ndarray]) -> np.ndarray:
    """``T0`` minus each axis's accumulated deposits, broadcast along that axis."""
    T = T0
    for axis in reversed(range(len(deposits))):
        T = T - np.expand_dims(deposits[axis], axis)
    return T


class _Anderson:
    """Anderson type-II mixing of the sweep's pass map (Walker & Ni 2011).

    The state is the flat deposit buffer.  A pass from deposits ``x`` gives
    its output ``g`` (the deposits after it), its running sums ``s`` and its
    step ``f = g - x`` (the means it deposited).  Row ``r`` of ``diffs``
    holds one of the last ``_DEPTH`` differences between consecutive passes'
    ``g``, ``s`` and ``f``, all three divided by the largest |entry| of the
    ``f`` difference, and ``gram`` holds the weighted inner products of the
    ``f`` rows.  ``mix`` finds the ``gamma`` that minimises
    ``||sqrt(weights) * (f - dF gamma)||`` and sets the deposits to
    ``g - dG gamma`` and the sums to ``s - dS gamma``.  The sums are affine
    in the deposits, so mixing them needs no weight contraction.
    """

    def __init__(self, weights: np.ndarray):
        self.weights = weights
        self.diffs = np.empty((3, _DEPTH, weights.size))
        self.last = np.empty((3, weights.size))
        self.gram = np.empty((_DEPTH, _DEPTH))
        self.passes = 0  # passes recorded since the history was last cleared

    def mix(self, deposits: np.ndarray, sums: np.ndarray, step: np.ndarray) -> None:
        """Record one pass, then mix ``deposits`` and ``sums`` in place."""
        dG, dS, dF = self.diffs
        k = min(self.passes, _DEPTH)  # differences held once this pass is in
        if k:
            r = (self.passes - 1) % _DEPTH
            for diff, now, last in zip(self.diffs[:, r], (deposits, sums, step),
                                       self.last):
                np.subtract(now, last, out=diff)
            top = np.max(np.abs(dF[r]))
            if top > 0.0:
                self.diffs[:, r] /= top
            else:
                self.diffs[:, r] = 0.0
            self.gram[r, :k] = self.gram[:k, r] = dF[:k] @ (self.weights * dF[r])
        self.last[:] = deposits, sums, step
        self.passes += 1
        if k:
            # lstsq drops the directions a nearly singular gram cannot
            # resolve, where a solve would raise or return noise.
            gamma = np.linalg.lstsq(self.gram[:k, :k],
                                    dF[:k] @ (self.weights * step), rcond=None)[0]
            deposits -= gamma @ dG[:k]
            sums -= gamma @ dS[:k]


def _contractions(W: np.ndarray, S: list[np.ndarray]) -> list[list[tuple]]:
    """Per step axis ``a``, one ``(m_axes, Wt, s)`` per other axis ``j``.

    Subtracting means ``m`` (laid out over every axis but ``a``) along ``a``
    lowers ``S[j]`` by the sum over axis ``j`` of ``W * m``.  That is one
    batched matmul ``m.transpose(m_axes)[..., None, :] @ Wt``, with ``Wt``
    the weights as (batch..., j, a), the batch being the axes other than
    ``a`` and ``j`` in order, and the result lands in ``s``, ``S[j]`` viewed
    as (batch..., a).  A transposed view of ``W`` is BLAS-able when ``a`` or
    ``j`` is its last axis; otherwise the pair's layout is copied once, and
    ``(a, j)`` and ``(j, a)`` share it, one as the other's inner transpose.
    """
    k = W.ndim
    layouts = {}
    plans = []
    for a in range(k):
        plan = []
        for j in range(k):
            if j == a:
                continue
            lo, hi = sorted((a, j))
            batch = [b for b in range(k) if b not in (a, j)]
            if (lo, hi) not in layouts:
                layout = W.transpose(batch + [lo, hi])
                layouts[lo, hi] = (layout if hi == k - 1
                                   else np.ascontiguousarray(layout))
            Wt = layouts[lo, hi] if j < a else layouts[lo, hi].swapaxes(-1, -2)
            m_axes = [x - (x > a) for x in batch + [j]]
            s = S[j].transpose([x - (x > j) for x in batch + [a]])
            plan.append((m_axes, Wt, s))
        plans.append(plan)
    return plans


def _purify_subset(tensors: dict[Subset, np.ndarray], w: WeightDensity, u: Subset,
                   tol: float, scale: float, max_passes: int,
                   strict: bool) -> ConvergenceReport:
    """Center every slice of ``tensors[u]``, depositing means one order down.

    Mutates ``tensors`` in place; lower-order targets are created as zeros
    when absent.  ``w`` must cover every deposit target: ``purify_model``
    checks every required subset before it mutates anything.  The sweep
    works on the deposits, not on the tensor.  It keeps the running slice
    sums ``S[a] = (W * T).sum(a)`` of every axis end to end in one flat
    buffer, with a matching flat vector of slice weights and a third flat
    buffer of the deposits accumulated along each axis (``_views`` gives the
    per-axis views of each).  An axis step takes its means ``m`` from
    ``S[axis]``, adds them to the axis's deposits, subtracts ``wsum * m``
    from ``S[axis]`` and one batched weight contraction of ``m`` (laid out
    once per tensor by ``_contractions``) from each other axis's sums, and
    records the trace mass of the whole buffer.  The tensor, ``T0`` minus
    every axis's accumulated deposits, is built only when the running sums
    say it may be pure.  From the first pass that does not halve the trace
    mass over its axis steps on, each pass ends by mixing the deposits and
    sums with ``_Anderson``, and its last trace row then holds the mixed
    mass; a mixed pass counts as one pass against ``max_passes``.  The stop
    is exact: the sweep ends after the first full pass whose built tensor
    is pure under ``_pure(worst, tol, scale)``, with its worst mean
    recomputed from that tensor as ``check_purity`` does.  Otherwise the
    sums are resynced from the built tensor, the mixing history is cleared
    and the sweep goes on.  When the sweep ends, converged or not, each
    axis's deposits are added to their target once.
    """
    T0 = tensors[u]
    W = w.table(u)
    if W.shape != T0.shape:
        raise DomainError(f"weights for {u} have shape {W.shape}, tensor {T0.shape}")
    axes = range(len(u))
    wsum = _slice_sums(W)
    if strict:
        raw = _views(wsum, W.shape)
        for axis in reversed(axes):
            if not np.all(raw[axis] > 0.0):
                raise DegenerateSliceError(
                    f"zero-weight slice of {u} along {u[axis]!r}")

    wflat = _slice_weights(wsum)
    sums = _slice_sums(W * T0)
    deposits = np.zeros_like(sums)
    step = np.empty_like(sums)
    S, wsums, D, F = (_views(flat, W.shape) for flat in (sums, wflat, deposits, step))
    plans = _contractions(W, S)
    trace = [(0, _mass(sums, wflat))]
    passes = 0
    pure = False
    anderson = None
    while not pure and passes < max_passes:
        passes += 1
        # Sweep the last axis first so deposits land in the lexicographically
        # smallest remaining subset first.  The order is part of the result:
        # on sparse weights another order can reach another fixed point.
        for axis in reversed(axes):
            m = np.divide(S[axis], wsums[axis], out=F[axis])
            D[axis] += m
            S[axis] -= wsums[axis] * m
            for m_axes, Wt, s in plans[axis]:
                s -= (m.transpose(m_axes)[..., None, :] @ Wt)[..., 0, :]
            trace.append((len(trace), _mass(sums, wflat)))
        if anderson is None and trace[-1][1] > 0.5 * trace[-1 - len(u)][1]:
            anderson = _Anderson(wflat)
        if anderson is not None:
            anderson.mix(deposits, sums, step)
            trace[-1] = (trace[-1][0], _mass(sums, wflat))
        if _worst(sums, wflat) <= _CHECK_MARGIN * tol * scale:
            T = _centered(T0, D)
            sums[:] = _slice_sums(W * T)
            pure = _pure(_worst(sums, wflat), tol, scale)
            if anderson is not None:
                anderson.passes = 0
    if not pure:
        T = _centered(T0, D)
    tensors[u] = T
    for axis in reversed(axes):
        sub = u[:axis] + u[axis + 1:]
        tensors[sub] = tensors.get(sub, 0.0) + D[axis]
    report = ConvergenceReport(u, trace, passes)
    if not pure:
        worst = _worst(_slice_sums(W * T), wflat)
        raise NonConvergenceError(
            f"tensor {u}: worst slice mean {worst:.3e} above limit "
            f"{tol * scale:.3e} after {passes} passes", report)
    return report


def required_subsets(model: AdditiveModel) -> list[Subset]:
    """Every effect subset plus everything reachable by removing features."""
    out: set[Subset] = set()
    for u in model.effects:
        for r in range(len(u) + 1):
            out.update(itertools.combinations(u, r))
    return sorted(out, key=lambda u: (len(u), u))


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise DomainError(f"tol must be finite and >= 0, not {tol!r}")


def purify_model(model: AdditiveModel, w: WeightDensity, tol: float = 1e-12,
                 max_passes: int = MAX_PASSES, strict: bool = False):
    """Purify every tensor of the model; returns (model, reports).

    The one purification call.  It walks every nonempty required subset
    once, highest order first and lexicographic within an order; ``reports``
    is keyed in that order.  The first pass over a tensor creates the
    lower-order tensors it deposits into, which are then purified in turn;
    all moved mass ends in the intercept.  ``tol`` is relative to the input
    model's scale (its largest |effect value|); it must be finite and >= 0,
    and ``max_passes`` at least 1.
    """
    _check_tol(tol)
    if max_passes < 1:
        raise DomainError(f"max_passes must be at least 1, not {max_passes}")
    required = required_subsets(model)
    missing = [u for u in required if not w.covers(u)]
    if missing:
        raise DomainError(f"weight density missing subsets: {missing}")

    tensors = {u: np.array(e.values, dtype=float) for u, e in model.effects.items()}
    scale = _scale(tensors)
    reports: dict[Subset, ConvergenceReport] = {}
    for u in sorted(filter(None, required), key=_cascade_order):
        reports[u] = _purify_subset(tensors, w, u, tol, scale, max_passes,
                                    strict)
    effects = {u: EffectTensor(u, v) for u, v in tensors.items()}
    return AdditiveModel(model.bins, effects), reports


def check_purity(model: AdditiveModel, w: WeightDensity, tol: float = 1e-10) -> PurityReport:
    """Report the worst absolute weighted slice mean of every non-intercept tensor.

    A tensor passes under the sweep's own rule, with ``tol`` relative to this
    model's scale (its largest |effect value|); ``tol`` must be finite and
    >= 0.
    """
    _check_tol(tol)
    scale = _scale({u: e.values for u, e in model.effects.items()})
    tensors = []
    for u in sorted(filter(None, model.effects), key=_cascade_order):
        T = model.effects[u].values
        W = w.table(u)
        if W.shape != T.shape:
            raise DomainError(f"weights for {u} have shape {W.shape}, tensor {T.shape}")
        worst = _worst(_slice_sums(W * T), _slice_weights(_slice_sums(W)))
        tensors.append(TensorPurity(u, worst, _pure(worst, tol, scale)))
    return PurityReport(tol, scale, tensors)
