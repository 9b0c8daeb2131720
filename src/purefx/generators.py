"""Synthetic models: Boolean truth-table variants, SNP generators, the
multiplicative and log-blend models, and random matrices for convergence
benchmarks."""

from __future__ import annotations

import numpy as np

from .bins import FeatureBins
from .errors import DomainError
from .model import AdditiveModel, EffectTensor

WRIGHT_COEFFS = {
    "Interaction Only": (0.0, 0.0, 1.0),
    "Modifier SNP": (0.0, 1.0, 1.0),
    "No Interaction": (1.0, 1.0, 0.0),
    "Redundant": (1.0, 1.0, -1.0),
    "Synergistic": (1.0, 1.0, 1.0),
}

# Boolean two-feature variants: intercept, x1 main, x2 main, pair [x1][x2].
# All four compute the same function; row "d" is the canonical form.
FIG1_ROWS = {
    "a": (0.25, (-0.25, 0.25), (-0.25, 0.25), ((0.0, 0.0), (0.0, -1.0))),
    "b": (-0.75, (0.25, -0.25), (0.25, -0.25), ((0.0, 1.0), (1.0, 1.0))),
    "c": (-0.25, (0.0, 0.0), (0.0, 0.0), ((0.0, 0.5), (0.5, 0.0))),
    "d": (0.0, (0.0, 0.0), (0.0, 0.0), ((-0.25, 0.25), (0.25, -0.25))),
}


def _boolean_bins(x1: str, x2: str):
    return tuple(FeatureBins(n, "continuous", edges=(0.5,)) for n in (x1, x2))


def _unit_grid(n: int):
    return unit_grid_bins("x1", n), unit_grid_bins("x2", n)


def _pair_model(bins, f0, f1, f2, f12) -> AdditiveModel:
    """The model over two features' ``bins``: intercept ``f0``, mains ``f1``
    and ``f2``, and pair ``f12`` indexed [x1][x2]."""
    x1, x2 = (b.feature_name for b in bins)
    return AdditiveModel(bins, [
        EffectTensor((), f0), EffectTensor((x1,), f1),
        EffectTensor((x2,), f2), EffectTensor((x1, x2), f12)])


def gen_boolean_fig1(row: str) -> AdditiveModel:
    """One of the four equivalent Boolean additive-with-interaction variants."""
    if row not in FIG1_ROWS:
        raise DomainError(f"unknown row {row!r}; expected one of a, b, c, d")
    return _pair_model(_boolean_bins("x1", "x2"), *FIG1_ROWS[row])


def gen_wright(name: str) -> AdditiveModel:
    """Two-SNP Boolean generator: coefficients on the =1 indicators and product."""
    if name not in WRIGHT_COEFFS:
        raise DomainError(
            f"unknown generator {name!r}; expected one of {sorted(WRIGHT_COEFFS)}"
        )
    a1, a2, a12 = WRIGHT_COEFFS[name]
    return _pair_model(_boolean_bins("snp1", "snp2"), 0.0, (0.0, a1), (0.0, a2),
                       ((0.0, 0.0), (0.0, a12)))


def unit_grid_bins(name: str, n: int) -> FeatureBins:
    """Uniform n-cell binning of (0, 1]: interior edges k/n."""
    if n < 2:
        raise DomainError("grid size must be >= 2")
    return FeatureBins(name, "continuous", edges=tuple(k / n for k in range(1, n)))


def unit_grid_midpoints(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def gen_multiplicative(a: float, b: float, c: float, d: float,
                       alpha: float, beta: float, n: int) -> AdditiveModel:
    """The product model a + b*x1 + c*x2 + d*x1*x2 split with shifts alpha, beta.

    Different (alpha, beta) give different unpurified tensors for the same
    function: intercept a - d*alpha*beta, mains (b + d*beta)*x1 and
    (c + d*alpha)*x2, interaction d*(x1 - alpha)*(x2 - beta), all tabulated
    at the cell midpoints.
    """
    m = unit_grid_midpoints(n)
    return _pair_model(_unit_grid(n), a - d * alpha * beta, (b + d * beta) * m,
                       (c + d * alpha) * m, d * np.outer(m - alpha, m - beta))


def gen_log_lambda(lam: float, n: int) -> AdditiveModel:
    """Blend (1-lam)*log(x1*x2) + lam*(x1*x2), tabulated as one 2-D tensor.

    Mains and intercept start at zero; purification distributes the signal.
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError("lambda must lie in [0, 1]")
    m = unit_grid_midpoints(n)
    prod = np.outer(m, m)
    y = (1.0 - lam) * np.log(prod) + lam * prod
    return _pair_model(_unit_grid(n), 0.0, np.zeros(n), np.zeros(n), y)


def gen_random_bench(sigma: float, p: int, weight_mode: str, seed: int):
    """Seeded normal P-by-P pair over zero mains, plus a matching weight
    density; returns ``(model, w)``.

    Weight mode "uniform" gives constant weights; "random" takes the absolute
    value of normal draws (densities must be nonnegative) and normalizes.
    Marginal tables are the sums of the joint, so the cascade stays consistent.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise DomainError(f"sigma must be finite and positive, not {sigma!r}")
    bins = _unit_grid(p)
    if weight_mode not in ("uniform", "random"):
        raise DomainError(f"unknown weight mode {weight_mode!r}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, not {seed}")
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, sigma, size=(p, p))
    if weight_mode == "uniform":
        joint = np.full((p, p), 1.0 / (p * p))
    else:
        joint = np.abs(rng.normal(0.0, sigma, size=(p, p)))
        joint /= joint.sum()
    model = _pair_model(bins, 0.0, np.zeros(p), np.zeros(p), values)
    w = {
        ("x1", "x2"): joint,
        ("x1",): joint.sum(axis=1),
        ("x2",): joint.sum(axis=0),
    }
    return model, w
