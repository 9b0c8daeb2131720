"""Canonicalization of additive models with interactions via mass-moving.

Converts piecewise-constant additive models (tree-based GAMs with pairwise
interactions included) into the representation in which every effect tensor
has zero-mean slices under a chosen cell-weight density, without changing any
prediction.  Where the weights determine it, it is unique on their support;
on sparse weights it is the sweep's documented fixed point.

Public names load their submodule, and numpy with it, on first use, so that
``purefx.cli`` can configure numpy before anything imports it.
"""

import importlib

# Public name -> the submodule that defines it.
_SUBMODULE = {
    **dict.fromkeys(("FeatureBins", "bin_index"), "bins"),
    **dict.fromkeys(("dataset_from_csv", "density_to_json",
                     "estimate_density"), "density"),
    **dict.fromkeys(("ConvergenceReport", "check_purity", "effect_variance",
                     "purify_model", "required_subsets"), "engine"),
    **dict.fromkeys(("DegenerateSliceError", "DomainError",
                     "NonConvergenceError"), "errors"),
    **dict.fromkeys(("gen_boolean_fig1", "gen_log_lambda", "gen_multiplicative",
                     "gen_random_bench", "gen_wright"), "generators"),
    **dict.fromkeys(("AdditiveModel", "EffectTensor", "model_from_json",
                     "model_to_json", "predict"), "model"),
    **dict.fromkeys(("TreeEnsemble", "TreeNode", "ensemble_from_json",
                     "ingest_ensemble"), "trees"),
}

__all__ = sorted(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SUBMODULE[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value
