"""Canonicalization of additive models with interactions via mass-moving.

Converts piecewise-constant additive models (tree-based GAMs with pairwise
interactions included) into the unique representation in which every effect
tensor has zero-mean slices under a chosen cell-weight density, without
changing any prediction.

Public names load their submodule, and numpy with it, on first use, so that
``purefx.cli`` can configure numpy before anything imports it.
"""

import importlib

# Public name -> the submodule that defines it.
_SUBMODULE = {
    **dict.fromkeys(("FeatureBins", "bin_index"), "bins"),
    **dict.fromkeys(("DensitySpec", "dataset_from_csv", "density_to_json",
                     "estimate_density"), "density"),
    **dict.fromkeys(("ConvergenceReport", "PurityReport", "WeightDensity",
                     "check_purity", "purify_model", "required_subsets",
                     "unpurified_mass"), "engine"),
    **dict.fromkeys(("DegenerateSliceError", "DomainError",
                     "NonConvergenceError", "UnsupportedTreeError"), "errors"),
    **dict.fromkeys(("gen_boolean_fig1", "gen_log_lambda", "gen_multiplicative",
                     "gen_random_bench", "gen_wright"), "generators"),
    **dict.fromkeys(("AdditiveModel", "EffectTensor", "GridDataset",
                     "effect_variance", "model_from_json", "model_to_json",
                     "predict"), "model"),
    **dict.fromkeys(("TreeEnsemble", "TreeNode", "collect_bins",
                     "ensemble_from_json", "ensemble_to_json",
                     "ingest_ensemble", "tree_to_tensor"), "trees"),
}

__all__ = sorted(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SUBMODULE[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value
