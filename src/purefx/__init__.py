"""Canonicalization of additive models with interactions via mass-moving.

Converts piecewise-constant additive models (tree-based GAMs with pairwise
interactions included) into the unique representation in which every effect
tensor has zero-mean slices under a chosen cell-weight density, without
changing any prediction.
"""

from .bins import FeatureBins, bin_index
from .density import (DensitySpec, dataset_from_csv, density_to_json,
                      estimate_density)
from .engine import (ConvergenceReport, PurityReport, WeightDensity,
                     check_purity, purify_model, required_subsets,
                     unpurified_mass)
from .errors import (DegenerateSliceError, DomainError, NonConvergenceError,
                     UnsupportedTreeError)
from .generators import (gen_boolean_fig1, gen_log_lambda, gen_multiplicative,
                         gen_random_bench, gen_wright)
from .model import (AdditiveModel, EffectTensor, GridDataset, effect_variance,
                    model_from_json, model_to_json, predict)
from .trees import (TreeEnsemble, TreeNode, collect_bins, ensemble_from_json,
                    ensemble_to_json, ingest_ensemble, tree_to_tensor)

__all__ = [
    "AdditiveModel", "ConvergenceReport", "DegenerateSliceError", "DensitySpec",
    "DomainError", "EffectTensor", "FeatureBins", "GridDataset",
    "NonConvergenceError", "PurityReport", "TreeEnsemble", "TreeNode",
    "UnsupportedTreeError", "WeightDensity", "bin_index", "check_purity",
    "collect_bins", "dataset_from_csv", "density_to_json", "effect_variance",
    "ensemble_from_json", "ensemble_to_json", "estimate_density",
    "gen_boolean_fig1", "gen_log_lambda", "gen_multiplicative",
    "gen_random_bench", "gen_wright", "ingest_ensemble", "model_from_json",
    "model_to_json", "predict", "purify_model", "required_subsets",
    "tree_to_tensor", "unpurified_mass",
]

__version__ = "0.1.0"
