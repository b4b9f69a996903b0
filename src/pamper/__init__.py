"""Proof-method recommendation from boolean proof-state features.

Train one regression tree per proof method on a database of observed
(method, feature vector) records, query the trained model for ranked
recommendations with decision-path explanations, and evaluate held-out
coincidence rates.

Each exported name, and each submodule such as ``pamper.trees``, is
imported when it is first used, so a command loads only the modules it
runs.
"""
import importlib

from . import errors

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in {
        "corpus": "Corpus FeatureCatalog corpus_stats parse_database parse_feature_catalog"
        " parse_vector parse_vectors serialize_database write_database",
        "evaluate": "EvaluationReport MethodEval SplitSpec render_csv render_fig2_csv"
        " render_fig3_csv render_table run_evaluation",
        "preprocess": "BinaryDataset single_target_split",
        "recommend": "Explanation ModelArena Recommendation batch_rank_method batch_why_method"
        " rank_method render_explanation render_rank render_recommendation which_method"
        " why_method write_which",
        "synth": "PlantedModel PlantedRule generate parse_planted_config zipf_imbalance",
        "trees": "Internal Leaf ModelSet TrainConfig TreeNode build_tree load_model"
        " model_from_text model_to_text save_model train tree_stats used_features",
    }.items()
    for name in names.split()
}
_SUBMODULES = {*_MODULE_OF.values(), "_format", "_kernels", "cli"}

__all__ = sorted([*_MODULE_OF, "errors"])


def __getattr__(name: str):
    # The result is not stored here: a caller that rebinds a module's
    # function (a test's monkeypatch, a tracer) must see the package follow.
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
