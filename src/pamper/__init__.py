"""Proof-method recommendation from boolean proof-state features.

Train one regression tree per proof method on a database of observed
(method, feature vector) records, query the trained model for ranked
recommendations with decision-path explanations, and evaluate held-out
coincidence rates.
"""
from . import errors
from .corpus import (
    Corpus,
    FeatureCatalog,
    corpus_stats,
    parse_database,
    parse_feature_catalog,
    parse_vector,
    parse_vectors,
    serialize_database,
)
from .evaluate import (
    EvaluationReport,
    MethodEval,
    SplitSpec,
    render_csv,
    render_fig2_csv,
    render_fig3_csv,
    render_table,
    run_evaluation,
    split_corpus,
)
from .preprocess import BinaryDataset, single_target_split
from .recommend import (
    Explanation,
    ModelArena,
    Recommendation,
    batch_rank_method,
    batch_why_method,
    rank_method,
    render_explanation,
    render_rank,
    render_recommendation,
    which_method,
    why_method,
    write_which,
)
from .synth import PlantedModel, PlantedRule, generate, parse_planted_config, zipf_imbalance
from .trees import (
    Internal,
    Leaf,
    ModelSet,
    TrainConfig,
    TreeNode,
    build_tree,
    load_model,
    model_from_text,
    model_to_text,
    save_model,
    train,
    tree_stats,
    used_features,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryDataset",
    "Corpus",
    "EvaluationReport",
    "Explanation",
    "FeatureCatalog",
    "Internal",
    "Leaf",
    "MethodEval",
    "ModelArena",
    "ModelSet",
    "PlantedModel",
    "PlantedRule",
    "Recommendation",
    "SplitSpec",
    "TrainConfig",
    "TreeNode",
    "batch_rank_method",
    "batch_why_method",
    "build_tree",
    "corpus_stats",
    "errors",
    "generate",
    "load_model",
    "model_from_text",
    "model_to_text",
    "parse_database",
    "parse_feature_catalog",
    "parse_planted_config",
    "parse_vector",
    "parse_vectors",
    "rank_method",
    "render_csv",
    "render_explanation",
    "render_fig2_csv",
    "render_fig3_csv",
    "render_rank",
    "render_recommendation",
    "render_table",
    "run_evaluation",
    "save_model",
    "serialize_database",
    "single_target_split",
    "split_corpus",
    "train",
    "tree_stats",
    "used_features",
    "which_method",
    "why_method",
    "write_which",
    "zipf_imbalance",
]
