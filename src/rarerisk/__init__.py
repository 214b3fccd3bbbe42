"""rarerisk: studying rare binary outcomes through three chained
algorithms. A cost-weighted boosted model scores risk, a genetic search
breeds a synthetic population of maximal-risk predictor profiles, and
agglomerative clustering plus commonality / reverse-coding importance
summarize what those profiles share."""

__version__ = "0.1.0"

from .analysis import (
    CommonalityReport,
    ReverseCodingReport,
    SwitchClass,
    commonality_importance,
    nearest_match,
    reverse_coding_importance,
)
from .boosting import (
    BoostConfig,
    BoostModel,
    ConfusionTable,
    RegressionTree,
    confusion,
    fit_boost,
    fit_boost_cv,
    in_sample_importance,
    load_model,
    save_model,
)
from .clustering import (
    Dendrogram,
    DissimilarityMatrix,
    agglomerative_coefficient,
    agnes_average_linkage,
    cut_clusters,
    dendrogram_to_newick,
    gower_binary_dissimilarity,
)
from .dataset import (
    DataSet,
    PredictorSchema,
    SynthSpec,
    base_rate,
    load_csv,
    split_train_test,
    synthesize,
    write_csv,
)
from .errors import RareRiskError
from .genetic import (
    GaConfig,
    GaTrace,
    Population,
    evolve,
    load_population_csv,
    mutate,
    save_population_csv,
)
from .logistic import LogisticModel, fit_logistic, predict_logistic
from .pipeline import (
    PipelineConfig,
    RunManifest,
    load_config,
    run_pipeline,
    verify_manifest,
)

__all__ = [
    "__version__",
    "BoostConfig",
    "BoostModel",
    "CommonalityReport",
    "ConfusionTable",
    "DataSet",
    "Dendrogram",
    "DissimilarityMatrix",
    "GaConfig",
    "GaTrace",
    "LogisticModel",
    "PipelineConfig",
    "Population",
    "PredictorSchema",
    "RareRiskError",
    "RegressionTree",
    "ReverseCodingReport",
    "RunManifest",
    "SwitchClass",
    "SynthSpec",
    "agglomerative_coefficient",
    "agnes_average_linkage",
    "base_rate",
    "commonality_importance",
    "confusion",
    "cut_clusters",
    "dendrogram_to_newick",
    "evolve",
    "fit_boost",
    "fit_boost_cv",
    "fit_logistic",
    "gower_binary_dissimilarity",
    "in_sample_importance",
    "load_config",
    "load_csv",
    "load_model",
    "load_population_csv",
    "mutate",
    "nearest_match",
    "predict_logistic",
    "reverse_coding_importance",
    "run_pipeline",
    "save_model",
    "save_population_csv",
    "split_train_test",
    "synthesize",
    "verify_manifest",
    "write_csv",
]
