"""Curriculum training toolkit: difficulty scoring from training dynamics,
discrete and continuous schedulers, and a reproducible experiment pipeline
for small text classifiers."""

from .corpus import Corpus, SynthSpec, featurize, generate_synthetic, tokenize
from .curricula import (
    AnnealingSampler,
    CompetenceSampler,
    RandomSampler,
    build_annealing_plan,
    build_competence_plan,
    competence,
)
from .difficulty import (
    CrossReviewConfig,
    DifficultyScores,
    cross_review,
    from_td,
    length_metric,
    perplexity_metric,
    rarity_metric,
)
from .dynamics import TDStats, compute_all
from .trainer import ModelParams, Probes, RunLog, TrainConfig, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Corpus", "SynthSpec", "tokenize", "featurize", "generate_synthetic",
    "TrainConfig", "ModelParams", "Probes", "RunLog", "train", "evaluate",
    "TDStats", "compute_all",
    "DifficultyScores", "CrossReviewConfig", "from_td", "cross_review",
    "length_metric", "rarity_metric", "perplexity_metric",
    "competence", "build_annealing_plan", "build_competence_plan",
    "RandomSampler", "AnnealingSampler", "CompetenceSampler",
    "__version__",
]
