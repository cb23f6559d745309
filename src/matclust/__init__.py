"""matclust: K-means clustering with a pluggable, parameterized distance layer.

Ships six distance kinds (including the design-specification family
``dsd``), min-max normalization, outlier profiling, and a deterministic
experiment harness for parameter sweeps and metric comparisons.
"""

__version__ = "0.1.0"

from .metrics import DistanceSpec, distance, pairwise_distances
from .normalize import FeatureStats, fit_transform, transform
from .kmeans import ClusteringConfig, ClusterModel, fit
from .evaluate import EvaluationReport, OutlierPolicy, evaluate
from .data import ClassSpec, Dataset, generate_synthetic, load_csv
from .sweep import SweepPlan, SweepResult, run_metric_comparison, run_p_sweep

__all__ = [
    "DistanceSpec",
    "distance",
    "pairwise_distances",
    "FeatureStats",
    "fit_transform",
    "transform",
    "ClusteringConfig",
    "ClusterModel",
    "fit",
    "EvaluationReport",
    "OutlierPolicy",
    "evaluate",
    "ClassSpec",
    "Dataset",
    "generate_synthetic",
    "load_csv",
    "SweepPlan",
    "SweepResult",
    "run_metric_comparison",
    "run_p_sweep",
]
