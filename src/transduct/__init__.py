"""Graph transduction via simplex-constrained replicator dynamics.

Labels propagate from a small anchored set over a similarity graph by a
multiplicative update that keeps every sample's class distribution on the
probability simplex. Classic spreading / propagation / harmonic baselines
and the usual retrieval and clustering metrics are included, plus a CLI
(``transduct run|synth|eval``) operating on CSV files.
"""
import os as _os

# Honor TRANSDUCT_THREADS before numpy (and its BLAS) is first imported.
_threads = _os.environ.get("TRANSDUCT_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from . import errors
from .baselines import (
    BaselineConfig,
    harmonic_function,
    kmeans,
    label_propagation,
    label_spreading,
    label_spreading_closed_form,
    lloyd,
)
from .core import (
    UNLABELED,
    AnchorSet,
    AssignmentMatrix,
    EvaluationReport,
    FeatureSet,
    LabelSet,
    SimilarityMatrix,
    argmax_decode,
    one_hot,
    row_normalize,
)
from .dynamics import (
    DynamicsConfig,
    DynamicsTrace,
    consistency_functional,
    group_loss_value,
    replicator_step,
    replicator_step_elementwise,
    run_dynamics,
    support,
)
from .metrics import accuracy, macro_f1, nmi, recall_at_k
from .pipeline import RunConfig, ingest, run_eval, run_pipeline
from .priors import (
    PriorConfig,
    apply_class_mask,
    inject_anchors,
    softmax_with_temperature,
    uniform_prior,
)
from .similarity import handle_negatives, knn_graph, pearson_matrix, sparsify_knn
from .synth import BlobSpec, make_synthetic, true_centroids

__version__ = "0.1.0"

__all__ = [
    "UNLABELED",
    "AnchorSet",
    "AssignmentMatrix",
    "BaselineConfig",
    "BlobSpec",
    "DynamicsConfig",
    "DynamicsTrace",
    "EvaluationReport",
    "FeatureSet",
    "LabelSet",
    "PriorConfig",
    "RunConfig",
    "SimilarityMatrix",
    "accuracy",
    "apply_class_mask",
    "argmax_decode",
    "consistency_functional",
    "errors",
    "group_loss_value",
    "handle_negatives",
    "harmonic_function",
    "ingest",
    "inject_anchors",
    "kmeans",
    "knn_graph",
    "label_propagation",
    "label_spreading",
    "label_spreading_closed_form",
    "lloyd",
    "macro_f1",
    "make_synthetic",
    "nmi",
    "one_hot",
    "pearson_matrix",
    "recall_at_k",
    "replicator_step",
    "replicator_step_elementwise",
    "row_normalize",
    "run_dynamics",
    "run_eval",
    "run_pipeline",
    "softmax_with_temperature",
    "sparsify_knn",
    "support",
    "true_centroids",
    "uniform_prior",
]
