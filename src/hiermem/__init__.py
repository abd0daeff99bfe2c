"""Graph-level anomaly detection with a memory-augmented graph autoencoder."""

__version__ = "0.1.0"

from .data import (FoldSplit, Graph, GraphDataset, degree_features,
                   label_anomalies, make_er_dataset, make_folds, pad_batch,
                   parse_tudataset, write_tudataset)
from .errors import (CheckpointError, ConfigurationError, DatasetParseError,
                     StructuralError, TrainingDiverged)
from .evaluation import EvalReport, evaluate_auc, run_cv
from .model import (ModelConfig, ModelParams, init_params, load_params,
                    normalize_adjacency, save_params)
from .training import TrainConfig, score_graphs, train

__all__ = [
    "__version__",
    "Graph", "GraphDataset", "FoldSplit",
    "parse_tudataset", "write_tudataset", "degree_features", "label_anomalies",
    "make_folds", "pad_batch", "make_er_dataset",
    "ModelConfig", "ModelParams", "init_params", "normalize_adjacency",
    "save_params", "load_params",
    "TrainConfig", "train", "score_graphs",
    "EvalReport", "evaluate_auc", "run_cv",
    "DatasetParseError", "StructuralError", "ConfigurationError",
    "TrainingDiverged", "CheckpointError",
]
