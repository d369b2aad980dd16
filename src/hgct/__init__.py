"""Rigid 3D registration from noisy point correspondences.

The pipeline builds a second-order compatibility hypergraph over putative
correspondences, refines its structure and per-correspondence confidences
with a small hypergraph network, and estimates the 6-DoF pose by guided
minimal-set sampling with truncated-MAE verification.
"""

from .compat import CompatConfig, CompatGraph, GraphOrder, build_compat_graph
from .errors import (ConfigError, DegenerateInput, EmptyGraph, HgctError,
                     NoEdges, NoHypothesis, NonFinite)
from .geom import (CorrSet, RigidTransform, kabsch_svd, residuals, rotation_error_deg,
                   translation_error)
from .hgnn import (ForwardTrace, HgnnParams, forward, init_params, load_checkpoint,
                   save_checkpoint)
from .hypergraph import gt_hypergraph, hyperedge_precision, init_hypergraph
from .metrics import MetricThresholds, PairResult, aggregate, inlier_metrics
from .pipeline import Hypothesis, PipelineConfig, gf_nms, register
from .train import (SynthConfig, TrainConfig, gen_scene, joint_loss, loss_class,
                    loss_graph, loss_match, train)

__version__ = "0.1.0"

__all__ = [
    "CompatConfig", "CompatGraph", "GraphOrder", "build_compat_graph",
    "ConfigError", "DegenerateInput", "EmptyGraph", "HgctError", "NoEdges",
    "NoHypothesis", "NonFinite",
    "CorrSet", "RigidTransform", "kabsch_svd", "residuals", "rotation_error_deg",
    "translation_error",
    "ForwardTrace", "HgnnParams", "forward", "init_params", "load_checkpoint",
    "save_checkpoint",
    "gt_hypergraph", "hyperedge_precision", "init_hypergraph",
    "MetricThresholds", "PairResult", "aggregate", "inlier_metrics",
    "Hypothesis", "PipelineConfig", "gf_nms", "register",
    "SynthConfig", "TrainConfig", "gen_scene", "joint_loss", "loss_class",
    "loss_graph", "loss_match", "train",
    "__version__",
]
