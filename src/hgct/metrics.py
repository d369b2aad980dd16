"""Registration and outlier-removal metrics and their aggregation."""

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .compat import CompatConfig
from .errors import HgctError
from .geom import CorrSet, RigidTransform, pose_errors, residuals
from .hgnn import HgnnParams
from .pipeline import PipelineConfig, register


@dataclass(frozen=True)
class MetricThresholds:
    re_deg: float = 5.0
    te_m: float = 0.05
    theta_inlier: float = 0.1

    def __post_init__(self):
        if min(self.re_deg, self.te_m, self.theta_inlier) <= 0:
            raise ValueError("thresholds must be positive")


@dataclass
class PairResult:
    re_deg: float
    te_m: float
    success: bool
    ip: float
    ir: float
    f1: float
    runtime_s: float
    hyperedge_precision_before: Optional[float] = None
    hyperedge_precision_after: Optional[float] = None
    error: Optional[str] = None  # why the pipeline failed; None when it ran


def inlier_metrics(t_est: RigidTransform, corrs: CorrSet, gt: RigidTransform,
                   theta_inlier: float):
    """Inlier precision/recall/F1 of the residual-based inlier prediction.

    Predicted inliers: residual under t_est below theta_inlier; true inliers:
    residual under gt below theta_inlier. Empty sets yield zeros.
    """
    pred = residuals(t_est, corrs.src, corrs.tgt) < theta_inlier
    true = residuals(gt, corrs.src, corrs.tgt) < theta_inlier
    hit = int(np.sum(pred & true))
    ip = hit / int(np.sum(pred)) if np.any(pred) else 0.0
    ir = hit / int(np.sum(true)) if np.any(true) else 0.0
    f1 = 2.0 * ip * ir / (ip + ir) if (ip + ir) > 0 else 0.0
    return ip, ir, f1


def evaluate_pair(t_est: RigidTransform, corrs: CorrSet, th: MetricThresholds,
                  runtime_s: float = 0.0, hp_before: Optional[float] = None,
                  hp_after: Optional[float] = None) -> PairResult:
    if corrs.gt is None:
        raise ValueError("pair evaluation needs a ground-truth transform")
    re, te = pose_errors(t_est, corrs.gt)
    ip, ir, f1 = inlier_metrics(t_est, corrs, corrs.gt, th.theta_inlier)
    return PairResult(re_deg=re, te_m=te,
                      success=bool(re <= th.re_deg and te <= th.te_m),
                      ip=ip, ir=ir, f1=f1, runtime_s=runtime_s,
                      hyperedge_precision_before=hp_before,
                      hyperedge_precision_after=hp_after)


def aggregate(results: Sequence[PairResult], th: MetricThresholds) -> Dict:
    """Summary over pairs. RE/TE are averaged over successful pairs only and
    reported as None when nothing succeeded; IP/IR/F1 and runtime over all."""
    if not results:
        raise ValueError("no results to aggregate")
    n = len(results)
    succ = [r for r in results if r.success]
    summary = {
        "n_pairs": n,
        "rr": len(succ) / n,
        "mean_re_deg": float(np.mean([r.re_deg for r in succ])) if succ else None,
        "mean_te_m": float(np.mean([r.te_m for r in succ])) if succ else None,
        "mean_ip": float(np.mean([r.ip for r in results])),
        "mean_ir": float(np.mean([r.ir for r in results])),
        "mean_f1": float(np.mean([r.f1 for r in results])),
        "mean_runtime_s": float(np.mean([r.runtime_s for r in results])),
        "thresholds": {"re_deg": th.re_deg, "te_m": th.te_m,
                       "theta_inlier": th.theta_inlier},
    }
    hp_b = [r.hyperedge_precision_before for r in results
            if r.hyperedge_precision_before is not None]
    hp_a = [r.hyperedge_precision_after for r in results
            if r.hyperedge_precision_after is not None]
    if hp_b:
        summary["mean_hyperedge_precision_before"] = float(np.mean(hp_b))
    if hp_a:
        summary["mean_hyperedge_precision_after"] = float(np.mean(hp_a))
    return summary


def failed_pair(error: str, runtime_s: float = 0.0) -> PairResult:
    """A pair that could not be registered: inf errors, zero IP/IR/F1."""
    return PairResult(re_deg=float("inf"), te_m=float("inf"), success=False,
                      ip=0.0, ir=0.0, f1=0.0, runtime_s=runtime_s, error=error)


def evaluate_scene(corrs: CorrSet, params: HgnnParams, cc: CompatConfig,
                   pc: PipelineConfig, th: MetricThresholds) -> PairResult:
    """Register one pair and score it. A failed pipeline is a failed pair with
    inf errors, zero IP/IR/F1 and the error message."""
    t0 = time.perf_counter()
    try:
        t_est, diag = register(corrs, params, cc, pc)
    except HgctError as err:
        return failed_pair(str(err), runtime_s=time.perf_counter() - t0)
    return evaluate_pair(t_est, corrs, th, runtime_s=time.perf_counter() - t0,
                         hp_before=diag.get("hyperedge_precision_before"),
                         hp_after=diag.get("hyperedge_precision_after"))
