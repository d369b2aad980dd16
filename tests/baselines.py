"""Experiments about the registration pipeline that only the tests run.

The comparisons of the paper's ablations live here, not in the package:
plain RANSAC at an equal hypothesis budget, confidence-only NMS seeding,
per-hypothesis fitness and correctness, and registration-recall sweeps over
theta_cmp or theta_inlier; and the seeded scene lists of the training
curriculum (scene_batch). From the command line, a sweep is one `hgct bench`
per config file, merged by `hgct report`.
"""

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from hgct import kernels
from hgct.compat import CompatConfig
from hgct.errors import NoHypothesis
from hgct.geom import CorrSet, RigidTransform, pose_errors
from hgct.hgnn import HgnnParams
from hgct.metrics import MetricThresholds, PairResult, aggregate, evaluate_scene
from hgct.pipeline import (Hypothesis, PipelineConfig, _fit_and_score,
                           nms_local_maxima)
from hgct.train import SynthConfig, gen_scene


def evaluate_hypothesis(transform: RigidTransform, corrs: CorrSet,
                        theta_inlier: float) -> float:
    """Truncated-residual fitness sum_i max(0, 1 - r_i/theta); higher is better."""
    if theta_inlier <= 0:
        raise ValueError("theta_inlier must be positive")
    return float(kernels.mae_scores(transform.R[None], transform.t[None],
                                    corrs.src, corrs.tgt, theta_inlier)[0])


def standard_nms_seeds(s_hat: np.ndarray, points: np.ndarray, radius: float,
                       n_seeds: int) -> List[int]:
    """Confidence-only baseline: NMS local maxima ranked by score, remaining
    slots filled by ascending index (suppressed scores count as zero)."""
    n = len(s_hat)
    n_seeds = min(n_seeds, n)
    picks = nms_local_maxima(s_hat, points, radius, n_seeds)
    if len(picks) < n_seeds:
        chosen = set(picks)
        for i in range(n):
            if i not in chosen:
                picks.append(i)
                if len(picks) == n_seeds:
                    break
    return picks


def ransac_baseline(corrs: CorrSet, budget: int, theta_inlier: float,
                    seed: int) -> RigidTransform:
    """Plain RANSAC: `budget` random 3-point subsets scored by the same
    truncated-MAE fitness; deterministic for a given seed."""
    n = len(corrs)
    if n < 3:
        raise ValueError("need at least 3 correspondences")
    rng = np.random.default_rng(seed)
    idx = np.array([rng.choice(n, size=3, replace=False) for _ in range(budget)],
                   dtype=np.intp).reshape(-1, 3)
    rots, trans, scores, ok = _fit_and_score(corrs, idx, theta_inlier)
    if not ok.any():
        raise NoHypothesis("all sampled subsets were degenerate")
    best = int(np.lexsort((np.arange(len(scores)), -scores))[0])
    return RigidTransform(rots[best], trans[best])


def hypothesis_correctness(hypos: Sequence[Hypothesis], gt: RigidTransform,
                           re_thresh: float, te_thresh: float) -> float:
    """Fraction of hypotheses within both pose-error thresholds of gt."""
    if not hypos:
        raise ValueError("no hypotheses")
    good = 0
    for h in hypos:
        re, te = pose_errors(h.transform, gt)
        if re <= re_thresh and te <= te_thresh:
            good += 1
    return good / len(hypos)


def run_suite(corrs_set: Sequence[CorrSet], params: HgnnParams,
              cc: CompatConfig, pc: PipelineConfig,
              th: MetricThresholds) -> List[PairResult]:
    """Register and score every pair; failed pipelines count as failed pairs."""
    return [evaluate_scene(corrs, params, cc, pc, th) for corrs in corrs_set]


def sweep_theta(corrs_set: Sequence[CorrSet], params: HgnnParams,
                sweep: Sequence[float], which: str,
                cc: CompatConfig = CompatConfig(),
                pc: PipelineConfig = PipelineConfig(),
                th: MetricThresholds = MetricThresholds()) -> List[Dict]:
    """Registration recall across a threshold sweep, as deltas against the
    default row (dynamic theta_cmp, or the configured theta_inlier)."""
    if which not in ("cmp", "inlier"):
        raise ValueError("which must be 'cmp' or 'inlier'")
    if not sweep:
        raise ValueError("sweep must be non-empty")

    base = aggregate(run_suite(corrs_set, params, cc, pc, th), th)
    default_label = "dynamic" if which == "cmp" else pc.theta_inlier
    rows = [{"which": which, "theta": default_label, "rr": base["rr"],
             "delta_pp": 0.0}]
    for theta in sweep:
        if which == "cmp":
            cc_i, pc_i = replace(cc, theta_cmp_override=float(theta)), pc
        else:
            cc_i, pc_i = cc, replace(pc, theta_inlier=float(theta))
        agg = aggregate(run_suite(corrs_set, params, cc_i, pc_i, th), th)
        rows.append({"which": which, "theta": float(theta), "rr": agg["rr"],
                     "delta_pp": 100.0 * (agg["rr"] - base["rr"])})
    return rows


def scene_batch(base: SynthConfig, count: int, seed0: int,
                inlier_ratios: Optional[List[float]] = None) -> List[CorrSet]:
    """Generate `count` scenes with per-scene seeds seed0, seed0+1, ...

    When `inlier_ratios` is given, scene i uses ratios[i % len] (the training
    curriculum draws from a ratio grid instead of a single value).
    """
    scenes = []
    for i in range(count):
        cfg = replace(base, seed=seed0 + i)
        if inlier_ratios is not None:
            cfg = replace(cfg, inlier_ratio=inlier_ratios[i % len(inlier_ratios)])
        scenes.append(gen_scene(cfg))
    return scenes
