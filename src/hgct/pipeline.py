"""Seed selection, guided hypothesis generation, verification, and registration.

Seeds come from GF-NMS: a small quota of spatial non-maximum-suppression picks
on the confidence scores, topped up by a Laplacian graph-filter ranking over
the mutual-consistency adjacency of the learned hypergraph. Each seed yields
an initial transform from a feature-space KNN subset; refinement re-solves
minimal sets slid along the residual-sorted members of the seed's hyperedge.
Hypotheses are scored by a truncated mean-absolute-error fitness and the
argmax wins.
"""

import time
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import autodiff as av
from . import kernels
from .compat import CompatConfig, build_compat_graph, check_positive, round_half_up
from .errors import DegenerateInput, NoEdges, NoHypothesis
from .geom import CorrSet, RigidTransform, kabsch_svd, pose_errors, residuals
from .hgnn import HgnnParams, forward
from .hypergraph import hyperedge_precision, init_hypergraph


NS_FRAC = 0.2      # seed fraction of N
MAX_WINDOWS = 30   # extra minimal-set windows per hyperedge
WINDOW_STEP = 3    # window stride along the sorted residuals


@dataclass(frozen=True)
class PipelineConfig:
    ninit_frac: float = 0.1     # initial hypotheses as a fraction of N_s
    knn_k: int = 20             # feature-space subset size per seed
    minimal_size: int = 6       # points per minimal set
    theta_inlier: float = 0.1   # meters, truncation of the fitness kernel
    nms_radius: float = 0.1     # meters, spatial suppression radius
    n1_frac: float = 0.1        # NMS share of the seed budget

    def __post_init__(self):
        if self.minimal_size < 3:
            raise ValueError("minimal_size must be >= 3")
        if self.knn_k < self.minimal_size:
            raise ValueError(f"knn_k must be >= minimal_size ({self.minimal_size}), "
                             f"got {self.knn_k}")
        for name in ("ninit_frac", "n1_frac"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{name} must be in (0, 1]")
        check_positive(self, "theta_inlier", "nms_radius")


class HypothesisOrigin(Enum):
    INITIAL = "initial"
    REFINED = "refined"


@dataclass(frozen=True)
class Hypothesis:
    transform: RigidTransform
    score: float
    origin: HypothesisOrigin
    seed_index: int


def _fit_and_score(corrs: CorrSet, subsets: np.ndarray, theta_inlier: float):
    """Fit every index row of `subsets` in one stack, then score the fits that
    are not rank-deficient. Returns (R, t, scores) of those fits, in row
    order, and the (rows,) mask that selects them."""
    rots, trans, ok = kabsch_svd(corrs.src[subsets], corrs.tgt[subsets])
    rots, trans = rots[ok], trans[ok]
    scores = kernels.mae_scores(rots, trans, corrs.src, corrs.tgt, theta_inlier)
    return rots, trans, scores, ok


def gf_adjacency(h: np.ndarray) -> np.ndarray:
    """Mutual-consistency adjacency of the boolean incidence h, as booleans:
    A(i,j) = 1 iff H(i,j) = H(j,i) = 1."""
    return h & h.T


def gf_score(adj: np.ndarray) -> np.ndarray:
    """Graph-filter score: min-max normalized |(diag(d) - A) d|, d = row sums.

    The magnitude of the Laplacian response to the degree signal separates
    structurally embedded vertices from weakly attached ones; the sign does
    not (a vertex inside a strong block can sit on either side of zero), so
    the response is rectified before normalization. All zeros when the
    response is constant (e.g. regular or empty graphs).

    adj is 0/1, boolean or float. A d runs over row blocks, so no float
    N x N copy is made; every sum is an exact integer, so the scores do not
    depend on the order of the additions.
    """
    d = np.count_nonzero(adj, axis=1).astype(np.float64)
    rows = max(1, av.SCORE_BLOCK // max(1, len(d)))
    ad = np.concatenate([adj[lo:lo + rows].astype(np.float64) @ d
                         for lo in range(0, len(d), rows)])
    raw = np.abs(d * d - ad)
    lo, hi = raw.min(), raw.max()
    if hi == lo:
        return np.zeros_like(raw)
    return (raw - lo) / (hi - lo)


def nms_local_maxima(s_hat: np.ndarray, points: np.ndarray, radius: float,
                     max_picks: int) -> List[int]:
    """Greedy spatial NMS: highest score first (ties to the lower index),
    suppressing everything within `radius` of a pick. Returns up to max_picks,
    in pick order; the scan stops at the max_picks-th pick."""
    n = len(s_hat)
    order = np.lexsort((np.arange(n), -np.asarray(s_hat, dtype=np.float64)))
    keep = kernels.nms_select(points, order, radius, max_picks)
    return [int(i) for i in order[keep[order]]]


def gf_nms(h: np.ndarray, s_hat: np.ndarray, corrs: CorrSet,
           cfg: PipelineConfig) -> List[int]:
    """Seed selection: N1 spatial-NMS confidence maxima, then the graph-filter
    ranking over the incidence h tops the set up to
    N_s = min(N, max(minimal_size, round(NS_FRAC * N))) distinct indices."""
    n = len(corrs)
    if n < cfg.minimal_size:
        raise ValueError("fewer correspondences than the minimal set size")
    n_s = min(n, max(cfg.minimal_size, round_half_up(NS_FRAC * n)))
    n_1 = max(1, round_half_up(cfg.n1_frac * n_s))

    seeds = nms_local_maxima(s_hat, corrs.src, cfg.nms_radius, n_1)
    scores = gf_score(gf_adjacency(h))
    ranking = np.lexsort((np.arange(n), -scores))
    fill = ranking[~np.isin(ranking, seeds)][:n_s - len(seeds)]
    return seeds + [int(i) for i in fill]


def initial_hypotheses(corrs: CorrSet, seeds: Sequence[int], x_final: np.ndarray,
                       cfg: PipelineConfig, diagnostics: Dict) -> List[Hypothesis]:
    """One candidate per seed from its feature-space KNN subset; the
    best-scoring N_init = max(1, round(ninit_frac * len(seeds))) are kept.
    Degenerate subsets are skipped and counted in `diagnostics`.

    The subset is the k nearest rows in feature distance, ties to the lower
    index, in (distance, index) order; all subsets are fitted in one stack.
    """
    n = len(corrs)
    k = min(cfg.knn_k, n)
    x = np.asarray(x_final, dtype=np.float64)
    seeds = np.asarray(seeds, dtype=np.intp)

    subsets = np.empty((len(seeds), k), dtype=np.intp)
    for j, seed in enumerate(seeds):
        d = x - x[seed]
        dist = np.sum(d * d, axis=1)
        near = np.flatnonzero(dist <= dist[np.argpartition(dist, k - 1)[k - 1]])
        subsets[j] = near[np.lexsort((near, dist[near]))][:k]
    n_init = max(1, round_half_up(cfg.ninit_frac * len(seeds)))
    rots, trans, scores, ok = _fit_and_score(corrs, subsets, cfg.theta_inlier)
    seeds = seeds[ok]
    diagnostics["n_seed_candidates"] = len(seeds)
    diagnostics["n_degenerate_seeds"] = int(np.count_nonzero(~ok))
    order = np.lexsort((np.arange(len(scores)), -scores))
    return [Hypothesis(RigidTransform(rots[i], trans[i]), float(scores[i]),
                       HypothesisOrigin.INITIAL, int(seeds[i]))
            for i in order[:n_init]]


def refine_hypotheses(corrs: CorrSet, h: np.ndarray,
                      initial: Sequence[Hypothesis], cfg: PipelineConfig,
                      diagnostics: Dict) -> List[Hypothesis]:
    """Slide minimal sets along the residual-sorted members of each seed's
    hyperedge, a column of the boolean incidence h.

    Window k covers sorted offsets [WINDOW_STEP*k, WINDOW_STEP*k + minimal_size)
    while the window fits and k <= MAX_WINDOWS. The windows of all hypotheses
    are fitted in one stack. Returns the initial hypotheses plus every
    non-degenerate window solution, in hypothesis then window order, and
    counts the windows in `diagnostics`.
    """
    if not initial:
        raise ValueError("refine_hypotheses needs at least one initial hypothesis")
    windows = [np.empty((0, cfg.minimal_size), dtype=np.intp)]
    owners = [np.empty(0, dtype=np.intp)]
    for hyp in initial:
        members = np.flatnonzero(h[:, hyp.seed_index])
        if members.size < cfg.minimal_size:
            continue
        r = residuals(hyp.transform, corrs.src[members], corrs.tgt[members])
        members = members[np.lexsort((members, r))]
        n_win = min(MAX_WINDOWS, (members.size - cfg.minimal_size) // WINDOW_STEP) + 1
        starts = WINDOW_STEP * np.arange(n_win)
        windows.append(members[starts[:, None] + np.arange(cfg.minimal_size)])
        owners.append(np.full(n_win, hyp.seed_index, dtype=np.intp))
    rots, trans, scores, ok = _fit_and_score(corrs, np.concatenate(windows),
                                             cfg.theta_inlier)
    owners = np.concatenate(owners)[ok]
    refined = [Hypothesis(RigidTransform(rots[i], trans[i]), float(scores[i]),
                          HypothesisOrigin.REFINED, int(owners[i]))
               for i in range(len(scores))]
    diagnostics["n_refined"] = len(refined)
    diagnostics["n_degenerate_windows"] = int(np.count_nonzero(~ok))
    return list(initial) + refined


def register(corrs: CorrSet, params: HgnnParams, cc: CompatConfig,
             pc: PipelineConfig) -> Tuple[RigidTransform, Dict]:
    """Full pipeline: compatibility graph, network pass, GF-NMS seeds, guided
    hypothesis generation, truncated-MAE argmax. Returns the best transform
    and a JSON-serializable diagnostics dict."""
    n = len(corrs)
    if n < pc.minimal_size:
        raise DegenerateInput(f"need at least minimal_size = {pc.minimal_size} "
                              f"correspondences, got {n}")
    diagnostics: Dict = {}
    timings: Dict[str, float] = {}

    t0 = time.perf_counter()
    g = build_compat_graph(corrs, cc)
    w_h0, theta_cmp = g.w_h0, g.theta_cmp
    del g  # frees w_gamma's support, which nothing below reads
    h0 = init_hypergraph(w_h0)
    timings["graph_ms"] = 1000.0 * (time.perf_counter() - t0)
    labels = corrs.labels
    if labels is not None:
        try:
            precision_before = hyperedge_precision(h0, labels)
        except NoEdges:  # an empty H^0: H^4, inside it, is empty too
            precision_before = None

    t0 = time.perf_counter()
    with av.no_grad():
        trace = forward(corrs, h0, w_h0, params, inference=True)
    del w_h0  # nothing below reads it; h0 now holds H^4, which the trace keeps
    timings["network_ms"] = 1000.0 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    seeds = gf_nms(trace.h_final, trace.s_hat, corrs, pc)
    timings["seeds_ms"] = 1000.0 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    initial = initial_hypotheses(corrs, seeds, trace.x_final, pc, diagnostics)
    if not initial:
        raise NoHypothesis("every seed subset was degenerate")
    hypotheses = refine_hypotheses(corrs, trace.h_final, initial, pc, diagnostics)
    timings["hypotheses_ms"] = 1000.0 * (time.perf_counter() - t0)

    scores = np.array([h.score for h in hypotheses])
    best = hypotheses[int(np.lexsort((np.arange(len(scores)), -scores))[0])]
    if best.score == 0.0:
        # e.g. a scene in millimetres: every residual exceeds theta_inlier
        raise NoHypothesis(
            f"no correspondence lies within theta_inlier={pc.theta_inlier} of any of "
            f"{len(hypotheses)} hypotheses; sigma_d and theta_inlier are in metres")

    diagnostics.update({
        "n": n,
        "theta_cmp": theta_cmp,
        "seeds": [int(s) for s in seeds],
        "n_seeds": len(seeds),
        "n_initial": len(initial),
        "n_hypotheses": len(hypotheses),
        "best_score": best.score,
        "best_origin": best.origin.value,
        "best_seed": best.seed_index,
        "timings_ms": timings,
    })
    if labels is not None:
        diagnostics["hyperedge_precision_before"] = precision_before
        diagnostics["hyperedge_precision_after"] = (
            None if precision_before is None else hyperedge_precision(trace.h_final, labels))
    if corrs.gt is not None:
        re, te = pose_errors(best.transform, corrs.gt)
        diagnostics["re_deg"] = re
        diagnostics["te_m"] = te
    return best.transform, diagnostics
