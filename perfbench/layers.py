"""Per-layer metrics of the traced run: where the spans go and how they add up.

`install` wraps the program's public functions, at the module attribute
each caller looks up, in spans named after the layer that owns the function.
`layer_metrics` turns the spans into per-scene values (per registered scene
for the registration layers, per scene-step for the training layers).

A span counts toward a metric only under the request it serves: the
registration layers under `pipeline.register`, the training layers under
`train.train`, so the graph build inside training does not leak into the
registration figures.
"""

from typing import Dict, List

import numpy as np

from scenes import rotation_error_deg, translation_error_m
from tracer import Tracer, self_time

GOOD_RE_DEG = 5.0
GOOD_TE_M = 0.05

REGISTER = "pipeline.register"
TRAIN = "train.train"
READ = "sceneio.read_scene"
STEP = "hgnn.forward_tape"   # one span per scene-step


def _w_gamma_nnz(tracer: Tracer, idx: int, args, graph) -> None:
    tracer.count(idx, "nnz", int(np.count_nonzero(graph.w_gamma)))


def _trace_sizes(tracer: Tracer, idx: int, args, trace) -> None:
    arrays = trace.xs + trace.ys + trace.hs + trace.whs + [trace.s_hat, trace.w_nonlocal]
    unique = {id(a): a for a in arrays}
    tracer.count(idx, "bytes", sum(a.nbytes for a in unique.values()))
    tracer.count(idx, "nnz", sum(int(np.count_nonzero(h)) for h in trace.hs))


def _seed_share(tracer: Tracer, idx: int, args, seeds) -> None:
    labels = args[2].labels
    tracer.count(idx, "seeds", len(seeds))
    tracer.count(idx, "inlier_seeds", int(np.count_nonzero(labels[list(seeds)])))


def _good_share(tracer: Tracer, idx: int, args, hypotheses) -> None:
    gt = args[0].gt
    good = sum(1 for h in hypotheses
               if rotation_error_deg(h.transform.R, gt.R) <= GOOD_RE_DEG
               and translation_error_m(h.transform.t, gt.t) <= GOOD_TE_M)
    tracer.count(idx, "hypotheses", len(hypotheses))
    tracer.count(idx, "good", good)


def _transforms(tracer: Tracer, idx: int, args, scores) -> None:
    tracer.count(idx, "transforms", len(scores))


def install(tracer: Tracer, program) -> None:
    """Wrap every layer function that a per-layer metric reads."""
    p = program
    tracer.wrap(p.sceneio, "read_scene", READ)
    tracer.wrap(p.pipeline, "register", REGISTER)
    tracer.wrap(p.pipeline, "build_compat_graph", "compat.build_compat_graph",
                _w_gamma_nnz)
    tracer.wrap(p.kernels, "gamma_matrix", "kernels.gamma_matrix")
    tracer.wrap(p.pipeline, "init_hypergraph", "hypergraph.init_hypergraph")
    tracer.wrap(p.pipeline, "forward", "hgnn.forward", _trace_sizes)
    tracer.wrap(p.pipeline, "gf_nms", "pipeline.gf_nms", _seed_share)
    tracer.wrap(p.kernels, "nms_select", "kernels.nms_select")
    tracer.wrap(p.pipeline, "initial_hypotheses", "pipeline.initial_hypotheses")
    tracer.wrap(p.pipeline, "refine_hypotheses", "pipeline.refine_hypotheses",
                _good_share)
    tracer.wrap(p.pipeline, "kabsch_svd", "geom.kabsch_svd")
    tracer.wrap(p.kernels, "mae_scores", "kernels.mae_scores", _transforms)
    tracer.wrap(p.pipeline, "hyperedge_precision", "hypergraph.hyperedge_precision")
    tracer.wrap(p.train, "train", TRAIN)
    tracer.wrap(p.train, "prepare_scene", "train.prepare_scene")
    tracer.wrap(p.train, "forward", STEP)
    tracer.wrap(p.train, "joint_loss", "train.joint_loss")
    tracer.wrap(p.autodiff, "grad", "autodiff.grad")
    tracer.wrap(p.train.Adam, "step", "train.Adam.step")


# (metric, unit, span, request, quantity, per). quantity: "ms", "self_ms",
# "calls", a count key, or "a/b" for the ratio of two count keys.
# per: the span whose number of occurrences is the base of the value.
METRICS = [
    ("sceneio.read_scene.ms", "ms", READ, READ, "ms", READ),
    ("kernels.gamma_matrix.ms", "ms", "kernels.gamma_matrix", REGISTER, "ms", REGISTER),
    ("compat.build_compat_graph.self_ms", "ms", "compat.build_compat_graph", REGISTER,
     "self_ms", REGISTER),
    ("compat.w_gamma_nnz", "count", "compat.build_compat_graph", REGISTER, "nnz", REGISTER),
    ("hypergraph.init_hypergraph.ms", "ms", "hypergraph.init_hypergraph", REGISTER, "ms",
     REGISTER),
    ("hgnn.forward.ms", "ms", "hgnn.forward", REGISTER, "ms", REGISTER),
    ("hgnn.trace_mb", "MB", "hgnn.forward", REGISTER, "bytes", REGISTER),
    ("hgnn.incidence_nnz", "count", "hgnn.forward", REGISTER, "nnz", REGISTER),
    ("pipeline.gf_nms.self_ms", "ms", "pipeline.gf_nms", REGISTER, "self_ms", REGISTER),
    ("kernels.nms_select.ms", "ms", "kernels.nms_select", REGISTER, "ms", REGISTER),
    ("pipeline.initial_hypotheses.self_ms", "ms", "pipeline.initial_hypotheses", REGISTER,
     "self_ms", REGISTER),
    ("pipeline.refine_hypotheses.self_ms", "ms", "pipeline.refine_hypotheses", REGISTER,
     "self_ms", REGISTER),
    ("geom.kabsch_svd.calls", "count", "geom.kabsch_svd", REGISTER, "calls", REGISTER),
    ("geom.kabsch_svd.ms", "ms", "geom.kabsch_svd", REGISTER, "ms", REGISTER),
    ("kernels.mae_scores.ms", "ms", "kernels.mae_scores", REGISTER, "ms", REGISTER),
    ("kernels.mae_scores.transforms", "count", "kernels.mae_scores", REGISTER,
     "transforms", REGISTER),
    ("pipeline.register.self_ms", "ms", REGISTER, REGISTER, "self_ms", REGISTER),
    ("hypergraph.hyperedge_precision.ms", "ms", "hypergraph.hyperedge_precision", REGISTER,
     "ms", REGISTER),
    ("pipeline.hypotheses", "count", "pipeline.refine_hypotheses", REGISTER, "hypotheses",
     REGISTER),
    ("pipeline.degenerate_fits", "count", "geom.kabsch_svd", REGISTER, "raised", REGISTER),
    ("pipeline.hypotheses_good_share", "share", "pipeline.refine_hypotheses", REGISTER,
     "good/hypotheses", REGISTER),
    ("pipeline.seeds", "count", "pipeline.gf_nms", REGISTER, "seeds", REGISTER),
    ("pipeline.seed_inlier_share", "share", "pipeline.gf_nms", REGISTER,
     "inlier_seeds/seeds", REGISTER),
    ("train.prepare_scene.ms", "ms", "train.prepare_scene", TRAIN, "ms", STEP),
    ("hgnn.forward_tape.ms", "ms", STEP, TRAIN, "ms", STEP),
    ("train.joint_loss.ms", "ms", "train.joint_loss", TRAIN, "ms", STEP),
    ("autodiff.grad.ms", "ms", "autodiff.grad", TRAIN, "ms", STEP),
    ("train.Adam.step.ms", "ms", "train.Adam.step", TRAIN, "ms", STEP),
]


def layer_metrics(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Every per-layer metric from the recorded spans.

    Raises ValueError when a base span never occurred, since a per-scene
    value without scenes would be meaningless."""
    spans = tracer.spans
    kids = tracer.children()
    by_key: Dict[tuple, List[int]] = {}
    for i, s in enumerate(spans):
        by_key.setdefault((s.name, spans[s.request].name), []).append(i)

    def total(idxs: List[int], quantity: str) -> float:
        if quantity == "ms":
            return 1000.0 * sum(spans[i].duration for i in idxs)
        if quantity == "self_ms":
            return 1000.0 * sum(self_time(spans, i, kids) for i in idxs)
        if quantity == "calls":
            return float(len(idxs))
        return float(sum(spans[i].counts.get(quantity, 0.0) for i in idxs))

    out = {}
    for metric, unit, name, request, quantity, per in METRICS:
        idxs = by_key.get((name, request), [])
        if "/" in quantity:
            num, den = quantity.split("/")
            base = total(idxs, den)
            value = total(idxs, num) / base if base else float("nan")
        else:
            base = len(by_key.get((per, request), []))
            if base == 0:
                raise ValueError(f"no {per} span under {request} for {metric}")
            value = total(idxs, quantity) / base
            if quantity == "bytes":
                value /= 2.0 ** 20
        out[metric] = {"value": value, "unit": unit}
    return out
