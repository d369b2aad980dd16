"""Joint loss, synthetic scene generation, and the optimization loop.

Training data is synthesized: each scene samples a ground-truth rigid motion,
plants noisy inliers and uniform outliers, and records labels. The joint loss
is classification (BCE on confidences) + spectral matching (pairwise feature
compatibility vs. the inlier indicator) + graph (BCE of the final hyperedge
weights against the inlier incidence).
"""

import csv
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from . import autodiff as av
from .compat import (CompatConfig, SparseWeights, build_compat_graph, check_positive,
                     round_half_up)
from .errors import NonFinite
from .geom import CorrSet, RigidTransform, inlier_labels, random_rotation
from .hgnn import ForwardTrace, HgnnParams, forward, init_params
from .hypergraph import gt_hypergraph, init_hypergraph
from .kernels import blas_threads, fan_out

PROB_EPS = 1e-7  # clamp bound for probabilities inside BCE terms
GRADCHECK_TOL = 1e-3  # gradient_check's max relative error that passes criterion 2
SCENE_EXTENT = 1.0  # gen_scene's cube half-width, meters
ROT_MAX_DEG = 180.0  # gen_scene's largest ground-truth rotation angle
TRANS_MAX = 1.0  # gen_scene's largest ground-truth translation, meters


@dataclass(frozen=True)
class SynthConfig:
    n_corrs: int = 200
    inlier_ratio: float = 0.3
    noise_sigma: float = 0.01      # meters, inlier perturbation
    seed: int = 0

    def __post_init__(self):
        if self.n_corrs < 10:
            raise ValueError("n_corrs must be >= 10")
        if not (0.0 < self.inlier_ratio <= 1.0):
            raise ValueError("inlier_ratio must be in (0, 1]")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    lr: float = 1e-4
    lr_decay: float = 0.99        # multiplicative, per epoch
    batch: int = 6
    theta_inlier: float = 0.1     # meters
    sigma_d: float = 0.1          # meters
    seed: int = 0
    threads: int = 0              # processes per batch; 0 = every usable CPU

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ValueError("lr_decay must be in (0, 1]")
        if self.batch < 1 or self.epochs < 1:
            raise ValueError("batch and epochs must be >= 1")
        if self.threads < 0:
            raise ValueError("threads must be >= 0")
        check_positive(self, "theta_inlier", "sigma_d")


def gen_scene(cfg: SynthConfig) -> CorrSet:
    """Sample one synthetic correspondence scene.

    Inliers: source uniform in the cube of half-width SCENE_EXTENT, target =
    R src + t + N(0, sigma^2 I), with R up to ROT_MAX_DEG and |t| up to
    TRANS_MAX.
    Outliers: source and target sampled independently (target side in the
    transformed cube). Exactly round(inlier_ratio * n) inliers, positions
    shuffled, labels set by construction.
    """
    rng = np.random.default_rng(cfg.seed)
    rot = random_rotation(rng, ROT_MAX_DEG)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    t = direction * TRANS_MAX * rng.uniform() ** (1.0 / 3.0)

    n = cfg.n_corrs
    n_in = min(n, max(1, round_half_up(cfg.inlier_ratio * n)))
    e = SCENE_EXTENT
    src_in = rng.uniform(-e, e, (n_in, 3))
    tgt_in = src_in @ rot.T + t + rng.normal(0.0, cfg.noise_sigma, (n_in, 3))
    src_out = rng.uniform(-e, e, (n - n_in, 3))
    tgt_out = rng.uniform(-e, e, (n - n_in, 3)) @ rot.T + t

    src = np.concatenate([src_in, src_out])
    tgt = np.concatenate([tgt_in, tgt_out])
    labels = np.zeros(n, dtype=bool)
    labels[:n_in] = True
    order = rng.permutation(n)
    return CorrSet(src[order], tgt[order], gt=RigidTransform(rot, t),
                   labels=labels[order])


# ---------------------------------------------------------------------------
# losses (tape Vars in, scalar Vars out)
# ---------------------------------------------------------------------------

def _masked(a: av.Var, keep: np.ndarray) -> av.Var:
    """a * keep for a boolean constant keep, which the VJP keeps as
    booleans: x * True = x, and x * False is the signed zero of x * 0.0."""
    return av.linear(a, lambda v: v * keep, lambda g: g * keep)


def _bce_mean(p: av.Var, target: np.ndarray) -> av.Var:
    """Mean binary cross-entropy of p against the boolean target."""
    p = av.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    pos = _masked(av.log(p), target)
    neg = _masked(av.log(av.sub(1.0, p)), ~target)
    return av.mul(av.vmean(av.add(pos, neg)), -1.0)


def loss_class(s_hat: av.Var, labels) -> av.Var:
    """Mean binary cross-entropy of confidences against inlier labels."""
    return _bce_mean(s_hat, np.asarray(labels, dtype=bool))


def loss_match(x: av.Var, labels, sigma_f: av.Var) -> av.Var:
    """Spectral matching loss between feature compatibilities and labels.

    eta_ij = max(0, 1 - ||X_i - X_j||^2 / sigma_f^2) compared against the
    both-inlier indicator (diagonal included: eta_ii = 1, eta*_ii = labels_i),
    averaged over all N^2 pairs.
    """
    lab = np.asarray(labels, dtype=np.float64)
    n = x.value.shape[0]

    sq = av.vsum(av.mul(x, x), axis=1)
    dist = av.relu(av.sub(av.add(av.reshape(sq, (n, 1)), av.reshape(sq, (1, n))),
                          av.mul(av.matmul(x, av.transpose(x)), 2.0)))
    inv_sig2 = av.exp(av.mul(av.log(sigma_f), -2.0))
    eta = av.relu(av.sub(1.0, av.mul(dist, inv_sig2)))
    diff = av.sub(eta, np.outer(lab, lab))
    return av.vmean(av.mul(diff, diff))


def loss_graph(w_h_final: av.Var, h_star) -> av.Var:
    """Per-row mean BCE of the final hyperedge weights against the inlier incidence."""
    return _bce_mean(w_h_final, np.asarray(h_star, dtype=bool))


def joint_loss(trace: ForwardTrace, labels, params: HgnnParams):
    """Total loss Var plus per-term float components."""
    l_class = loss_class(trace.s_var, labels)
    sigma_f = av.exp(params.var("log_sigma_f"))
    l_match = loss_match(trace.x_vars[-1], labels, sigma_f)
    l_graph = loss_graph(trace.wh_vars[-1], gt_hypergraph(labels))
    total = av.add(av.add(l_class, l_match), l_graph)
    components = {
        "class": float(l_class.value),
        "match": float(l_match.value),
        "graph": float(l_graph.value),
        "total": float(total.value),
    }
    return total, components


# ---------------------------------------------------------------------------
# optimizer and loop
# ---------------------------------------------------------------------------

class Adam:
    """Standard Adam."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: HgnnParams):
        self.t = 0
        self.m = {n: np.zeros_like(params.value(n)) for n in params.names}
        self.v = {n: np.zeros_like(params.value(n)) for n in params.names}

    def step(self, params: HgnnParams, grads: Dict[str, np.ndarray], lr: float):
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        for name in params.names:
            g = grads[name]
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * (g * g)
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            params.var(name).value -= lr * m_hat / (np.sqrt(v_hat) + self.EPS)


@dataclass
class PreparedScene:
    corrs: CorrSet
    hg0: np.ndarray     # the incidence H^0, (N, N) bool
    w_h0: SparseWeights
    labels: np.ndarray


def prepare_scene(corrs: CorrSet, sigma_d: float, theta_inlier: float,
                  cc: Optional[CompatConfig] = None) -> PreparedScene:
    """Precompute the parameter-free per-scene inputs (graph, labels). A
    given cc must carry the same sigma_d."""
    if cc is None:
        cc = CompatConfig(sigma_d=sigma_d)
    elif cc.sigma_d != sigma_d:
        raise ValueError(f"cc.sigma_d = {cc.sigma_d} differs from sigma_d = {sigma_d}")
    g = build_compat_graph(corrs, cc)
    hg0 = init_hypergraph(g.w_h0)
    if corrs.gt is not None:
        labels = inlier_labels(corrs, corrs.gt, theta_inlier)
    elif corrs.labels is not None:
        labels = corrs.labels
    else:
        raise ValueError("training scene needs a ground-truth transform or labels")
    return PreparedScene(corrs=corrs, hg0=hg0, w_h0=g.w_h0, labels=labels)


def _scene_step(ps: PreparedScene, params: HgnnParams, wrt: List[av.Var]):
    """(parameter gradients, loss components) of one scene. The trace goes
    once the loss has read it, and the tape when this returns, so a scene's
    gradients run without its trace and the next scene's forward pass
    without either."""
    trace = forward(ps.corrs, ps.hg0, ps.w_h0, params)
    total, comps = joint_loss(trace, ps.labels, params)
    del trace
    return av.grad(total, wrt), comps


def _scene_grads(prepared: List[PreparedScene], idxs, params: HgnnParams) -> list:
    """(parameter gradients, loss components) of each listed scene, in order."""
    wrt = [params.var(n) for n in params.names]
    out = []
    for idx in idxs:
        try:
            out.append(_scene_step(prepared[idx], params, wrt))
        except NonFinite as err:
            raise NonFinite(f"scene {idx}: {err}") from err
    return out


def train(scenes: Iterable[CorrSet], tc: TrainConfig, params_init: HgnnParams,
          log_csv=None, cc: Optional[CompatConfig] = None,
          history: Optional[list] = None) -> HgnnParams:
    """Adam over the joint loss; returns the final parameters.

    Gradients are averaged over `tc.batch` scenes per step; the learning rate
    decays by `tc.lr_decay` each epoch. Fully deterministic given tc.seed.
    Each batch is computed by `tc.threads` processes (see kernels.fan_out),
    each with one BLAS thread; gradients and losses are summed in batch order,
    so the result is bit-identical for any process count.
    Writes per-epoch mean losses to the CSV file at path `log_csv` when given;
    when `history` is a list it also receives one mean-loss dict per epoch.
    """
    scenes = list(scenes)
    if not scenes:
        raise ValueError("no training scenes")
    prepared = [prepare_scene(s, tc.sigma_d, tc.theta_inlier, cc) for s in scenes]

    params = params_init.copy()
    opt = Adam(params)
    rng = np.random.default_rng(tc.seed)
    names = params.names

    fh = writer = None
    if log_csv is not None:
        fh = open(log_csv, "w", newline="")
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss_class", "mean_loss_match",
                         "mean_loss_graph", "mean_loss_total", "wall_seconds"])

    def step_grads(part, values):
        for name, value in zip(names, values):
            params.var(name).value = value
        return _scene_grads(prepared, part, params)

    try:
        with blas_threads(1), fan_out("train", step_grads, tc.threads, tc.batch) as run:
            for epoch in range(tc.epochs):
                t0 = time.perf_counter()
                lr = tc.lr * (tc.lr_decay ** epoch)
                order = rng.permutation(len(prepared))
                sums = {"class": 0.0, "match": 0.0, "graph": 0.0, "total": 0.0}
                for start in range(0, len(order), tc.batch):
                    chunk = order[start:start + tc.batch]
                    acc = {n: np.zeros_like(params.value(n)) for n in names}
                    for grads, comps in run(chunk, [params.value(n) for n in names]):
                        for n, g in zip(names, grads):
                            acc[n] += g
                        for k in sums:
                            sums[k] += comps[k]
                    scale = 1.0 / len(chunk)
                    opt.step(params, {n: acc[n] * scale for n in names}, lr)
                means = {k: v / len(prepared) for k, v in sums.items()}
                wall = time.perf_counter() - t0
                if history is not None:
                    history.append(means)
                if writer is not None:
                    writer.writerow([epoch, f"{means['class']:.8f}",
                                     f"{means['match']:.8f}", f"{means['graph']:.8f}",
                                     f"{means['total']:.8f}", f"{wall:.3f}"])
    finally:
        if fh is not None:
            fh.close()
    return params


# ---------------------------------------------------------------------------
# finite-difference gradient check
# ---------------------------------------------------------------------------

def gradient_check(seed: int) -> Dict:
    """Acceptance criterion 2's check: compare every analytic parameter
    gradient of the joint loss against central finite differences (step
    1e-5) on an 8-correspondence instance drawn from `seed` (half of them
    inliers, 0.01 m noise, sigma_d = theta_inlier = 0.1 m) and an 8-channel
    network.

    Relative error uses |fd - an| / max(|fd|, |an|, 1e-6); the floor keeps
    near-zero gradients from amplifying finite-difference round-off.
    """
    n, channels, step = 8, 8, 1e-5
    scene = gen_scene(SynthConfig(n_corrs=max(n, 10), inlier_ratio=0.5, seed=seed))
    scene = CorrSet(scene.src[:n], scene.tgt[:n], gt=scene.gt,
                    labels=scene.labels[:n])
    ps = prepare_scene(scene, sigma_d=0.1, theta_inlier=0.1)
    params = init_params(channels=channels, seed=seed)
    names = params.names
    wrt = [params.var(nm) for nm in names]

    trace = forward(ps.corrs, ps.hg0, ps.w_h0, params)
    total, _ = joint_loss(trace, ps.labels, params)
    analytic = dict(zip(names, av.grad(total, wrt)))

    def loss_value() -> float:
        with av.no_grad():
            tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
            t, _ = joint_loss(tr, ps.labels, params)
        return float(t.value)

    max_err = 0.0
    worst = ""
    count = 0
    for nm in names:
        arr = params.var(nm).value
        flat = arr.reshape(-1)
        an_flat = analytic[nm].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = loss_value()
            flat[i] = orig - step
            f_minus = loss_value()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * step)
            err = abs(fd - an_flat[i]) / max(abs(fd), abs(an_flat[i]), 1e-6)
            if err > max_err:
                max_err = err
                worst = f"{nm}[{i}]"
            count += 1
    return {"max_rel_err": max_err, "worst_param": worst, "n_params": count}
