import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hgct import autodiff as av
from hgct import hgnn
from hgct.errors import NonFinite
from hgct.geom import CorrSet
from hgct.hgnn import (Handover, _topk_retention, _update, forward, init_params,
                       k2_schedule, load_checkpoint, param_specs, save_checkpoint)
from hgct.hypergraph import Hypergraph, init_hypergraph
from hgct.train import SynthConfig, gen_scene, joint_loss, prepare_scene


def _prepared(n=10, seed=0, ratio=0.6, channels=8):
    scene = gen_scene(SynthConfig(n_corrs=max(n, 10), inlier_ratio=ratio,
                                  noise_sigma=0.01, seed=seed))
    scene = CorrSet(scene.src[:n], scene.tgt[:n], gt=scene.gt,
                    labels=scene.labels[:n])
    ps = prepare_scene(scene, 0.1, 0.1)
    params = init_params(channels=channels, seed=seed)
    return ps, params


def _s_hat_grads(trace, params, seed):
    """Parameter gradients of seed . s_hat, by name, from the trace's tape."""
    wrt = [params.var(name) for name in params.names]
    return dict(zip(params.names, av.gradients([trace.s_var], [seed], wrt)))


def _generic_instance(seed, n=12, channels=8, density=0.5):
    """Random correspondences plus a generic weighted graph: continuous
    weights, distinct hyperedge member sets, no isolated vertices."""
    rng = np.random.default_rng(seed)
    corrs = CorrSet(rng.uniform(-1, 1, (n, 3)), rng.uniform(-1, 1, (n, 3)))
    while True:
        mask = np.triu(rng.uniform(size=(n, n)) < density, 1)
        w = np.triu(rng.uniform(0.2, 1.0, (n, n)), 1) * mask
        w = w + w.T
        cols = {tuple(row) for row in (w > 0).T}
        if len(cols) == n and np.all((w > 0).sum(axis=0) > 0):
            break
    hg0 = init_hypergraph(w)
    params = init_params(channels=channels, seed=seed + 50)
    return corrs, hg0, w, params


class TestShapes:
    def test_output_shapes(self):
        ps, params = _prepared(n=10, channels=8)
        tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        n = len(ps.corrs)
        assert len(tr.xs) == 6 and all(x.shape == (n, 8) for x in tr.xs)
        assert len(tr.ys) == 5 and all(y.shape == (n, 8) for y in tr.ys)
        assert len(tr.hs) == 5 and len(tr.whs) == 5
        assert tr.s_hat.shape == (n,)
        assert np.all((tr.s_hat > 0) & (tr.s_hat < 1))

    def test_param_count_documented_order(self):
        params = init_params(channels=8, seed=0)
        specs = param_specs(8)
        assert params.names == [name for name, _ in specs]
        flat = params.flat()
        assert flat.size == params.n_params()

    def test_k2_schedule(self):
        assert k2_schedule(10) == [4, 3, 2, 1]
        assert k2_schedule(8) == [3, 2, 2, 1]
        assert min(k2_schedule(3)) >= 1


class TestTopkRetention:
    """The array top-K against a per-row (-score, column) sort."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 14), k2=st.integers(1, 17), density=st.floats(0.0, 1.0),
           decimals=st.sampled_from([None, 2, 1, 0]), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=5, k2=9, density=1.0, decimals=None, seed=0)   # K2 >= N
    @example(n=9, k2=3, density=1.0, decimals=0, seed=1)      # every score tied
    @example(n=9, k2=4, density=0.2, decimals=1, seed=2)      # short rows, ties
    def test_matches_sort_reference(self, n, k2, density, decimals, seed):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(size=(n, n))
        if decimals is not None:
            scores = np.round(scores, decimals)  # forces ties
        support = (rng.uniform(size=(n, n)) < density).astype(np.float64)
        support[rng.integers(n)] = 0.0  # at least one empty row
        got = _topk_retention(scores, support, k2)
        assert got.dtype == np.float64
        assert np.array_equal(got, oracles.topk_retention_loop(scores, support, k2))

    @pytest.mark.parametrize("rows", [2, 3])
    def test_row_blocks_with_ties_across_boundaries(self, monkeypatch, rows):
        # rows of equal, partly tied scores run on both sides of every block
        # boundary; the k2-th score is tied in each long row. In place, the
        # mask overwrites the support it reads, block by block
        n, k2 = 11, 4
        monkeypatch.setattr(hgnn, "TOPK_BLOCK", rows * n)
        rng = np.random.default_rng(rows)
        row = np.round(rng.uniform(size=n), 1)
        row[[1, 4, 6, 9]] = row.max()
        scores = np.tile(row, (n, 1))
        scores[::3] = 0.5
        support = (rng.uniform(size=(n, n)) < 0.8).astype(np.float64)
        support[5] = 0.0
        want = oracles.topk_retention_loop(scores, support, k2)
        assert np.array_equal(_topk_retention(scores, support, k2), want)
        own = support.copy()
        assert _topk_retention(scores, own, k2, in_place=True) is own
        assert np.array_equal(own, want)

    @pytest.mark.parametrize("tape", [True, False])
    @pytest.mark.parametrize("rows", [2, 3])
    def test_update_in_row_blocks_matches_loops(self, monkeypatch, tape, rows):
        # a zero k projection makes every score of a row equal: each row
        # keeps its k2 lowest supported columns, in every block
        ps, params = _prepared(n=10, seed=3, channels=4)
        n = len(ps.corrs)
        params.var("upd.0.k.w").value[:] = 0.0
        with av.no_grad():
            tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        monkeypatch.setattr(hgnn, "TOPK_BLOCK", rows * n)
        k2 = k2_schedule(n)[0]
        x, y = av.wrap(tr.xs[1]), av.wrap(tr.ys[0])
        if tape:
            h_new, w_new = _update(x, y, tr.hs[0], params, 0, k2)
        else:
            with av.no_grad():
                h_new, w_new = _update(x, y, tr.hs[0], params, 0, k2)
        assert w_new.track == tape
        h_ref, w_ref = oracles.update_block_loop(tr.xs[1], tr.ys[0], tr.hs[0], params,
                                                 0, k2, 4)
        assert np.any(np.count_nonzero(tr.hs[0], axis=1) > k2)
        assert np.array_equal(h_new, h_ref)
        assert np.max(np.abs(w_new.value - w_ref)) < 1e-10
        assert np.array_equal(h_new, tr.hs[1]) and np.array_equal(w_new.value, tr.whs[1])


class TestUpdate:
    def test_in_place_product_equals_taped_mul(self):
        # W_H^{t+1} is written into the unmasked score array; its value and
        # its gradients equal those of av.mul(masked scores, retention) bit
        # for bit, including the signed zeros where the retention mask is 0
        ps, params = _prepared(n=12, seed=2, channels=8)
        with av.no_grad():
            tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        k2s = k2_schedule(len(ps.corrs))
        rng = np.random.default_rng(0)
        for t in range(4):
            x = av.Var(tr.xs[t + 1], track=True)
            y = av.Var(tr.ys[t], track=True)
            h_new, w_new = _update(x, y, tr.hs[t], params, t, k2s[t])
            # the unfused chain with an explicit off-support mask
            scores = oracles.scaled_scores_chain(
                hgnn._affine(x, params, f"upd.{t}.q"), hgnn._affine(y, params, f"upd.{t}.k"),
                1.0 / np.sqrt(params.channels), np.where(tr.hs[t] > 0, 0.0, -1e30),
                "sigmoid")
            h_ref = _topk_retention(scores.value, tr.hs[t], k2s[t])
            w_ref = av.mul(scores, h_ref)
            assert w_new.track
            assert np.array_equal(h_new, h_ref) and np.any(h_ref == 0)
            assert np.array_equal(w_new.value, w_ref.value)
            assert np.array_equal(w_new.value, tr.whs[t + 1])
            g = rng.standard_normal(w_new.shape)
            for got, want in zip(av.gradients([w_new], [g], [x, y]),
                                 av.gradients([w_ref], [g], [x, y])):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
            with av.no_grad():
                h_lean, w_lean = _update(x, y, tr.hs[t], params, t, k2s[t])
            assert not w_lean.track
            assert np.array_equal(h_lean, h_ref)
            assert np.array_equal(w_lean.value, w_ref.value)


class TestConventions:
    def test_isolated_vertex_stays_isolated(self):
        # vertex 3 disconnected: empty hyperedge aggregate stays zero and the
        # all -inf mask row keeps its incidence row empty at every layer
        w = np.zeros((5, 5))
        for i in range(3):
            for j in range(3):
                if i != j:
                    w[i, j] = 1.0
        w[4, 0] = w[0, 4] = 0.5
        hg = init_hypergraph(w)
        assert np.all(hg.h[3] == 0)
        rng = np.random.default_rng(0)
        corrs = CorrSet(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
        params = init_params(channels=4, seed=1)
        tr = forward(corrs, hg, w, params)
        for h in tr.hs:
            assert np.all(h[3] == 0)

    def test_row_norms_unit_or_zero(self):
        ps, params = _prepared(n=12, channels=8)
        tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        for x in tr.xs:
            norms = np.linalg.norm(x, axis=1)
            assert np.all((norms == 0) | (np.abs(norms - 1.0) <= 1e-6))

    def test_support_shrinkage(self):
        ps, params = _prepared(n=12, channels=8)
        tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        n = len(ps.corrs)
        k2s = k2_schedule(n)
        for t in range(4):
            inside = tr.hs[t + 1] <= tr.hs[t]
            assert np.all(inside)
            assert np.all(tr.hs[t + 1].sum(axis=1) <= k2s[t])

    def test_wh_support_consistent(self):
        ps, params = _prepared(n=10, channels=8)
        tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        for h, wh in zip(tr.hs[1:], tr.whs[1:]):
            assert np.array_equal(wh > 0, h > 0)
            assert np.all((wh >= 0) & (wh <= 1))

    def test_determinism(self):
        ps, params = _prepared(n=10, channels=8)
        tr1 = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        tr2 = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        assert np.array_equal(tr1.s_hat, tr2.s_hat)
        assert np.array_equal(tr1.x_final, tr2.x_final)
        for a, b in zip(tr1.whs, tr2.whs):
            assert np.array_equal(a, b)

    def test_permutation_equivariance(self):
        # generic instances: continuous random weights produce distinct
        # hyperedge features, so top-K selection has no exact ties and the
        # whole trace must commute with vertex relabeling
        for seed in range(5):
            corrs, hg0, w0, params = _generic_instance(seed, n=12, channels=8)
            tr = forward(corrs, hg0, w0, params)
            rng = np.random.default_rng(seed + 100)
            perm = rng.permutation(12)
            pc = corrs.permuted(perm)
            phg = Hypergraph(h=hg0.h[np.ix_(perm, perm)],
                             w_h=hg0.w_h[np.ix_(perm, perm)])
            ptr = forward(pc, phg, w0[np.ix_(perm, perm)], params)
            assert np.allclose(ptr.s_hat, tr.s_hat[perm], atol=1e-9)
            assert np.array_equal(ptr.h_final, tr.h_final[np.ix_(perm, perm)])
            assert np.allclose(ptr.x_final, tr.x_final[perm], atol=1e-9)

    def test_nonfinite_raises(self):
        ps, params = _prepared(n=10, channels=8)
        params.var("input_lift.w").value[0, 0] = np.nan
        with pytest.raises(NonFinite):
            forward(ps.corrs, ps.hg0, ps.w_h0, params)


class TestLeanForward:
    """keep_layers=False keeps only the last layer, without W_H^4, with the
    same values."""

    @staticmethod
    def _both(corrs, hg0, w0, params):
        with av.no_grad():
            full = forward(corrs, hg0, w0, params)
            lean = forward(corrs, hg0, w0, params, keep_layers=False)
        return full, lean

    def _assert_last_layer_equal(self, full, lean):
        for name in ("xs", "ys", "hs", "x_vars", "y_vars"):
            assert len(getattr(lean, name)) == 1, name
        assert lean.whs == [] and lean.wh_vars == []
        assert np.array_equal(lean.xs[0], full.xs[5])
        assert np.array_equal(lean.ys[0], full.ys[4])
        assert np.array_equal(lean.hs[0], full.hs[4])
        assert np.array_equal(lean.s_hat, full.s_hat)

    def test_generic_instances(self):
        for seed in range(5):
            self._assert_last_layer_equal(*self._both(*_generic_instance(seed)))

    def test_tie_heavy_scene(self):
        # noise-free scene: saturated scores tie across whole rows of H
        scene = gen_scene(SynthConfig(n_corrs=120, inlier_ratio=0.3,
                                      noise_sigma=0.0, seed=8))
        ps = prepare_scene(scene, 0.1, 0.1)
        params = init_params(channels=8, seed=0)
        full, lean = self._both(ps.corrs, ps.hg0, ps.w_h0, params)
        assert np.any(np.diff(np.sort(full.whs[4][full.hs[4] > 0])) == 0)
        self._assert_last_layer_equal(full, lean)

    def test_prepared_scene_twice_unchanged_and_equal(self):
        ps, params = _prepared(n=12, seed=1, channels=8)
        before = (ps.hg0.h.copy(), ps.hg0.w_h.copy(), ps.w_h0.copy())
        with av.no_grad():
            first = forward(ps.corrs, ps.hg0, ps.w_h0, params, keep_layers=False)
            second = forward(ps.corrs, ps.hg0, ps.w_h0, params, keep_layers=False)
        for arr, copy in zip((ps.hg0.h, ps.hg0.w_h, ps.w_h0), before):
            assert np.array_equal(arr, copy)
        for name in ("xs", "ys", "hs"):
            assert np.array_equal(getattr(first, name)[0], getattr(second, name)[0]), name
        assert np.array_equal(first.s_hat, second.s_hat)
        assert first.w_nonlocal.shape == (0, 0)

    def test_handed_over_inputs_die_after_their_last_read(self, monkeypatch):
        # W_H^0 is dead by the first update; w_h0's buffer is the log bias of
        # every attention, and H^0's buffer holds H^{t+1} after update t;
        # nothing else of the inputs survives
        ps, params = _prepared(n=12, seed=1, channels=8)
        with av.no_grad():
            plain = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        hg0 = Hypergraph(h=ps.hg0.h.copy(), w_h=ps.hg0.w_h.copy())
        w0 = ps.w_h0.copy()
        refs = {"H^0": weakref.ref(hg0.h), "W_H^0": weakref.ref(hg0.w_h),
                "w_h0": weakref.ref(w0)}
        alive, biases, supports = [], [], []

        def spy_update(x, y, h, *args):
            alive.append({name for name, ref in refs.items() if ref() is not None})
            supports.append(h is refs["H^0"]())
            out = _update(x, y, h, *args)
            supports.append(out[0] is h)
            return out

        def spy_nonlocal(x, log_bias, *args):
            biases.append(log_bias is refs["w_h0"]())
            return attention(x, log_bias, *args)

        attention = hgnn._nonlocal
        monkeypatch.setattr(hgnn, "_update", spy_update)
        monkeypatch.setattr(hgnn, "_nonlocal", spy_nonlocal)
        holders = (Handover(hg0), Handover(w0))
        del hg0, w0
        with av.no_grad():
            got = forward(ps.corrs, holders[0], holders[1], params, keep_layers=False)
        assert holders[0].value is None and holders[1].value is None
        assert alive == [{"H^0", "w_h0"}] * 4
        assert supports == [True] * 8 and biases == [True] * 5
        assert got.hs[0] is refs["H^0"]()
        assert np.array_equal(got.hs[0], plain.hs[4])
        assert np.array_equal(got.s_hat, plain.s_hat)
        del got
        assert all(ref() is None for ref in refs.values())

    def test_taped_lean_pass_keeps_the_gradients(self):
        # the conv's backward pass reads H^t, so under a tape a handed-over
        # H^0 is not overwritten with H^1..H^4
        ps, params = _prepared(n=12, seed=2, channels=8)
        seed = np.random.default_rng(0).normal(size=len(ps.corrs))
        full = _s_hat_grads(forward(ps.corrs, ps.hg0, ps.w_h0, params), params, seed)
        hg0 = Hypergraph(h=ps.hg0.h.copy(), w_h=ps.hg0.w_h.copy())
        lean = forward(ps.corrs, Handover(hg0), Handover(ps.w_h0.copy()), params,
                       keep_layers=False)
        assert np.array_equal(hg0.h, ps.hg0.h)
        grads = _s_hat_grads(lean, params, seed)
        for name in params.names:
            assert np.array_equal(grads[name], full[name]), name

    def test_input_hypergraph_left_unchanged(self):
        corrs, hg0, w0, params = _generic_instance(3)
        h, w_h = hg0.h.copy(), hg0.w_h.copy()
        with av.no_grad():
            forward(corrs, hg0, w0, params, keep_layers=False)
        assert np.array_equal(hg0.h, h) and np.array_equal(hg0.w_h, w_h)

    @pytest.mark.parametrize("keep_layers", [True, False])
    def test_poisoned_intermediate_layer_raises(self, keep_layers):
        ps, params = _prepared(n=10, channels=8)
        params.var("nl.2.out.b").value[0] = np.nan  # first reaches X^3
        with av.no_grad(), pytest.raises(NonFinite, match=r"X\^3"):
            forward(ps.corrs, ps.hg0, ps.w_h0, params, keep_layers=keep_layers)


class TestNonLocal:
    def test_uniform_when_weights_zero(self, rng):
        # constant log(eps) bias cancels in the softmax: attention is uniform
        params = init_params(channels=4, seed=0)
        params.var("nl.0.theta.w").value[:] = 0.0
        params.var("nl.0.theta.b").value[:] = 0.0
        x = rng.normal(size=(5, 4))
        out = oracles.nonlocal_apply(x, np.zeros((5, 5)), params, layer=0)
        assert np.all(np.isfinite(out))
        # with theta = 0 the logits are constant per row: uniform attention
        g = x @ params.value("nl.0.g.w") + params.value("nl.0.g.b")
        msg = np.tile(g.mean(axis=0), (5, 1))
        expected = x + msg @ params.value("nl.0.out.w") + params.value("nl.0.out.b")
        assert np.allclose(out, expected, atol=1e-12)

    def test_single_vertex(self, rng):
        params = init_params(channels=4, seed=0)
        x = rng.normal(size=(1, 4))
        out = oracles.nonlocal_apply(x, np.ones((1, 1)), params, layer=2)
        g = x @ params.value("nl.2.g.w") + params.value("nl.2.g.b")
        expected = x + g @ params.value("nl.2.out.w") + params.value("nl.2.out.b")
        assert np.allclose(out, expected, atol=1e-12)

    def test_matches_loop_oracle(self, rng):
        params = init_params(channels=6, seed=2)
        x = rng.normal(size=(7, 6))
        w = rng.uniform(size=(7, 7))
        w = (w + w.T) / 2
        got = oracles.nonlocal_apply(x, w, params, layer=1)
        expected = oracles.nonlocal_loop(x, w, params, 1, 6)
        assert np.max(np.abs(got - expected)) < 1e-10


class TestLayerOracle:
    def test_first_layer_matches_loops(self):
        # X^1 from the naive per-index implementation of both stages
        ps, params = _prepared(n=6, seed=4, channels=8)
        tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        x0 = tr.xs[0]
        y_prev = np.zeros_like(x0)
        x1, y0 = oracles.conv_block_loop(x0, y_prev, tr.hs[0], tr.whs[0],
                                         ps.w_h0, params, 0, 8)
        assert np.max(np.abs(tr.ys[0] - y0)) < 1e-10
        assert np.max(np.abs(tr.xs[1] - x1)) < 1e-10

    def test_all_layers_match_loops(self):
        ps, params = _prepared(n=8, seed=5, channels=4)
        tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        n = len(ps.corrs)
        k2s = k2_schedule(n)
        y_prev = np.zeros((n, 4))
        for t in range(5):
            x_next, y = oracles.conv_block_loop(tr.xs[t], y_prev, tr.hs[t],
                                                tr.whs[t], ps.w_h0, params, t, 4)
            assert np.max(np.abs(tr.xs[t + 1] - x_next)) < 1e-10
            assert np.max(np.abs(tr.ys[t] - y)) < 1e-10
            if t < 4:
                h_new, w_new = oracles.update_block_loop(
                    tr.xs[t + 1], tr.ys[t], tr.hs[t], params, t, k2s[t], 4)
                assert np.array_equal(tr.hs[t + 1], h_new)
                assert np.max(np.abs(tr.whs[t + 1] - w_new)) < 1e-10
            y_prev = y


class TestBackward:
    def test_zero_seed_zero_grads(self):
        ps, params = _prepared(n=8, channels=4)
        tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        n = len(ps.corrs)
        grads = _s_hat_grads(tr, params, np.zeros(n))
        assert all(np.all(g == 0) for g in grads.values())
        grads = av.gradients([], [], [params.var(name) for name in params.names])
        assert all(np.all(g == 0) for g in grads)

    def test_seeded_backward_matches_fd_spot(self):
        ps, params = _prepared(n=8, channels=4, seed=6)
        rng = np.random.default_rng(0)
        n = len(ps.corrs)
        seed_s = rng.normal(size=n)
        tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        grads = _s_hat_grads(tr, params, seed_s)

        def value():
            with av.no_grad():
                t = forward(ps.corrs, ps.hg0, ps.w_h0, params)
            return float(seed_s @ t.s_hat)

        step = 1e-6
        for name in ("input_lift.w", "conf.w", "mlp2.3.w1", "upd.1.q.w"):
            arr = params.var(name).value
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + step
            f_plus = value()
            arr[idx] = orig - step
            f_minus = value()
            arr[idx] = orig
            fd = (f_plus - f_minus) / (2 * step)
            assert abs(fd - grads[name][idx]) <= 1e-4 * max(1.0, abs(fd))

    def test_joint_loss_gradients_flow_broadly(self):
        # narrow nets can have genuinely dead subpaths (FD-verified zeros),
        # so require signal in the large majority of tensors, not all
        ps, params = _prepared(n=12, channels=8, seed=7)
        tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        total, _ = joint_loss(tr, ps.labels, params)
        grads = av.grad(total, [params.var(n) for n in params.names])
        nonzero = sum(1 for g in grads if np.any(g != 0))
        assert nonzero >= 0.9 * len(grads)
        for key in ("input_lift.w", "conf.w", "log_sigma_f"):
            g = grads[params.names.index(key)]
            assert np.any(g != 0)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        params = init_params(channels=8, seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.channels == 8
        assert np.array_equal(loaded.flat(), params.flat())
        for name in params.names:
            assert np.array_equal(loaded.value(name), params.value(name))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @staticmethod
    def _header(channels, count):
        import struct
        from hgct.hgnn import CKPT_MAGIC, N_LAYERS
        return CKPT_MAGIC + struct.pack("<III", channels, N_LAYERS, count)

    @pytest.mark.parametrize("count", [10, 2 ** 32 - 1])
    def test_header_channels_disagree_with_count(self, tmp_path, count):
        path = tmp_path / "huge.ckpt"
        path.write_bytes(self._header(2 ** 20, count) + b"\0" * 64)
        with pytest.raises(ValueError, match="do not match channels=1048576"):
            load_checkpoint(path)

    def test_consistent_header_longer_than_file(self, tmp_path):
        n = init_params(channels=8, seed=0).n_params()
        path = tmp_path / "short.ckpt"
        path.write_bytes(self._header(8, n) + b"\0" * (8 * n - 1))
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(channels=8, seed=9), path)
        with open(path, "ab") as f:
            f.write(b"\0")
        with pytest.raises(ValueError, match="1 trailing bytes"):
            load_checkpoint(path)

    def test_sigma_f_accessor(self):
        params = init_params(channels=4, seed=0, sigma_f0=2.0)
        assert params.sigma_f == pytest.approx(2.0)
