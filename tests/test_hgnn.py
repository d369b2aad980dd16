import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hgct import autodiff as av
from hgct import hgnn
from hgct.compat import sparse_weights
from hgct.errors import NonFinite
from hgct.geom import CorrSet
from hgct.hgnn import (_topk_retention, _update, forward, init_params,
                       k2_schedule, load_checkpoint, param_specs, save_checkpoint)
from hgct.hypergraph import init_hypergraph
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
    return dict(zip(params.names, av.grad(av.vsum(av.mul(trace.s_var, seed)), wrt)))


def _generic_instance(seed, n=12, channels=8, density=0.5):
    """Random correspondences plus a generic weighted graph: continuous
    weights, distinct hyperedge member sets, no isolated vertices. The
    weights come sparse, as the graph build gives them."""
    rng = np.random.default_rng(seed)
    corrs = CorrSet(rng.uniform(-1, 1, (n, 3)), rng.uniform(-1, 1, (n, 3)))
    while True:
        mask = np.triu(rng.uniform(size=(n, n)) < density, 1)
        w = np.triu(rng.uniform(0.2, 1.0, (n, n)), 1) * mask
        w = w + w.T
        cols = {tuple(row) for row in (w > 0).T}
        if len(cols) == n and np.all((w > 0).sum(axis=0) > 0):
            break
    params = init_params(channels=channels, seed=seed + 50)
    w = sparse_weights(w)
    return corrs, init_hypergraph(w), w, params


class TestShapes:
    def test_output_shapes(self):
        ps, params = _prepared(n=10, channels=8)
        tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        n = len(ps.corrs)
        assert len(tr.xs) == 6 and all(x.shape == (n, 8) for x in tr.xs)
        assert len(tr.ys) == 5 and all(y.shape == (n, 8) for y in tr.ys)
        assert len(tr.hs) == 5 and len(tr.whs) == 4  # W_H^1..W_H^4
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
        support = rng.uniform(size=(n, n)) < density
        support[rng.integers(n)] = False  # at least one empty row
        want = oracles.topk_retention_loop(scores, support, k2)
        got = _topk_retention(scores, support, k2)
        assert got is support and got.dtype == bool
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("rows", [2, 3])
    def test_row_blocks_with_ties_across_boundaries(self, monkeypatch, rows):
        # rows of equal, partly tied scores run on both sides of every block
        # boundary; the k2-th score is tied in each long row. The mask
        # overwrites the support it reads, block by block
        n, k2 = 11, 4
        monkeypatch.setattr(av, "SCORE_BLOCK", rows * n)
        rng = np.random.default_rng(rows)
        row = np.round(rng.uniform(size=n), 1)
        row[[1, 4, 6, 9]] = row.max()
        scores = np.tile(row, (n, 1))
        scores[::3] = 0.5
        support = rng.uniform(size=(n, n)) < 0.8
        support[5] = False
        want = oracles.topk_retention_loop(scores, support, k2)
        assert _topk_retention(scores, support, k2) is support
        assert np.array_equal(support, want)

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
        monkeypatch.setattr(av, "SCORE_BLOCK", rows * n)
        k2 = k2_schedule(n)[0]
        x, y = av.wrap(tr.xs[1]), av.wrap(tr.ys[0])
        if tape:
            h_new, w_new, _ = _update(x, y, tr.hs[0].copy(), params, 0, k2)
        else:
            with av.no_grad():
                h_new, w_new, _ = _update(x, y, tr.hs[0].copy(), params, 0, k2)
        assert w_new.track == tape
        h_ref, w_ref = oracles.update_block_loop(tr.xs[1], tr.ys[0], tr.hs[0], params,
                                                 0, k2, 4)
        assert np.any(np.count_nonzero(tr.hs[0], axis=1) > k2)
        assert np.array_equal(h_new, h_ref)
        assert np.max(np.abs(w_new.value - w_ref)) < 1e-10
        assert np.array_equal(h_new, tr.hs[1]) and np.array_equal(w_new.value, tr.whs[0])


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
            h_new, w_new, _ = _update(x, y, tr.hs[t].copy(), params, t, k2s[t])
            # the unfused chain with an explicit off-support mask
            scores = oracles.scaled_scores_chain(
                hgnn._affine(x, params, f"upd.{t}.q"), hgnn._affine(y, params, f"upd.{t}.k"),
                1.0 / np.sqrt(params.channels), np.where(tr.hs[t] > 0, 0.0, -1e30),
                "sigmoid")
            h_ref = _topk_retention(scores.value, tr.hs[t].copy(), k2s[t])
            w_ref = av.mul(scores, h_ref)
            assert w_new.track
            assert np.array_equal(h_new, h_ref) and np.any(h_ref == 0)
            assert np.array_equal(w_new.value, w_ref.value)
            assert np.array_equal(w_new.value, tr.whs[t])
            g = rng.standard_normal(w_new.value.shape)
            for got, want in zip(av.grad(av.vsum(av.mul(w_new, g)), [x, y]),
                                 av.grad(av.vsum(av.mul(w_ref, g)), [x, y])):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
            with av.no_grad():
                h_lean, w_lean, _ = _update(x, y, tr.hs[t].copy(), params, t, k2s[t])
            assert not w_lean.track
            assert np.array_equal(h_lean, h_ref)
            assert np.array_equal(w_lean.value, w_ref.value)

    @pytest.mark.parametrize("n", [12, 200])
    def test_recomputed_vjp_equals_the_kept_scores_vjp(self, n):
        # the tape keeps H^{t+1}, not W_H^{t+1}; the VJP computes W_H^{t+1}
        # again and gives the bits of the sigmoid VJP on the kept array,
        # g * W * (1 - W), then the logits' and the projections' VJPs,
        # pruned entries and pruned rows included
        ps, params = _prepared(n=n, seed=2, ratio=0.6, channels=8)
        with av.no_grad():
            tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        k2s = k2_schedule(n)
        scale = 1.0 / np.sqrt(params.channels)
        rng = np.random.default_rng(n)
        for t in range(4):
            x = av.Var(tr.xs[t + 1], track=True)
            y = av.Var(tr.ys[t], track=True)
            h_new, w_new, _ = _update(x, y, tr.hs[t].copy(), params, t, k2s[t])
            w = w_new.value.copy()
            pruned = tr.hs[t] & ~h_new
            assert np.any(pruned.any(axis=1) & h_new.any(axis=1))
            g = rng.standard_normal(w.shape)
            dx, dy = av.grad(av.vsum(av.mul(w_new, g)), [x, y])
            gl = g * w * (1.0 - w)
            gl *= scale
            q = x.value @ params.value(f"upd.{t}.q.w") + params.value(f"upd.{t}.q.b")
            k = y.value @ params.value(f"upd.{t}.k.w") + params.value(f"upd.{t}.k.b")
            assert np.array_equal(dx, (gl @ k) @ params.value(f"upd.{t}.q.w").T)
            assert np.array_equal(dy, (q.T @ gl).T @ params.value(f"upd.{t}.k.w").T)

    @pytest.mark.parametrize("rows", [1, 4])
    def test_streamed_column_sums_bit_equal(self, monkeypatch, rows):
        # with every k row e_0, score (i, j) is sigmoid(q[i, 0] / sqrt(C)), one
        # exact product in any gemm, so the streamed W_H^1 rows equal the kept
        # ones and only the order of the column sums could differ: a running
        # sum added into each block's first row sums down axis 0 as numpy does
        ps, params = _prepared(n=30, seed=4, ratio=0.5, channels=8)
        params.var("upd.0.k.w").value[:] = 0.0
        params.var("upd.0.k.b").value[:] = np.eye(8)[0]
        with av.no_grad():
            tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        monkeypatch.setattr(av, "SCORE_BLOCK", rows * 30)
        x, y = av.wrap(tr.xs[1]), av.wrap(tr.ys[0])
        k2 = k2_schedule(30)[0]
        with av.no_grad():
            h_kept, w_kept, we_kept = _update(x, y, tr.hs[0].copy(), params, 0, k2)
            h_lean, w_lean, we_lean = _update(x, y, tr.hs[0].copy(), params, 0, k2, True)
        assert w_lean is None
        assert np.array_equal(h_lean, h_kept)
        assert np.array_equal(we_lean.value, we_kept.value)
        assert np.array_equal(we_kept.value, w_kept.value.sum(axis=0))
        # the order matters: summed bottom-up, some column differs
        assert not np.array_equal(we_kept.value, w_kept.value[::-1].copy().sum(axis=0))


class TestIncidenceProduct:
    """The conv's degree-scaled products De^-1 H^T X and Dv^-1 H Z, and
    their VJPs, from the boolean incidence against one float64 gemm over
    the whole incidence."""

    @staticmethod
    def _case(n, seed=0):
        rng = np.random.default_rng(seed)
        h = rng.uniform(size=(n, n)) < 0.14
        h[rng.integers(n)] = False      # an empty row
        h[:, rng.integers(n)] = False   # an empty column
        return h, rng.normal(size=(n, 32)), rng.normal(size=(n, 32))

    @staticmethod
    def _products(h, a, g):
        """(value, reference value, VJP, reference VJP) of both degree-scaled
        products by _aggregate, and by the float64 reference gemm, its tape
        op and degrees summed from the float incidence."""
        out = []
        for transpose in (True, False):
            x = av.param(a)
            got = hgnn._aggregate(h, x, transpose)
            (vjp,) = av.grad(av.vsum(av.mul(got, g)), [x])
            xr = av.param(a)
            degrees = h.astype(np.float64).sum(axis=0 if transpose else 1)
            ref = av.mul(oracles.incidence_product_chain(h, xr, transpose),
                         hgnn._safe_inv(degrees)[:, None])
            (vjp_ref,) = av.grad(av.vsum(av.mul(ref, g)), [xr])
            product = oracles.incidence_product_reference(h, a, transpose)
            assert np.array_equal(ref.value, product * hgnn._safe_inv(degrees)[:, None])
            out.append((got.value, ref.value, vjp, vjp_ref))
        return out

    @pytest.mark.parametrize("n", [200, 2000])
    def test_bit_equal_to_dense_gemm(self, n):
        # one slab at N=200, eight at N=2000: slabs of ROW_BLOCK = 256, a
        # multiple of 32, give the whole gemm's bits
        h, a, g = self._case(n)
        for got, want, vjp, vjp_want in self._products(h, a, g):
            assert got.tobytes() == want.tobytes()
            assert vjp.tobytes() == vjp_want.tobytes()

    @pytest.mark.parametrize("n", [333, 2001])
    def test_partial_last_slab_within_tolerance(self, n):
        h, a, g = self._case(n, seed=1)
        for got, want, vjp, vjp_want in self._products(h, a, g):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
            assert np.max(np.abs(vjp - vjp_want)) <= 1e-10 * np.max(np.abs(vjp_want))

    @pytest.mark.parametrize("inference", [False, True])
    def test_incidences_are_boolean(self, inference):
        ps, params = _prepared(n=40, seed=1, ratio=0.3)
        assert ps.hg0.dtype == bool
        with av.no_grad():
            tr = forward(ps.corrs, ps.hg0.copy(), ps.w_h0, params, inference=inference)
        assert len(tr.hs) == (1 if inference else 5)
        assert all(h.dtype == bool and h.shape == (40, 40) for h in tr.hs)


class TestSparseInitialWeights:
    """The attention's log bias and W_H^0's column sums, built a row block at
    a time from the sparse w_h0, against the dense expressions, bit for bit."""

    @staticmethod
    def _cases():
        """(w_h0, H^0) pairs: a registration-size graph, a graph with
        isolated vertices, an all-empty one, a matrix with a nonzero
        diagonal (which W_H^0's self-memberships replace), and a column whose
        sum depends on the order of its additions (1e16 + 1 rounds to 1e16,
        so summing a block of ones first would change it)."""
        ps, _ = _prepared(n=200, seed=1, ratio=0.3)
        cases = [ps.w_h0]
        w = oracles.dense(ps.w_h0)[:60, :60].copy()
        w[[5, 17, 59]] = 0.0
        w[:, [5, 17, 59]] = 0.0
        cases.append(sparse_weights(w))
        cases.append(sparse_weights(np.zeros((7, 7))))
        rng = np.random.default_rng(0)
        w = rng.uniform(size=(9, 9)) * (rng.uniform(size=(9, 9)) < 0.5)
        w[3] = 0.0
        cases.append(sparse_weights(w))
        w = np.zeros((30, 30))
        w[0, 5], w[1:30, 5] = 1e16, 1.0
        cases.append(sparse_weights(w))
        return [(w, init_hypergraph(w)) for w in cases]

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_log_bias_blocks_equal_dense_log(self, rows):
        # added block by block onto scores, as the attention adds it
        rng = np.random.default_rng(1)
        for w, _ in self._cases():
            n = w.n
            dense_bias = np.log(oracles.dense(w) + hgnn.NONLOCAL_EPS)
            scores = rng.normal(size=(n, n))
            got = scores.copy()
            bias = hgnn._log_bias(w)
            step = rows or n
            for lo in range(0, n, step):
                bias.add_rows(lo, got[lo:lo + step])
            want = scores + dense_bias
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            zeros = np.zeros((n, n))
            bias.add_rows(0, zeros)
            assert np.array_equal(zeros.view(np.int64), dense_bias.view(np.int64))

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_column_sums_equal_dense_sums(self, monkeypatch, rows):
        for w, h0 in self._cases():
            if rows is not None:
                monkeypatch.setattr(av, "SCORE_BLOCK", rows * w.n)
            want = oracles.initial_edge_weights_reference(oracles.dense(w), h0)
            got = hgnn._initial_edge_weights(w, h0)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.array_equal(got, oracles.initial_weights(w).sum(axis=0))
            assert not np.any(got[~h0.any(axis=0)])  # empty hyperedges weigh 0

    def test_all_empty_graph_sums_to_zero(self):
        w = sparse_weights(np.zeros((5, 5)))
        h0 = init_hypergraph(w)
        assert not np.any(h0)
        assert np.array_equal(hgnn._initial_edge_weights(w, h0), np.zeros(5))


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
        w = sparse_weights(w)
        h0 = init_hypergraph(w)
        assert np.all(h0[3] == 0)
        rng = np.random.default_rng(0)
        corrs = CorrSet(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
        params = init_params(channels=4, seed=1)
        tr = forward(corrs, h0, w, params)
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
        for h, wh in zip(tr.hs[1:], tr.whs):
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
            corrs, h0, w0, params = _generic_instance(seed, n=12, channels=8)
            tr = forward(corrs, h0, w0, params)
            rng = np.random.default_rng(seed + 100)
            perm = rng.permutation(12)
            pc = oracles.permuted(corrs, perm)
            pw = sparse_weights(oracles.dense(w0)[np.ix_(perm, perm)])
            ptr = forward(pc, h0[np.ix_(perm, perm)], pw, params)
            assert np.allclose(ptr.s_hat, tr.s_hat[perm], atol=1e-9)
            assert np.array_equal(ptr.h_final, tr.h_final[np.ix_(perm, perm)])
            assert np.allclose(ptr.x_final, tr.x_final[perm], atol=1e-9)

    def test_nonfinite_raises(self):
        ps, params = _prepared(n=10, channels=8)
        params.var("input_lift.w").value[0, 0] = np.nan
        with pytest.raises(NonFinite):
            forward(ps.corrs, ps.hg0, ps.w_h0, params)

    @pytest.mark.parametrize("inference", [False, True])
    def test_nonfinite_initial_weights_name_w_h0(self, inference):
        # W_H^0 is never built, but its column sums are checked under its name
        ps, params = _prepared(n=10, channels=8)
        w0 = oracles.dense(ps.w_h0)
        w0[0, 1] = w0[1, 0] = np.inf
        with av.no_grad(), pytest.raises(NonFinite, match=r"W_H\^0"):
            forward(ps.corrs, ps.hg0, sparse_weights(w0), params, inference=inference)


class TestLeanForward:
    """The inference pass keeps only the last layer, without W_H^4, with the
    same values."""

    @staticmethod
    def _both(corrs, hg0, w0, params):
        with av.no_grad():
            full = forward(corrs, hg0, w0, params)
            lean = forward(corrs, hg0.copy(), w0, params, inference=True)
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
        assert np.any(np.diff(np.sort(full.whs[3][full.hs[4] > 0])) == 0)
        self._assert_last_layer_equal(full, lean)

    @pytest.mark.parametrize("n", [200, 600])
    def test_registration_size_bit_equal(self, n):
        # one score block per array at N=200, six row blocks at N=600; with
        # numpy's bundled OpenBLAS the row-blocked gemms give the full gemm's
        # rows at both sizes
        ps, params = _prepared(n=n, seed=1, ratio=0.3, channels=32)
        assert (av.SCORE_BLOCK // n >= n) == (n == 200)
        self._assert_last_layer_equal(*self._both(ps.corrs, ps.hg0, ps.w_h0, params))

    @staticmethod
    def _support_flips(full, lean, params):
        """(row, column, score gap) for each entry where the two H^4 differ;
        the gap is the default pass's update-3 sigmoid score there minus the
        row's k2-th largest score on the support of H^3."""
        flips = np.argwhere(full.hs[4] != lean.hs[0])
        if not len(flips):
            return []
        q = hgnn._affine(av.wrap(full.xs[4]), params, "upd.3.q")
        k = hgnn._affine(av.wrap(full.ys[3]), params, "upd.3.k")
        with av.no_grad():
            scores = av.scaled_scores(q, k, 1.0 / np.sqrt(params.channels), None,
                                      "sigmoid").value
        k2 = k2_schedule(len(scores))[3]
        supported = np.where(full.hs[3] > 0, scores, -np.inf)
        kth = -np.sort(-supported, axis=1)[:, k2 - 1]
        return [(int(i), int(j), float(scores[i, j] - kth[i])) for i, j in flips]

    @pytest.mark.parametrize("n, block_rows", [(201, None), (333, None), (40, 3)])
    def test_row_blocked_gemms_within_tolerance(self, monkeypatch, n, block_rows):
        # q[rows] @ k.T may differ from (q @ k.T)[rows] in the last bits (at
        # N=333 here, in two row blocks), so the passes agree to 1e-10, and
        # H^4 only flips at a near-tie of the update's scores
        ps, params = _prepared(n=n, seed=1, ratio=0.3, channels=32)
        if block_rows is not None:
            monkeypatch.setattr(av, "SCORE_BLOCK", block_rows * n)
        full, lean = self._both(ps.corrs, ps.hg0, ps.w_h0, params)
        assert np.max(np.abs(lean.xs[0] - full.xs[5])) <= 1e-10
        assert np.max(np.abs(lean.s_hat - full.s_hat)) <= 1e-10
        flips = self._support_flips(full, lean, params)
        assert all(abs(gap) <= 1e-10 for _, _, gap in flips), flips

    def test_handed_over_inputs_die_after_their_last_read(self, monkeypatch):
        # every attention reads one sparse log bias, built once from w_h0,
        # which is left as it was and shares its row pointers and columns;
        # H^0's buffer holds H^{t+1} after update t and is H^4 in the trace;
        # nothing else of the inputs survives the trace
        ps, params = _prepared(n=12, seed=1, channels=8)
        with av.no_grad():
            plain = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        h0 = ps.hg0.copy()
        w0 = sparse_weights(oracles.dense(ps.w_h0))
        indptr, column, value = w0.indptr.copy(), w0.column.copy(), w0.value.copy()
        refs = {"H^0": weakref.ref(h0), "w_h0": weakref.ref(w0)}
        biases, supports = [], []

        def spy_update(x, y, h, *args):
            supports.append(h is refs["H^0"]())
            out = _update(x, y, h, *args)
            supports.append(out[0] is h)
            return out

        def spy_nonlocal(x, log_bias, *args):
            biases.append(log_bias)
            return attention(x, log_bias, *args)

        attention = hgnn._nonlocal
        monkeypatch.setattr(hgnn, "_update", spy_update)
        monkeypatch.setattr(hgnn, "_nonlocal", spy_nonlocal)
        with av.no_grad():
            got = forward(ps.corrs, h0, w0, params, inference=True)
        assert np.array_equal(w0.indptr, indptr) and np.array_equal(w0.column, column)
        assert np.array_equal(w0.value, value)
        assert biases[0].indptr is w0.indptr and biases[0].column is w0.column
        del h0, w0
        assert supports == [True] * 8 and len(biases) == 5
        assert all(b is biases[0] for b in biases)
        assert np.array_equal(oracles.dense(biases[0]),
                              np.log(oracles.dense(ps.w_h0) + hgnn.NONLOCAL_EPS))
        assert refs["w_h0"]() is None
        assert got.hs[0] is refs["H^0"]()
        assert got.w_nonlocal.shape == (0, 0)
        assert np.array_equal(got.hs[0], plain.hs[4])
        assert np.array_equal(got.s_hat, plain.s_hat)
        del got
        assert refs["H^0"]() is None

    def test_taped_inference_pass_raises(self):
        # the conv's backward pass reads the H^t that an inference pass
        # overwrites; the inputs are left as they were
        ps, params = _prepared(n=12, seed=2, channels=8)
        h0 = ps.hg0.copy()
        with pytest.raises(ValueError, match="no_grad"):
            forward(ps.corrs, h0, ps.w_h0, params, inference=True)
        assert np.array_equal(h0, ps.hg0)

    def test_input_hypergraph_left_unchanged(self):
        # the default pass, taped or not, never modifies its arguments, and
        # its trace keeps no reference to w_h0
        corrs, h0, w0, params = _generic_instance(3)
        h, w = h0.copy(), oracles.dense(w0)
        taped = forward(corrs, h0, w0, params)
        with av.no_grad():
            plain = forward(corrs, h0, w0, params)
        assert np.array_equal(h0, h) and np.array_equal(oracles.dense(w0), w)
        assert taped.hs[0] is h0
        assert taped.w_nonlocal.shape == plain.w_nonlocal.shape == (0, 0)

    @pytest.mark.parametrize("inference", [False, True])
    def test_poisoned_intermediate_layer_raises(self, inference):
        ps, params = _prepared(n=10, channels=8)
        params.var("nl.2.out.b").value[0] = np.nan  # first reaches X^3
        with av.no_grad(), pytest.raises(NonFinite, match=r"X\^3"):
            forward(ps.corrs, ps.hg0, ps.w_h0, params, inference=inference)


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
        x1, y0 = oracles.conv_block_loop(x0, y_prev, tr.hs[0],
                                         oracles.initial_weights(ps.w_h0),
                                         ps.w_h0, params, 0, 8)
        assert np.max(np.abs(tr.ys[0] - y0)) < 1e-10
        assert np.max(np.abs(tr.xs[1] - x1)) < 1e-10

    def test_all_layers_match_loops(self):
        ps, params = _prepared(n=8, seed=5, channels=4)
        tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        n = len(ps.corrs)
        k2s = k2_schedule(n)
        whs = [oracles.initial_weights(ps.w_h0)] + tr.whs
        y_prev = np.zeros((n, 4))
        for t in range(5):
            x_next, y = oracles.conv_block_loop(tr.xs[t], y_prev, tr.hs[t],
                                                whs[t], ps.w_h0, params, t, 4)
            assert np.max(np.abs(tr.xs[t + 1] - x_next)) < 1e-10
            assert np.max(np.abs(tr.ys[t] - y)) < 1e-10
            if t < 4:
                h_new, w_new = oracles.update_block_loop(
                    tr.xs[t + 1], tr.ys[t], tr.hs[t], params, t, k2s[t], 4)
                assert np.array_equal(tr.hs[t + 1], h_new)
                assert np.max(np.abs(whs[t + 1] - w_new)) < 1e-10
            y_prev = y


class TestBackward:
    def test_zero_seed_zero_grads(self):
        ps, params = _prepared(n=8, channels=4)
        tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        n = len(ps.corrs)
        grads = _s_hat_grads(tr, params, np.zeros(n))
        assert all(np.all(g == 0) for g in grads.values())
        grads = av.grad(av.wrap(0.0), [params.var(name) for name in params.names])
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
        params = init_params(channels=4, seed=0)
        assert np.exp(params.value("log_sigma_f")) == 1.0
