import numpy as np
import pytest

import oracles
from hgct import autodiff as av


def fd_check(fn, args, step=1e-6, tol=1e-6):
    """Central finite differences against av.grad for scalar-valued fn."""
    leaves = [av.param(a) for a in args]
    out = fn(*leaves)
    analytic = av.grad(out, leaves)
    for leaf, an in zip(leaves, analytic):
        flat = leaf.value.reshape(-1)
        an_flat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = float(fn(*leaves).value)
            flat[i] = orig - step
            f_minus = float(fn(*leaves).value)
            flat[i] = orig
            fd = (f_plus - f_minus) / (2 * step)
            assert abs(fd - an_flat[i]) <= tol * max(1.0, abs(fd)), (
                f"grad mismatch at {i}: fd={fd} analytic={an_flat[i]}")


class TestOps:
    def test_add_mul_broadcast(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))
        fd_check(lambda x, y: av.vsum(av.mul(av.add(x, y), x)), [a, b])

    def test_matmul(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        fd_check(lambda x, y: av.vsum(av.matmul(x, y)), [a, b])

    def test_transpose_reshape(self, rng):
        a = rng.normal(size=(3, 4))
        fd_check(lambda x: av.vsum(av.mul(av.transpose(x), 2.0)), [a])
        fd_check(lambda x: av.vsum(av.reshape(x, (12,))), [a])

    def test_relu(self, rng):
        a = rng.normal(size=(5, 5)) + 0.05  # keep clear of the kink
        fd_check(lambda x: av.vsum(av.relu(x)), [a])

    def test_sigmoid_stable(self):
        big = av.sigmoid(av.wrap(np.array([-1e30, 0.0, 1e30])))
        assert np.array_equal(big.value, [0.0, 0.5, 1.0])

    def test_sigmoid_grad(self, rng):
        fd_check(lambda x: av.vsum(av.sigmoid(x)), [rng.normal(size=(4, 3))])

    def test_exp_log(self, rng):
        a = rng.uniform(0.5, 2.0, size=(3, 3))
        fd_check(lambda x: av.vsum(av.log(x)), [a])
        fd_check(lambda x: av.vsum(av.exp(x)), [a])

    def test_clip(self, rng):
        a = rng.uniform(-2, 2, size=(6,))
        out = av.clip(av.wrap(a), -1.0, 1.0)
        assert np.allclose(out.value, np.clip(a, -1, 1))
        leaf = av.param(np.array([-2.0, 0.3, 2.0]))
        g = av.grad(av.vsum(av.clip(leaf, -1.0, 1.0)), [leaf])[0]
        assert np.array_equal(g, [0.0, 1.0, 0.0])

    def test_sum_axes(self, rng):
        a = rng.normal(size=(3, 4))
        fd_check(lambda x: av.vsum(av.mul(av.vsum(x, axis=1), 3.0)), [a])
        fd_check(lambda x: av.vsum(av.mul(av.vsum(x, axis=0, keepdims=True), 2.0)), [a])
        fd_check(lambda x: av.vmean(av.mul(x, x)), [a])

    def test_concat_cols(self, rng):
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(3, 3))
        fd_check(lambda x, y: av.vsum(av.mul(av.concat_cols(x, y),
                                             av.concat_cols(x, y))), [a, b])

    def test_l2norm_rows(self, rng):
        a = rng.normal(size=(4, 3)) + 1.0
        fd_check(lambda x: av.vsum(av.mul(av.l2norm_rows(x),
                                          np.arange(12.0).reshape(4, 3))), [a])

    def test_l2norm_zero_row(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = av.l2norm_rows(av.wrap(x))
        assert np.array_equal(out.value[0], [0.0, 0.0])
        assert np.allclose(out.value[1], [0.6, 0.8])
        leaf = av.param(x)
        g = av.grad(av.vsum(av.l2norm_rows(leaf)), [leaf])[0]
        assert np.array_equal(g[0], [0.0, 0.0])

    def test_softmax_rows(self, rng):
        a = rng.normal(size=(4, 5))
        out = oracles.softmax_rows(av.wrap(a))
        assert np.allclose(out.value.sum(axis=1), 1.0)
        fd_check(lambda x: av.vsum(av.mul(oracles.softmax_rows(x),
                                          np.arange(20.0).reshape(4, 5))), [a])

    def test_softmax_with_large_negative_bias(self):
        logits = np.array([[1.0, -1e30, 2.0]])
        out = oracles.softmax_rows(av.wrap(logits))
        assert out.value[0, 1] == 0.0
        assert np.allclose(out.value.sum(), 1.0)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestInPlaceOps:
    """softmax_rows and sigmoid fill one output array; the values must equal
    the allocating expressions bit for bit, with and without the tape."""

    @staticmethod
    def _inputs(rng):
        a = rng.normal(size=(40, 30)) * 10.0 ** rng.integers(-3, 3, (40, 30))
        a[::3, ::4] = -1e30                     # masked entries
        a[1] = 750.0                            # exp overflow without the shift
        a[2] = np.round(a[2])                   # ties
        a[5, :] = -1e30                         # an all-masked row
        return a

    @pytest.mark.parametrize("track", [False, True])
    def test_softmax_rows_bit_equal(self, rng, track):
        a = self._inputs(rng)
        leaf = av.param(a) if track else av.wrap(a)
        out = oracles.softmax_rows(leaf)
        assert np.array_equal(_bits(out.value), _bits(oracles.softmax_rows_reference(a)))
        assert np.array_equal(leaf.value, a)  # input left untouched

    @pytest.mark.parametrize("track", [False, True])
    def test_sigmoid_bit_equal(self, rng, track):
        a = self._inputs(rng)
        a[3] = np.array([0.0, -0.0, 1e-320, -1e-320, 40.0, -40.0, 1e300, -1e300] * 4)[:30]
        leaf = av.param(a) if track else av.wrap(a)
        out = av.sigmoid(leaf)
        assert np.array_equal(_bits(out.value), _bits(oracles.sigmoid_reference(a)))
        assert np.array_equal(leaf.value, a)

    def test_vjps_use_the_output(self, rng):
        a = rng.normal(size=(6, 7))
        g = rng.normal(size=(6, 7))
        leaf = av.param(a)
        (ds,) = av.gradients([oracles.softmax_rows(leaf)], [g], [leaf])
        s = oracles.softmax_rows_reference(a)
        assert np.array_equal(ds, s * (g - np.sum(g * s, axis=1, keepdims=True)))
        (dg,) = av.gradients([av.sigmoid(leaf)], [g], [leaf])
        s = oracles.sigmoid_reference(a)
        assert np.array_equal(dg, g * s * (1.0 - s))


class TestScaledScores:
    """The fused score primitive against the allocating expressions and the
    unfused tape ops, bit for bit, in both activations."""

    ACTS = ["softmax", "sigmoid"]

    @staticmethod
    def _case(rng, n=24, m=30, c=5):
        q = rng.normal(size=(n, c))
        k = rng.normal(size=(m, c))
        bias = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-3, 3, (n, m))
        bias[::3, ::4] = -1e30                   # masked entries
        bias[1] = 750.0                          # exp overflow without the shift
        bias[2] = np.round(bias[2])              # ties
        bias[3] = -1e30                          # an all-masked row
        bias[4] = -np.arange(m) * 30.0           # exp underflows to 0 and to subnormals
        bias[6, 1::2] = -1e9
        return q, k, bias

    @pytest.fixture(params=[1 << 16, 64], ids=["one-block", "row-blocks"])
    def block(self, request, monkeypatch):
        # 64 elements is two rows of 30 per block, so blocks end mid-matrix
        monkeypatch.setattr(av, "SCORE_BLOCK", request.param)

    @pytest.mark.parametrize("activation", ACTS)
    @pytest.mark.parametrize("track", [False, True])
    def test_forward_bit_equal(self, rng, block, activation, track):
        q, k, bias = self._case(rng)
        inputs = [a.copy() for a in (q, k, bias)]
        wrap = av.param if track else av.wrap
        out = av.scaled_scores(wrap(q), wrap(k), 0.37, bias, activation)
        ref = oracles.scaled_scores_reference(q, k, 0.37, bias, activation)
        assert np.array_equal(_bits(out.value), _bits(ref))
        chain = oracles.scaled_scores_chain(wrap(q), wrap(k), 0.37, bias, activation)
        assert np.array_equal(_bits(out.value), _bits(chain.value))
        for a, b in zip(inputs, (q, k, bias)):
            assert np.array_equal(a, b)  # inputs left untouched

    @pytest.mark.parametrize("activation", ACTS)
    @pytest.mark.parametrize("track", [False, True])
    def test_without_bias_bit_equal(self, rng, block, activation, track):
        q, k, _ = self._case(rng)
        q[0] = 0.0                               # zero scores, of either sign
        q[1] = -q[1] * 1e3                       # saturated sigmoids
        wrap = av.param if track else av.wrap
        qa, ka = wrap(q), wrap(k)
        out = av.scaled_scores(qa, ka, 0.37, None, activation)
        ref = oracles.scaled_scores_reference(q, k, 0.37, None, activation)
        assert np.array_equal(_bits(out.value), _bits(ref))
        if track:
            g = rng.normal(size=out.shape)
            qc, kc = av.param(q), av.param(k)
            chain = oracles.scaled_scores_chain(qc, kc, 0.37, None, activation)
            assert np.array_equal(_bits(out.value), _bits(chain.value))
            for got, want in zip(av.gradients([out], [g], [qa, ka]),
                                 av.gradients([chain], [g], [qc, kc])):
                assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("activation", ACTS)
    def test_vjp_bit_equal_to_chain(self, rng, block, activation):
        q, k, bias = self._case(rng)
        g = rng.normal(size=bias.shape)
        qa, ka = av.param(q), av.param(k)
        dq, dk = av.gradients([av.scaled_scores(qa, ka, 0.37, bias, activation)], [g],
                              [qa, ka])
        qb, kb = av.param(q), av.param(k)
        rq, rk = av.gradients([oracles.scaled_scores_chain(qb, kb, 0.37, bias, activation)],
                              [g], [qb, kb])
        assert np.array_equal(_bits(dq), _bits(rq))
        assert np.array_equal(_bits(dk), _bits(rk))
        # and the chain's expressions written out
        s = oracles.scaled_scores_reference(q, k, 0.37, bias, activation)
        if activation == "softmax":
            gl = s * (g - np.sum(g * s, axis=1, keepdims=True))
        else:
            gl = g * s * (1.0 - s)
        gl = gl * 0.37
        assert np.array_equal(_bits(dq), _bits(gl @ k))
        assert np.array_equal(_bits(dk), _bits((q.T @ gl).T))

    @pytest.mark.parametrize("activation", ACTS)
    def test_finite_differences(self, rng, block, activation):
        bias = rng.normal(size=(4, 5))
        weights = rng.normal(size=(4, 5))
        fd_check(lambda q, k: av.vsum(av.mul(av.scaled_scores(q, k, 0.7, bias, activation),
                                             weights)),
                 [rng.normal(size=(4, 3)), rng.normal(size=(5, 3))])

    def test_exp_is_zero_below_the_underflow_cut(self):
        x = np.concatenate([-np.geomspace(-av.EXP_UNDERFLOW, 1e308, 4001), [-np.inf]])
        x = np.concatenate([x, np.nextafter(av.EXP_UNDERFLOW, -np.inf) - np.arange(100)])
        assert np.all(np.exp(x) == 0.0)
        assert not np.any(np.signbit(np.exp(x)))


class TestEngine:
    def test_constant_graph_not_tracked(self):
        a = av.wrap(np.ones(3))
        b = av.add(a, 1.0)
        assert not b.track

    def test_shared_subexpression_accumulates(self):
        x = av.param(np.array(2.0))
        y = av.add(av.mul(x, x), x)  # x^2 + x -> 2x + 1 = 5
        g = av.grad(y, [x])[0]
        assert g == pytest.approx(5.0)

    def test_unreachable_leaf_gets_zeros(self):
        x = av.param(np.ones((2, 2)))
        y = av.param(np.ones(3))
        out = av.vsum(x)
        gx, gy = av.gradients([out], [np.ones(())], [x, y])
        assert np.array_equal(gx, np.ones((2, 2)))
        assert np.array_equal(gy, np.zeros(3))

    def test_direct_output_leaf(self):
        x = av.param(np.ones(4))
        g = av.gradients([x], [np.full(4, 2.0)], [x])[0]
        assert np.array_equal(g, np.full(4, 2.0))

    def test_multi_root_accumulation(self):
        x = av.param(np.array([1.0, 2.0]))
        a = av.mul(x, 3.0)
        b = av.mul(x, x)
        g = av.gradients([a, b], [np.ones(2), np.ones(2)], [x])[0]
        assert np.allclose(g, 3.0 + 2.0 * x.value)

    def test_no_grad_mode(self):
        x = av.param(np.ones(3))
        with av.no_grad():
            y = av.mul(x, 2.0)
        assert not y.track
        assert np.array_equal(y.value, [2.0, 2.0, 2.0])
        assert oracles.grad_enabled()

    def test_deep_chain_no_recursion_limit(self):
        x = av.param(np.array(1.0))
        y = x
        for _ in range(5000):
            y = av.add(y, 1.0)
        g = av.grad(y, [x])[0]
        assert g == pytest.approx(1.0)

    @pytest.mark.parametrize("op", [av.add, av.sub, av.mul, av.matmul])
    def test_vjp_skips_constant_parents(self, rng, op):
        x = av.param(rng.normal(size=(4, 4)))
        c = rng.normal(size=(4, 4))
        for out in (op(x, c), op(c, x)):
            pairs = out._vjp(np.ones(out.shape))
            assert len(pairs) == 1 and pairs[0][0] is x
        y = av.param(rng.normal(size=(4, 4)))
        pairs = op(x, y)._vjp(np.ones((4, 4)))
        assert [p is q for (p, _), q in zip(pairs, (x, y))] == [True, True]
