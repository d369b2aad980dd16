import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hgct.errors import DegenerateInput
from hgct.geom import (CorrSet, RigidTransform, kabsch_svd,
                       random_rotation, residuals, rotation_about_axis,
                       rotation_error_deg, translation_error)
from oracles import Correspondence, Point3, residual, single_fit


def _corr(src, tgt):
    return Correspondence(Point3.from_array(np.asarray(src, float)),
                          Point3.from_array(np.asarray(tgt, float)))


class TestKabsch:
    def test_identity_on_fixed_points(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        t = single_fit(pts, pts)
        assert np.allclose(t.R, np.eye(3), atol=1e-12)
        assert np.allclose(t.t, 0.0, atol=1e-12)

    def test_pure_translation(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        shift = np.array([1.0, 2.0, 3.0])
        t = single_fit(pts, pts + shift)
        assert np.allclose(t.R, np.eye(3), atol=1e-12)
        assert np.allclose(t.t, shift, atol=1e-12)

    def test_generate_and_recover(self, rng):
        # noise-free oracle: apply a known transform, expect exact recovery
        for trial in range(20):
            rot = random_rotation(rng)
            tr = rng.normal(size=3)
            src = rng.uniform(-1, 1, (6, 3))
            tgt = src @ rot.T + tr
            est = single_fit(src, tgt)
            assert np.max(np.abs(est.R - rot)) < 1e-9
            assert np.linalg.norm(est.t - tr) < 1e-9

    def test_left_invariance(self, rng):
        # applying a rigid motion G to all targets composes exactly
        for _ in range(10):
            src = rng.uniform(-1, 1, (8, 3))
            tgt = rng.uniform(-1, 1, (8, 3))
            base = single_fit(src, tgt)
            g = RigidTransform(random_rotation(rng), rng.normal(size=3))
            moved = single_fit(src, oracles.apply(g, tgt))
            comp = oracles.compose(g, base)
            assert np.max(np.abs(moved.R - comp.R)) < 1e-8
            assert np.linalg.norm(moved.t - comp.t) < 1e-8

    def test_noise_free_residuals_tiny(self, rng):
        rot = random_rotation(rng)
        tr = rng.normal(size=3)
        src = rng.uniform(-1, 1, (4, 3))
        tgt = src @ rot.T + tr
        est = single_fit(src, tgt)
        assert np.all(residuals(est, src, tgt) <= 1e-9)

    def test_collinear_raises(self):
        # rank-deficient fits are masked, not raised
        src = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        _, _, ok = kabsch_svd(src[None], (src * 2.0 + 1.0)[None])
        assert ok.tolist() == [False]

    def test_coincident_raises(self):
        src = np.zeros((3, 3))
        _, _, ok = kabsch_svd(src[None], src[None])
        assert ok.tolist() == [False]

    def test_too_few_points_raises(self):
        src = np.array([[0.0, 0, 0], [1, 0, 0]])
        with pytest.raises(DegenerateInput):
            kabsch_svd(src[None], src[None])

    def test_planar_points_ok(self):
        # 3 points are always planar; rank-2 covariance must not be rejected
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        t = single_fit(pts, pts)
        assert oracles.is_valid(t)

    def test_reflection_fixed(self, rng):
        for _ in range(20):
            src = rng.uniform(-1, 1, (6, 3))
            tgt = rng.uniform(-1, 1, (6, 3))
            est = single_fit(src, tgt)
            assert oracles.is_valid(est, tol=1e-8)


class TestKabschBatch:
    """The stacked solver against one step-by-step fit per matrix, bit for bit."""

    def _check_against_loop(self, src, tgt):
        rots, trans, ok = kabsch_svd(src, tgt)
        for i in range(len(src)):
            ref = oracles.kabsch_fit_loop(src[i], tgt[i])
            assert ok[i] == (ref is not None)
            if ref is not None:
                assert np.array_equal(rots[i], ref[0])
                assert np.array_equal(trans[i], ref[1])
        return ok

    def test_matches_per_matrix_fits(self, rng):
        for k in (3, 6, 20):
            rot = np.stack([random_rotation(rng) for _ in range(30)])
            src = rng.uniform(-1, 1, (30, k, 3))
            tgt = (np.einsum("mij,mkj->mki", rot, src) + rng.normal(size=(30, 1, 3))
                   + rng.normal(0.0, 0.05, (30, k, 3)))
            assert self._check_against_loop(src, tgt).all()

    def test_reflection_case(self, rng):
        # mirrored targets: the plain U V^T is a reflection and must be fixed
        src = rng.uniform(-1, 1, (10, 6, 3))
        tgt = src * np.array([1.0, 1.0, -1.0])
        cov_dets = [np.linalg.det((t - t.mean(0)).T @ (s - s.mean(0)))
                    for s, t in zip(src, tgt)]
        assert all(d < 0 for d in cov_dets)
        assert self._check_against_loop(src, tgt).all()
        rots, _, _ = kabsch_svd(src, tgt)
        assert np.allclose(np.linalg.det(rots), 1.0, atol=1e-12)

    def test_mixed_stack_masks_rank_deficient(self, rng):
        good = rng.uniform(-1, 1, (6, 3))
        duplicate = np.repeat(good[:1], 6, axis=0)
        collinear = np.linspace(0.0, 1.0, 6)[:, None] * np.array([1.0, -2.0, 0.5])
        one_off = np.vstack([np.repeat(good[:1], 5, axis=0), good[1:2]])
        src = np.stack([good, duplicate, good * 2.0, collinear, one_off, good + 1.0])
        rot = random_rotation(rng)
        tgt = src @ rot.T + rng.normal(size=3)
        ok = self._check_against_loop(src, tgt)
        assert ok.tolist() == [True, False, True, False, False, True]
        assert np.count_nonzero(~ok) == 3

    def test_empty_stack(self):
        rots, trans, ok = kabsch_svd(np.zeros((0, 6, 3)), np.zeros((0, 6, 3)))
        assert rots.shape == (0, 3, 3) and trans.shape == (0, 3) and ok.shape == (0,)

    def test_too_few_points_raises(self):
        with pytest.raises(DegenerateInput):
            kabsch_svd(np.zeros((4, 2, 3)), np.zeros((4, 2, 3)))

    def test_single_fit_is_batch_of_one(self, rng):
        src = rng.uniform(-1, 1, (8, 3))
        tgt = rng.uniform(-1, 1, (8, 3))
        ref = oracles.kabsch_fit_loop(src, tgt)
        rots, trans, ok = kabsch_svd(src[None], tgt[None])
        assert ok.tolist() == [True]
        assert np.array_equal(rots[0], ref[0]) and np.array_equal(trans[0], ref[1])


class TestCorrSetFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_src_row_rejected_by_index(self, rng, bad):
        src = rng.uniform(-1, 1, (100, 3))
        tgt = rng.uniform(-1, 1, (100, 3))
        src[5, 0] = bad
        with pytest.raises(ValueError, match=r"row 5\b"):
            CorrSet(src, tgt)

    def test_first_bad_row_named(self, rng):
        src = rng.uniform(-1, 1, (100, 3))
        tgt = rng.uniform(-1, 1, (100, 3))
        tgt[62, 2] = np.inf
        src[37, 1] = np.nan
        with pytest.raises(ValueError, match=r"row 37\b"):
            CorrSet(src, tgt)


class TestResidual:
    def test_zero_for_identity_match(self):
        c = _corr([0.3, -0.2, 1.0], [0.3, -0.2, 1.0])
        assert residual(oracles.identity(), c) == 0.0

    def test_3_4_5(self):
        c = _corr([0, 0, 0], [0, 3, 4])
        assert residual(oracles.identity(), c) == pytest.approx(5.0, abs=1e-14)

    def test_matches_hand_expansion(self, rng):
        rot = random_rotation(rng)
        tr = rng.normal(size=3)
        s = rng.normal(size=3)
        q = rng.normal(size=3)
        p = rot @ s + tr - q
        expected = np.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
        got = residual(RigidTransform(rot, tr), _corr(s, q))
        assert got == pytest.approx(expected, abs=1e-14)

    @given(st.lists(st.floats(-10, 10), min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, vals):
        c = _corr(vals[:3], vals[3:])
        assert residual(oracles.identity(), c) >= 0.0


class TestPoseErrors:
    def test_zero_when_equal(self, rng):
        rot = random_rotation(rng)
        assert rotation_error_deg(rot, rot) == pytest.approx(0.0, abs=1e-6)

    def test_180_about_z(self):
        rz = rotation_about_axis([0, 0, 1], np.pi)
        assert rotation_error_deg(rz, np.eye(3)) == pytest.approx(180.0, abs=1e-9)

    def test_axis_angle_construction(self, rng):
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            rot = rotation_about_axis(axis, np.radians(10.0))
            assert rotation_error_deg(rot, np.eye(3)) == pytest.approx(10.0, abs=1e-6)

    def test_symmetric_and_bounded(self, rng):
        for _ in range(50):
            a = random_rotation(rng)
            b = random_rotation(rng)
            re_ab = rotation_error_deg(a, b)
            re_ba = rotation_error_deg(b, a)
            assert re_ab == pytest.approx(re_ba, abs=1e-9)
            assert 0.0 <= re_ab <= 180.0

    def test_translation_error(self):
        assert translation_error([1, 2, 3], [1, 2, 3]) == 0.0
        assert translation_error([0, 0, 0], [0, 3, 4]) == pytest.approx(5.0)


class TestCorrSet:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CorrSet(np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            CorrSet(np.zeros((4, 3)), np.zeros((5, 3)))
        with pytest.raises(ValueError):
            CorrSet(np.zeros((4, 3)), np.zeros((4, 3)), labels=[True])

    def test_permuted_roundtrip(self, rng):
        src = rng.normal(size=(6, 3))
        tgt = rng.normal(size=(6, 3))
        labels = rng.uniform(size=6) > 0.5
        cs = CorrSet(src, tgt, labels=labels)
        perm = rng.permutation(6)
        ps = oracles.permuted(cs, perm)
        assert np.array_equal(ps.src, src[perm])
        assert np.array_equal(ps.labels, labels[perm])
