"""Tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import math
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import percentile, tail_percentile  # noqa: E402
from scenes import (is_rotation, make_scene, rotation_error_deg,  # noqa: E402
                    translation_error_m, truncated_mae, write_scene_file)
from tracer import Span, Tracer, self_time  # noqa: E402


def rot_z(deg):
    a = math.radians(deg)
    return np.array([[math.cos(a), -math.sin(a), 0.0],
                     [math.sin(a), math.cos(a), 0.0],
                     [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("deg", [0.0, 1e-7, 0.5, 30.0, 90.0, 179.0, 180.0])
def test_rotation_error_of_known_rotations(deg):
    base = make_scene(np.random.default_rng(0), 20, 0.5, 0.0).rot
    assert rotation_error_deg(base @ rot_z(deg), base) == pytest.approx(deg, rel=1e-6,
                                                                         abs=1e-12)


def test_rotation_error_is_symmetric_and_zero_on_itself():
    r1 = make_scene(np.random.default_rng(1), 20, 0.5, 0.0).rot
    r2 = make_scene(np.random.default_rng(2), 20, 0.5, 0.0).rot
    assert rotation_error_deg(r1, r1) == 0.0
    assert rotation_error_deg(r1, r2) == pytest.approx(rotation_error_deg(r2, r1))


def test_translation_error():
    assert translation_error_m(np.array([1.0, 2.0, 2.0]), np.zeros(3)) == 3.0
    assert translation_error_m(np.ones(3), np.ones(3)) == 0.0


def test_generated_scene_plants_its_pose():
    scene = make_scene(np.random.default_rng(3), 50, 0.4, 0.0)
    assert is_rotation(scene.rot)
    assert scene.labels.sum() == 20
    inl = scene.labels
    assert np.allclose(scene.src[inl] @ scene.rot.T + scene.trans, scene.tgt[inl])
    assert truncated_mae(scene.rot, scene.trans, scene.src, scene.tgt, 0.1) >= 20 - 1e-9
    assert not is_rotation(-scene.rot)


def test_scene_writer_round_trips_through_read_scene(tmp_path):
    from hgct.sceneio import read_scene
    scene = make_scene(np.random.default_rng(7), 60, 0.3, 0.01)
    path = str(tmp_path / "scene.txt")
    write_scene_file(scene, path)
    corrs = read_scene(path)
    assert np.array_equal(corrs.src, scene.src)
    assert np.array_equal(corrs.tgt, scene.tgt)
    assert np.array_equal(corrs.labels, scene.labels)
    assert np.array_equal(corrs.gt.R, scene.rot)
    assert np.array_equal(corrs.gt.t, scene.trans)
    assert corrs.feat is None


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile([5.0], 90) == 5.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(1, 101))) == 90
    assert tail_percentile(list(range(1, 100))) is None
    assert tail_percentile([1.0] * 200) is None


def test_self_time_subtracts_children_once():
    spans = [Span("parent", 0.0, 10.0),
             Span("a", 1.0, 3.0, parent=0),
             Span("b", 2.0, 4.0, parent=0),      # overlaps a: counted once
             Span("grandchild", 2.5, 3.5, parent=2),
             Span("c", 9.0, 12.0, parent=0)]     # clipped to the parent's end
    kids = {0: [1, 2, 4], 2: [3]}
    assert self_time(spans, 0, kids) == pytest.approx(10.0 - 3.0 - 1.0)
    assert self_time(spans, 2, kids) == pytest.approx(1.0)
    assert self_time(spans, 1, kids) == pytest.approx(2.0)


def test_tracer_records_nesting_counts_and_restores():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1

    def outer(x):
        return ns.inner(x) * 2

    def failing():
        raise KeyError("boom")

    ns.outer, ns.failing = outer, failing
    originals = (ns.inner, ns.outer, ns.failing)
    tracer = Tracer()
    tracer.wrap(ns, "outer", "outer", lambda t, i, args, r: t.count(i, "out", r))
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "failing", "failing")
    assert ns.outer(1) == 4
    with pytest.raises(KeyError):
        ns.failing()
    tracer.restore()
    assert (ns.inner, ns.outer, ns.failing) == originals

    names = [s.name for s in tracer.spans]
    assert names == ["outer", "inner", "failing"]
    outer_span, inner_span, fail_span = tracer.spans
    assert inner_span.parent == 0 and inner_span.request == 0
    assert outer_span.parent is None and fail_span.request == 2
    assert outer_span.counts == {"out": 4}
    assert fail_span.counts == {"raised": 1}
    assert outer_span.start <= inner_span.start <= inner_span.end <= outer_span.end
