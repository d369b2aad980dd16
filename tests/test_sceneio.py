import json
import os
import re

import numpy as np
import pytest

from hgct.errors import ConfigError
from hgct.sceneio import (dataset_files, read_dataset, read_scene,
                          scene_from_text, scene_to_text, write_dataset,
                          write_scene)
from hgct.train import SynthConfig, gen_scene


class TestRoundTrip:
    def test_full_scene_bit_exact(self, tmp_path):
        sc = gen_scene(SynthConfig(n_corrs=25, inlier_ratio=0.4, seed=8))
        path = tmp_path / "scene.txt"
        write_scene(sc, path)
        back = read_scene(path)
        assert np.array_equal(back.src, sc.src)
        assert np.array_equal(back.tgt, sc.tgt)
        assert np.array_equal(back.labels, sc.labels)
        assert np.array_equal(back.gt.R, sc.gt.R)
        assert np.array_equal(back.gt.t, sc.gt.t)

    def test_minimal_scene_without_gt_or_labels(self):
        rng = np.random.default_rng(0)
        from hgct.geom import CorrSet
        sc = CorrSet(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
        back = scene_from_text(scene_to_text(sc))
        assert back.gt is None and back.labels is None
        assert np.array_equal(back.src, sc.src)

    def test_features_roundtrip(self):
        rng = np.random.default_rng(1)
        from hgct.geom import CorrSet
        sc = CorrSet(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)),
                     feat=rng.normal(size=(4, 7)))
        back = scene_from_text(scene_to_text(sc))
        assert np.array_equal(back.feat, sc.feat)

    def test_header_format(self):
        sc = gen_scene(SynthConfig(n_corrs=10, seed=0))
        first = scene_to_text(sc).splitlines()[0]
        assert first == "HGCT-CORR v1 n=10 feat_dim=0 has_gt=1 has_labels=1"


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(ConfigError):
            scene_from_text("WRONG v9 n=1\n0 0 0 0 0 0\n")

    def test_truncated_rows(self):
        sc = gen_scene(SynthConfig(n_corrs=10, seed=0))
        text = "\n".join(scene_to_text(sc).splitlines()[:5])
        with pytest.raises(ConfigError):
            scene_from_text(text)

    def test_wrong_field_count(self):
        text = "HGCT-CORR v1 n=1 feat_dim=0 has_gt=0 has_labels=0\n1 2 3 4 5\n"
        with pytest.raises(ConfigError):
            scene_from_text(text)


    def test_text_after_rows_rejected(self):
        sc = gen_scene(SynthConfig(n_corrs=10, seed=0))
        text = scene_to_text(sc)
        assert len(scene_from_text(text + "\n  \n")) == 10  # blank lines are fine
        with pytest.raises(ConfigError, match=r"line 14: text after the 10 data rows"):
            scene_from_text(text + "\n0 0 0 0 0 0 1\n")  # after a blank line 13

    def test_wrong_field_count_names_line(self):
        sc = gen_scene(SynthConfig(n_corrs=10, seed=0))
        lines = scene_to_text(sc).splitlines()
        lines[4] += " 0.5"   # row 2 gets an eighth field
        with pytest.raises(ConfigError, match=r"line 5: expected 7 fields, got 8"):
            scene_from_text("\n".join(lines))

    def test_unparsable_number_names_line(self):
        text = ("HGCT-CORR v1 n=3 feat_dim=0 has_gt=0 has_labels=0\n"
                "1 2 3 4 5 6\n1 2 3 4 x5 6\n1 2 3 4 5 6\n")
        with pytest.raises(ConfigError, match=r"line 3: row 1 has a field"):
            scene_from_text(text)

    def test_label_must_be_integer(self):
        text = ("HGCT-CORR v1 n=2 feat_dim=0 has_gt=0 has_labels=1\n"
                "1 2 3 4 5 6 1\n1 2 3 4 5 6 0.5\n")
        with pytest.raises(ConfigError, match=r"line 3: row 1 has a label"):
            scene_from_text(text)

    def test_numbers_parse_as_python_float(self):
        # the array parse must give the bits float() gives, on every spelling
        words = ["1e-320", "-0", "+.5", "1E5", "2.2250738585072014e-308",
                 "1.7976931348623157e308", "0.1", "-123456789.123456789",
                 "5e-324", "9007199254740993", "1.00000000000000011102230246251565"]
        rng = np.random.default_rng(3)
        words += [format(v, ".17g") for v in rng.normal(size=40) * 1e3]
        words += ["0"] * (-len(words) % 6)
        rows = [" ".join(words[i:i + 6]) for i in range(0, len(words), 6)]
        text = (f"HGCT-CORR v1 n={len(rows)} feat_dim=0 has_gt=0 has_labels=0\n"
                + "\n".join(rows) + "\n")
        sc = scene_from_text(text)
        want = np.array([float(w) for w in words]).reshape(-1, 6)
        got = np.concatenate([sc.src, sc.tgt], axis=1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_row_rejected_by_index(self, tmp_path, bad):
        sc = gen_scene(SynthConfig(n_corrs=100, inlier_ratio=0.3, seed=1))
        path = tmp_path / "scene.txt"
        write_scene(sc, path)
        lines = path.read_text().splitlines()
        row = lines[2 + 5].split()  # header and gt line come first
        row[0] = bad
        lines[2 + 5] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"row 5 has a non-finite"):
            read_scene(path)

    @staticmethod
    def _with_gt_field(tmp_path, index, word):
        sc = gen_scene(SynthConfig(n_corrs=10, inlier_ratio=0.3, seed=1))
        path = tmp_path / "scene.txt"
        write_scene(sc, path)
        lines = path.read_text().splitlines()
        gt = lines[1].split()  # the line after the header
        gt[index] = word
        lines[1] = " ".join(gt)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_unparsable_ground_truth_names_file_and_line(self, tmp_path):
        path = self._with_gt_field(tmp_path, 4, "x")
        want = rf"^{re.escape(str(path))}: line 2: the ground truth has a field that is not"
        with pytest.raises(ConfigError, match=want):
            read_scene(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_ground_truth_names_file_and_line(self, tmp_path, bad):
        # a NaN translation would give all-False training labels and a NaN RE
        path = self._with_gt_field(tmp_path, 11, bad)
        want = rf"^{re.escape(str(path))}: line 2: the ground truth has a non-finite number"
        with pytest.raises(ValueError, match=want):
            read_scene(path)


class TestDataset:
    def test_write_read_manifest(self, tmp_path):
        out = tmp_path / "data"
        names = write_dataset(out, SynthConfig(n_corrs=15), n_scenes=3, seed=4)
        assert names == ["scene_0000.txt", "scene_0001.txt", "scene_0002.txt"]
        with open(out / "manifest.json") as f:
            manifest = json.load(f)
        assert manifest["n_scenes"] == 3
        assert manifest["files"] == names
        scenes = read_dataset(out)
        assert len(scenes) == 3 and len(scenes[0]) == 15

    def test_listing_follows_manifest(self, tmp_path):
        out = tmp_path / "data"
        write_dataset(out, SynthConfig(n_corrs=12), n_scenes=3, seed=0)
        assert [os.path.basename(p) for p in dataset_files(out)] == \
            ["scene_0000.txt", "scene_0001.txt", "scene_0002.txt"]
        (out / "manifest.json").write_text(json.dumps({"files": ["scene_0002.txt"]}))
        assert dataset_files(out) == [os.path.join(out, "scene_0002.txt")]
        (out / "manifest.json").unlink()
        (out / "scene_0001.txt").unlink()
        assert [os.path.basename(p) for p in dataset_files(out)] == \
            ["scene_0000.txt", "scene_0002.txt"]

    @pytest.mark.parametrize("make_dir", [True, False])
    def test_no_scenes_found(self, tmp_path, make_dir):
        path = tmp_path / "data"
        if make_dir:
            path.mkdir()
        with pytest.raises(ConfigError, match="no scenes found"):
            read_dataset(path)

    def test_manifest_count_matches_listing(self, tmp_path):
        out = tmp_path / "data"
        write_dataset(out, SynthConfig(n_corrs=12), n_scenes=4, seed=0)
        listed = [p.name for p in sorted(out.glob("scene_*.txt"))]
        with open(out / "manifest.json") as f:
            manifest = json.load(f)
        assert manifest["files"] == listed

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_dataset(a, SynthConfig(n_corrs=15), n_scenes=2, seed=4)
        write_dataset(b, SynthConfig(n_corrs=15), n_scenes=2, seed=4)
        for name in ("scene_0000.txt", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_scenes_differ_across_indices(self, tmp_path):
        out = tmp_path / "data"
        write_dataset(out, SynthConfig(n_corrs=15), n_scenes=2, seed=4)
        assert ((out / "scene_0000.txt").read_bytes()
                != (out / "scene_0001.txt").read_bytes())
