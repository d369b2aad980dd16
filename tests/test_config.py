import dataclasses
import pickle

import pytest

from hgct.compat import CompatConfig, GraphOrder
from hgct.config import RunConfig, default_config_text, parse_config
from hgct.errors import ConfigError
from hgct.metrics import MetricThresholds
from hgct.pipeline import PipelineConfig
from hgct.train import SynthConfig, TrainConfig

# every key set away from its default
ALL_KEYS_TEXT = """
seed = 7
channels = 16
threads = 3
sigma_d = 0.25
k1_frac = 0.3
graph_order = fog
theta_cmp_override = 0.7
ns_frac = 0.4
ninit_frac = 0.5
knn_k = 12
minimal_size = 4
max_iters = 9
step = 2
theta_inlier = 0.2
nms_radius = 0.15
n1_frac = 0.6
epochs = 5
lr = 0.001
lr_decay = 0.9
batch = 3
n_scenes = 4
n_corrs = 50
inlier_ratio = 0.5
noise_sigma = 0.02
re_thresh_deg = 10.0
te_thresh = 0.1
"""


class TestParse:
    def test_defaults_roundtrip(self):
        cfg = parse_config(default_config_text())
        assert cfg == RunConfig()

    def test_values_and_comments(self):
        text = """
        # a comment
        seed = 7
        sigma_d = 0.25   # trailing comment
        graph_order = fog

        theta_cmp_override = 0.9
        nms_radius = none
        """
        cfg = parse_config(text)
        assert cfg.seed == 7
        assert cfg.sigma_d == 0.25
        assert cfg.graph_order == "fog"
        assert cfg.theta_cmp_override == 0.9
        assert cfg.nms_radius is None

    def test_unknown_key_named_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("seed = 1\nbogus_key = 2\n")
        assert "line 2" in str(err.value)
        assert "bogus_key" in str(err.value)

    def test_repeated_key_names_both_lines(self):
        # stages share keys (theta_inlier feeds the pipeline, training and
        # metrics), so a second value is an error, not a silent override
        with pytest.raises(ConfigError) as err:
            parse_config("theta_inlier = 0.05\nseed = 1\ntheta_inlier = 0.2\n")
        assert str(err.value) == "line 3: 'theta_inlier' is already set on line 1"

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("seed = banana\n")
        assert "seed" in str(err.value)

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("seed 1\n")

    def test_bad_enum_value_names_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("graph_order = bogus\n")
        assert "line 1" in str(err.value)
        assert "graph_order" in str(err.value)

    def test_pickle_roundtrip(self):
        cfg = RunConfig()
        assert pickle.loads(pickle.dumps(cfg)) == cfg


class TestDerivedConfigs:
    def test_nms_radius_defaults_to_sigma_d(self):
        cfg = parse_config("sigma_d = 0.5\n")
        assert cfg.pipeline_config().nms_radius == 0.5

    def test_nms_radius_explicit_wins(self):
        cfg = parse_config("sigma_d = 0.5\nnms_radius = 0.2\n")
        assert cfg.pipeline_config().nms_radius == 0.2

    def test_compat_config_override(self):
        cfg = parse_config("theta_cmp_override = 0.8\n")
        assert cfg.compat_config().theta_cmp_override == 0.8
        assert parse_config("").compat_config().theta_cmp_override is None

    def test_graph_order_enum(self):
        from hgct.compat import GraphOrder
        cc = parse_config("graph_order = fog\n").compat_config()
        assert cc.graph_order is GraphOrder.FOG

    def test_train_and_synth_configs(self):
        cfg = parse_config("epochs = 3\nlr = 0.01\nn_corrs = 42\nseed = 5\n")
        tc = cfg.train_config()
        assert tc.epochs == 3 and tc.lr == 0.01 and tc.seed == 5
        assert cfg.synth_config().n_corrs == 42

    def test_every_key_documented_in_defaults(self):
        import dataclasses
        text = default_config_text()
        for f in dataclasses.fields(RunConfig):
            assert f.name in text

    def test_every_key_maps_to_its_stage_field(self):
        cfg = parse_config(ALL_KEYS_TEXT)
        assert len(dataclasses.fields(RunConfig)) == 26
        for f in dataclasses.fields(RunConfig):
            assert getattr(cfg, f.name) != f.default, f.name
        assert cfg.compat_config() == CompatConfig(
            sigma_d=0.25, k1_frac=0.3, graph_order=GraphOrder.FOG, theta_cmp_override=0.7)
        assert cfg.pipeline_config() == PipelineConfig(
            ns_frac=0.4, ninit_frac=0.5, knn_k=12, minimal_size=4, max_iters=9,
            step=2, theta_inlier=0.2, nms_radius=0.15, n1_frac=0.6)
        assert cfg.train_config() == TrainConfig(
            epochs=5, lr=0.001, lr_decay=0.9, batch=3, theta_inlier=0.2,
            sigma_d=0.25, seed=7, threads=3)
        assert cfg.synth_config() == SynthConfig(
            n_corrs=50, inlier_ratio=0.5, noise_sigma=0.02, seed=7)
        assert cfg.thresholds() == MetricThresholds(re_thresh_deg=10.0, te_thresh=0.1,
                                                    theta_inlier=0.2)
        assert (cfg.channels, cfg.threads, cfg.n_scenes) == (16, 3, 4)

    def test_defaults_are_the_stage_defaults(self):
        cfg = RunConfig()
        assert cfg.compat_config() == CompatConfig()
        assert cfg.pipeline_config() == PipelineConfig()
        assert cfg.train_config() == TrainConfig()
        assert cfg.synth_config() == SynthConfig()
        assert cfg.thresholds() == MetricThresholds()


@pytest.mark.parametrize("cls, name", [
    (CompatConfig, "sigma_d"), (PipelineConfig, "theta_inlier"),
    (PipelineConfig, "nms_radius"), (TrainConfig, "theta_inlier"),
    (TrainConfig, "sigma_d"), (MetricThresholds, "re_thresh_deg"),
    (MetricThresholds, "te_thresh"), (MetricThresholds, "theta_inlier")])
@pytest.mark.parametrize("value", [-0.1, 0.0, float("nan"), float("inf")])
def test_thresholds_must_be_positive_and_finite(cls, name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        cls(**{name: value})
