import re

import numpy as np
import pytest

from datforge.errors import ConfigError, FormatError
from datforge.gradcore import Tape
from datforge.models import (
    DannModel,
    FeatureExtractor,
    Head,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture()
def cfg():
    return ModelConfig(input_dim=8, hidden_dim=6, feature_dim=4, n_classes=3, n_domains=2)


class TestModelConfig:
    def test_domain_out_dim_multi_is_k_plus_one(self):
        cfg = ModelConfig(n_domains=3, domain_setting="multi")
        assert cfg.domain_out_dim == 4

    def test_domain_out_dim_binary_is_one(self):
        cfg = ModelConfig(n_domains=3, domain_setting="binary")
        assert cfg.domain_out_dim == 1

    def test_rejects_bad_setting(self):
        with pytest.raises(ConfigError):
            ModelConfig(domain_setting="triple")


class TestFeatureExtractor:
    def test_output_shape(self, cfg):
        fx = FeatureExtractor(cfg, rng=np.random.default_rng(0))
        z = fx.extract_features(np.zeros((5, cfg.input_dim)))
        assert z.shape == (5, cfg.feature_dim)

    def test_deterministic_init(self, cfg):
        a = FeatureExtractor(cfg, rng=np.random.default_rng(3))
        b = FeatureExtractor(cfg, rng=np.random.default_rng(3))
        x = np.random.default_rng(0).normal(size=(2, cfg.input_dim))
        assert np.array_equal(a.extract_features(x), b.extract_features(x))

    def test_different_seeds_differ(self, cfg):
        a = FeatureExtractor(cfg, rng=np.random.default_rng(3))
        b = FeatureExtractor(cfg, rng=np.random.default_rng(4))
        x = np.random.default_rng(0).normal(size=(2, cfg.input_dim))
        assert not np.array_equal(a.extract_features(x), b.extract_features(x))

    def test_wrong_input_dim_rejected(self, cfg):
        fx = FeatureExtractor(cfg, rng=np.random.default_rng(0))
        with pytest.raises((ConfigError, Exception)):
            fx.extract_features(np.zeros((2, cfg.input_dim + 1)))

    def test_parameter_groups(self, cfg):
        fx = FeatureExtractor(cfg, rng=np.random.default_rng(0))
        assert all(p.group == "feature_extractor" for p in fx.parameters())


class TestHeads:
    def test_label_predictor_logit_shape(self, cfg):
        head = DannModel(cfg, seed=1).label_head
        tape = Tape()
        out = head.forward_pooled(tape, tape.const(np.zeros((4, cfg.feature_dim))))
        assert out.value.shape == (4, cfg.n_classes)
        assert all(p.group == "label_predictor" for p in head.parameters())

    def test_domain_classifier_logit_shape_and_group(self, cfg):
        head = DannModel(cfg, seed=1).domain_head
        tape = Tape()
        pooled = tape.const(np.random.default_rng(0).normal(size=(4, cfg.feature_dim)))
        out = head.forward_pooled(tape, pooled)
        assert out.value.shape == (4, cfg.domain_out_dim)
        probs = tape.softmax_rows(out)
        assert np.allclose(probs.value.sum(axis=1), 1.0)
        assert all(p.group == "domain_classifier" for p in head.parameters())

    def test_binary_domain_classifier_single_output(self):
        cfg = ModelConfig(input_dim=8, feature_dim=4, domain_setting="binary")
        head = DannModel(cfg, seed=1).domain_head
        tape = Tape()
        pooled = tape.const(np.random.default_rng(0).normal(size=(4, cfg.feature_dim)))
        out = head.forward_pooled(tape, pooled)
        assert out.value.shape == (4, 1)
        p = tape.sigmoid(out)
        assert np.all((p.value > 0) & (p.value < 1))

    def test_head_is_pooled_times_w_plus_b(self, cfg):
        head = Head(np.random.default_rng(1), cfg.feature_dim, 3, "aux", "probe")
        assert [(p.name, p.group) for p in head.parameters()] == [("probe.W", "aux"),
                                                                  ("probe.b", "aux")]
        pooled = np.random.default_rng(0).normal(size=(4, cfg.feature_dim))
        tape = Tape()
        out = head.forward_pooled(tape, tape.const(pooled))
        assert np.array_equal(out.value, pooled @ head.w.value + head.b.value)


class TestDannModel:
    def test_forward_pooled_features_is_per_clip(self, cfg):
        model = DannModel(cfg, seed=0)
        rng = np.random.default_rng(1)
        feats = [rng.normal(size=(t, cfg.input_dim)) for t in (3, 5)]
        tape = Tape()
        pooled = model.forward_pooled_features(tape, feats)
        assert pooled.value.shape == (2, cfg.feature_dim)
        z0 = model.extractor.extract_features(feats[0]).mean(axis=0)
        assert np.allclose(pooled.value[0], z0)

    def test_pooled_features_stability(self, cfg):
        model = DannModel(cfg, seed=0)
        rng = np.random.default_rng(2)
        feats = [rng.normal(size=(4, cfg.input_dim))]
        a = model.pooled_features(feats)
        b = model.pooled_features(feats)
        assert np.array_equal(a, b)
        assert a.shape == (1, cfg.feature_dim)

    def test_parameters_cover_three_groups(self, cfg):
        model = DannModel(cfg, seed=0)
        groups = {p.group for p in model.parameters()}
        assert groups == {"feature_extractor", "label_predictor", "domain_classifier"}

    @pytest.mark.parametrize("setting, domain_out", [("multi", 3), ("binary", 1)])
    def test_parameter_layout_is_pinned(self, cfg, setting, domain_out):
        # the order, names, groups and shapes every checkpoint is written and read in
        model = DannModel(ModelConfig(input_dim=8, hidden_dim=6, feature_dim=4, n_classes=3,
                                      n_domains=2, domain_setting=setting), seed=0)
        fx, y, d = "feature_extractor", "label_predictor", "domain_classifier"
        assert [(p.name, p.group, p.value.shape) for p in model.parameters()] == [
            ("f.l1.W", fx, (8, 6)), ("f.l1.b", fx, (6,)),
            ("f.l2.W", fx, (6, 6)), ("f.l2.b", fx, (6,)),
            ("f.l3.W", fx, (6, 4)), ("f.l3.b", fx, (4,)),
            ("y.out.W", y, (4, 3)), ("y.out.b", y, (3,)),
            ("d.out.W", d, (4, domain_out)), ("d.out.b", d, (domain_out,)),
        ]
        rng = np.random.default_rng(0)  # one generator, drawn layer by layer in that order
        for p in model.parameters():
            if p.name.endswith(".W"):
                expected = rng.normal(0.0, 1.0 / np.sqrt(p.value.shape[0]), p.value.shape)
            else:
                expected = np.zeros(p.value.shape)
            assert np.array_equal(p.value, expected), p.name

    def test_group_selector(self, cfg):
        model = DannModel(cfg, seed=0)
        fx = model.group("feature_extractor")
        assert fx and all(p.group == "feature_extractor" for p in fx)


class TestCheckpoint:
    def test_round_trip_bitwise(self, cfg, tmp_path):
        model = DannModel(cfg, seed=7)
        path = tmp_path / "model.ckpt"
        model.save(path)
        clone = DannModel(cfg, seed=99)
        clone.load(path)
        for p, q in zip(model.parameters(), clone.parameters()):
            assert p.name == q.name and p.group == q.group
            assert np.array_equal(p.value, q.value)

    def test_checkpoint_file_is_deterministic(self, cfg, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        DannModel(cfg, seed=7).save(a)
        DannModel(cfg, seed=7).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("NOT-A-CHECKPOINT\n")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    # (line of the file, how it is corrupted, what the error says besides the path)
    @pytest.mark.parametrize("line, corrupt, message", [
        (0, lambda l: "DATFORGE-CKPT-0", "bad checkpoint header 'DATFORGE-CKPT-0'"),
        (1, lambda l: l.replace("param", "parm"), "bad checkpoint entry line"),
        (1, lambda l: l + " x", "parameter 'f.l1.W' does not parse: invalid literal for int"),
        (1, lambda l: l + " 2", "parameter 'f.l1.W' does not parse: 48 values for shape"),
        (2, lambda l: l.replace(" ", " 0x1.zp+0 ", 1),
         "parameter 'f.l1.W' does not parse: invalid hexadecimal"),
        (2, lambda l: l.rsplit(" ", 1)[0], "parameter 'f.l1.W' does not parse: 47 values"),
    ], ids=["header", "entry", "shape-int", "shape-count", "value-hex", "value-count"])
    def test_corrupt_line_is_format_error_naming_the_file(self, cfg, tmp_path, line, corrupt,
                                                          message):
        path = tmp_path / "model.ckpt"
        DannModel(cfg, seed=7).save(path)
        lines = path.read_text().splitlines()
        lines[line] = corrupt(lines[line])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=message) as exc:
            load_checkpoint(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_shape_mismatch_rejected(self, cfg, tmp_path):
        path = tmp_path / "model.ckpt"
        DannModel(cfg, seed=7).save(path)
        other = DannModel(
            ModelConfig(input_dim=9, hidden_dim=6, feature_dim=4, n_classes=3, n_domains=2),
            seed=0,
        )
        with pytest.raises((FormatError, ConfigError)):
            other.load(path)

    def test_mismatch_names_the_file(self, cfg, tmp_path):
        path = tmp_path / "model.ckpt"
        DannModel(cfg, seed=7).save(path)
        other = DannModel(ModelConfig(input_dim=8, hidden_dim=6, feature_dim=4, n_classes=5,
                                      n_domains=2), seed=0)
        with pytest.raises(ConfigError, match=re.escape(f"checkpoint {path} mismatch for "
                                                        f"'y.out.W'")):
            other.load(path)

    def test_partial_checkpoint_rejected(self, cfg, tmp_path):
        source = DannModel(cfg, seed=7)
        path = tmp_path / "partial.ckpt"
        save_checkpoint(path, source.parameters()[:1])
        model = DannModel(cfg, seed=99)
        before = [p.value.copy() for p in model.parameters()]
        with pytest.raises(FormatError, match="lacks parameters") as exc:
            model.load(path)
        missing = [p.name for p in model.parameters()[1:]]
        assert len(missing) == 9 and all(name in str(exc.value) for name in missing)
        assert "f.l1.W'" not in str(exc.value)
        for p, value in zip(model.parameters(), before):
            assert np.array_equal(p.value, value), p.name

    def test_parameter_named_twice_rejected(self, cfg, tmp_path):
        path = tmp_path / "twice.ckpt"
        DannModel(cfg, seed=7).save(path)
        lines = path.read_text().splitlines()
        assert lines[1].startswith("param f.l1.W ")
        twos = " ".join((2.0).hex() for _ in lines[2].split())
        path.write_text("\n".join([*lines, lines[1], twos]) + "\n")  # a second f.l1.W, last
        model = DannModel(cfg, seed=99)
        before = [p.value.copy() for p in model.parameters()]
        for load in (load_checkpoint, model.load):
            with pytest.raises(FormatError, match=re.escape(
                    f"{path}: parameter 'f.l1.W' appears twice")):
                load(path)
        for p, value in zip(model.parameters(), before):
            assert np.array_equal(p.value, value), p.name


def test_init_scale_tracks_fan_in():
    cfg = ModelConfig(input_dim=400, hidden_dim=400, feature_dim=4, n_classes=3, n_domains=2)
    fx = FeatureExtractor(cfg, rng=np.random.default_rng(0))
    w = fx.parameters()[0].value
    assert abs(w.std() - 1.0 / np.sqrt(400)) < 0.01
    b = fx.parameters()[1].value
    assert np.array_equal(b, np.zeros_like(b))
