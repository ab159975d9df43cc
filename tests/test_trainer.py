from dataclasses import replace

import numpy as np
import pytest

from datforge.distort import build_continual_set, build_splits, synth_corpus, with_test_sets
from datforge import distort, pipeline, trainer
from datforge.errors import ConfigError, DatforgeError, PolicyError
from datforge.evalharness import evaluate
from datforge.gradcore import Optimizer, Tape
from datforge.models import DannModel, ModelConfig
from datforge.objectives import entropy_domain_loss, task_loss
from datforge.pipeline import ExperimentManifest, SweepSpec, run_sweep, write_training_log
from datforge.trainer import (
    CONTINUAL_STAGES,
    DEFAULT_LAMBDA_GRID,
    LogRow,
    TrainConfig,
    build_domain_loss,
    continual_pretrain,
    dat_step,
    domain_indices,
    features_of,
    pretrain,
    run_stage,
    train_dat,
    train_supervised,
)

SMALL_MODEL = ModelConfig(input_dim=64, hidden_dim=16, feature_dim=8, n_classes=4, n_domains=3)


def continual_heldout_loss(model: DannModel, heldout) -> float:
    """Mean squared feature distance on distorted/clean pairs, decoder-free proxy.

    Tracks that pretraining brings distorted features toward the clean ones.
    """
    total, n = 0.0, 0
    for c in heldout:
        zn = model.extractor.extract_features(c.waveform.features)
        zc = model.extractor.extract_features(c.clean.features)
        total += float(np.mean((zn - zc) ** 2))
        n += 1
    return total / max(n, 1)


def small_cfg(**kw):
    kw.setdefault("epochs", 2)
    kw.setdefault("continual_epochs", 2)
    kw.setdefault("batch_size", 4)
    return TrainConfig(**kw)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.objective == "ce" and cfg.domain_setting == "multi"

    def test_bce_requires_binary(self):
        assert TrainConfig(objective="bce").domain_setting == "binary"
        assert TrainConfig(objective="ce").domain_setting == "multi"
        assert TrainConfig(objective="entropy").domain_setting == "multi"
        with pytest.raises(TypeError):  # derived from the objective, never set
            TrainConfig(objective="bce", domain_setting="multi")
        with pytest.raises(AttributeError):
            TrainConfig().domain_setting = "binary"

    def test_unknown_objective_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(objective="hinge")

    def test_lr_by_group_covers_three_groups(self):
        lrs = TrainConfig(eta=1.0, alpha=2.0, beta=3.0).lr_by_group()
        assert lrs == {"feature_extractor": 1.0, "label_predictor": 2.0,
                       "domain_classifier": 3.0}


class TestDomainIndices:
    def test_multi_passthrough(self, small_splits):
        doms = domain_indices(small_splits.T, "multi")
        assert set(doms) <= {1, 2, 3}

    def test_binary_collapse(self, small_splits):
        doms = domain_indices(small_splits.T, "binary")
        assert set(doms) == {1}  # every T clip is distorted


class TestSgdEquations:
    """SGD-mode deltas must realize the coupled update equations literally."""

    @pytest.mark.parametrize("objective, lam", [
        ("ce", 1e-2), ("ce", 1e-3),  # multi-domain model
        ("bce", 1e-2), ("bce", 1e-3),  # binary-domain model
    ], ids=["0.01", "0.001", "bce-0.01", "bce-0.001"])
    def test_deltas_match_equations(self, small_splits, objective, lam):
        eta, alpha, beta = 1e-3, 2e-3, 3e-3
        cfg = small_cfg(eta=eta, alpha=alpha, beta=beta, grl_lambda=lam, objective=objective)
        s_feats = features_of(small_splits.S[:4])
        s_labels = np.array([c.label for c in small_splits.S[:4]])
        t_feats = features_of(small_splits.T[:4])
        t_domains = domain_indices(small_splits.T[:4], cfg.domain_setting)
        model_cfg = replace(SMALL_MODEL, domain_setting=cfg.domain_setting)

        def fresh():
            return DannModel(model_cfg, seed=3)

        # reference gradients from two separate backward passes without the reversal
        ref = fresh()
        tape = Tape()
        pooled_c = ref.forward_pooled_features(tape, s_feats)
        loss_y = task_loss(tape, ref.label_head.forward_pooled(tape, pooled_c), s_labels)
        tape.backward(loss_y)
        gy = {p.name: p.grad.copy() for p in ref.parameters()}

        ref2 = fresh()
        tape = Tape()
        pooled_c = ref2.forward_pooled_features(tape, s_feats)
        pooled_n = ref2.forward_pooled_features(tape, t_feats)
        pooled_all = tape.concat_rows([pooled_c, pooled_n])
        domains = np.concatenate([np.zeros(4, dtype=np.int64), t_domains])
        loss_d = build_domain_loss(tape, ref2, pooled_all, domains, cfg, adversarial=False)
        tape.backward(loss_d)
        gd = {p.name: p.grad.copy() for p in ref2.parameters()}

        model = fresh()
        before = {p.name: p.value.copy() for p in model.parameters()}
        opt = Optimizer(model.parameters(), cfg.lr_by_group(), sgd=True)
        dat_step(model, s_feats, s_labels, t_feats, t_domains, cfg, opt)

        for p in model.parameters():
            delta = p.value - before[p.name]
            if p.group == "label_predictor":
                expected = -alpha * gy[p.name]
            elif p.group == "domain_classifier":
                expected = -beta * gd[p.name]
            else:
                expected = -eta * (gy[p.name] - lam * gd[p.name])
            assert np.max(np.abs(delta - expected)) < 1e-10, (p.name, lam)


class TestDatStep:
    def test_returns_finite_losses_and_updates(self, small_splits):
        model = DannModel(SMALL_MODEL, seed=1)
        cfg = small_cfg()
        opt = Optimizer(model.parameters(), cfg.lr_by_group())
        before = [p.value.copy() for p in model.parameters()]
        ly, ld = dat_step(
            model, features_of(small_splits.S[:4]),
            np.array([c.label for c in small_splits.S[:4]]),
            features_of(small_splits.T[:4]),
            domain_indices(small_splits.T[:4], "multi"), cfg, opt,
        )
        assert np.isfinite(ly) and np.isfinite(ld)
        assert any(not np.array_equal(b, p.value) for b, p in zip(before, model.parameters()))
        assert all(np.array_equal(p.grad, np.zeros_like(p.grad)) for p in model.parameters())

    def test_empty_batch_rejected(self, small_splits):
        model = DannModel(SMALL_MODEL, seed=1)
        cfg = small_cfg()
        opt = Optimizer(model.parameters(), cfg.lr_by_group())
        with pytest.raises(ValueError):
            dat_step(model, [], np.array([]), [], np.array([]), cfg, opt)


class TestBuildDomainLoss:
    def _pooled(self, model, splits, tape):
        return model.forward_pooled_features(tape, features_of(splits.T[:4]))

    def test_ce_and_entropy_scalars(self, small_splits):
        for objective in ("ce", "entropy"):
            model = DannModel(SMALL_MODEL, seed=2)
            cfg = small_cfg(objective=objective)
            tape = Tape()
            pooled = self._pooled(model, small_splits, tape)
            doms = domain_indices(small_splits.T[:4], "multi")
            loss = build_domain_loss(tape, model, pooled, doms, cfg)
            assert loss.value.shape == ()
            assert np.isfinite(loss.value)

    def test_bce_with_binary_model(self, small_splits):
        mcfg = ModelConfig(input_dim=64, hidden_dim=16, feature_dim=8,
                           n_classes=4, n_domains=3, domain_setting="binary")
        model = DannModel(mcfg, seed=2)
        cfg = small_cfg(objective="bce")
        tape = Tape()
        pooled = self._pooled(model, small_splits, tape)
        doms = domain_indices(small_splits.T[:4], "binary")
        loss = build_domain_loss(tape, model, pooled, doms, cfg)
        assert np.isfinite(loss.value)

    def test_entropy_objective_head_gets_ce_gradient_extractor_gets_reversed(self, small_splits):
        model = DannModel(SMALL_MODEL, seed=2)
        cfg = small_cfg(objective="entropy")
        tape = Tape()
        pooled = self._pooled(model, small_splits, tape)
        doms = domain_indices(small_splits.T[:4], "multi")
        tape.backward(build_domain_loss(tape, model, pooled, doms, cfg))
        head_grads = [np.abs(p.grad).max() for p in model.domain_head.parameters()]
        fx_grads = [np.abs(p.grad).max() for p in model.extractor.parameters()]
        assert max(head_grads) > 0
        assert max(fx_grads) > 0

    # powers of two, so that scaling a gradient by -lambda is exact in floating point
    @pytest.mark.parametrize("lam", [2.0**-7, 2.0**-10])
    def test_entropy_split_is_exact(self, small_splits, lam):
        cfg = small_cfg(objective="entropy", grl_lambda=lam)
        doms = domain_indices(small_splits.T[:4], "multi")

        def grads(loss_fn):
            model = DannModel(SMALL_MODEL, seed=2)
            tape = Tape()
            tape.backward(loss_fn(model, tape, self._pooled(model, small_splits, tape)))
            return model, {p.name: p.grad.copy() for p in model.parameters()}

        model, adv = grads(lambda m, tape, pooled: build_domain_loss(tape, m, pooled, doms, cfg))
        _, ce = grads(lambda m, tape, pooled: build_domain_loss(tape, m, pooled, doms, cfg,
                                                                adversarial=False))

        def entropy_through_constant_head(m, tape, pooled):
            w, b = tape.const(m.domain_head.w.value), tape.const(m.domain_head.b.value)
            return entropy_domain_loss(tape, tape.softmax_rows(tape.linear(pooled, w, b)))

        _, ent = grads(entropy_through_constant_head)
        for p in model.parameters():
            if p.group == "domain_classifier":  # the head descends its CE loss only
                assert np.any(adv[p.name] != 0.0) and np.array_equal(adv[p.name], ce[p.name])
            elif p.group == "feature_extractor":  # the extractor gets the reversed entropy only
                assert np.any(adv[p.name] != 0.0) and not np.any(ce[p.name])
                assert np.array_equal(adv[p.name], -lam * ent[p.name]), p.name
            else:
                assert not np.any(adv[p.name]), p.name


class TestSupervisedAndStages:
    def test_supervised_reduces_loss(self, small_splits):
        model = DannModel(SMALL_MODEL, seed=4)
        rows = train_supervised(small_splits.S, model, small_cfg(epochs=20, alpha=1e-2, eta=1e-2))
        assert rows[-1].loss_y < rows[0].loss_y

    def test_run_stage_rejects_unknown(self, small_splits):
        with pytest.raises(ConfigError):
            run_stage("warmup", small_splits, small_cfg(), SMALL_MODEL)

    @pytest.mark.parametrize("stage", CONTINUAL_STAGES)
    def test_continual_stage_requires_pretrained(self, small_splits, stage):
        with pytest.raises(ConfigError, match=f"stage {stage!r} requires a pretrained"):
            run_stage(stage, small_splits, small_cfg(), SMALL_MODEL)

    def test_oracle_uses_policy_gate(self, small_splits):
        result = run_stage("oracle", small_splits, small_cfg(epochs=1), model_cfg=SMALL_MODEL)
        assert result.stage == "oracle"
        assert result.grl_lambda is None
        with pytest.raises(PolicyError):
            small_splits.oracle_labeled_target("curiosity")

    def test_dat_stage_records_lambda_and_objective(self, small_splits):
        result = run_stage("dat_only", small_splits, small_cfg(epochs=1), model_cfg=SMALL_MODEL)
        assert result.objective == "ce"
        assert result.grl_lambda == pytest.approx(1e-2)

    def test_stage_determinism(self, small_splits):
        a = run_stage("dat_only", small_splits, small_cfg(epochs=2, seed=9), model_cfg=SMALL_MODEL)
        b = run_stage("dat_only", small_splits, small_cfg(epochs=2, seed=9), model_cfg=SMALL_MODEL)
        for p, q in zip(a.model.parameters(), b.model.parameters()):
            assert np.array_equal(p.value, q.value)

    def test_continual_checkpoint_round_trip(self, small_corpus, small_splits, tmp_path):
        cont = build_continual_set(small_corpus[:8], seed=2)
        cfg = small_cfg(epochs=1)
        pre = pretrain(cfg, cont, SMALL_MODEL, "continual_only")
        res = run_stage("continual_only", small_splits, cfg, SMALL_MODEL, pre)
        res.start.save(tmp_path / "continual_only_continual.ckpt")
        clone = DannModel(SMALL_MODEL, seed=0)
        clone.load(tmp_path / "continual_only_continual.ckpt")
        for p, value in zip(clone.extractor.parameters(), pre.extractor):
            assert np.array_equal(p.value, value)



@pytest.fixture()
def nan_features(monkeypatch):
    """Splits and a continual set built afresh, so that every clip featurizes to NaN.

    Shared clips may hold features already (``Waveform.features`` keeps them).
    """
    real = distort.featurize
    monkeypatch.setattr(distort, "featurize", lambda w: np.full_like(real(w), np.nan))
    corpus = synth_corpus(10, 4, seed=11)
    splits = with_test_sets(build_splits(corpus, synth_corpus(3, 4, seed=12, id_prefix="test"),
                                         seed=5))
    return splits, build_continual_set(corpus[:8], seed=2)


class TestNonFiniteLoss:
    @pytest.mark.parametrize("stage, loss", [("baseline", "L_y"), ("dat_only", "L_y"),
                                             ("continual_only", "L_continual")])
    def test_nan_features_stop_training(self, nan_features, stage, loss):
        splits, cont = nan_features
        with pytest.raises(DatforgeError) as exc:
            pre = (pretrain(small_cfg(), cont, SMALL_MODEL, stage)
                   if stage in CONTINUAL_STAGES else None)
            run_stage(stage, splits, small_cfg(), SMALL_MODEL, pretrained=pre)
        assert not isinstance(exc.value, ConfigError)  # a runtime failure, not a bad setting
        assert str(exc.value) == f"stage {stage!r}: non-finite {loss} (nan) at epoch 0, step 0"


class TestContinualPretraining:
    def test_loss_decreases_and_alignment_improves(self, small_corpus):
        cont = build_continual_set(small_corpus, seed=2)
        model = DannModel(SMALL_MODEL, seed=5)
        before = continual_heldout_loss(model, cont)
        rows = continual_pretrain(model, cont, small_cfg(continual_epochs=10))
        after = continual_heldout_loss(model, cont)
        assert rows[-1].loss_y < rows[0].loss_y
        assert after < before

    def test_only_extractor_parameters_move(self, small_corpus):
        cont = build_continual_set(small_corpus[:8], seed=2)
        model = DannModel(SMALL_MODEL, seed=5)
        heads_before = [p.value.copy()
                        for p in model.label_head.parameters() + model.domain_head.parameters()]
        fx_before = [p.value.copy() for p in model.extractor.parameters()]
        continual_pretrain(model, cont, small_cfg(continual_epochs=2))
        heads_after = [p.value for p in model.label_head.parameters() + model.domain_head.parameters()]
        assert all(np.array_equal(b, a) for b, a in zip(heads_before, heads_after))
        assert any(not np.array_equal(b, a)
                   for b, a in zip(fx_before, (p.value for p in model.extractor.parameters())))

    def test_shared_pretraining_must_match_the_stage_settings(self, small_corpus, small_splits):
        cont = build_continual_set(small_corpus[:8], seed=2)
        pre = pretrain(small_cfg(continual_epochs=1), cont, SMALL_MODEL, "continual_only")
        with pytest.raises(ConfigError, match="pretrains with"):
            run_stage("continual_only", small_splits, small_cfg(continual_epochs=2),
                      SMALL_MODEL, pretrained=pre)

    def test_zero_epochs_is_noop(self, small_corpus):
        cont = build_continual_set(small_corpus[:8], seed=2)
        model = DannModel(SMALL_MODEL, seed=5)
        before = [p.value.copy() for p in model.parameters()]
        assert continual_pretrain(model, cont, small_cfg(continual_epochs=0)) == []
        assert all(np.array_equal(b, p.value) for b, p in zip(before, model.parameters()))

    def test_heldout_loss_decreases_over_first_epochs(self, small_corpus):
        # near-monotone decrease over the first 5 epochs, one violation allowed
        cont = build_continual_set(small_corpus, seed=2)
        heldout = cont[::3]
        train = [c for i, c in enumerate(cont) if i % 3]
        model = DannModel(SMALL_MODEL, seed=5)
        losses = [continual_heldout_loss(model, heldout)]
        for epoch in range(5):
            cfg = small_cfg(continual_epochs=1, seed=epoch)
            continual_pretrain(model, train, cfg)
            losses.append(continual_heldout_loss(model, heldout))
        violations = sum(b >= a for a, b in zip(losses, losses[1:]))
        assert violations <= 1, losses


class TestSeparableToyCase:
    def test_baseline_fits_separable_features(self):
        # clips whose features are trivially class-separable: supervised
        # training must reach >= 0.99 train accuracy within 50 epochs
        from datforge.distort import Clip, Waveform

        rng = np.random.default_rng(0)
        t = np.arange(16000) / 16000
        clips = []
        for label in range(4):
            freq = 300.0 * (label + 1)
            for i in range(10):
                samples = 0.5 * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
                clips.append(Clip(f"toy-{label}-{i}", Waveform(samples), label))
        model = DannModel(SMALL_MODEL, seed=0)
        cfg = small_cfg(epochs=50, eta=1e-3, alpha=1e-2, batch_size=8)
        train_supervised(clips, model, cfg)
        assert evaluate(model, clips) >= 0.99


class TestLambdaSweep:
    """The one sweep path: ``pipeline.run_sweep`` over the manifest's ``SweepSpec``."""

    def test_sorted_descending_and_complete(self, tmp_path, monkeypatch):
        trained = []
        real = pipeline.run_stage

        def recording(stage, splits, cfg, *args, **kwargs):
            result = real(stage, splits, cfg, *args, **kwargs)
            trained.append(result.grl_lambda)
            return result

        monkeypatch.setattr(pipeline, "run_stage", recording)
        manifest = ExperimentManifest.from_dict({
            "corpus": {"n_per_class": 10, "test_n_per_class": 3},
            "seed": 11,
            "splits_seed": 5,
            "stages": [{"stage": "dat_only", "epochs": 1, "batch_size": 4}],
            "sweep": {"lambdas": [1e-3, 1e-1], "stage": "dat_only"},
        })
        rows = run_sweep(manifest, tmp_path, jobs=1)
        assert [r["lambda"] for r in rows] == [1e-1, 1e-3]
        assert trained == [r["lambda"] for r in rows]

    def test_default_grid(self):
        assert DEFAULT_LAMBDA_GRID == (1e-1, 1e-2, 1e-3, 1e-4)

    def test_invalid_lambdas_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec.from_dict({"lambdas": []})
        with pytest.raises(ConfigError):
            SweepSpec.from_dict({"lambdas": [1e-2, -1.0]})
        with pytest.raises(ConfigError):
            SweepSpec.from_dict({"lambdas": [1e-2, 0.0]})


class TestTrainingLog:
    def test_csv_format(self, tmp_path):
        rows = [
            LogRow("baseline", 0, 3, 1.25, None, None, None, 1),
            LogRow("dat_only", 1, 6, 0.5, 0.75, 1e-2, "ce", 1),
        ]
        path = tmp_path / "log.csv"
        write_training_log(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "stage,epoch,step,L_y,L_d,lambda,objective,seed"
        assert lines[1] == "baseline,0,3,1.25,,,,1"
        assert lines[2] == "dat_only,1,6,0.5,0.75,0.01,ce,1"

    def test_train_dat_logs_every_epoch(self, small_splits):
        model = DannModel(SMALL_MODEL, seed=6)
        rows = train_dat(small_splits, model, small_cfg(epochs=3))
        assert len(rows) == 3
        assert [r.epoch for r in rows] == [0, 1, 2]
        assert all(r.grl_lambda == pytest.approx(1e-2) for r in rows)
