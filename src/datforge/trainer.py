"""Two-stage training: continual denoising pretraining, then adversarial fine-tuning.

One adversarial step builds a single tape holding the task loss on the clean
batch and the domain loss on clean+noisy pooled features routed through the
gradient reversal node, so a single backward realizes all three per-group
updates: the label head descends the task loss, the domain head descends the
domain loss, and the extractor descends task_loss - lambda * domain_loss.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import objectives
from .distort import CLEAN, Clip, CorpusSplit, derive_seed
from .errors import ConfigError, DatforgeError, require_count, require_positive
from .gradcore import (
    DOMAIN_CLASSIFIER,
    FEATURE_EXTRACTOR,
    LABEL_PREDICTOR,
    Optimizer,
    Parameter,
    Tape,
)
from .models import DannModel, ModelConfig

STAGES = ("baseline", "oracle", "continual_only", "dat_only", "continual_plus_dat")
DAT_STAGES = ("dat_only", "continual_plus_dat")
CONTINUAL_STAGES = ("continual_only", "continual_plus_dat")
# the TrainConfig fields each stage reads: continual pretraining reads continual_epochs,
# the adversarial phase beta, grl_lambda and objective (which also sets the domain setting)
STAGE_FIELDS = {
    stage: ("seed", "eta", "alpha", "epochs", "batch_size")
    + (("continual_epochs",) if stage in CONTINUAL_STAGES else ())
    + (("beta", "grl_lambda", "objective") if stage in DAT_STAGES else ())
    for stage in STAGES
}
# the TrainConfig fields continual_pretrain reads: continual stages that agree on them
# start from the same pretrained extractor
PRETRAIN_FIELDS = ("seed", "continual_epochs", "batch_size")
OBJECTIVES = ("bce", "ce", "entropy")
DEFAULT_LAMBDA_GRID = (1e-1, 1e-2, 1e-3, 1e-4)
REPORTED_LAMBDAS = (1e-2, 1e-3)
MASK_FRACTION = 0.15  # frame masking rate for clean continual clips
CONTINUAL_LR = 1e-3  # pretraining phase moves the extractor faster than fine-tuning


@dataclass
class TrainConfig:
    eta: float = 1e-4    # feature extractor lr; heads move 10x faster, as in Eq. (1)-(2)'s source
    alpha: float = 1e-3  # label predictor lr
    beta: float = 1e-2   # domain classifier lr; a fast head stays a strong adversary
    grl_lambda: float = 1e-2
    objective: str = "ce"
    epochs: int = 80
    continual_epochs: int = 20
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in ("eta", "alpha", "beta", "grl_lambda"):
            require_positive(name, getattr(self, name))
        for name, least in (("epochs", 0), ("continual_epochs", 0), ("batch_size", 1),
                            ("seed", 0)):
            require_count(name, getattr(self, name), least)
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"unknown objective {self.objective!r}")

    @property
    def domain_setting(self) -> str:
        """``binary`` (every distortion one domain) under ``bce``, else ``multi``."""
        return "binary" if self.objective == "bce" else "multi"

    def lr_by_group(self) -> dict[str, float]:
        return {FEATURE_EXTRACTOR: self.eta, LABEL_PREDICTOR: self.alpha,
                DOMAIN_CLASSIFIER: self.beta}


@dataclass
class LogRow:
    stage: str
    epoch: int
    step: int
    loss_y: float
    loss_d: float | None
    grl_lambda: float | None
    objective: str | None
    seed: int


def write_training_log(path, rows: list[LogRow]):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["stage", "epoch", "step", "L_y", "L_d", "lambda", "objective", "seed"])
        for r in rows:
            writer.writerow([
                r.stage, r.epoch, r.step, f"{r.loss_y:.10g}",
                "" if r.loss_d is None else f"{r.loss_d:.10g}",
                "" if r.grl_lambda is None else f"{r.grl_lambda:g}",
                r.objective or "", r.seed,
            ])


def _check_finite(stage: str, epoch: int, step: int, **losses: float):
    """Stop training at the first NaN or infinite loss instead of training on it."""
    for name, value in losses.items():
        if not math.isfinite(value):
            raise DatforgeError(
                f"stage {stage!r}: non-finite {name} ({value}) at epoch {epoch}, step {step}"
            )


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def features_of(clips) -> list[np.ndarray]:
    """Each clip's read-only features, featurized on first use (``Waveform.features``)."""
    return [c.waveform.features for c in clips]


def domain_indices(clips: list[Clip], setting: str) -> np.ndarray:
    doms = np.array([c.domain for c in clips], dtype=np.int64)
    return (doms > 0).astype(np.int64) if setting == "binary" else doms


def _one_hot(indices: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((indices.size, n))
    out[np.arange(indices.size), indices] = 1.0
    return out


# ---------------------------------------------------------------------------
# adversarial step
# ---------------------------------------------------------------------------

def build_domain_loss(tape: Tape, model: DannModel, pooled, domains: np.ndarray,
                      cfg: TrainConfig, adversarial: bool = True):
    """Domain loss over pooled features, reversed on the feature path when ``adversarial``.

    Under the entropy objective the domain head itself is still trained by
    cross entropy on true domain labels (an entropy-trained head would
    collapse), while the extractor receives the reversed entropy gradient
    through gradient-stopped head parameters.
    """
    head = model.domain_head
    if cfg.objective == "entropy":
        head_logits = head.forward_pooled(tape, tape.stop_gradient(pooled))
        onehot = _one_hot(domains, model.cfg.domain_out_dim)
        ce_loss = objectives.ce_domain_loss(tape, tape.softmax_rows(head_logits), onehot)
        if not adversarial:
            return ce_loss
        reversed_pooled = tape.grad_reverse(pooled, cfg.grl_lambda)
        w, b = tape.param(head.w), tape.param(head.b)
        adv_logits = tape.linear(reversed_pooled, tape.stop_gradient(w), tape.stop_gradient(b))
        ent_loss = objectives.entropy_domain_loss(tape, tape.softmax_rows(adv_logits))
        return tape.add(ce_loss, ent_loss)
    if adversarial:
        pooled = tape.grad_reverse(pooled, cfg.grl_lambda)
    logits = head.forward_pooled(tape, pooled)
    if cfg.objective == "bce":
        return objectives.bce_domain_loss(tape, tape.sigmoid(logits), domains.astype(float))
    onehot = _one_hot(domains, model.cfg.domain_out_dim)
    return objectives.ce_domain_loss(tape, tape.softmax_rows(logits), onehot)


def dat_step(model: DannModel, clean_feats: list[np.ndarray], clean_labels: np.ndarray,
             noisy_feats: list[np.ndarray], noisy_domains: np.ndarray,
             cfg: TrainConfig, opt: Optimizer) -> tuple[float, float]:
    """One combined update; returns (task loss, domain loss) values."""
    if not clean_feats or not noisy_feats:
        raise ValueError("dat_step: empty batch")
    tape = Tape()
    pooled_c = model.forward_pooled_features(tape, clean_feats)
    pooled_n = model.forward_pooled_features(tape, noisy_feats)
    logits_y = model.label_head.forward_pooled(tape, pooled_c)
    loss_y = objectives.task_loss(tape, logits_y, clean_labels)

    pooled_all = tape.concat_rows([pooled_c, pooled_n])
    domains = np.concatenate([np.zeros(len(clean_feats), dtype=np.int64), noisy_domains])
    loss_d = build_domain_loss(tape, model, pooled_all, domains, cfg)

    total = tape.add(loss_y, loss_d)
    tape.backward(total)
    opt.step()
    return float(loss_y.value), float(loss_d.value)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _batches(n: int, batch_size: int, rng) -> list[np.ndarray]:
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


def train_supervised(data: list[Clip], model: DannModel, cfg: TrainConfig,
                     stage: str = "baseline") -> list[LogRow]:
    """Minimize the task loss only; the domain head is untouched."""
    feats = features_of(data)
    labels = np.array([c.label for c in data], dtype=np.int64)
    opt = Optimizer(model.group(FEATURE_EXTRACTOR) + model.group(LABEL_PREDICTOR),
                    cfg.lr_by_group())
    rows, step = [], 0
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng(derive_seed(cfg.seed, 10, epoch))
        losses = []
        for batch in _batches(len(data), cfg.batch_size, rng):
            tape = Tape()
            pooled = model.forward_pooled_features(tape, [feats[i] for i in batch])
            loss = objectives.task_loss(
                tape, model.label_head.forward_pooled(tape, pooled), labels[batch]
            )
            losses.append(float(loss.value))
            _check_finite(stage, epoch, step, L_y=losses[-1])
            tape.backward(loss)
            opt.step()
            step += 1
        rows.append(LogRow(stage, epoch, step, float(np.mean(losses)), None, None, None, cfg.seed))
    return rows


def continual_pretrain(model: DannModel, continual_set: list[Clip],
                       cfg: TrainConfig, stage: str = "continual_only") -> list[LogRow]:
    """Denoising proxy pretraining of the extractor alone.

    Distorted clips must predict the clean clip's input features through a
    throwaway linear decoder; clean clips are an identity task under random
    frame masking.  Only extractor parameters survive this stage.
    """
    if cfg.continual_epochs == 0:
        return []
    inputs = [c.waveform.features for c in continual_set]
    targets = [c.clean.features for c in continual_set]
    is_clean = [c.kind == CLEAN for c in continual_set]
    mcfg = model.cfg
    dec_rng = np.random.default_rng(derive_seed(cfg.seed, 20))
    dec_w = Parameter(dec_rng.normal(0.0, 1.0 / np.sqrt(mcfg.feature_dim),
                                     (mcfg.feature_dim, mcfg.input_dim)), "aux", "dec.W")
    # bias starts at the per-band target mean so the decoder fits residuals,
    # not the raw log-feature offset
    dec_b = Parameter(np.concatenate(targets, axis=0).mean(axis=0), "aux", "dec.b")
    opt = Optimizer(model.group(FEATURE_EXTRACTOR) + [dec_w, dec_b],
                    {FEATURE_EXTRACTOR: CONTINUAL_LR, "aux": CONTINUAL_LR})
    rows, step = [], 0
    floor = np.log(1e-8)
    for epoch in range(cfg.continual_epochs):
        rng = np.random.default_rng(derive_seed(cfg.seed, 21, epoch))
        losses = []
        for batch in _batches(len(continual_set), cfg.batch_size, rng):
            xs = []
            for i in batch:
                x = inputs[i]
                if is_clean[i]:
                    mask = rng.random(x.shape[0]) < MASK_FRACTION
                    x = x.copy()
                    x[mask] = floor
                xs.append(x)
            target = np.concatenate([targets[i] for i in batch], axis=0)
            tape = Tape()
            h = model.extractor.forward(tape, tape.const(np.concatenate(xs, axis=0)))
            pred = tape.linear(h, tape.param(dec_w), tape.param(dec_b))
            diff = tape.sub(pred, tape.const(target))
            loss = tape.mean(tape.mul(diff, diff))
            losses.append(float(loss.value))
            _check_finite(stage, epoch, step, L_continual=losses[-1])
            tape.backward(loss)
            opt.step()
            step += 1
        rows.append(LogRow(stage, epoch, step, float(np.mean(losses)), None, None, None, cfg.seed))
    return rows


@dataclass
class Pretrained:
    """A continually pretrained extractor, for every stage whose ``PRETRAIN_FIELDS`` match."""

    settings: tuple  # the PRETRAIN_FIELDS values it was pretrained with
    extractor: list[np.ndarray]  # FeatureExtractor.parameters() values, in order
    log: list[LogRow]


def pretrain_settings(cfg: TrainConfig) -> tuple:
    return tuple(getattr(cfg, name) for name in PRETRAIN_FIELDS)


def pretrain(cfg: TrainConfig, continual_set: list[Clip], model_cfg: ModelConfig,
             stage: str) -> Pretrained:
    """``continual_pretrain`` on a fresh seed-determined model; log rows are named ``stage``.

    The extractor's initial values depend only on the seed and its layer
    sizes, not on the heads, so stages that differ in their domain setting
    still share it.
    """
    model = DannModel(model_cfg, derive_seed(cfg.seed, 0))
    log = continual_pretrain(model, continual_set, cfg, stage)
    return Pretrained(pretrain_settings(cfg), [p.value for p in model.extractor.parameters()],
                      log)


def train_dat(splits: CorpusSplit, model: DannModel, cfg: TrainConfig,
              stage: str = "dat_only") -> list[LogRow]:
    s_feats = features_of(splits.S)
    s_labels = np.array([c.label for c in splits.S], dtype=np.int64)
    t_feats = features_of(splits.T)
    t_domains = domain_indices(splits.T, cfg.domain_setting)
    opt = Optimizer(model.parameters(), cfg.lr_by_group())
    rows, step = [], 0
    steps_per_epoch = max(min(len(splits.S), len(splits.T)) // cfg.batch_size, 1)
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng(derive_seed(cfg.seed, 30, epoch))
        ly_all, ld_all = [], []
        for k in range(steps_per_epoch):
            cb = rng.choice(len(splits.S), size=min(cfg.batch_size, len(splits.S)), replace=False)
            nb = rng.choice(len(splits.T), size=min(cfg.batch_size, len(splits.T)), replace=False)
            ly, ld = dat_step(model, [s_feats[i] for i in cb], s_labels[cb],
                              [t_feats[i] for i in nb], t_domains[nb], cfg, opt)
            _check_finite(stage, epoch, step, L_y=ly, L_d=ld)
            ly_all.append(ly)
            ld_all.append(ld)
            step += 1
        rows.append(LogRow(stage, epoch, step, float(np.mean(ly_all)), float(np.mean(ld_all)),
                           cfg.grl_lambda, cfg.objective, cfg.seed))
    return rows


@dataclass
class StageResult:
    stage: str
    objective: str | None
    grl_lambda: float | None
    model: DannModel
    log: list[LogRow] = field(repr=False, default_factory=list)


def run_stage(stage: str, splits: CorpusSplit, cfg: TrainConfig, model_cfg: ModelConfig,
              checkpoint_dir=None, pretrained: Pretrained | None = None) -> StageResult:
    """Train one experiment row from a fresh, seed-determined model.

    A continual stage starts from a copy of ``pretrained``'s extractor, which
    it requires (``pretrain``), and its log holds the pretraining's rows under
    its own name; with a ``checkpoint_dir`` that start is saved as
    ``<stage>_continual.ckpt``.
    """
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}")
    if model_cfg.domain_setting != cfg.domain_setting:
        raise ConfigError("model and trainer disagree on domain_setting")
    model = DannModel(model_cfg, derive_seed(cfg.seed, 0))
    log: list[LogRow] = []
    if stage in CONTINUAL_STAGES:
        if pretrained is None:
            raise ConfigError(f"stage {stage!r} requires a pretrained extractor "
                              f"(trainer.pretrain)")
        if pretrained.settings != pretrain_settings(cfg):
            raise ConfigError(f"stage {stage!r} pretrains with {PRETRAIN_FIELDS} = "
                              f"{pretrain_settings(cfg)}, not {pretrained.settings}")
        for p, value in zip(model.extractor.parameters(), pretrained.extractor):
            p.value[...] = value
        log += [replace(row, stage=stage) for row in pretrained.log]
        if checkpoint_dir is not None:
            model.save(checkpoint_dir / f"{stage}_continual.ckpt")
    if stage == "baseline" or stage == "continual_only":
        log += train_supervised(splits.S, model, cfg, stage)
    elif stage == "oracle":
        data = splits.S + splits.oracle_labeled_target("oracle")
        log += train_supervised(data, model, cfg, stage)
    else:
        log += train_dat(splits, model, cfg, stage)
    is_dat = stage in DAT_STAGES
    return StageResult(stage, cfg.objective if is_dat else None,
                       cfg.grl_lambda if is_dat else None, model, log)

