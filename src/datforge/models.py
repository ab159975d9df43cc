"""The adversarial triad: feature extractor, label predictor, domain classifier.

The extractor is a position-wise MLP over framed log-band features, mean-pooled
over time; both heads are a ``Head``, one linear layer on the pooled features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distort import N_BANDS, TRAIN_KINDS
from .errors import ConfigError, FormatError
from .gradcore import (
    DOMAIN_CLASSIFIER,
    FEATURE_EXTRACTOR,
    LABEL_PREDICTOR,
    Node,
    Parameter,
    Tape,
)

CKPT_HEADER = "DATFORGE-CKPT-1"


@dataclass
class ModelConfig:
    input_dim: int = N_BANDS
    hidden_dim: int = 64
    feature_dim: int = 32
    n_classes: int = 4
    n_domains: int = len(TRAIN_KINDS)  # distortion types K; domain classes are K+1
    domain_setting: str = "multi"  # "binary" -> single sigmoid logit

    def __post_init__(self):
        if self.domain_setting not in ("binary", "multi"):
            raise ConfigError(f"unknown domain_setting {self.domain_setting!r}")

    @property
    def domain_out_dim(self) -> int:
        return 1 if self.domain_setting == "binary" else self.n_domains + 1


def _init_linear(rng, din, dout, group, name):
    w = Parameter(rng.normal(0.0, 1.0 / np.sqrt(din), size=(din, dout)), group, f"{name}.W")
    b = Parameter(np.zeros(dout), group, f"{name}.b")
    return w, b


class FeatureExtractor:
    """Position-wise MLP: input_dim -> hidden -> hidden -> feature_dim, relu between."""

    def __init__(self, cfg: ModelConfig, rng):
        self.cfg = cfg
        self.w1, self.b1 = _init_linear(rng, cfg.input_dim, cfg.hidden_dim, FEATURE_EXTRACTOR, "f.l1")
        self.w2, self.b2 = _init_linear(rng, cfg.hidden_dim, cfg.hidden_dim, FEATURE_EXTRACTOR, "f.l2")
        self.w3, self.b3 = _init_linear(rng, cfg.hidden_dim, cfg.feature_dim, FEATURE_EXTRACTOR, "f.l3")

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def forward(self, tape: Tape, x: Node) -> Node:
        return self.project(tape, self.hidden(tape, x))

    def hidden(self, tape: Tape, x: Node) -> Node:
        """The two relu layers: per-frame hidden activations."""
        if x.value.ndim != 2 or x.value.shape[1] != self.cfg.input_dim:
            raise ConfigError(
                f"extractor expects frames of dim {self.cfg.input_dim}, got {x.value.shape}"
            )
        h = tape.relu(tape.linear(x, tape.param(self.w1), tape.param(self.b1)))
        return tape.relu(tape.linear(h, tape.param(self.w2), tape.param(self.b2)))

    def project(self, tape: Tape, h: Node) -> Node:
        """The last, affine layer: hidden activations to features, row by row."""
        return tape.linear(h, tape.param(self.w3), tape.param(self.b3))

    def extract_features(self, frames: np.ndarray) -> np.ndarray:
        """Per-frame features of one T x F example, outside any training tape. No ``src/``
        code calls it; the tests and perfbench's tracer binding keep it for now."""
        tape = Tape()
        return self.forward(tape, tape.const(frames)).value


class Head:
    """One linear layer on mean-pooled features: the label, domain and probe heads."""

    def __init__(self, rng, din: int, dout: int, group: str, name: str):
        self.w, self.b = _init_linear(rng, din, dout, group, name)

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]

    def forward_pooled(self, tape: Tape, pooled: Node) -> Node:
        return tape.linear(pooled, tape.param(self.w), tape.param(self.b))


class DannModel:
    """The full triad plus parameter-group bookkeeping."""

    def __init__(self, cfg: ModelConfig, seed: int):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.extractor = FeatureExtractor(cfg, rng)
        self.label_head = Head(rng, cfg.feature_dim, cfg.n_classes, LABEL_PREDICTOR, "y.out")
        self.domain_head = Head(rng, cfg.feature_dim, cfg.domain_out_dim, DOMAIN_CLASSIFIER, "d.out")

    def parameters(self) -> list[Parameter]:
        return (
            self.extractor.parameters()
            + self.label_head.parameters()
            + self.domain_head.parameters()
        )

    def group(self, name: str) -> list[Parameter]:
        return [p for p in self.parameters() if p.group == name]

    def forward_pooled_features(self, tape: Tape, feats: list[np.ndarray]) -> Node:
        """Run the extractor over a batch of T_i x F examples; return B x D pooled features.

        Pools before the extractor's last layer: it is affine, so
        mean(h) W + b == mean(h W + b), and it runs on B rows, not sum(T_i).
        """
        stacked = tape.const(np.concatenate(feats, axis=0))
        h = self.extractor.hidden(tape, stacked)
        pooled = tape.mean_pool_segments(h, [f.shape[0] for f in feats])
        return self.extractor.project(tape, pooled)

    def pooled_features(self, feats: list[np.ndarray]) -> np.ndarray:
        """B x D pooled features for inference, one clip per ``Tape``: a tape over every
        clip would hold all their frames' activations at once; one clip's bounds memory."""
        return np.concatenate([self.forward_pooled_features(Tape(), [f]).value for f in feats])

    # ---- checkpointing ----------------------------------------------

    def save(self, path):
        save_checkpoint(path, self.parameters())

    def load(self, path):
        """Overwrite every parameter from ``path``; the file must name exactly this model's."""
        entries = load_checkpoint(path)
        by_name = {p.name: p for p in self.parameters()}
        for name, group, value in entries:
            if name not in by_name:
                raise FormatError(f"checkpoint {path}: parameter {name!r} unknown to this model")
            p = by_name[name]
            if p.group != group or p.value.shape != value.shape:
                raise ConfigError(
                    f"checkpoint {path} mismatch for {name!r}: "
                    f"{group}/{value.shape} vs {p.group}/{p.value.shape}"
                )
        missing = sorted(by_name.keys() - {name for name, _group, _value in entries})
        if missing:
            raise FormatError(f"checkpoint {path} lacks parameters {missing}")
        for name, _group, value in entries:
            by_name[name].value[...] = value


def save_checkpoint(path, params: list[Parameter]):
    """Portable text checkpoint; float64 values serialized losslessly as hex."""
    with open(path, "w") as f:
        f.write(CKPT_HEADER + "\n")
        for p in params:
            shape = " ".join(str(s) for s in p.value.shape)
            f.write(f"param {p.name} {p.group} {shape}\n")
            f.write(" ".join(v.hex() for v in p.value.ravel()) + "\n")


def load_checkpoint(path) -> list[tuple[str, str, np.ndarray]]:
    """The (name, group, value) entries of a ``save_checkpoint`` file; any line that does
    not parse is a ``FormatError`` naming ``path``."""
    with open(path) as f:
        header = f.readline().rstrip("\n")
        if header != CKPT_HEADER:
            raise FormatError(f"{path}: bad checkpoint header {header!r}, "
                              f"expected {CKPT_HEADER!r}")
        entries = []
        while True:
            meta = f.readline()
            if not meta:
                break
            parts = meta.split()
            if len(parts) < 3 or parts[0] != "param":
                raise FormatError(f"{path}: bad checkpoint entry line: {meta!r}")
            name, group = parts[1], parts[2]
            if any(name == seen for seen, _group, _value in entries):
                raise FormatError(f"{path}: parameter {name!r} appears twice")
            try:
                shape = tuple(int(s) for s in parts[3:])
                values = np.array([float.fromhex(v) for v in f.readline().split()])
                if values.size != int(np.prod(shape)):
                    raise ValueError(f"{values.size} values for shape {shape}")
                entries.append((name, group, values.reshape(shape)))
            except ValueError as exc:
                raise FormatError(f"{path}: parameter {name!r} does not parse: {exc}") from exc
    return entries
