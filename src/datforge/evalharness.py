"""Evaluation over the three test configurations plus the domain-probe diagnostic."""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .distort import Clip, CorpusSplit
from .errors import ConfigError, require_count
from .gradcore import Optimizer, Tape
from .models import DannModel, Head
from .objectives import task_loss
from .trainer import StageResult, domain_indices, features_of

REPORT_COLUMNS = ("stage", "objective", "lambda", "clean_acc", "seen_acc", "unseen_acc")


@dataclass
class ReportRow:
    stage: str
    objective: str | None
    grl_lambda: float | None
    clean_acc: float
    seen_acc: float
    unseen_acc: float


@dataclass
class MetricsReport:
    rows: list[ReportRow]
    metadata: dict = field(default_factory=dict)


@dataclass
class DomainProbeResult:
    probe_acc: float
    chance_level: float
    converged: bool
    losses: list[float] = field(repr=False, default_factory=list)


def evaluate(model: DannModel, test_set: list[Clip]) -> float:
    """Argmax label-head accuracy on labeled clips pooled by ``DannModel.pooled_features``."""
    if not test_set:
        raise ValueError("evaluate: empty test set")
    tape, labels = Tape(), np.array([c.label for c in test_set], dtype=np.int64)
    pooled = tape.const(model.pooled_features(features_of(test_set)))
    logits = model.label_head.forward_pooled(tape, pooled).value
    return float(np.mean(np.argmax(logits, axis=1) == labels))


PROBE_LR = 1e-2
PROBE_HOLDOUT = 0.25  # share of the S+T clips the probe is scored on
PROBE_PLATEAU = 1e-4  # largest loss range over the last 10 epochs that counts as converged


@dataclass
class ProbeConfig:
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        require_count("probe epochs", self.epochs, 1)
        require_count("probe seed", self.seed, 0)


def domain_probe(model: DannModel, splits: CorpusSplit,
                 probe_cfg: ProbeConfig | None = None) -> DomainProbeResult:
    """Train a fresh domain ``Head`` on frozen features, pooled by
    ``DannModel.pooled_features`` as in ``evaluate``.

    Lower held-out probe accuracy means more domain-invariant features.
    The extractor is only read, never updated.  The probe always tells every
    distortion kind apart (multi-domain), whatever setting the model trained in.
    """
    cfg = probe_cfg or ProbeConfig()
    x = model.pooled_features(features_of(splits.S) + features_of(splits.T))
    doms = np.concatenate([np.zeros(len(splits.S), dtype=np.int64),
                           domain_indices(splits.T, "multi")])
    n_dom = model.cfg.n_domains + 1
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(len(doms))
    n_hold = max(1, int(len(doms) * PROBE_HOLDOUT))
    hold, train = perm[:n_hold], perm[n_hold:]

    head = Head(rng, x.shape[1], n_dom, "aux", "probe")
    opt = Optimizer(head.parameters(), {"aux": PROBE_LR})
    losses = []
    for _ in range(cfg.epochs):
        tape = Tape()
        loss = task_loss(tape, head.forward_pooled(tape, tape.const(x[train])), doms[train])
        tape.backward(loss)
        opt.step()
        losses.append(float(loss.value))
    converged = max(losses[-10:]) - min(losses[-10:]) < PROBE_PLATEAU
    tape = Tape()
    hold_logits = head.forward_pooled(tape, tape.const(x[hold])).value
    acc = float(np.mean(np.argmax(hold_logits, axis=1) == doms[hold]))
    return DomainProbeResult(acc, 1.0 / n_dom, converged, losses)


def config_hash(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()[:16]


def build_report(results: list[StageResult], splits: CorpusSplit,
                 metadata: dict | None = None) -> MetricsReport:
    """Evaluate every trained stage on the shared test membership, in a fixed column order."""
    if not results:
        raise ConfigError("build_report: no stage results")
    rows = []
    for res in results:
        accs = [evaluate(res.model, clips)
                for clips in (splits.test_clean, splits.test_seen, splits.test_unseen)]
        rows.append(ReportRow(res.stage, res.objective, res.grl_lambda, *accs))
    meta = dict(metadata or {})
    meta.setdefault("created_at", datetime.now(timezone.utc).isoformat())
    return MetricsReport(rows, meta)


def _format_row(r: ReportRow) -> list[str]:
    return [
        r.stage,
        r.objective or "",
        "" if r.grl_lambda is None else f"{r.grl_lambda:g}",
        f"{r.clean_acc:.6f}", f"{r.seen_acc:.6f}", f"{r.unseen_acc:.6f}",
    ]


def write_report_csv(path, report: MetricsReport):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(REPORT_COLUMNS)
        for r in report.rows:
            writer.writerow(_format_row(r))


def write_report_json(path, report: MetricsReport):
    payload = {
        "metadata": report.metadata,
        "rows": [dict(zip(REPORT_COLUMNS, _format_row(r))) for r in report.rows],
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
