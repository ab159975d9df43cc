"""Loss functions: the three domain-classifier objectives plus the task loss.

All losses are mean-per-batch scalars built as tape nodes, so a single
backward pass propagates them through whatever graph produced the inputs.
Log arguments are clamped from below at 1e-7; the clamp never touches the
multiplying probability, so exact-zero and exact-one entries contribute
exactly zero (entropy of a one-hot row is 0, not ~1e-6).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError
from .gradcore import Node, Tape

LOG_CLAMP = 1e-7


def one_hot(indices: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((indices.size, n))
    out[np.arange(indices.size), indices] = 1.0
    return out


def _safe_log(tape: Tape, x: Node) -> Node:
    return tape.log(tape.clamp(x, LOG_CLAMP, np.inf))


def bce_domain_loss(tape: Tape, p: Node, d: np.ndarray) -> Node:
    """Binary cross entropy between sigmoid outputs ``p`` (B or Bx1) and 0/1 labels."""
    d = np.asarray(d, dtype=np.float64).reshape(-1)
    if d.size == 0:
        raise DimensionError("bce_domain_loss: empty batch")
    if p.value.size != d.size:
        raise DimensionError(f"bce_domain_loss: {p.value.size} probs vs {d.size} labels")
    if not np.all((d == 0.0) | (d == 1.0)):
        raise ConfigError("bce_domain_loss: labels must be binary")
    d = d.reshape(p.value.shape)
    one_minus_p = tape.add(tape.scale(p, -1.0), tape.const(np.ones_like(p.value)))
    pos = tape.mul(tape.const(d), _safe_log(tape, p))
    neg = tape.mul(tape.const(1.0 - d), _safe_log(tape, one_minus_p))
    return tape.scale(tape.sum(tape.add(pos, neg)), -1.0 / d.size)


def ce_domain_loss(tape: Tape, probs: Node, onehot: np.ndarray) -> Node:
    """Cross entropy of softmax rows ``probs`` against one-hot domain labels."""
    onehot = np.asarray(onehot, dtype=np.float64)
    if probs.value.shape != onehot.shape:
        raise DimensionError(f"ce_domain_loss: {probs.value.shape} probs vs {onehot.shape} labels")
    rows_ok = np.all((onehot == 0.0) | (onehot == 1.0)) and np.all(onehot.sum(axis=1) == 1.0)
    if not rows_ok:
        raise ConfigError("ce_domain_loss: labels must be one-hot rows")
    b = onehot.shape[0]
    return tape.scale(
        tape.sum(tape.mul(tape.const(onehot), _safe_log(tape, probs))), -1.0 / b
    )


def entropy_domain_loss(tape: Tape, probs: Node) -> Node:
    """Mean Shannon entropy of softmax rows; maximal at uniform rows. Label-free."""
    if probs.value.ndim != 2:
        raise DimensionError(f"entropy_domain_loss: expected 2-D probs, got {probs.value.shape}")
    b = probs.value.shape[0]
    return tape.scale(tape.sum(tape.mul(probs, _safe_log(tape, probs))), -1.0 / b)


def task_loss(tape: Tape, logits: Node, labels: np.ndarray) -> Node:
    """Mean cross entropy over class-index labels via log-softmax of the logits."""
    labels = np.asarray(labels)
    if logits.value.ndim != 2:
        raise DimensionError(f"task_loss: expected 2-D logits, got {logits.value.shape}")
    b, c = logits.value.shape
    if labels.shape != (b,):
        raise DimensionError(f"task_loss: logits {logits.value.shape} vs labels {labels.shape}")
    if np.any(labels < 0) or np.any(labels >= c):
        raise ConfigError(f"task_loss: label out of range [0, {c})")
    logp = tape.log_softmax_rows(logits)
    return tape.scale(tape.sum(tape.mul(tape.const(one_hot(labels, c)), logp)), -1.0 / b)
