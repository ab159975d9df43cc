"""Minimal reverse-mode autodiff on dense float64 tensors.

A ``Tape`` records every operation in creation order (which is already a
topological order), so the backward pass is a single reversed sweep.  The
gradient reversal node is the one piece of deliberate gradient surgery:
identity forward, multiply-by ``-lambda`` backward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError

FEATURE_EXTRACTOR = "feature_extractor"
LABEL_PREDICTOR = "label_predictor"
DOMAIN_CLASSIFIER = "domain_classifier"
GROUPS = (FEATURE_EXTRACTOR, LABEL_PREDICTOR, DOMAIN_CLASSIFIER)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class Parameter:
    """A trainable tensor with a persistent gradient buffer and a group tag."""

    value: np.ndarray
    group: str
    name: str = ""
    grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)
        if self.group not in GROUPS and self.group != "aux":
            raise ConfigError(f"unknown parameter group {self.group!r}")
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0


class Node:
    """One recorded operation result on a tape."""

    __slots__ = ("value", "parents", "backward_fn", "param", "idx")

    def __init__(self, value, parents, backward_fn, param, idx):
        self.value = value
        self.parents = parents
        self.backward_fn = backward_fn
        self.param = param
        self.idx = idx


class Tape:
    """Single-threaded operation recorder; one tape per forward/backward pass."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _record(self, value, parents=(), backward_fn=None, param=None) -> Node:
        value = np.asarray(value, dtype=np.float64)
        node = Node(value, tuple(parents), backward_fn, param, len(self.nodes))
        self.nodes.append(node)
        return node

    # ---- leaves ------------------------------------------------------

    def const(self, value) -> Node:
        """A constant leaf: no gradient flows into it."""
        return self._record(value)

    def param(self, p: Parameter) -> Node:
        """A leaf backed by a Parameter; backward accumulates into ``p.grad``."""
        return self._record(p.value, param=p)

    # ---- core ops ----------------------------------------------------

    def linear(self, x: Node, W: Node, b: Node) -> Node:
        xv, Wv, bv = x.value, W.value, b.value
        if (
            xv.ndim != 2
            or Wv.ndim != 2
            or xv.shape[1] != Wv.shape[0]
            or bv.shape != (Wv.shape[1],)
        ):
            raise DimensionError(
                f"linear: x{xv.shape} incompatible with W{Wv.shape}, b{bv.shape}"
            )
        out = xv @ Wv
        out += bv  # in place: one fresh array per layer, not two

        def backward(g):
            return (g @ Wv.T, xv.T @ g, g.sum(axis=0))

        return self._record(out, (x, W, b), backward)

    def relu(self, x: Node) -> Node:
        mask = x.value > 0.0
        return self._record(np.maximum(x.value, 0.0), (x,), lambda g: (g * mask,))

    def sigmoid(self, x: Node) -> Node:
        out = 1.0 / (1.0 + np.exp(-x.value))
        return self._record(out, (x,), lambda g: (g * out * (1.0 - out),))

    def log(self, x: Node) -> Node:
        if np.any(x.value <= 0.0):
            raise ValueError("log: input has non-positive entries")
        xv = x.value
        return self._record(np.log(xv), (x,), lambda g: (g / xv,))

    def softmax_rows(self, x: Node) -> Node:
        # fused log-sum-exp form for stability
        xv = x.value
        if xv.ndim != 2:
            raise DimensionError(f"softmax_rows: expected 2-D input, got {xv.shape}")
        shifted = xv - xv.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        p = np.exp(shifted - lse)

        def backward(g):
            return (p * (g - (p * g).sum(axis=1, keepdims=True)),)

        return self._record(p, (x,), backward)

    def log_softmax_rows(self, x: Node) -> Node:
        xv = x.value
        if xv.ndim != 2:
            raise DimensionError(f"log_softmax_rows: expected 2-D input, got {xv.shape}")
        shifted = xv - xv.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        out = shifted - lse
        p = np.exp(out)

        def backward(g):
            return (g - p * g.sum(axis=1, keepdims=True),)

        return self._record(out, (x,), backward)

    def grad_reverse(self, x: Node, lam: float) -> Node:
        """Identity forward; backward multiplies the incoming gradient by -lam."""
        if lam <= 0.0:
            raise ConfigError(f"grad_reverse: lambda must be > 0, got {lam}")
        return self._record(x.value, (x,), lambda g: ((-lam) * g,))

    def stop_gradient(self, x: Node) -> Node:
        return self._record(x.value, (x,), lambda g: (None,))

    # ---- arithmetic --------------------------------------------------

    def add(self, x: Node, y: Node) -> Node:
        if x.value.shape != y.value.shape:
            raise DimensionError(f"add: {x.value.shape} vs {y.value.shape}")
        return self._record(x.value + y.value, (x, y), lambda g: (g, g))

    def sub(self, x: Node, y: Node) -> Node:
        if x.value.shape != y.value.shape:
            raise DimensionError(f"sub: {x.value.shape} vs {y.value.shape}")
        return self._record(x.value - y.value, (x, y), lambda g: (g, -g))

    def mul(self, x: Node, y: Node) -> Node:
        if x.value.shape != y.value.shape:
            raise DimensionError(f"mul: {x.value.shape} vs {y.value.shape}")
        xv, yv = x.value, y.value
        return self._record(xv * yv, (x, y), lambda g: (g * yv, g * xv))

    def scale(self, x: Node, c: float) -> Node:
        c = float(c)
        return self._record(x.value * c, (x,), lambda g: (g * c,))

    def add_const(self, x: Node, c) -> Node:
        return self._record(x.value + c, (x,), lambda g: (g,))

    def clamp(self, x: Node, lo: float, hi: float) -> Node:
        xv = x.value
        mask = (xv > lo) & (xv < hi)
        return self._record(np.clip(xv, lo, hi), (x,), lambda g: (g * mask,))

    def sum(self, x: Node) -> Node:
        shape = x.value.shape
        return self._record(
            x.value.sum(), (x,), lambda g: (np.broadcast_to(g, shape),)
        )

    def mean(self, x: Node) -> Node:
        n = x.value.size
        shape = x.value.shape
        return self._record(
            x.value.mean(), (x,), lambda g: (np.broadcast_to(g / n, shape),)
        )

    def mean_over_rows(self, x: Node) -> Node:
        """T x D -> 1 x D mean pooling."""
        if x.value.ndim != 2:
            raise DimensionError(f"mean_over_rows: expected 2-D input, got {x.value.shape}")
        t = x.value.shape[0]
        return self._record(
            x.value.mean(axis=0, keepdims=True),
            (x,),
            lambda g: (np.broadcast_to(g / t, x.value.shape),),
        )

    def mean_pool_segments(self, x: Node, lengths) -> Node:
        """Concatenated frame matrix (sum(lengths) x D) -> per-segment means (B x D)."""
        lens = np.asarray(lengths, dtype=np.int64)
        if x.value.ndim != 2 or lens.sum() != x.value.shape[0]:
            raise DimensionError(
                f"mean_pool_segments: frames {x.value.shape} vs lengths sum {lens.sum()}"
            )
        if lens.size == 0 or lens.min() < 1:
            raise DimensionError(f"mean_pool_segments: segment lengths must be >= 1, got {lengths}")
        starts = np.concatenate([[0], np.cumsum(lens[:-1])])
        out = np.add.reduceat(x.value, starts, axis=0) / lens[:, None]

        def backward(g):
            return (np.repeat(g / lens[:, None], lens, axis=0),)

        return self._record(out, (x,), backward)

    def concat_rows(self, parts: list[Node]) -> Node:
        if not parts:
            raise DimensionError("concat_rows: empty part list")
        sizes = [p.value.shape[0] for p in parts]
        out = np.concatenate([p.value for p in parts], axis=0)
        offsets = np.concatenate([[0], np.cumsum(sizes)])

        def backward(g):
            return tuple(g[offsets[i] : offsets[i + 1]] for i in range(len(parts)))

        return self._record(out, tuple(parts), backward)

    # ---- backward ----------------------------------------------------

    def backward(self, loss: Node):
        """Accumulate d(loss)/d(param) into every reachable Parameter's grad."""
        if loss.value.ndim != 0:
            raise DimensionError(f"backward: loss must be scalar, got shape {loss.value.shape}")
        grads: dict[int, np.ndarray] = {loss.idx: np.ones(())}
        for node in reversed(self.nodes):
            g = grads.pop(node.idx, None)
            if g is None:
                continue
            if node.param is not None:
                node.param.grad += g
            if node.backward_fn is not None:
                for parent, pg in zip(node.parents, node.backward_fn(g)):
                    if pg is None:
                        continue
                    if parent.idx in grads:
                        grads[parent.idx] = grads[parent.idx] + pg
                    else:
                        grads[parent.idx] = pg


class Optimizer:
    """Adam with per-group learning rates; ``sgd=True`` switches to plain descent.

    Moment buffers persist across steps; grads are zeroed after each step.
    """

    def __init__(self, params: list[Parameter], lr_by_group: dict[str, float],
                 sgd: bool = False):
        for p in params:
            if p.group not in lr_by_group:
                raise ConfigError(f"no learning rate for group {p.group!r}")
        self.params = list(params)
        self.lr_by_group = dict(lr_by_group)
        self.sgd = sgd
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        self.t += 1
        # in place, in the operation order of m = b1*m + (1-b1)*g: the values are exact
        m_bias, v_bias = 1.0 - ADAM_BETA1**self.t, 1.0 - ADAM_BETA2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            lr = self.lr_by_group[p.group]
            if self.sgd:
                p.value -= lr * p.grad
            else:
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * p.grad
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * p.grad**2
                p.value -= lr * (m / m_bias) / (np.sqrt(v / v_bias) + ADAM_EPS)
            p.zero_grad()
