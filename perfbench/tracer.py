"""Span recorder and call wrappers for the traced benchmark run.

Nothing under ``src/`` knows about tracing.  Entering a ``Tracer`` replaces
the public functions and methods listed in ``_table`` with wrappers that
record a span (name, start, end, parent) around each call; leaving it puts
the original objects back.  A module-level function is replaced under
every name a datforge module binds it to (``trainer`` imports ``featurize``
by name, ``evalharness`` imports ``task_loss``, ``pipeline`` imports the
``distort`` builders), so no import alias escapes the trace.

Tape ops are wrapped twice: the op call is the ``.fwd`` span, and the
backward closure the op records is replaced by one that opens a ``.bwd``
span.  ``linear`` spans carry the model-layer label taken from the name of
the weight ``Parameter`` (``f.l1`` ... ``dec``), and count FLOPs of the
matrix products: ``2*m*k*n`` forward, and the same again for each of the
input and weight gradients the backward closure actually returns.

Sweep cells run in forked pool workers that inherit the installed wrappers.
Each worker writes the spans and counts of its cell to ``worker_dir`` when
the cell ends, and the parent merges them under its ``pipeline.run_sweep``
span once the pool is done.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType

UNIT = "unit"


class Recorder:
    """In-memory spans plus named counters; written out once, at the end."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.worker_dir: Path | None = None
        self.missing: dict[str, str] = {}  # span name -> why it has no data

    def open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1])
        self.stack.append(i)
        return i

    def close(self, i: int):
        self.spans[i][2] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    # ---- worker hand-off --------------------------------------------

    def flush_worker(self, mark: int, counts_before: dict):
        """Write spans recorded since ``mark`` (and count deltas) for the parent; drop them here."""
        part = [[n, s, e, p - mark if p >= mark else -1] for n, s, e, p in self.spans[mark:]]
        delta = {k: v - counts_before.get(k, 0.0) for k, v in self.counts.items()
                 if v != counts_before.get(k, 0.0)}
        path = self.worker_dir / f"worker-{os.getpid()}-{mark}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"spans": part, "counts": delta}))
        tmp.rename(path)  # the parent only ever sees whole files
        del self.spans[mark:]
        self.counts.clear()
        self.counts.update(counts_before)

    def merge_workers(self, parent: int) -> int:
        """Adopt every worker file under the ``parent`` span; returns how many arrived."""
        files = sorted(self.worker_dir.glob("worker-*.json")) if self.worker_dir else []
        for path in files:
            data = json.loads(path.read_text())
            base = len(self.spans)
            for n, s, e, p in data["spans"]:
                self.spans.append([n, s, e, base + p if p >= 0 else parent])
            for k, v in data["counts"].items():
                self.counts[k] += v
            path.unlink()
        return len(files)


# ---------------------------------------------------------------------------
# wrapper factories: each takes (recorder, original) and returns the wrapper
# ---------------------------------------------------------------------------

def spanned(name):
    def make(rec, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(i)
        return wrapper
    return make


def _stage_span(rec, fn):
    @functools.wraps(fn)
    def run_stage(stage, *args, **kwargs):
        i = rec.open(f"trainer.stage.{stage}")
        try:
            return fn(stage, *args, **kwargs)
        finally:
            rec.close(i)
    return run_stage


def _frames_span(rec, fn):
    @functools.wraps(fn)
    def forward_pooled_features(self, tape, feats):
        rec.counts["models.frames"] += sum(f.shape[0] for f in feats)
        i = rec.open("models.forward_pooled_features")
        try:
            return fn(self, tape, feats)
        finally:
            rec.close(i)
    return forward_pooled_features


def _checkpoint_span(rec, fn):
    @functools.wraps(fn)
    def checkpoint_io(path, *args, **kwargs):
        i = rec.open("models.checkpoint_io")
        try:
            return fn(path, *args, **kwargs)
        finally:
            rec.close(i)
            if os.path.exists(path):
                rec.counts["models.checkpoint_bytes"] += os.path.getsize(path)
    return checkpoint_io


def _node_counter(rec, fn):
    @functools.wraps(fn)
    def _record(*args, **kwargs):
        rec.counts["gradcore.tape_nodes"] += 1
        return fn(*args, **kwargs)
    return _record


def _timed_backward(rec, name, fn, flop_name=None, dims=None):
    """Wrap a recorded backward closure in a ``name`` span; count matmul FLOPs if asked."""
    def backward(g):
        i = rec.open(name)
        try:
            grads = tuple(fn(g))
        finally:
            rec.close(i)
        if flop_name is not None:
            rec.counts[flop_name] += linear_flops(*dims, grads=grads)
        return grads
    return backward


def linear_flops(m: int, k: int, n: int, grads=None) -> int:
    """FLOPs of ``(m x k) @ (k x n)``; with ``grads``, of the input/weight gradients returned.

    Bias adds and the bias gradient are not counted.  A ``None`` gradient
    is work the backward closure skipped.
    """
    one = 2 * m * k * n
    if grads is None:
        return one
    return one * sum(g is not None for g in grads[:2])


def layer_label(w_node) -> str:
    """Model-layer label of a linear op from its weight Parameter name (``f.l1.W`` -> ``f.l1``)."""
    node = w_node
    while node.param is None and len(node.parents) == 1:  # e.g. a stop_gradient copy
        node = node.parents[0]
    if node.param is None or not node.param.name:
        return "unlabeled"
    return node.param.name.rsplit(".", 1)[0]


def _linear_span(rec, fn):
    @functools.wraps(fn)
    def linear(self, x, W, b):
        label = layer_label(W)
        base = f"gradcore.linear.{label}"
        i = rec.open(base + ".fwd")
        try:
            node = fn(self, x, W, b)
        finally:
            rec.close(i)
        dims = (x.value.shape[0], x.value.shape[1], W.value.shape[1])
        rec.counts[base + ".flop"] += linear_flops(*dims)
        node.backward_fn = _timed_backward(rec, base + ".bwd", node.backward_fn,
                                           base + ".flop", dims)
        return node
    return linear


def _op_span(name):
    def make(rec, fn):
        @functools.wraps(fn)
        def op(self, *args, **kwargs):
            i = rec.open(name + ".fwd")
            try:
                node = fn(self, *args, **kwargs)
            finally:
                rec.close(i)
            node.backward_fn = _timed_backward(rec, name + ".bwd", node.backward_fn)
            return node
        return op
    return make


def _sweep_cell_span(rec, fn):
    @functools.wraps(fn)
    def _sweep_cell(*args, **kwargs):
        in_worker = os.getpid() != rec.pid
        mark, counts_before = len(rec.spans), dict(rec.counts)
        i = rec.open("pipeline.sweep.cell")
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)
            if in_worker and rec.worker_dir is not None:
                rec.flush_worker(mark, counts_before)
    return _sweep_cell


def _run_sweep_span(rec, fn):
    @functools.wraps(fn)
    def run_sweep(manifest, out_dir, jobs=1):
        i = rec.open("pipeline.run_sweep")
        try:
            return fn(manifest, out_dir, jobs)
        finally:
            rec.close(i)
            arrived = rec.merge_workers(i)
            if jobs > 1 and not arrived:
                method = multiprocessing.get_start_method(allow_none=True) or "default"
                rec.missing["pipeline.sweep.cell"] = (
                    f"no worker spans arrived (start method {method!r}; "
                    "workers only inherit the wrappers under 'fork')"
                )
    return run_sweep


def _table():
    """(owner, attribute, wrapper factory) for every traced entry point."""
    from datforge import distort, evalharness, gradcore, models, objectives, pipeline, trainer

    loss = spanned("objectives.loss")
    return [
        (distort, "apply_reverb", spanned("distort.apply_reverb")),
        (distort.ProceduralNoiseBank, "draw", spanned("distort.noise_draw")),
        (distort.WavNoiseBank, "draw", spanned("distort.noise_draw")),
        (distort, "mix_at_snr", spanned("distort.mix_at_snr")),
        (distort, "synth_corpus", spanned("distort.synth_corpus")),
        (distort, "build_splits", spanned("distort.build_splits")),
        (distort, "build_continual_set", spanned("distort.build_continual_set")),
        (distort, "featurize", spanned("distort.featurize")),
        (gradcore.Tape, "_record", _node_counter),
        (gradcore.Tape, "linear", _linear_span),
        (gradcore.Tape, "relu", _op_span("gradcore.relu")),
        (gradcore.Tape, "mean_pool_segments", _op_span("gradcore.mean_pool_segments")),
        (gradcore.Tape, "backward", spanned("gradcore.backward")),
        (gradcore.Optimizer, "step", spanned("gradcore.optimizer_step")),
        (objectives, "task_loss", loss),
        (objectives, "ce_domain_loss", loss),
        (objectives, "bce_domain_loss", loss),
        (objectives, "entropy_domain_loss", loss),
        (models.DannModel, "forward_pooled_features", _frames_span),
        (models.FeatureExtractor, "extract_features", spanned("models.extract_features")),
        (models, "save_checkpoint", _checkpoint_span),
        (models, "load_checkpoint", _checkpoint_span),
        (trainer, "run_stage", _stage_span),
        (trainer, "continual_pretrain", spanned("trainer.continual_pretrain")),
        (trainer, "dat_step", spanned("trainer.dat_step")),
        (evalharness, "build_report", spanned("evalharness.build_report")),
        (evalharness, "domain_probe", spanned("evalharness.domain_probe")),
        (pipeline, "build_experiment_data", spanned("pipeline.build_experiment_data")),
        (pipeline, "run_experiment", spanned("pipeline.run_experiment")),
        (pipeline, "run_sweep", _run_sweep_span),
        (pipeline, "_sweep_cell", _sweep_cell_span),
    ]


def datforge_modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "datforge" or name.startswith("datforge."))]


def _bindings(owner, attr) -> tuple[object, list[tuple[object, str]]]:
    """The original object and every (owner, name) that binds it and gets the wrapper."""
    if isinstance(owner, ModuleType):
        orig = getattr(owner, attr)
        return orig, [(m, k) for m in datforge_modules() for k, v in vars(m).items() if v is orig]
    return owner.__dict__[attr], [(owner, attr)]


def traced_attributes() -> list[tuple[object, str, object]]:
    """Every (owner, name, current value) the tracer replaces, import aliases included."""
    return [(t, k, orig) for owner, attr, _make in _table()
            for orig, targets in [_bindings(owner, attr)] for t, k in targets]


class Tracer:
    """Installs the wrappers on enter and restores the original objects on exit."""

    def __init__(self):
        self.rec = Recorder()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for owner, attr, make in _table():
            orig, targets = _bindings(owner, attr)
            wrapper = make(self.rec, orig)
            for t, k in targets:
                self._saved.append((t, k, orig))
                setattr(t, k, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# from spans to per-layer metrics
# ---------------------------------------------------------------------------

def _union_ns(intervals) -> int:
    total, end = 0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def span_totals(rec: Recorder) -> dict[str, dict]:
    """Per span name: calls, inclusive ns and self ns, over spans inside ``unit`` spans.

    Self time is the span's duration minus the part of it its child spans
    cover.  ``pipeline.sweep.dispatch`` is derived: the parent's
    ``run_sweep`` time outside its data build, i.e. pool start, pickling and
    waiting for the cells.
    """
    spans = rec.spans
    inside = [False] * len(spans)
    kids = defaultdict(list)
    for i, (name, s, e, p) in enumerate(spans):
        inside[i] = name == UNIT or (p >= 0 and inside[p])
        if p >= 0:
            kids[p].append((name, s, e))
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
    for i, (name, s, e, p) in enumerate(spans):
        if not inside[i]:
            continue
        t = out[name]
        t["calls"] += 1
        t["ns"] += e - s
        t["self_ns"] += (e - s) - _union_ns((cs, ce) for _n, cs, ce in kids.get(i, ()))
        if name == "pipeline.run_sweep":
            d = out["pipeline.sweep.dispatch"]
            d["calls"] += 1
            d["ns"] += (e - s) - sum(ce - cs for cn, cs, ce in kids.get(i, ())
                                     if cn == "pipeline.build_experiment_data")
    return dict(out)


def layer_metrics(rec: Recorder, units: int, jobs: int = 1) -> dict[str, float | None]:
    """Every per-layer metric this run can give, per unit; ``None`` marks a missing one."""
    totals = span_totals(rec)
    out: dict[str, float | None] = {}
    for name, t in totals.items():
        if name == UNIT:
            continue
        out[f"{name}_s"] = t["ns"] / 1e9 / units
        out[f"{name}.self_s"] = t["self_ns"] / 1e9 / units
        out[f"{name}.calls"] = t["calls"] / units
    for name, v in rec.counts.items():
        if name.endswith(".flop"):
            out[name[: -len(".flop")] + ".gflop"] = v / 1e9 / units
        else:
            out[name] = v / units
    if "pipeline.sweep.dispatch" in totals:
        cells = totals.get("pipeline.sweep.cell", {"ns": 0})["ns"]
        dispatch = totals["pipeline.sweep.dispatch"]["ns"]
        out["pipeline.sweep.parallel_efficiency"] = cells / (jobs * dispatch) if dispatch else None
    for name in rec.missing:
        for key in (f"{name}_s", f"{name}.self_s", f"{name}.calls",
                    "pipeline.sweep.parallel_efficiency"):
            out[key] = None
    return out


def spans_json(rec: Recorder) -> list[dict]:
    return [{"name": n, "start_ns": s, "end_ns": e, "parent": p} for n, s, e, p in rec.spans]
