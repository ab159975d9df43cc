"""Tests of the benchmark's own machinery, on corpora far smaller than the benchmark's."""

from __future__ import annotations

import dataclasses
import multiprocessing
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from datforge import gradcore, pipeline  # noqa: E402


def tiny_manifest(seed: int, epochs: int | None = 2):
    """12 training clips per corpus; ``epochs=None`` keeps the standard stage settings."""
    m = pipeline.standard_manifest(seed)
    m.corpus = dataclasses.replace(m.corpus, n_per_class=3, test_n_per_class=2,
                                   continual_n_per_class=2)
    if epochs is not None:
        for s in m.stages:
            s.config = dataclasses.replace(s.config, epochs=epochs, continual_epochs=1)
    return m


def _values():
    return [(owner, attr, value) for owner, attr, value in tracer.traced_attributes()]


def test_untraced_run_leaves_originals_and_traced_run_restores_them(monkeypatch):
    before = _values()
    monkeypatch.setattr(workloads, "bench_manifest", lambda seed: tiny_manifest(seed))
    units = run.run_units("corpus", seed=3, seconds=0, tracer=None)
    assert units[0]["failed"] == 0
    assert all(getattr(o, a) is v for o, a, v in before)

    t = tracer.Tracer()
    with t:
        originals = {id(v) for _o, _a, v in before}
        assert all(getattr(o, a) is not v for o, a, v in before)
        # no datforge module still binds an original under any name
        for mod in tracer.datforge_modules():
            assert not [k for k, v in vars(mod).items() if id(v) in originals], mod.__name__
    assert all(getattr(o, a) is v for o, a, v in before)


def _linear_gflop(rec) -> float:
    tape = gradcore.Tape()
    x = tape.const(np.ones((3, 4)))
    w = gradcore.Parameter(np.ones((4, 2)), gradcore.FEATURE_EXTRACTOR, "t.W")
    b = gradcore.Parameter(np.zeros(2), gradcore.FEATURE_EXTRACTOR, "t.b")
    out = tape.linear(x, tape.param(w), tape.param(b))
    tape.backward(tape.sum(out))
    assert np.all(w.grad == 3.0)
    return rec.counts["gradcore.linear.t.flop"]


def test_gflop_matches_hand_count():
    t = tracer.Tracer()
    with t:
        flops = _linear_gflop(t.rec)
    # 3x4 @ 4x2 forward, and the input and weight gradients: 2*3*4*2 each
    assert flops == 3 * 48


def test_gflop_skips_gradients_the_backward_does_not_return(monkeypatch):
    plain = gradcore.Tape.linear

    def const_leaf_skip(self, x, W, b):
        node = plain(self, x, W, b)
        full = node.backward_fn
        node.backward_fn = lambda g: (None,) + tuple(full(g))[1:]
        return node

    monkeypatch.setattr(gradcore.Tape, "linear", const_leaf_skip)
    t = tracer.Tracer()
    with t:
        flops = _linear_gflop(t.rec)
    assert flops == 2 * 48


def test_traced_corpus_counts_every_featurized_clip(tmp_path):
    t = tracer.Tracer()
    with t, t.rec.span(tracer.UNIT):
        res = workloads.corpus_unit(tiny_manifest(5), tmp_path)
    layers = tracer.layer_metrics(t.rec, units=1)
    assert res.failed == 0
    assert res.attempted == workloads.corpus_planned(tiny_manifest(5))
    assert layers["distort.featurize.calls"] == res.attempted
    assert layers["distort.apply_reverb.calls"] > 0
    assert "gradcore.tape_nodes" not in layers  # no training on this workload


def test_traced_experiment_labels_layers(tmp_path):
    t = tracer.Tracer()
    with t, t.rec.span(tracer.UNIT):
        res = workloads.experiment_unit(tiny_manifest(2), tmp_path)
    layers = tracer.layer_metrics(t.rec, units=1)
    assert res.failed == 0 and res.attempted == 10
    for label in ("f.l1", "f.l2", "f.l3", "y.out", "d.out", "dec"):
        assert layers[f"gradcore.linear.{label}.gflop"] > 0
        assert layers[f"gradcore.linear.{label}.bwd_s"] > 0
    for stage in ("baseline", "oracle", "continual_only", "dat_only", "continual_plus_dat"):
        assert layers[f"trainer.stage.{stage}.calls"] == 1
    assert layers["evalharness.domain_probe.calls"] == 5
    assert 0 < layers["gradcore.backward.self_s"] < layers["gradcore.backward_s"]


@pytest.mark.parametrize("name", ["experiment", "corpus", "sweep"])
def test_unit_writes_only_inside_its_workdir(name, tmp_path, monkeypatch):
    cwd, work = tmp_path / "cwd", tmp_path / "work"
    cwd.mkdir()
    work.mkdir()
    (tmp_path / "sentinel").write_text("not the run's\n")
    monkeypatch.chdir(cwd)
    unit, _planned = workloads.WORKLOADS[name]
    res = unit(tiny_manifest(4, epochs=None if name == "sweep" else 2), work)
    assert res.failed == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cwd", "sentinel", "work"]
    assert list(cwd.iterdir()) == []
    assert (tmp_path / "sentinel").read_text() == "not the run's\n"


def test_each_unit_gets_a_fresh_workdir_that_is_removed(monkeypatch):
    seen = []

    def fake_unit(manifest, workdir):
        assert list(Path(workdir).iterdir()) == []
        seen.append(Path(workdir))
        (Path(workdir) / "RUN-INCOMPLETE").write_text("x")
        return workloads.UnitResult(attempted=1)

    monkeypatch.setitem(workloads.WORKLOADS, "fake", (fake_unit, lambda m: 1))
    monkeypatch.setattr(workloads, "bench_manifest", lambda seed: tiny_manifest(seed))
    units = run.run_units("fake", seed=1, seconds=0.05, tracer=None)
    assert len(units) == len(seen) >= 2
    assert len(set(seen)) == len(seen)
    assert all(p.parent == run.OUT / "tmp" and not p.exists() for p in seen)


@pytest.mark.skipif(multiprocessing.get_start_method(allow_none=True) not in (None, "fork")
                    or multiprocessing.get_all_start_methods()[0] != "fork",
                    reason="pool workers inherit the wrappers only under fork")
def test_sweep_worker_spans_reach_the_parent(tmp_path):
    t = tracer.Tracer()
    t.rec.worker_dir = tmp_path
    with t, t.rec.span(tracer.UNIT):
        res = workloads.sweep_unit(tiny_manifest(6, epochs=None), tmp_path)
    layers = tracer.layer_metrics(t.rec, units=1, jobs=workloads.SWEEP_JOBS)
    assert res.failed == 0
    assert not t.rec.missing
    assert layers["pipeline.sweep.cell.calls"] == 2
    assert layers["trainer.stage.dat_only.calls"] == 2  # recorded inside the workers
    assert layers["trainer.dat_step.calls"] > 0
    assert 0 < layers["pipeline.sweep.parallel_efficiency"] <= 1.0
    assert not list(tmp_path.glob("worker-*"))
