"""Each fast path checked against the slower code it replaced.

The reference implementations below are the earlier versions of the same
functions, kept here so a later change to a fast path is still compared
with the plain computation.
"""

import ctypes
import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from datforge import distort, evalharness, pipeline, runtime, trainer
from datforge.runtime import blas_function
from datforge.cli import EXIT_RUNTIME, main
from datforge.distort import DIRECT_CONV_MAX_TAPS, Waveform, apply_reverb, make_impulse_response
from datforge.errors import ConfigError, DatforgeError
from datforge.evalharness import (
    PROBE_HOLDOUT,
    PROBE_LR,
    PROBE_PLATEAU,
    ProbeConfig,
    build_report,
    domain_probe,
    evaluate,
    write_report_csv,
)
from datforge.gradcore import Optimizer, Parameter, Tape
from datforge.models import DannModel, Head, ModelConfig, load_checkpoint
from datforge.objectives import task_loss
from datforge.pipeline import (
    ExperimentManifest,
    build_experiment_data,
    parallel_map,
    run_experiment,
    run_stages,
    run_sweep,
    stage_groups,
    standard_manifest,
    usable_cpus,
)
from datforge.trainer import REPORTED_LAMBDAS, TrainConfig, domain_indices, features_of, run_stage
from test_cli import TINY_MANIFEST


def reference_reverb(samples: np.ndarray, ir: np.ndarray) -> np.ndarray:
    """Time-domain convolution, cut to the clip, then peak normalization."""
    out = np.convolve(samples, ir)[: samples.size]
    peak = np.max(np.abs(out))
    return out / peak if peak > 1.0 else out


def reference_pool(x: np.ndarray, lengths) -> np.ndarray:
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    return np.stack([x[offsets[i] : offsets[i + 1]].mean(axis=0) for i in range(len(lengths))])


def reference_pool_backward(g: np.ndarray, lengths) -> np.ndarray:
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    gx = np.empty((offsets[-1], g.shape[1]))
    for i, t in enumerate(lengths):
        gx[offsets[i] : offsets[i + 1]] = g[i] / t
    return gx


# ---------------------------------------------------------------------------
# reverb: FFT convolution above the cutoff, direct below it
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 1500),
    taps=st.one_of(st.integers(1, DIRECT_CONV_MAX_TAPS + 8),
                   st.integers(DIRECT_CONV_MAX_TAPS - 8, 3000)),
    seed=st.integers(0, 2**31 - 1),
)
def test_reverb_matches_direct_convolution(n, taps, seed):
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1.0, 1.0, n)
    ir = rng.normal(0.0, 0.3, taps) * np.exp(-np.arange(taps) / max(taps / 4, 1.0))
    ir[0] = 1.0
    out = apply_reverb(Waveform(samples), ir).samples
    np.testing.assert_allclose(out, reference_reverb(samples, ir), rtol=0, atol=1e-12)


@pytest.mark.parametrize("t60", [0.2, 0.8, 1.2])  # 1.2 s IR is longer than the 1 s clip
def test_reverb_matches_direct_convolution_on_corpus_irs(t60):
    samples = np.random.default_rng(0).uniform(-0.8, 0.8, 16000)
    ir = make_impulse_response(t60, seed=4, clip_samples=int(t60 * 16000))  # uncut
    out = apply_reverb(Waveform(samples), ir).samples
    np.testing.assert_allclose(out, reference_reverb(samples, ir), rtol=0, atol=1e-12)


def test_short_ir_is_convolved_exactly():
    rng = np.random.default_rng(1)
    samples = rng.uniform(-0.5, 0.5, 4000)
    ir = np.concatenate([[1.0], rng.normal(0.0, 0.01, DIRECT_CONV_MAX_TAPS - 2)])
    out = apply_reverb(Waveform(samples), ir).samples
    assert np.array_equal(out, reference_reverb(samples, ir))


# ---------------------------------------------------------------------------
# featurize: frames through a strided view of the clip
# ---------------------------------------------------------------------------

def reference_featurize(w: Waveform) -> np.ndarray:
    """Frames gathered through an index matrix, each windowed by a fresh Hann window."""
    window = int(round(distort.WINDOW_S * distort.DEFAULT_SR))
    hop = int(round(distort.HOP_S * distort.DEFAULT_SR))
    t = (w.samples.size - window) // hop + 1
    idx = np.arange(window)[None, :] + hop * np.arange(t)[:, None]
    mags = np.abs(np.fft.rfft(w.samples[idx] * np.hanning(window), axis=1))
    fb = distort._triangular_filterbank(mags.shape[1])
    return np.log(np.maximum(mags @ fb.T, distort.FEATURE_FLOOR))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(400, 20000), seed=st.integers(0, 2**31 - 1))
@example(n=400, seed=0)  # one window, one frame
@example(n=559, seed=0)  # one sample short of a second frame
@example(n=560, seed=0)
@example(n=16001, seed=0)
def test_featurize_matches_index_matrix_framing(n, seed):
    w = Waveform(np.random.default_rng(seed).uniform(-1.0, 1.0, n))
    assert distort.featurize(w).tobytes() == reference_featurize(w).tobytes()


# ---------------------------------------------------------------------------
# segment pooling: reduceat / repeat against the per-clip loop
# ---------------------------------------------------------------------------

def exact_pool(x: np.ndarray, lengths) -> np.ndarray:
    """Per-segment means from correctly rounded sums (``math.fsum``), column by column."""
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    return np.array([[math.fsum(x[offsets[i] : offsets[i + 1], j]) / t
                      for j in range(x.shape[1])] for i, t in enumerate(lengths)])


@settings(max_examples=50, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 120), min_size=1, max_size=12),
    cols=st.integers(1, 9),
    seed=st.integers(0, 2**31 - 1),
)
# means that sit near zero after cancellation, which a relative bound alone failed on
@example(lengths=[1, 1, 1, 1, 110, 120, 120, 120, 120, 120, 54], cols=2, seed=100000001)
@example(lengths=[26, 115], cols=8, seed=222)
def test_mean_pool_segments_matches_loop(lengths, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(sum(lengths), cols))
    g = rng.normal(size=(len(lengths), cols))
    tape = Tape()
    xp = Parameter(x, "aux", "x")
    pooled = tape.mean_pool_segments(tape.param(xp), lengths)
    # a sum of n terms in any order is within n*eps*sum|x| of the exact sum; the
    # mean divides that by n, and the two divisions round once more each
    ref = exact_pool(x, lengths)
    eps = np.finfo(np.float64).eps
    n = np.asarray(lengths)[:, None]
    bound = n * eps * reference_pool(np.abs(x), lengths) + 2 * eps * np.abs(ref)
    assert np.all(np.abs(pooled.value - ref) <= bound)
    tape.backward(tape.sum(tape.mul(pooled, tape.const(g))))
    np.testing.assert_allclose(xp.grad, reference_pool_backward(g, lengths), rtol=1e-12, atol=0)


@pytest.mark.parametrize("lengths", [[2, 0, 3], [5, 0], [], [6, -1]])
def test_mean_pool_segments_rejects_empty_segments(lengths):
    tape = Tape()
    with pytest.raises(ValueError, match="mean_pool_segments"):
        tape.mean_pool_segments(tape.const(np.ones((5, 2))), lengths)


# ---------------------------------------------------------------------------
# tape: bias added in place and relu through np.maximum vs the plain expressions
# ---------------------------------------------------------------------------

# finite values, with negatives, exact zeros of both signs and subnormals
VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rows=st.integers(1, 40), k=st.integers(1, 12), m=st.integers(1, 12))
def test_linear_matches_matmul_plus_bias(data, rows, k, m):
    x = data.draw(arrays(np.float64, (rows, k), elements=VALUES))
    W = data.draw(arrays(np.float64, (k, m), elements=VALUES))
    b = data.draw(arrays(np.float64, m, elements=VALUES))
    tape = Tape()
    out = tape.linear(tape.const(x), tape.const(W), tape.const(b))
    assert np.array_equal(out.value, x @ W + b)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(1, 40), st.integers(1, 12)))
def test_relu_matches_masked_product(data, shape):
    x = data.draw(arrays(np.float64, shape, elements=VALUES))
    g = data.draw(arrays(np.float64, shape, elements=VALUES))
    tape = Tape()
    out = tape.relu(tape.const(x))
    assert np.array_equal(out.value, x * (x > 0))
    (gx,) = out.backward_fn(g)
    assert np.array_equal(gx, g * (x > 0))


# ---------------------------------------------------------------------------
# model: pool before the extractor's last layer vs pool after it
# ---------------------------------------------------------------------------

def _loss_and_grads(model: DannModel, feats, labels, domains, pooled_fn):
    for p in model.parameters():
        p.zero_grad()
    tape = Tape()
    pooled = pooled_fn(tape, feats)
    loss_y = task_loss(tape, model.label_head.forward_pooled(tape, pooled), labels)
    logits_d = model.domain_head.forward_pooled(tape, tape.grad_reverse(pooled, 0.5))
    loss_d = task_loss(tape, logits_d, domains)
    tape.backward(tape.add(loss_y, loss_d))
    return pooled.value.copy(), {p.name: p.grad.copy() for p in model.parameters()}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pooled_features_match_per_frame_path(seed):
    cfg = ModelConfig(input_dim=16, hidden_dim=12, feature_dim=6, n_classes=3, n_domains=2)
    model = DannModel(cfg, seed=seed)
    rng = np.random.default_rng(100 + seed)
    feats = [rng.normal(size=(int(t), cfg.input_dim)) for t in rng.integers(1, 110, size=7)]
    labels = rng.integers(0, cfg.n_classes, size=len(feats))
    domains = rng.integers(0, cfg.domain_out_dim, size=len(feats))

    def per_frame(tape, feats):
        frames = model.extractor.forward(tape, tape.const(np.concatenate(feats, axis=0)))
        return tape.mean_pool_segments(frames, [f.shape[0] for f in feats])

    fast, fast_grads = _loss_and_grads(model, feats, labels, domains, model.forward_pooled_features)
    ref, ref_grads = _loss_and_grads(model, feats, labels, domains, per_frame)
    np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=0)
    assert fast_grads.keys() == ref_grads.keys() and len(fast_grads) == 10
    for name, g in ref_grads.items():
        assert np.any(g != 0.0), name
        # an entry summed from cancelling terms can sit far below the array's
        # scale, so the same 1e-12 is also allowed relative to the largest entry
        scale = np.max(np.abs(g))
        np.testing.assert_allclose(fast_grads[name], g, rtol=1e-12, atol=1e-12 * scale,
                                   err_msg=name)


def reference_probe(pooled: np.ndarray, splits, n_domains: int, seed: int, epochs: int = 100):
    """The domain probe on given pooled features, as it was written before it pooled
    through ``forward_pooled_features``: (probe_acc, converged)."""
    doms = np.concatenate([np.zeros(len(splits.S), dtype=np.int64),
                           domain_indices(splits.T, "multi")])
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(doms))
    n_hold = max(1, int(len(doms) * PROBE_HOLDOUT))
    hold, train = perm[:n_hold], perm[n_hold:]
    head = Head(rng, pooled.shape[1], n_domains + 1, "aux", "probe")
    opt = Optimizer(head.parameters(), {"aux": PROBE_LR})
    losses = []
    for _ in range(epochs):
        tape = Tape()
        loss = task_loss(tape, head.forward_pooled(tape, tape.const(pooled[train])), doms[train])
        tape.backward(loss)
        opt.step()
        losses.append(float(loss.value))
    tail = losses[-10:]
    hold_logits = pooled[hold] @ head.w.value + head.b.value
    acc = float(np.mean(np.argmax(hold_logits, axis=1) == doms[hold]))
    return acc, (max(tail) - min(tail)) < PROBE_PLATEAU


@pytest.mark.parametrize("stage", ["baseline", "dat_only"])
def test_probe_pools_like_the_per_frame_extractor(small_splits, stage):
    cfg = ModelConfig(hidden_dim=16, feature_dim=8)
    model = run_stage(stage, small_splits, TrainConfig(epochs=2, batch_size=4), cfg).model
    feats = features_of(small_splits.S) + features_of(small_splits.T)
    ref = np.stack([model.extractor.extract_features(f).mean(axis=0) for f in feats])
    np.testing.assert_allclose(model.pooled_features(feats), ref, rtol=1e-12, atol=0)
    clips = small_splits.S + small_splits.oracle_labeled_target("oracle")  # the clips of feats
    head, labels = model.label_head, [c.label for c in clips]
    assert evaluate(model, clips) == np.mean(np.argmax(ref @ head.w.value + head.b.value, axis=1)
                                             == labels)
    for seed in (0, 1):
        res = domain_probe(model, small_splits, ProbeConfig(seed=seed))
        assert (res.probe_acc, res.converged) == reference_probe(ref, small_splits,
                                                                 cfg.n_domains, seed)


# ---------------------------------------------------------------------------
# process policies, set when datforge is imported: one BLAS thread, kept memory
# ---------------------------------------------------------------------------

blas_threads = blas_function("get_num_threads", ctypes.c_int, [])
set_blas_threads = blas_function("set_num_threads", None, [ctypes.c_int])
setter_found = pytest.mark.skipif(not runtime.ONE_THREAD or blas_threads is None,
                                  reason="no OpenBLAS thread getter and setter found")


def _fresh_interpreter(code: str, *args, **env_vars) -> str:
    """Standard output of ``code`` run by a new interpreter that finds this datforge."""
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


THREADS_PROBE = """
import ctypes, sys
import datforge.distort
from datforge.runtime import blas_function
print(blas_function("get_num_threads", ctypes.c_int, [])(), "datforge.pipeline" in sys.modules)
"""


@setter_found
def test_importing_datforge_sets_one_blas_thread():
    # the environment asks for two threads; importing datforge sets one regardless
    out = _fresh_interpreter(THREADS_PROBE, OPENBLAS_NUM_THREADS="2")
    assert out.split() == ["1", "False"]


@setter_found
def test_blas_thread_count_changes_no_result():
    splits = build_experiment_data(ExperimentManifest.from_dict(dict(TINY_MANIFEST)).corpus,
                                   7, with_continual=False).splits
    clip = splits.test_unseen[0].waveform
    feats = [c.waveform.features for c in splits.test_clean + splits.test_seen]
    rng = np.random.default_rng(0)
    x, W, b = rng.normal(size=(3136, 64)), rng.normal(size=(64, 64)), rng.normal(size=64)
    model = DannModel(ModelConfig(), 3)

    def outputs():
        return distort.featurize(clip), x @ W + b, model.pooled_features(feats)

    one = outputs()
    set_blas_threads(2)
    try:
        assert blas_threads() == 2
        two = outputs()
    finally:
        set_blas_threads(1)
    assert blas_threads() == 1
    for name, a, c in zip(("featurize", "x @ W + b", "pooled_features"), one, two):
        assert np.array_equal(a, c), name


# Allocates and frees x @ W + b on a 3136 x 64 frame batch 50 times, as the
# extractor's first layer does each step, and prints its minor page faults.
# With glibc's dynamic thresholds the freed heap top is trimmed, and every
# cycle faults about 750 pages back in.  It imports no more of datforge than
# distort and enters no map: importing datforge alone must set the policy.
FAULT_PROBE = """
import resource
import numpy as np
import datforge.distort

rng = np.random.default_rng(0)
x, W, b = rng.normal(size=(3136, 64)), rng.normal(size=(64, 64)), rng.normal(size=64)
y = x @ W + b  # the first cycle may grow the heap
del y
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    y = x @ W + b
    del y
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not runtime.KEEPS_FREED_MEMORY, reason="no mallopt that takes the thresholds")
def test_importing_datforge_keeps_freed_memory():
    # a fresh interpreter, because this one has the policy already
    faults = int(_fresh_interpreter(FAULT_PROBE))
    assert faults < 200, faults


# ---------------------------------------------------------------------------
# parallel_map: forked workers with one BLAS thread vs the serial loop
# ---------------------------------------------------------------------------

forks = pytest.mark.skipif(
    usable_cpus() < 2 or not runtime.ONE_THREAD or blas_threads is None
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel_map runs in-process on this machine")

# TINY_MANIFEST plus a stage that writes a continual checkpoint from its worker
THREE_STAGES = dict(TINY_MANIFEST, stages=TINY_MANIFEST["stages"] + [
    {"stage": "continual_plus_dat", "epochs": 1, "continual_epochs": 1, "batch_size": 4}])


@forks
@pytest.mark.parametrize("jobs", [1, 2])
def test_parallel_map_runs_every_item_with_one_blas_thread(jobs):
    assert blas_threads() == 1  # since datforge was imported
    # a lambda cannot pickle: fn reaches the workers through fork
    out = parallel_map(lambda x: (x * x, os.getpid(), blas_threads()), range(5), jobs)
    assert [v for v, _pid, _t in out] == [0, 1, 4, 9, 16]
    assert {t for _v, _pid, t in out} == {1}
    in_parent = [pid == os.getpid() for _v, pid, _t in out]
    assert all(in_parent) if jobs == 1 else not any(in_parent)
    assert blas_threads() == 1


def _fail_late_at_zero(x):
    if x == 0:
        time.sleep(0.5)  # item 1 fails first in time; item 0 is first in item order
    raise DatforgeError(f"item {x} failed")


@pytest.mark.parametrize("jobs", [1, 2])
def test_parallel_map_raises_the_first_failing_item(jobs):
    with pytest.raises(DatforgeError, match=r"^item 0 failed$"):
        parallel_map(_fail_late_at_zero, range(3), jobs)


def test_parallel_map_rejects_fewer_than_one_job():
    with pytest.raises(ConfigError, match="jobs"):
        parallel_map(abs, [1], 0)


def test_parallel_map_stays_in_process_while_other_threads_run():
    stop = threading.Event()
    t = threading.Thread(target=stop.wait)
    t.start()
    try:
        pids = parallel_map(lambda _x: os.getpid(), range(3), jobs=2)
    finally:
        stop.set()
        t.join(timeout=10)
    assert not t.is_alive()
    assert pids == [os.getpid()] * 3


def test_wrapped_run_stage_trains_in_process(monkeypatch):
    manifest = ExperimentManifest.from_dict(dict(THREE_STAGES))
    data = build_experiment_data(manifest.corpus, manifest.splits_seed)
    calls = []

    @functools.wraps(pipeline.run_stage)
    def recording(stage, *args, **kwargs):
        calls.append((stage, os.getpid()))
        return recording.__wrapped__(stage, *args, **kwargs)

    monkeypatch.setattr(pipeline, "run_stage", recording)
    results = run_stages(manifest, data)
    assert [r.stage for r in results] == ["baseline", "dat_only", "continual_plus_dat"]
    assert calls == [(r.stage, os.getpid()) for r in results]


def _checkpoints(out):
    return {p.name: load_checkpoint(p) for p in sorted(out.glob("*.ckpt"))}


@forks
def test_stages_in_workers_match_serial_run(tmp_path, monkeypatch):
    manifest = ExperimentManifest.from_dict(dict(THREE_STAGES))
    for jobs in (1, 2):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda jobs=jobs: jobs)
        run_experiment(manifest, tmp_path / f"jobs{jobs}")
    serial, forked = tmp_path / "jobs1", tmp_path / "jobs2"
    for name in ("report.csv", "training_log.csv"):
        assert (serial / name).read_bytes() == (forked / name).read_bytes(), name
    a, b = _checkpoints(serial), _checkpoints(forked)
    assert sorted(a) == sorted(b) == ["baseline.ckpt", "continual_plus_dat.ckpt",
                                      "continual_plus_dat_continual.ckpt", "dat_only.ckpt"]
    for name in a:
        assert [(n, g) for n, g, _v in a[name]] == [(n, g) for n, g, _v in b[name]]
        for (n, _g, va), (_n, _g2, vb) in zip(a[name], b[name]):
            assert np.array_equal(va, vb), (name, n)


@forks
def test_worker_error_reaches_the_cli_unchanged(tmp_path, monkeypatch, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(dict(TINY_MANIFEST, output_dir=str(tmp_path / "o"))))
    real = distort.featurize  # each run builds its clips afresh, so each one featurizes
    monkeypatch.setattr(distort, "featurize", lambda w: np.full_like(real(w), np.nan))
    errors = []
    for jobs in (1, 2):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda jobs=jobs: jobs)
        assert main(["run", "--manifest", str(path)]) == EXIT_RUNTIME
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "stage 'baseline': non-finite L_y (nan) at epoch 0, step 0" in errors[1]


# ---------------------------------------------------------------------------
# shared work: features kept on the clip, one pretraining per distinct setting
# ---------------------------------------------------------------------------

def tiny_standard(**continual_plus_dat):
    """The standard manifest's five stages at one epoch each, on TINY_MANIFEST's corpus.

    ``continual_plus_dat`` changes that stage's entry.
    """
    stages = []
    for spec in standard_manifest(1).to_dict()["stages"]:
        entry = dict(spec, epochs=1, **({"continual_epochs": 1}
                                        if "continual_epochs" in spec else {}))
        if spec["stage"] == "continual_plus_dat":
            entry.update(continual_plus_dat)
        stages.append(entry)
    return ExperimentManifest.from_dict(dict(TINY_MANIFEST, stages=stages))


def test_standard_continual_stages_share_one_group():
    groups = stage_groups(standard_manifest(1).stages)
    assert [[s.stage for s in g] for g in groups] == [
        ["baseline"], ["oracle"], ["continual_only", "continual_plus_dat"], ["dat_only"]]


@pytest.mark.parametrize("jobs", [1, 2])
def test_shared_pretraining_matches_each_stage_alone(tmp_path, monkeypatch, jobs):
    # continual_plus_dat trains a binary domain head, continual_only a multi-domain one:
    # the shared extractor must not depend on the heads
    manifest = tiny_standard(objective="bce")
    alone = tmp_path / "alone"
    alone.mkdir()
    data = build_experiment_data(manifest.corpus, manifest.splits_seed)
    logs = {}
    for spec in manifest.stages:
        model_cfg = ModelConfig(n_classes=data.classes, domain_setting=spec.config.domain_setting)
        pretrained = None
        if spec.stage in trainer.CONTINUAL_STAGES:
            pretrained = trainer.pretrain(spec.config, data.continual_set, model_cfg, spec.stage)
        res = run_stage(spec.stage, data.splits, spec.config, model_cfg, pretrained)
        res.model.save(alone / f"{spec.stage}.ckpt")
        if res.start is not None:
            res.start.save(alone / f"{spec.stage}_continual.ckpt")
        logs[spec.stage] = res.log

    monkeypatch.setattr(pipeline, "usable_cpus", lambda: jobs)
    shared = tmp_path / "shared"
    shared.mkdir()
    data = build_experiment_data(manifest.corpus, manifest.splits_seed)  # nothing featurized
    results = run_stages(manifest, data)
    assert [r.stage for r in results] == [s.stage for s in manifest.stages]
    for res in results:
        res.model.save(shared / f"{res.stage}.ckpt")
        if res.start is not None:
            res.start.save(shared / f"{res.stage}_continual.ckpt")
        assert res.log == logs[res.stage], res.stage
    names = sorted(p.name for p in alone.iterdir())
    assert names == sorted(p.name for p in shared.iterdir())
    assert "continual_only_continual.ckpt" in names and "continual_plus_dat_continual.ckpt" in names
    for name in names:
        assert (alone / name).read_bytes() == (shared / name).read_bytes(), name


@pytest.mark.parametrize("change, pretrainings", [
    ({}, ["continual_only"]),
    ({"eta": 1e-3, "lambda": 0.5, "objective": "bce"}, ["continual_only"]),
    ({"continual_epochs": 2}, ["continual_only", "continual_plus_dat"]),
    ({"batch_size": 8}, ["continual_only", "continual_plus_dat"]),
])
def test_one_pretraining_per_distinct_setting(monkeypatch, change, pretrainings):
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)  # count in this process
    calls = []
    real = trainer.continual_pretrain

    def counting(model, continual_set, cfg, stage):
        calls.append(stage)
        return real(model, continual_set, cfg, stage)

    monkeypatch.setattr(trainer, "continual_pretrain", counting)
    manifest = tiny_standard(**change)
    results = run_stages(manifest, build_experiment_data(manifest.corpus, manifest.splits_seed))
    assert calls == pretrainings
    assert [r.stage for r in results] == [s.stage for s in manifest.stages]
    assert all(row.stage == res.stage for res in results for row in res.log)


# TINY_MANIFEST's corpus, swept over three lambdas of a continual stage
CONTINUAL_SWEEP = dict(
    TINY_MANIFEST,
    stages=[{"stage": "continual_plus_dat", "epochs": 1, "continual_epochs": 1, "batch_size": 4}],
    sweep={"lambdas": [1e-1, 1e-2, 1e-3], "stage": "continual_plus_dat"})


def test_continual_sweep_pretrains_once(tmp_path, monkeypatch):
    calls = []
    real = trainer.continual_pretrain

    def counting(model, continual_set, cfg, stage):
        calls.append(stage)
        return real(model, continual_set, cfg, stage)

    monkeypatch.setattr(trainer, "continual_pretrain", counting)
    rows = run_sweep(ExperimentManifest.from_dict(dict(CONTINUAL_SWEEP)), tmp_path, jobs=1)
    assert len(rows) == 3
    assert calls == ["continual_plus_dat"]


# TINY_MANIFEST's dat_only stage, swept over its two lambdas under the binary-domain objective
BCE_SWEEP = dict(TINY_MANIFEST, sweep=dict(TINY_MANIFEST["sweep"], objective="bce"))


@pytest.mark.parametrize("sweep, jobs", [(CONTINUAL_SWEEP, 1), (CONTINUAL_SWEEP, 2),
                                         (BCE_SWEEP, 1), (BCE_SWEEP, 2)],
                         ids=["1", "2", "dat-bce-1", "dat-bce-2"])
def test_continual_sweep_matches_each_cell_alone(tmp_path, sweep, jobs):
    """``sweep_report.csv`` equals ``pretrain`` + ``run_stage`` + ``build_report`` on fresh
    data whose clips carry their samples, each cell trained and pretrained alone."""
    manifest = ExperimentManifest.from_dict(dict(sweep))
    spec = next(s for s in manifest.stages if s.stage == manifest.sweep.stage)
    data = build_experiment_data(manifest.corpus, manifest.splits_seed)
    rows = []
    for lam in sorted(manifest.sweep.lambdas, reverse=True):
        cfg = replace(spec.config, objective=manifest.sweep.objective, grl_lambda=lam)
        model_cfg = ModelConfig(n_classes=data.classes, domain_setting=cfg.domain_setting)
        pretrained = None
        if spec.stage in trainer.CONTINUAL_STAGES:
            pretrained = trainer.pretrain(cfg, data.continual_set, model_cfg, spec.stage)
        res = run_stage(spec.stage, data.splits, cfg, model_cfg, pretrained=pretrained)
        row = build_report([res], data.splits).rows[0]
        rows.append({"lambda": lam, "reported": lam in REPORTED_LAMBDAS,
                     "clean_acc": row.clean_acc, "seen_acc": row.seen_acc,
                     "unseen_acc": row.unseen_acc})
    pipeline._write_sweep_csv(tmp_path / "alone.csv", rows)
    run_sweep(manifest, tmp_path / "sweep", jobs=jobs)
    assert (tmp_path / "sweep" / "sweep_report.csv").read_bytes() == \
        (tmp_path / "alone.csv").read_bytes()


def _call_logging(monkeypatch, owner, name: str, log: Path):
    """Make ``owner.<name>`` append ``<pid> <id of its first argument>`` to ``log`` before
    each call: a line per call, whichever process makes it."""
    real = getattr(owner, name)

    def logging(first, *args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {id(first)}\n")
        return real(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, logging)


def _logged_calls(log: Path) -> list[tuple[int, int]]:
    """(pid, first argument's id) of each call ``_call_logging`` logged, in call order."""
    return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=forks)], ids=["in-process", "forked"])
def test_run_featurizes_each_waveform_once(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
    built, tested = [], []  # the run's training data and its splits with the test sets
    real_build, real_add = pipeline.build_training_data, pipeline.add_test_sets

    def keeping(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    def keeping_tests(*args, **kwargs):
        tested.append(real_add(*args, **kwargs))
        return tested[-1]

    monkeypatch.setattr(pipeline, "build_training_data", keeping)
    monkeypatch.setattr(pipeline, "add_test_sets", keeping_tests)
    _call_logging(monkeypatch, distort, "featurize", tmp_path / "featurize.log")
    run_experiment(tiny_standard(), tmp_path / "out")
    (data,), (sp,) = built, tested  # kept alive, so no two of their waveforms share an id
    waves = {id(c.waveform) for part in (sp.S, sp.T, sp.test_clean, sp.test_seen, sp.test_unseen)
             for c in part}
    waves |= {id(w) for c in data.continual_set for w in (c.waveform, c.clean)}
    calls = _logged_calls(tmp_path / "featurize.log")
    assert {pid for pid, _ in calls} == {os.getpid()}  # once per run, in the parent
    ids = [w for _, w in calls]
    assert len(ids) == len(set(ids)) == len(waves)
    assert set(ids) == waves


# ---------------------------------------------------------------------------
# forked workers and evaluation read features, not samples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command, workers", [
    ("run", 1), pytest.param("run", 2, marks=forks),
    ("sweep", 1), pytest.param("sweep", 2, marks=forks)])
def test_workers_inherit_no_samples(tmp_path, monkeypatch, command, workers):
    samples = []  # weakrefs to the samples of every clip built, and of each continual clean input
    alive_at_map, alive_at_report = [], []
    real_build, real_add, real_map, real_report = (
        pipeline.build_training_data, pipeline.add_test_sets, pipeline.parallel_map,
        pipeline.build_report)

    def keep_refs(clips):
        samples.extend(weakref.ref(w.samples) for c in clips for w in (c.waveform, c.clean)
                       if w is not None)

    def building(*args, **kwargs):
        data = real_build(*args, **kwargs)
        keep_refs(data.splits.S + data.splits.T + data.continual_set)
        return data

    def adding(*args, **kwargs):
        splits = real_add(*args, **kwargs)
        keep_refs(splits.test_clean + splits.test_seen + splits.test_unseen)
        return splits

    def mapping(*args, **kwargs):
        alive_at_map.append(sum(r() is not None for r in samples))
        return real_map(*args, **kwargs)

    def reporting(*args, **kwargs):
        alive_at_report.append(sum(r() is not None for r in samples))
        return real_report(*args, **kwargs)

    monkeypatch.setattr(pipeline, "build_training_data", building)
    monkeypatch.setattr(pipeline, "add_test_sets", adding)
    monkeypatch.setattr(pipeline, "parallel_map", mapping)
    monkeypatch.setattr(pipeline, "build_report", reporting)
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: workers)
    _call_logging(monkeypatch, distort, "featurize", tmp_path / "featurize.log")
    if command == "run":
        manifest = tiny_standard()
        run_experiment(manifest, tmp_path / "out")
    else:
        manifest = ExperimentManifest.from_dict(dict(CONTINUAL_SWEEP))
        run_sweep(manifest, tmp_path / "out", jobs=workers)
    c = manifest.corpus
    # S and T, each continual clip's input and clean target, and all three test sets
    assert len(samples) == c.classes * (c.n_per_class + 2 * c.continual_n_per_class
                                        + 3 * c.test_n_per_class)
    assert alive_at_map == [0]  # every sample built so far is freed before the map starts
    assert alive_at_report == [0]  # one evaluation, here, after the test sets are released too
    assert {pid for pid, _ in _logged_calls(tmp_path / "featurize.log")} == {os.getpid()}


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=forks)], ids=["in-process", "forked"])
def test_run_matches_the_reference_path(tmp_path, monkeypatch, cpus):
    """``run``'s files equal ``pretrain`` + ``run_stage`` + ``build_report`` on fresh data whose
    clips carry their samples, each stage trained and pretrained alone."""
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
    manifest = tiny_standard()
    run_experiment(manifest, tmp_path / "run")

    ref = tmp_path / "ref"
    ref.mkdir()
    data = build_experiment_data(manifest.corpus, manifest.splits_seed)
    results = []
    for spec in manifest.stages:
        model_cfg = ModelConfig(n_classes=data.classes, domain_setting=spec.config.domain_setting)
        pretrained = None
        if spec.stage in trainer.CONTINUAL_STAGES:
            pretrained = trainer.pretrain(spec.config, data.continual_set, model_cfg, spec.stage)
        results.append(run_stage(spec.stage, data.splits, spec.config, model_cfg, pretrained))
    for res in results:
        res.model.save(ref / f"{res.stage}.ckpt")
        if res.start is not None:
            res.start.save(ref / f"{res.stage}_continual.ckpt")
    pipeline.write_training_log(ref / "training_log.csv", [row for r in results for row in r.log])
    write_report_csv(ref / "report.csv", build_report(results, data.splits))
    distort.write_manifest(ref / "corpus_manifest.jsonl", distort.manifest_entries(data.splits))

    names = sorted(p.name for p in ref.iterdir())
    assert len(names) == 3 + 5 + 2  # three files, a checkpoint per stage, two start models
    for name in names:
        assert (tmp_path / "run" / name).read_bytes() == (ref / name).read_bytes(), name


# ---------------------------------------------------------------------------
# corpus build: T's clean sources are freed once the split is made
# ---------------------------------------------------------------------------

def test_corpus_build_frees_the_target_sources_before_the_continual_set(monkeypatch):
    corpus = pipeline.CorpusSpec(classes=2, n_per_class=5, test_n_per_class=1,
                                 continual_n_per_class=1)
    sources = {}  # training-corpus clip id -> weakref to its clean Waveform
    alive_then = []  # the ids still alive when build_continual_set is called
    real_synth, real_continual = pipeline.synth_corpus, pipeline.build_continual_set

    def synth_keeping_refs(n_per_class, classes, seed, id_prefix="clip"):
        clips = real_synth(n_per_class, classes, seed, id_prefix)
        if id_prefix == "clip":  # the training corpus, which the split halves into S and T
            sources.update((c.clip_id, weakref.ref(c.waveform)) for c in clips)
        return clips

    def continual_checking(*args, **kwargs):
        alive_then.append({cid for cid, ref in sources.items() if ref() is not None})
        return real_continual(*args, **kwargs)

    monkeypatch.setattr(pipeline, "synth_corpus", synth_keeping_refs)
    monkeypatch.setattr(pipeline, "build_continual_set", continual_checking)
    data = build_experiment_data(corpus, 7)
    s_ids = {c.clip_id for c in data.splits.S}
    t_ids = {c.clip_id for c in data.splits.T}
    assert len(sources) == 10 and s_ids | t_ids == set(sources) and not s_ids & t_ids
    assert alive_then == [s_ids]  # every S clip alive, every T source freed
    assert all(sources[c.clip_id]() is c.waveform for c in data.splits.S)


# ---------------------------------------------------------------------------
# run and sweep: the workers fork before the test sets exist, the continual set is
# freed before they are built, and the parent evaluates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command, cpus", [
    ("run", 1), ("run", 2), ("sweep", 1), ("sweep", 2)],
    ids=["in-process", "forked", "sweep-in-process", "sweep-forked"])
def test_run_builds_the_test_sets_after_training_and_frees_the_continual_set(
        tmp_path, monkeypatch, command, cpus):
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
    test_clips, continual = [], []  # weakrefs to every test-corpus clip and continual waveform
    at_map, at_test_synth = [], []  # what was alive when the map / test synthesis began
    real_synth, real_continual, real_map = (pipeline.synth_corpus, pipeline.build_continual_set,
                                            pipeline.parallel_map)

    def alive(refs):
        return [r for r in refs if r() is not None]

    def synth_keeping_refs(n_per_class, classes, seed, id_prefix="clip"):
        if id_prefix == "test":
            at_test_synth.append(len(alive(continual)))
        clips = real_synth(n_per_class, classes, seed, id_prefix)
        if id_prefix == "test":
            test_clips.extend(weakref.ref(c) for c in clips)
        return clips

    def continual_keeping_refs(*args, **kwargs):
        clips = real_continual(*args, **kwargs)
        continual.extend(weakref.ref(w) for c in clips for w in (c.waveform, c.clean))
        return clips

    def map_checking(*args, **kwargs):
        at_map.append((len(test_clips), len(alive(continual))))
        return real_map(*args, **kwargs)

    monkeypatch.setattr(pipeline, "synth_corpus", synth_keeping_refs)
    monkeypatch.setattr(pipeline, "build_continual_set", continual_keeping_refs)
    monkeypatch.setattr(pipeline, "parallel_map", map_checking)
    _call_logging(monkeypatch, evalharness, "evaluate", tmp_path / "evaluate.log")
    evaluating, eval_batches = [], []  # evaluate calls under way; len(feats) of their forwards
    real_evaluate, real_forward = evalharness.evaluate, DannModel.forward_pooled_features

    def evaluate_flagged(*args, **kwargs):
        evaluating.append(True)
        try:
            return real_evaluate(*args, **kwargs)
        finally:
            evaluating.pop()

    def forward_logging(self, tape, feats):
        if evaluating:
            eval_batches.append(len(feats))
        return real_forward(self, tape, feats)

    monkeypatch.setattr(evalharness, "evaluate", evaluate_flagged)
    monkeypatch.setattr(DannModel, "forward_pooled_features", forward_logging)
    if command == "run":
        manifest = tiny_standard()
        run_experiment(manifest, tmp_path / "out")
    else:
        manifest = ExperimentManifest.from_dict(dict(CONTINUAL_SWEEP))
        run_sweep(manifest, tmp_path / "out", jobs=cpus)
    n_cont = manifest.corpus.continual_n_per_class * manifest.corpus.classes
    assert len(continual) == 2 * n_cont  # each clip's distorted input and clean target
    # no test clip synthesized yet when the map starts; run's stage workers pretrain on the
    # continual set, while a sweep pretrains before its cells and frees the set first
    assert at_map == [(0, 2 * n_cont if command == "run" else 0)]
    assert at_test_synth == [0]  # every continual waveform freed by then
    assert len(test_clips) == manifest.corpus.test_n_per_class * manifest.corpus.classes
    trained = len(manifest.stages) if command == "run" else len(manifest.sweep.lambdas)
    evaluated = _logged_calls(tmp_path / "evaluate.log")
    assert len(evaluated) == 3 * trained  # each model on each test set, all in this process
    assert {pid for pid, _ in evaluated} == {os.getpid()}
    assert eval_batches and set(eval_batches) == {1}  # one clip per forward pass


@pytest.mark.parametrize("classes, n_per_class", [(2, 5), (3, 5)], ids=["even", "odd"])
def test_run_data_parts_compose_to_the_experiment_data(classes, n_per_class):
    corpus = pipeline.CorpusSpec(classes=classes, n_per_class=n_per_class, test_n_per_class=2,
                                 continual_n_per_class=2, seed=3)
    whole = build_experiment_data(corpus, 7)
    data = pipeline.build_training_data(corpus, 7, True)
    assert data.splits.test_clean == data.splits.test_seen == data.splits.test_unseen == []
    splits = pipeline.add_test_sets(data.splits, corpus, 7)

    def clips(part):
        return [(c.clip_id, c.label, c.spec, c.waveform.samples.tobytes(), c.waveform.gain_applied,
                 None if c.clean is None else c.clean.samples.tobytes()) for c in part]

    for name in ("S", "T", "test_clean", "test_seen", "test_unseen"):
        assert clips(getattr(splits, name)) == clips(getattr(whole.splits, name)), name
    assert clips(data.continual_set) == clips(whole.continual_set)
    assert clips(splits.oracle_labeled_target("oracle")) == \
        clips(whole.splits.oracle_labeled_target("oracle"))  # T with its hidden labels
    assert data.classes == whole.classes == classes
