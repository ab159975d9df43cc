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
import tracemalloc
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
    run_sweep,
    stage_groups,
    standard_manifest,
    train_stages,
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


def test_wrapped_run_stage_trains_in_process(tmp_path, monkeypatch):
    manifest = ExperimentManifest.from_dict(dict(THREE_STAGES))
    calls = []

    @functools.wraps(pipeline.run_stage)
    def recording(stage, *args, **kwargs):
        calls.append((stage, os.getpid()))
        return recording.__wrapped__(stage, *args, **kwargs)

    monkeypatch.setattr(pipeline, "run_stage", recording)
    results = run_experiment(manifest, tmp_path).rows
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
    stages = standard_manifest(1).stages
    groups = stage_groups(stages)
    assert [[s.stage for s in g] for g in groups] == [
        ["baseline"], ["oracle"], ["continual_only", "continual_plus_dat"], ["dat_only"]]
    # sweep cells: one entry's config under each lambda
    for stage, lams, grouped in (("dat_only", [1e-2, 1e-3], [[1e-2], [1e-3]]),
                                 ("continual_plus_dat", [1e-1, 1e-2, 1e-3], [[1e-1, 1e-2, 1e-3]])):
        entry = next(s for s in stages if s.stage == stage)
        cells = [replace(entry, config=replace(entry.config, grl_lambda=lam)) for lam in lams]
        groups = stage_groups(cells)
        assert [[s.config.grl_lambda for s in g] for g in groups] == grouped, stage
        assert [s for g in groups for s in g] == cells


@pytest.mark.parametrize("jobs", [1, 2])
def test_shared_pretraining_matches_each_stage_alone(tmp_path, jobs):
    # continual_plus_dat trains a binary domain head, continual_only a multi-domain one:
    # the shared extractor must not depend on the heads
    manifest = tiny_standard(objective="bce")
    alone = tmp_path / "alone"
    alone.mkdir()
    data = build_experiment_data(manifest.corpus, manifest.splits_seed)
    logs = {}
    for spec in manifest.stages:
        model_cfg = ModelConfig(n_classes=manifest.corpus.classes,
                                domain_setting=spec.config.domain_setting)
        pretrained = None
        if spec.stage in trainer.CONTINUAL_STAGES:
            pretrained = trainer.pretrain(spec.config, data.continual_set, model_cfg, spec.stage)
        res = run_stage(spec.stage, data.splits, spec.config, model_cfg, pretrained)
        res.model.save(alone / f"{spec.stage}.ckpt")
        if res.start is not None:
            res.start.save(alone / f"{spec.stage}_continual.ckpt")
        logs[spec.stage] = res.log

    shared = tmp_path / "shared"
    shared.mkdir()
    results, _ = train_stages(manifest, manifest.stages, jobs)
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
    calls = []
    real = trainer.continual_pretrain

    def counting(model, continual_set, cfg, stage):
        calls.append(stage)
        return real(model, continual_set, cfg, stage)

    monkeypatch.setattr(trainer, "continual_pretrain", counting)
    manifest = tiny_standard(**change)
    results, _ = train_stages(manifest, manifest.stages, jobs=1)  # count in this process
    assert calls == pretrainings
    assert [r.stage for r in results] == [s.stage for s in manifest.stages]
    assert all(row.stage == res.stage for res in results for row in res.log)


@forks
@pytest.mark.parametrize("stages, pretrains_here", [
    (trainer.CONTINUAL_STAGES, True), (trainer.STAGES, False)], ids=["one-group", "standard"])
def test_pretraining_runs_where_the_stage_groups_say(tmp_path, monkeypatch, stages,
                                                     pretrains_here):
    """One continual group pretrains here, and its stages train in a worker each; among
    other groups, the pretraining runs in its group's worker.  Either way, at 2 CPUs the
    files equal those of the run at 1 CPU."""
    # bce: continual_plus_dat's domain head differs from continual_only's
    standard = tiny_standard(objective="bce")
    manifest = replace(standard, stages=[s for s in standard.stages if s.stage in stages],
                       sweep=None)
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
    run_experiment(manifest, tmp_path / "serial")

    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 2)
    pretrain_log, train_log = tmp_path / "pretrain.log", tmp_path / "train.log"
    _call_logging(monkeypatch, trainer, "continual_pretrain", pretrain_log)

    # the first two trainings wait for each other, so one worker cannot take both items
    def meeting(real):
        def train(*args, **kwargs):
            deadline = time.monotonic() + 30
            while len(_logged_calls(train_log)) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            return real(*args, **kwargs)
        return train

    for name in ("train_supervised", "train_dat"):
        monkeypatch.setattr(trainer, name, meeting(getattr(trainer, name)))
        _call_logging(monkeypatch, trainer, name, train_log)
    run_experiment(manifest, tmp_path / "forked")

    pretrained = [pid for pid, _ in _logged_calls(pretrain_log)]
    trained = [pid for pid, _ in _logged_calls(train_log)]
    assert len(pretrained) == 1 and (pretrained[0] == os.getpid()) == pretrains_here
    assert len(trained) == len(manifest.stages) and os.getpid() not in trained
    if pretrains_here:
        assert len(set(trained)) == 2
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "forked").iterdir())
    for name in names:
        serial, forked = ((tmp_path / run / name).read_bytes() for run in ("serial", "forked"))
        if name == "report.json":  # equal but for when each run wrote it
            serial, forked = json.loads(serial), json.loads(forked)
            del serial["metadata"]["created_at"], forked["metadata"]["created_at"]
        assert serial == forked, name


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


@pytest.mark.parametrize("command", ["sweep", "run"])
def test_the_parent_trims_its_heap_between_its_pretraining_and_the_fork(tmp_path, monkeypatch,
                                                                       command):
    """Where this process pretrains (one continual group), it hands its freed heap back to
    the OS after pretraining and before the stage map starts; elsewhere it trims nothing."""
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
    events = []

    def logging(owner, name):
        real = getattr(owner, name)

        def log(*args, **kwargs):
            events.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, log)

    for owner, name in ((pipeline, "pretrain"), (runtime, "trim_heap"),
                        (pipeline, "parallel_map")):
        logging(owner, name)
    if command == "sweep":
        run_sweep(ExperimentManifest.from_dict(dict(CONTINUAL_SWEEP)), tmp_path, jobs=1)
        assert events == ["pretrain", "trim_heap", "parallel_map"]
    else:  # the standard stages make four groups: the continual one pretrains in its item
        run_experiment(tiny_standard(), tmp_path)
        assert events == ["parallel_map", "pretrain"]


def test_trim_heap_does_nothing_without_malloc_trim(monkeypatch):
    looked_up = []

    def absent(name, restype, argtypes):
        looked_up.append(name)

    monkeypatch.setattr(runtime, "libc_function", absent)
    assert runtime.trim_heap() is None and looked_up == ["malloc_trim"]


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
        model_cfg = ModelConfig(n_classes=manifest.corpus.classes,
                                domain_setting=cfg.domain_setting)
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


def _keep_made(monkeypatch, hook=None) -> list:
    """Every clip the commands read the features of (``pipeline.keep_features``), kept alive
    in the list returned, in read order; ``hook(clip)`` first sees each while it still has
    its samples."""
    made, real = [], pipeline.keep_features

    def keeping(clips):
        for clip in clips:
            if hook is not None:
                hook(clip)
            real([clip])
            made.append(clip)

    monkeypatch.setattr(pipeline, "keep_features", keeping)
    return made


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=forks)], ids=["in-process", "forked"])
def test_run_featurizes_each_waveform_once(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
    # S, T, every test clip and every continual clip, kept alive, so no two waveforms share an id
    finished = _keep_made(monkeypatch)
    _call_logging(monkeypatch, distort, "featurize", tmp_path / "featurize.log")
    manifest = tiny_standard()
    run_experiment(manifest, tmp_path / "out")
    c = manifest.corpus
    assert len(finished) == c.classes * (c.n_per_class + c.continual_n_per_class
                                         + 3 * c.test_n_per_class)
    waves = {id(w) for clip in finished for w in (clip.waveform, clip.clean) if w is not None}
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
    real_map, real_report = pipeline.parallel_map, pipeline.build_report

    def keep_refs(clip):
        samples.extend(weakref.ref(w.samples) for w in (clip.waveform, clip.clean)
                       if w is not None)

    def mapping(*args, **kwargs):
        alive_at_map.append(sum(r() is not None for r in samples))
        return real_map(*args, **kwargs)

    def reporting(*args, **kwargs):
        alive_at_report.append(sum(r() is not None for r in samples))
        return real_report(*args, **kwargs)

    _keep_made(monkeypatch, keep_refs)
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
        model_cfg = ModelConfig(n_classes=manifest.corpus.classes,
                                domain_setting=spec.config.domain_setting)
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
# corpus build: each source clip is made into every clip it yields, and freed, before the
# next source is synthesized
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command, cpus", [
    ("run", 1), pytest.param("run", 2, marks=forks), ("sweep", 1),
    pytest.param("sweep", 2, marks=forks), ("probe", 1)],
    ids=["in-process", "forked", "sweep-in-process", "sweep-forked", "probe"])
def test_at_each_synthesis_no_earlier_source_or_its_clips_holds_samples(
        tmp_path, monkeypatch, command, cpus):
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
    manifest = tiny_standard() if command != "sweep" else \
        ExperimentManifest.from_dict(dict(CONTINUAL_SWEEP))
    if command == "probe":
        run_experiment(manifest, tmp_path / "out")
    made = []  # weakrefs to the samples of every waveform made: sources and distorted clips
    alive_at_synthesis = []  # (corpus id prefix, sample arrays alive) at each synthesis
    real_init, real_synth = distort.Waveform.__init__, distort.synth_tone

    def init_tracking(self, *args, **kwargs):  # samples are made where a waveform is given them
        real_init(self, *args, **kwargs)
        if "samples" in vars(self):
            made.append(weakref.ref(self.samples))

    def synth_checking(corpus, idx):  # a clip's recipe looks the synthesizer up when it runs
        alive_at_synthesis.append((corpus.id_prefix, sum(r() is not None for r in made)))
        return real_synth(corpus, idx)

    monkeypatch.setattr(distort.Waveform, "__init__", init_tracking)
    monkeypatch.setattr(distort, "synth_tone", synth_checking)
    if command == "run":
        run_experiment(manifest, tmp_path / "out")
    elif command == "sweep":
        run_sweep(manifest, tmp_path / "out", jobs=cpus)
    else:
        pipeline.run_probe(manifest, tmp_path / "out")
    c = manifest.corpus
    counts = {"clip": c.classes * c.n_per_class}  # probe: S and T only
    if command != "probe":
        counts.update(cont=c.classes * c.continual_n_per_class,
                      test=c.classes * c.test_n_per_class)
    assert [prefix for prefix, _ in alive_at_synthesis] == \
        [p for p in ("clip", "cont", "test") if p in counts for _ in range(counts[p])]
    # the previous source and every clip made from it hold no samples once the next begins
    assert {alive for _, alive in alive_at_synthesis} == {0}
    # T, the distorted test and continual clips: more waveforms were made than sources
    assert len(made) > len(alive_at_synthesis)
    assert all(r() is None for r in made)  # and none holds samples after the command


def _experiment_waveforms(data) -> list:
    """Every waveform of ``data`` in the order the benchmark's ``corpus`` unit featurizes
    them: S, T, the three test sets, the continual inputs, then their clean targets."""
    sp = data.splits
    waves = [c.waveform for part in (sp.S, sp.T, sp.test_clean, sp.test_seen, sp.test_unseen)
             for c in part]
    return waves + [c.waveform for c in data.continual_set] + [c.clean for c in data.continual_set]


def test_an_unread_experiment_build_holds_no_samples():
    """``build_experiment_data`` returns a plan: no clip makes its samples before they are
    read, and reading its id, label, spec, kind, domain or repr makes none."""
    corpus = ExperimentManifest.from_dict(dict(TINY_MANIFEST)).corpus
    clip_bytes = distort.DEFAULT_SR * np.dtype(np.float64).itemsize  # one second of samples

    def largest_block() -> int:  # numpy reports its array buffers to tracemalloc
        return max(t.size for t in tracemalloc.take_snapshot().traces)

    tracemalloc.start()
    try:
        data = build_experiment_data(corpus, 7, with_continual=True)
        sp = data.splits
        clips = [c for part in (sp.S, sp.T, sp.test_clean, sp.test_seen, sp.test_unseen,
                                data.continual_set) for c in part]
        read = [(c.clip_id, c.label, c.spec, c.kind, c.domain, repr(c)) for c in clips]
        assert len(read) == len(clips) and "samples" not in repr(data)
        assert largest_block() < clip_bytes
        assert not any("samples" in vars(w) for w in _experiment_waveforms(data))
        sp.T[0].waveform.samples  # the check sees a clip's samples once they are made
        assert largest_block() >= clip_bytes
    finally:
        tracemalloc.stop()


def test_reading_the_build_makes_each_source_and_each_distortion_once(monkeypatch):
    synthesized, distorted = [], []  # (corpus id prefix, index) / id of each spec applied
    real_synth, real_apply = distort.synth_tone, distort.apply_spec

    def synth(corpus, idx):
        synthesized.append((corpus.id_prefix, idx))
        return real_synth(corpus, idx)

    def apply(clean, spec, bank=None):
        distorted.append(id(spec))
        return real_apply(clean, spec, bank)

    monkeypatch.setattr(distort, "synth_tone", synth)
    monkeypatch.setattr(distort, "apply_spec", apply)
    corpus = ExperimentManifest.from_dict(dict(TINY_MANIFEST)).corpus
    data = build_experiment_data(corpus, 7, with_continual=True)
    assert synthesized == distorted == []
    for w in _experiment_waveforms(data):
        distort.featurize(w)
    c, sp = corpus, data.splits
    assert sorted(synthesized) == sorted(
        (prefix, i) for prefix, n in (("clip", c.n_per_class), ("test", c.test_n_per_class),
                                      ("cont", c.continual_n_per_class))
        for i in range(c.classes * n))
    specs = [clip.spec for part in (sp.T, sp.test_seen, sp.test_unseen, data.continual_set)
             for clip in part if clip.kind != "clean"]
    assert "clean" in {clip.kind for clip in data.continual_set}
    assert sorted(distorted) == sorted(id(spec) for spec in specs)


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
    real_synth, real_continual, real_map = (distort.ToneCorpus.__getitem__,
                                            pipeline.build_continual_set, pipeline.parallel_map)

    def alive(refs):
        return [r for r in refs if r() is not None]

    def synth_keeping_refs(corpus, idx):
        if corpus.id_prefix == "test":
            at_test_synth.append(len(alive(continual)))
        clip = real_synth(corpus, idx)
        if corpus.id_prefix == "test":
            test_clips.append(weakref.ref(clip))
        return clip

    def continual_keeping_refs(*args, **kwargs):
        clips = real_continual(*args, **kwargs)
        continual.extend(weakref.ref(w) for c in clips for w in (c.waveform, c.clean))
        return clips

    def map_checking(*args, **kwargs):
        at_map.append((len(test_clips), len(alive(continual))))
        return real_map(*args, **kwargs)

    monkeypatch.setattr(distort.ToneCorpus, "__getitem__", synth_keeping_refs)
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
    # no test clip synthesized yet when the map starts; the standard stages pretrain in a
    # worker, on the continual set, while the sweep's one continual group pretrains here
    # and frees the set first
    assert at_map == [(0, 2 * n_cont if command == "run" else 0)]
    n_test = manifest.corpus.test_n_per_class * manifest.corpus.classes
    assert at_test_synth == [0] * n_test  # every continual waveform freed by then
    assert len(test_clips) == n_test
    trained = len(manifest.stages) if command == "run" else len(manifest.sweep.lambdas)
    evaluated = _logged_calls(tmp_path / "evaluate.log")
    assert len(evaluated) == 3 * trained  # each model on each test set, all in this process
    assert {pid for pid, _ in evaluated} == {os.getpid()}
    assert eval_batches and set(eval_batches) == {1}  # one clip per forward pass


@pytest.mark.parametrize("bank", ["procedural", "wav"])
@pytest.mark.parametrize("classes, n_per_class", [(2, 5), (3, 5)], ids=["even", "odd"])
def test_run_data_parts_compose_to_the_experiment_data(tmp_path, classes, n_per_class, bank):
    noise_dir = None
    if bank == "wav":
        noise_dir = tmp_path / "noise"
        noise_dir.mkdir()
        rng = np.random.default_rng(0)
        for i in range(6):  # the name hash puts n0-n2 and n4 in "train", n3 and n5 in "unseen"
            distort.write_wav(noise_dir / f"n{i}.wav", Waveform(0.1 * rng.standard_normal(1600)))
    corpus = pipeline.CorpusSpec(classes=classes, n_per_class=n_per_class, test_n_per_class=2,
                                 continual_n_per_class=2, seed=3,
                                 noise_wav_dir=None if noise_dir is None else str(noise_dir))
    whole = build_experiment_data(corpus, 7)
    names = ("S", "T", "test_clean", "test_seen", "test_unseen")

    def parts(data, splits):
        return {**{name: getattr(splits, name) for name in names}, "continual": data.continual_set,
                "oracle": splits.oracle_labeled_target("oracle")}  # T with its hidden labels

    def built():
        data = pipeline.build_training_data(corpus, 7, True)
        assert data.splits.test_clean == data.splits.test_seen == data.splits.test_unseen == []
        return parts(data, distort.with_test_sets(data.splits, corpus.noise_bank))

    def clips(part):
        return [(c.clip_id, c.label, c.spec, c.waveform.samples.tobytes(), c.waveform.gain_applied,
                 None if c.clean is None else c.clean.samples.tobytes()) for c in part]

    def waves(clip):
        return [w for w in (clip.waveform, clip.clean) if w is not None]

    def recipe(part):
        return [(c.clip_id, c.label, c.spec, [w.gain_applied for w in waves(c)]) for c in part]

    reference = parts(whole, whole.splits)
    assert "additive_bank" in {c.kind for c in whole.continual_set + whole.splits.T}
    for name, part in built().items():
        assert clips(part) == clips(reference[name]), name
    # the features pass, in the order run reads the parts: each clip carries only its
    # features, with the id, label, spec and gain of its sample-carrying twin, and features
    # equal to featurize of the twin
    fast = built()
    distort.keep_features([*fast["S"], *fast["T"], *fast["continual"]])
    distort.keep_features(c for trio in zip(fast["test_seen"], fast["test_unseen"],
                                            fast["test_clean"]) for c in trio)
    for name, part in fast.items():
        assert recipe(part) == recipe(reference[name]), name
        for c, twin in zip(part, reference[name]):
            for w, tw in zip(waves(c), waves(twin)):
                assert not hasattr(w, "samples"), name
                assert np.array_equal(w.features, distort.featurize(tw)), name
