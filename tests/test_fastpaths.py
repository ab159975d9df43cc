"""Each fast path checked against the slower code it replaced.

The reference implementations below are the earlier versions of the same
functions, kept here so a later change to a fast path is still compared
with the plain computation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datforge.distort import DIRECT_CONV_MAX_TAPS, Waveform, apply_reverb, make_impulse_response
from datforge.gradcore import Parameter, Tape
from datforge.models import DannModel, ModelConfig
from datforge.objectives import task_loss


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
    ir = make_impulse_response(t60, seed=4)
    out = apply_reverb(Waveform(samples), ir).samples
    np.testing.assert_allclose(out, reference_reverb(samples, ir), rtol=0, atol=1e-12)


def test_short_ir_is_convolved_exactly():
    rng = np.random.default_rng(1)
    samples = rng.uniform(-0.5, 0.5, 4000)
    ir = np.concatenate([[1.0], rng.normal(0.0, 0.01, DIRECT_CONV_MAX_TAPS - 2)])
    out = apply_reverb(Waveform(samples), ir).samples
    assert np.array_equal(out, reference_reverb(samples, ir))


# ---------------------------------------------------------------------------
# segment pooling: reduceat / repeat against the per-clip loop
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 120), min_size=1, max_size=12),
    cols=st.integers(1, 9),
    seed=st.integers(0, 2**31 - 1),
)
def test_mean_pool_segments_matches_loop(lengths, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(sum(lengths), cols))
    g = rng.normal(size=(len(lengths), cols))
    tape = Tape()
    xp = Parameter(x, "aux", "x")
    pooled = tape.mean_pool_segments(tape.param(xp), lengths)
    np.testing.assert_allclose(pooled.value, reference_pool(x, lengths), rtol=1e-12, atol=0)
    tape.backward(tape.sum(tape.mul(pooled, tape.const(g))))
    np.testing.assert_allclose(xp.grad, reference_pool_backward(g, lengths), rtol=1e-12, atol=0)


@pytest.mark.parametrize("lengths", [[2, 0, 3], [5, 0], [], [6, -1]])
def test_mean_pool_segments_rejects_empty_segments(lengths):
    tape = Tape()
    with pytest.raises(ValueError, match="mean_pool_segments"):
        tape.mean_pool_segments(tape.const(np.ones((5, 2))), lengths)


# ---------------------------------------------------------------------------
# model: pool before the extractor's last layer vs pool after it
# ---------------------------------------------------------------------------

def _loss_and_grads(model: DannModel, feats, labels, domains, pooled_fn):
    for p in model.parameters():
        p.zero_grad()
    tape = Tape()
    pooled = pooled_fn(tape, feats)
    loss_y = task_loss(tape, model.label_head.forward_pooled(tape, pooled), labels)
    logits_d = model.domain_head.forward_pooled(tape, pooled, lam=0.5)
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
