import wave

import numpy as np
import pytest

from datforge.distort import build_splits, synth_corpus


def finite_diff(f, x, eps=1e-6):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp.flat[i] += eps
        xm.flat[i] -= eps
        g.flat[i] = (f(xp) - f(xm)) / (2 * eps)
    return g


def max_rel_err(analytic, numeric):
    scale = max(np.max(np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric)) / scale)


def write_pcm_wav(path, samples, rate: int):
    """A mono 16-bit PCM WAV at any ``rate``, written with ``wave`` alone."""
    pcm = np.clip(np.round(np.asarray(samples) * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(rate)
        f.writeframes(pcm.tobytes())


@pytest.fixture(scope="session")
def small_corpus():
    return synth_corpus(10, 4, seed=11)


@pytest.fixture(scope="session")
def small_splits(small_corpus):
    test = synth_corpus(3, 4, seed=12, id_prefix="test")
    return build_splits(small_corpus, seed=5, test_corpus=test)
