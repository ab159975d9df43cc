"""Corpus synthesis, distortion generators, and the split protocol.

The training-time target split mixes three distortion kinds (additive noise
from a procedural bank, gaussian noise, reverb) in proportions 0.3/0.4/0.3
with SNR drawn uniformly from [10, 20] dB.  The unseen test configuration
uses disjoint noise generators and reverb decays never seen in training.
"""

from __future__ import annotations

import hashlib
import json
import wave as _wave
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, PolicyError, require_positive

DEFAULT_SR = 16000  # the one rate datforge reads, synthesizes and writes (SUPERB's speech rate)
_SECOND = np.arange(DEFAULT_SR) / DEFAULT_SR  # the sample times of a synthesized clip

ADDITIVE_BANK = "additive_bank"
GAUSSIAN = "gaussian"
REVERB = "reverb"
CLEAN = "clean"

TRAIN_KINDS = (ADDITIVE_BANK, GAUSSIAN, REVERB)
TRAIN_PROPORTIONS = (0.3, 0.4, 0.3)
CONTINUAL_KINDS = (ADDITIVE_BANK, GAUSSIAN, REVERB, CLEAN)
CONTINUAL_PROPORTIONS = (0.25, 0.25, 0.25, 0.25)

KIND_TO_DOMAIN = {CLEAN: 0, ADDITIVE_BANK: 1, GAUSSIAN: 2, REVERB: 3}

TRAIN_NOISE_FAMILIES = ("babble", "bandnoise", "clicks")
UNSEEN_NOISE_FAMILIES = ("chirp", "am_narrowband")
TRAIN_T60S = (0.2, 0.5, 0.8)
UNSEEN_T60S = (0.3, 1.2)

SNR_RANGE_DB = (10.0, 20.0)
MIN_SPLIT_CLIPS = 10  # fewest training clips build_splits halves into S and T


def derive_seed(seed: int, *key: int) -> int:
    """Deterministic child seed for per-example generators."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


class Waveform:
    """One clip's samples and the gain that peak-normalized them: given, or made by
    ``recipe()``, a ``Waveform``, the first time ``samples``, ``gain_applied`` or
    ``features`` is read.  Once made, the samples are kept and the recipe is dropped."""

    def __init__(self, samples=None, gain_applied: float = 1.0, recipe=None):
        if recipe is not None:
            self._recipe = recipe
            return
        self.samples = np.asarray(samples, dtype=np.float64)
        self.gain_applied = gain_applied  # peak-normalization gain, 1.0 if none
        if self.samples.size == 0:
            raise ValueError("Waveform: empty sample array")

    def __getattr__(self, name):  # reached only for an attribute not set on the instance
        if name not in ("samples", "gain_applied") or "_recipe" not in vars(self):
            raise AttributeError(f"'Waveform' object has no attribute {name!r}")
        made = self._recipe()
        self.samples, self.gain_applied = made.samples, made.gain_applied
        del self._recipe  # frees what the recipe read, such as a distorted clip's source
        return getattr(self, name)

    def __repr__(self) -> str:  # makes no samples
        return f"Waveform({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def power(self) -> float:
        return float(np.mean(self.samples**2))

    @cached_property
    def features(self) -> np.ndarray:
        """``featurize(self)``, computed on first use and kept, read-only, while the clip lives."""
        feats = featurize(self)
        feats.flags.writeable = False
        return feats


def _peak_normalize(samples: np.ndarray) -> Waveform:
    peak = np.max(np.abs(samples))
    if peak > 1.0:
        return Waveform(samples / peak, gain_applied=1.0 / peak)
    return Waveform(samples)


@dataclass
class DistortionSpec:
    kind: str
    seed: int
    snr_db: float | None = None
    ir_id: float | None = None  # reverb decay T60 in seconds
    pool: str = "train"  # "train" for the distortions training sees; "unseen" for the rest

    def __post_init__(self):
        if self.kind not in (*TRAIN_KINDS, CLEAN):
            raise ValueError(f"unknown distortion kind {self.kind!r}")
        if self.pool not in ("train", "unseen"):
            raise ValueError(f"unknown distortion pool {self.pool!r}")
        additive = self.kind in (ADDITIVE_BANK, GAUSSIAN)
        if additive != (self.snr_db is not None):
            raise ValueError(f"snr_db must be present iff kind is additive (kind={self.kind})")
        if (self.kind == REVERB) != (self.ir_id is not None):
            raise ValueError("ir_id must be present iff kind is reverb")


@dataclass
class Clip:
    """A clip of any split: ``label`` is None where the class is hidden (T, the
    continual set), ``spec`` the distortion that ``apply_spec`` reproduces the
    clip with from its source (None for a clean corpus clip), and ``clean`` the
    undistorted input of a continual clip."""

    clip_id: str
    waveform: Waveform
    label: int | None
    spec: DistortionSpec | None = None
    clean: Waveform | None = None

    @property
    def kind(self) -> str:
        return CLEAN if self.spec is None else self.spec.kind

    @property
    def domain(self) -> int:
        return KIND_TO_DOMAIN[self.kind]


@dataclass
class CorpusSplit:
    S: list[Clip]
    T: list[Clip]  # distorted, class labels hidden
    test_clean: list[Clip]
    test_seen: list[Clip]
    test_unseen: list[Clip]
    _target_labels: list[int] = field(repr=False, default_factory=list)  # T's, in order
    _test_plan: tuple = field(repr=False, default=((), ()))  # test corpus, (seen, unseen) specs

    def oracle_labeled_target(self, purpose: str) -> list[Clip]:
        """Class labels of T, readable by the oracle training path only."""
        if purpose != "oracle":
            raise PolicyError(
                f"target-split class labels are oracle-only (purpose={purpose!r})"
            )
        return [replace(c, label=y) for c, y in zip(self.T, self._target_labels)]


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

def class_fundamental_hz(label: int) -> float:
    return 220.0 * 2.0 ** (label / 4.0)


@dataclass(frozen=True)
class ToneCorpus:
    """Balanced clean one-second tone-pair corpus, each clip synthesized (``synth_tone``) when
    its samples are first read: clip ``idx`` is a fundamental + 3rd harmonic of class
    ``idx // n_per_class``.  ``keep_features`` reads every clip of one source before the
    next, so one source's samples at most are alive at a time."""

    n_per_class: int
    classes: int
    seed: int
    id_prefix: str = "clip"

    def __len__(self) -> int:
        return self.classes * self.n_per_class

    def __getitem__(self, idx: int) -> Clip:
        if not 0 <= idx < len(self):
            raise IndexError(f"clip {idx} of a {len(self)}-clip corpus")
        return Clip(f"{self.id_prefix}-{idx:05d}", Waveform(recipe=lambda: synth_tone(self, idx)),
                    idx // self.n_per_class)


def synth_tone(corpus: ToneCorpus, idx: int) -> Waveform:
    """The samples of ``corpus[idx]``, synthesized now."""
    label, t = idx // corpus.n_per_class, _SECOND
    f0 = class_fundamental_hz(label)
    rng = np.random.default_rng(derive_seed(corpus.seed, idx))
    amp = rng.uniform(0.3, 0.8)
    ph1, ph2 = rng.uniform(0.0, 2 * np.pi, size=2)
    raw = np.sin(2 * np.pi * f0 * t + ph1) + 0.5 * np.sin(2 * np.pi * 3 * f0 * t + ph2)
    env = 0.85 + 0.15 * np.sin(2 * np.pi * rng.uniform(1.0, 3.0) * t + rng.uniform(0, 2 * np.pi))
    return Waveform(amp * env * raw / np.max(np.abs(raw)))


def synth_corpus(n_per_class: int, classes: int, seed: int,
                 id_prefix: str = "clip") -> list[Clip]:
    """Every clip of ``ToneCorpus(n_per_class, classes, seed, id_prefix)``, in a list."""
    if classes < 2 or n_per_class < 1:
        raise ValueError("need classes >= 2 and n_per_class >= 1")
    return list(ToneCorpus(n_per_class, classes, seed, id_prefix))


# ---------------------------------------------------------------------------
# noise bank
# ---------------------------------------------------------------------------

def _tone_burst_babble(n, rng):
    # bursts concentrated where the corpus classes live, so they actually mask
    out = np.zeros(n)
    for _ in range(8):
        freq = rng.uniform(150.0, 1600.0)
        dur = int(rng.uniform(0.1, 0.6) * DEFAULT_SR)
        start = int(rng.integers(0, max(1, n - dur)))
        t = np.arange(dur) / DEFAULT_SR
        burst = np.hanning(dur) * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        stop = min(start + dur, n)
        out[start:stop] += burst[: stop - start]
    return out


def _band_noise(n, rng, center=None, width=None):
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / DEFAULT_SR)
    if center is None:
        center = rng.uniform(200.0, 2500.0)
    if width is None:
        width = rng.uniform(200.0, 1200.0)
    mask = (freqs >= center - width / 2) & (freqs <= center + width / 2)
    if not mask.any():
        mask[1] = True
    return np.fft.irfft(spec * mask, n)


def _clicks(n, rng):
    out = np.zeros(n)
    for _ in range(int(rng.integers(20, 60))):
        out[rng.integers(0, n)] += rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0)
    kernel = np.exp(-np.arange(int(0.005 * DEFAULT_SR)) / (0.001 * DEFAULT_SR))
    return np.convolve(out, kernel)[:n]


def _chirp(n, rng):
    t = np.arange(n) / DEFAULT_SR
    f0 = rng.uniform(100.0, 500.0)
    f1 = rng.uniform(1000.0, 4000.0)
    dur = t[-1] if n > 1 else 1.0
    return np.sin(2 * np.pi * (f0 * t + (f1 - f0) / (2 * dur) * t**2))


def _am_narrowband(n, rng):
    carrier = _band_noise(n, rng, center=rng.uniform(200.0, 1500.0), width=100.0)
    t = np.arange(n) / DEFAULT_SR
    mod = 1.0 + 0.8 * np.sin(2 * np.pi * rng.uniform(2.0, 8.0) * t)
    return carrier * mod


_NOISE_GENERATORS = {"babble": _tone_burst_babble, "bandnoise": _band_noise, "clicks": _clicks,
                     "chirp": _chirp, "am_narrowband": _am_narrowband}


class ProceduralNoiseBank:
    """Deterministic stand-in for a real noise corpus, with disjoint seen/unseen pools."""

    def draw(self, pool: str, n: int, seed: int) -> tuple[np.ndarray, str]:
        families = {"train": TRAIN_NOISE_FAMILIES, "unseen": UNSEEN_NOISE_FAMILIES}[pool]
        rng = np.random.default_rng(seed)
        name = families[int(rng.integers(len(families)))]
        # each generator keeps its character on top of a broadband bed, like real
        # recorded noise; purely narrowband noise would leave most feature bands
        # at the silence floor
        character = _NOISE_GENERATORS[name](n, rng)
        rms = np.sqrt(np.mean(character**2)) or 1.0
        return character + 0.6 * rms * rng.standard_normal(n), name


class WavNoiseBank:
    """Noise clips from a user-supplied WAV directory, hash-partitioned seen/unseen."""

    def __init__(self, noise_dir):
        paths = sorted(Path(noise_dir).glob("*.wav"))
        if not paths:
            raise ConfigError(f"no WAV files in noise directory {noise_dir}")
        self.pools = {"train": [], "unseen": []}  # pool -> [(file name, samples)]
        for p in paths:
            try:
                samples = read_wav(p).samples  # 16 kHz, mono, 16-bit
            except FormatError as exc:
                raise ConfigError(f"noise WAV unusable: {exc}") from exc
            if not np.any(samples[:DEFAULT_SR]):  # all that a draw for a one-second clip reads
                raise ConfigError(f"noise WAV {p} is silent in its first second")
            digest = hashlib.sha256(p.name.encode()).digest()
            self.pools["train" if digest[0] % 2 == 0 else "unseen"].append((p.name, samples))
        for pool, clips in self.pools.items():
            if not clips:
                raise ConfigError(f"noise directory leaves the {pool!r} pool empty")

    def draw(self, pool: str, n: int, seed: int) -> tuple[np.ndarray, str]:
        rng = np.random.default_rng(seed)
        clips = self.pools[pool]
        name, clip = clips[int(rng.integers(len(clips)))]
        reps = int(np.ceil(n / clip.size))
        return np.tile(clip, reps)[:n], name


# ---------------------------------------------------------------------------
# distortion generators
# ---------------------------------------------------------------------------

def snr_gain(clean: np.ndarray, noise: np.ndarray, snr_db: float) -> float:
    """Gain g so that 10*log10(P_clean / P_{g*noise}) == snr_db."""
    p_clean = float(np.mean(clean**2))
    p_noise = float(np.mean(noise**2))
    if p_noise == 0.0:
        raise ValueError("mix_at_snr: noise is silent (zero power)")
    return float(np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0))))


def mix_at_snr(clean: Waveform, noise: np.ndarray, snr_db: float) -> Waveform:
    """Add ``noise`` (as long as the clip) at the requested SNR; peak-normalize if needed."""
    g = snr_gain(clean.samples, noise, snr_db)
    return _peak_normalize(clean.samples + g * noise)


def add_gaussian(clean: Waveform, snr_db: float, seed: int) -> Waveform:
    rng = np.random.default_rng(seed)
    return mix_at_snr(clean, rng.standard_normal(clean.samples.size), snr_db)


MIN_T60_S = 1 / DEFAULT_SR  # one sample period; log(1000) / T60 overflows for a subnormal T60


def require_t60(name: str, t60_s):
    """Raise ``ConfigError`` unless ``t60_s`` is a finite decay of at least one sample period."""
    require_positive(name, t60_s)
    if t60_s < MIN_T60_S:
        raise ConfigError(f"{name} must be at least one sample period ({MIN_T60_S:g} s), "
                          f"got {t60_s!r}")


def make_impulse_response(t60_s: float, seed: int, clip_samples: int) -> np.ndarray:
    """Exponentially decaying noise IR with unit direct path and the given T60.

    It holds ``max(2, T60 * 16000)`` taps, cut to the ``clip_samples`` a reverb of
    that clip reads.  The cut IR is the first taps of the uncut one: each tap's
    draw and decay depend only on its index.  A T60 under one sample period is
    a ``ConfigError``.
    """
    require_t60("T60", t60_s)
    rng = np.random.default_rng(seed)
    # the inner min keeps a T60 as long as 1e308 s from overflowing the int
    n = min(clip_samples, max(2, int(min(t60_s * DEFAULT_SR, clip_samples))))
    decay = np.exp(-np.arange(n) / DEFAULT_SR * (np.log(1000.0) / t60_s))
    ir = 0.3 * rng.standard_normal(n) * decay
    ir[0] = 1.0
    return ir


# Shorter IRs are convolved directly: below this many taps the direct sum is
# as fast as the FFT (0.67 vs 0.66 ms at 256 taps on a 1 s 16 kHz clip; 7.3
# vs 1.3 ms at 3200), and it is exact, so an identity IR returns the input.
DIRECT_CONV_MAX_TAPS = 256


def apply_reverb(clean: Waveform, ir: np.ndarray) -> Waveform:
    ir = np.asarray(ir, dtype=np.float64)
    if ir.size == 0:
        raise ValueError("apply_reverb: empty impulse response")
    if ir[0] == 0.0:
        raise ValueError("apply_reverb: impulse response must have a direct path (ir[0] != 0)")
    x = clean.samples
    n = x.size
    ir = ir[:n]  # taps past the clip's last sample never reach the kept output
    if ir.size < DIRECT_CONV_MAX_TAPS:
        out = np.convolve(x, ir)[:n]
    else:
        size = 1 << (n + ir.size - 2).bit_length()  # power of two >= n + m - 1: no wrap-around
        out = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(ir, size), size)[:n]
    return _peak_normalize(out)


def apply_spec(clean: Waveform, spec: DistortionSpec, bank=None) -> Waveform:
    """Materialize one distortion spec deterministically, additive noise drawn from
    ``spec.pool`` of ``bank`` (the procedural bank if None)."""
    if spec.kind == CLEAN:
        return clean
    if spec.kind == GAUSSIAN:
        return add_gaussian(clean, spec.snr_db, spec.seed)
    if spec.kind == ADDITIVE_BANK:
        bank = bank or ProceduralNoiseBank()
        noise, _name = bank.draw(spec.pool, clean.samples.size, spec.seed)
        return mix_at_snr(clean, noise, spec.snr_db)
    ir = make_impulse_response(spec.ir_id, spec.seed, clean.samples.size)
    return apply_reverb(clean, ir)


# ---------------------------------------------------------------------------
# split protocol
# ---------------------------------------------------------------------------

def largest_remainder_counts(n: int, proportions) -> list[int]:
    """Integer counts summing to n; ties in remainder broken by position order."""
    raw = [n * p for p in proportions]
    counts = [int(np.floor(r)) for r in raw]
    remainder = n - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def assign_kinds(n: int, kinds, proportions, rng) -> list[str]:
    """``n`` of ``kinds`` in ``largest_remainder_counts``, permuted by ``rng`` (or its seed)."""
    counts = largest_remainder_counts(n, proportions)
    assignment = [k for k, c in zip(kinds, counts) for _ in range(c)]
    return [assignment[i] for i in np.random.default_rng(rng).permutation(n)]


def make_spec(kind: str, seed: int, pool: str = "train") -> DistortionSpec:
    """The spec of one clip from ``pool``, its SNR or T60 drawn from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    snr_db = ir_id = None
    if kind in (ADDITIVE_BANK, GAUSSIAN):
        snr_db = float(rng.uniform(*SNR_RANGE_DB))
    elif kind == REVERB:
        t60s = TRAIN_T60S if pool == "train" else UNSEEN_T60S
        ir_id = float(t60s[int(rng.integers(len(t60s)))])
    return DistortionSpec(kind, seed, snr_db, ir_id, pool)


def _specs(kinds, seed: int, pool: str) -> list[DistortionSpec]:
    return [make_spec(kind, derive_seed(seed, i), pool) for i, kind in enumerate(kinds)]


def make_clip(source: Clip, spec: DistortionSpec | None, bank=None) -> Clip:
    """The clip ``spec`` makes of ``source`` (``source`` itself for None or CLEAN), its id,
    label and ``clean`` kept, which applies ``spec`` when its samples are first read."""
    if spec is None:
        return source
    clean = source.waveform
    return replace(source, spec=spec, waveform=clean if spec.kind == CLEAN else
                   Waveform(recipe=lambda: apply_spec(clean, spec, bank)))


def keep_features(clips):
    """Make the features of each clip's waveform and ``clean`` input, in the order given,
    and drop their samples: a later read of them raises ``AttributeError``.  A source's
    distorted clips read its waveform, so they must come before the source's own clip."""
    for clip in clips:
        for w in (clip.waveform, clip.clean):
            if w is not None:
                w.features
                w.__dict__.pop("samples", None)  # a clean continual clip is its own input


def build_splits(corpus, test_corpus, seed: int, noise_bank=None) -> CorpusSplit:
    """50/50 clean/noisy split of the training corpus, the clip left over from an odd-sized
    one in S, with empty test sets: ``with_test_sets`` makes those of ``test_corpus``.  All
    draws come from one rng: the permutation, T's kinds, then the seen and unseen test kinds."""
    n, n_test = len(corpus), len(test_corpus)
    if n < MIN_SPLIT_CLIPS:
        raise ValueError(f"corpus too small to split ({n} < {MIN_SPLIT_CLIPS})")
    rng = np.random.default_rng(derive_seed(seed, 0))
    perm = rng.permutation(n)
    kinds = assign_kinds(n // 2, TRAIN_KINDS, TRAIN_PROPORTIONS, rng)
    seen = assign_kinds(n_test, TRAIN_KINDS, TRAIN_PROPORTIONS, rng)
    unseen = assign_kinds(n_test, (ADDITIVE_BANK, REVERB), (0.7, 0.3), rng)
    t_specs = dict(zip(perm[n // 2 : 2 * (n // 2)].tolist(),
                       _specs(kinds, derive_seed(seed, 1), "train")))
    test_specs = list(zip(_specs(seen, derive_seed(seed, 2), "train"),
                          _specs(unseen, derive_seed(seed, 3), "unseen")))
    split = CorpusSplit([], [], [], [], [], _test_plan=(test_corpus, test_specs))
    for idx in perm.tolist():  # S's and T's clips in the permutation's order
        clip, spec = corpus[idx], t_specs.get(idx)
        if spec is not None:
            split._target_labels.append(clip.label)
            clip = replace(clip, label=None)
        (split.S if spec is None else split.T).append(make_clip(clip, spec, noise_bank))
    return split


def with_test_sets(split: CorpusSplit, noise_bank=None) -> CorpusSplit:
    """``split`` with the three test sets of the test corpus ``build_splits`` drew specs for:
    each source clip is ``test_clean``'s, and gives one ``test_seen`` and one ``test_unseen``."""
    sources, specs = split._test_plan
    sets = ([], [], [])  # seen, unseen, clean
    for pair, source in zip(specs, sources):  # specs first, so no source past the last is read
        for part, spec in zip(sets, (*pair, None)):
            part.append(make_clip(source, spec, noise_bank))
    return replace(split, test_seen=sets[0], test_unseen=sets[1], test_clean=sets[2])


def build_continual_set(corpus, seed: int, noise_bank=None) -> list[Clip]:
    """Unlabeled continual-training set of ``corpus``'s clips: distortion kinds + clean in
    0.25 proportions each, each clip's undistorted input kept as its ``clean`` target."""
    rng = np.random.default_rng(derive_seed(seed, 0))
    kinds = assign_kinds(len(corpus), CONTINUAL_KINDS, CONTINUAL_PROPORTIONS, rng)
    return [make_clip(Clip(f"cont-{i:05d}", source.waveform, None, clean=source.waveform),
                      make_spec(kind, derive_seed(seed, 1, i)), noise_bank)
            for i, (kind, source) in enumerate(zip(kinds, corpus))]


# ---------------------------------------------------------------------------
# featurization
# ---------------------------------------------------------------------------

FEATURE_FLOOR = 1e-8
N_BANDS = 64
WINDOW_S = 0.025
HOP_S = 0.010


@lru_cache(maxsize=8)
def _triangular_filterbank(n_bins: int) -> np.ndarray:
    centers = np.linspace(0, n_bins - 1, N_BANDS + 2)
    fb = np.zeros((N_BANDS, n_bins))
    bins = np.arange(n_bins)
    for k in range(N_BANDS):
        left, mid, right = centers[k], centers[k + 1], centers[k + 2]
        up = (bins - left) / max(mid - left, 1e-12)
        down = (right - bins) / max(right - mid, 1e-12)
        fb[k] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


@lru_cache(maxsize=8)
def _hann(window: int) -> np.ndarray:
    return np.hanning(window)


def featurize(w: Waveform) -> np.ndarray:
    """Per-frame log magnitudes of triangular frequency bands (T x N_BANDS).

    Computes afresh and keeps nothing; ``Waveform.features`` is the kept copy.
    """
    window = int(round(WINDOW_S * DEFAULT_SR))
    hop = int(round(HOP_S * DEFAULT_SR))
    n = w.samples.size
    if n < window:
        raise ValueError(f"clip of {n} samples shorter than one {window}-sample window")
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, window)[::hop]
    frames = frames * _hann(window)  # hann window tames spectral leakage
    mags = np.abs(np.fft.rfft(frames, axis=1))
    fb = _triangular_filterbank(mags.shape[1])
    return np.log(np.maximum(mags @ fb.T, FEATURE_FLOOR))


# ---------------------------------------------------------------------------
# WAV + manifest I/O
# ---------------------------------------------------------------------------

def write_wav(path, w: Waveform):
    """16-bit PCM mono little-endian RIFF."""
    pcm = np.clip(np.round(w.samples * 32767.0), -32768, 32767).astype("<i2")
    with _wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(DEFAULT_SR)
        f.writeframes(pcm.tobytes())


def read_wav(path) -> Waveform:
    """A 16 kHz mono 16-bit PCM WAV; any other rate or format, or fewer frames than
    its header gives, is a ``FormatError``."""
    try:
        f = _wave.open(str(path), "rb")
    except (_wave.Error, EOFError, RuntimeError) as exc:  # RuntimeError: a chunk past the end
        raise FormatError(f"{path}: not a readable RIFF/WAVE file "
                          f"({exc or 'a chunk runs past the end of the file'})") from exc
    with f:
        if f.getnchannels() != 1:
            raise FormatError(f"{path}: nchannels={f.getnchannels()}, expected mono")
        if f.getsampwidth() != 2:
            raise FormatError(f"{path}: sampwidth={f.getsampwidth()} bytes, expected 16-bit PCM")
        if f.getcomptype() != "NONE":
            raise FormatError(f"{path}: comptype={f.getcomptype()!r}, expected uncompressed PCM")
        if f.getframerate() != DEFAULT_SR:
            raise FormatError(f"{path}: framerate={f.getframerate()}, expected {DEFAULT_SR}")
        nframes = f.getnframes()
        raw = f.readframes(nframes)
        if len(raw) != 2 * nframes:
            raise FormatError(f"{path}: truncated, {len(raw) / 2:g} of the header's "
                              f"{nframes} frames")
    pcm = np.frombuffer(raw, dtype="<i2")
    if pcm.size == 0:
        raise FormatError(f"{path}: zero frames")
    return Waveform(pcm.astype(np.float64) / 32767.0)


def manifest_row(clip: Clip, split: str, path: str = "synthetic") -> dict:
    """One manifest line: the clip's id, source path, class, domain, distortion kind and SNR."""
    return {"id": clip.clip_id, "path": path, "class": clip.label, "domain": clip.domain,
            "distortion": clip.kind, "snr_db": None if clip.spec is None else clip.spec.snr_db,
            "split": split}


def manifest_entries(split: CorpusSplit) -> list[dict]:
    return [manifest_row(clip, name)
            for name in ("S", "T", "test_clean", "test_seen", "test_unseen")
            for clip in getattr(split, name)]


def write_manifest(path, entries: list[dict]):
    with open(path, "w") as f:
        for entry in entries:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
