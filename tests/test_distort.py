import collections
import json
import tempfile
import wave
from pathlib import Path

import numpy as np
import pytest
from conftest import SILENT_NOISE, write_pcm_wav
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from datforge.distort import (
    ADDITIVE_BANK,
    CLEAN,
    CONTINUAL_KINDS,
    GAUSSIAN,
    KIND_TO_DOMAIN,
    MIN_SPLIT_CLIPS,
    REVERB,
    SNR_RANGE_DB,
    TRAIN_KINDS,
    TRAIN_NOISE_FAMILIES,
    TRAIN_PROPORTIONS,
    TRAIN_T60S,
    UNSEEN_NOISE_FAMILIES,
    UNSEEN_T60S,
    Clip,
    DistortionSpec,
    ProceduralNoiseBank,
    WavNoiseBank,
    Waveform,
    add_gaussian,
    apply_reverb,
    apply_spec,
    build_continual_set,
    build_splits,
    class_fundamental_hz,
    derive_seed,
    featurize,
    keep_features,
    largest_remainder_counts,
    make_impulse_response,
    make_spec,
    manifest_entries,
    mix_at_snr,
    read_wav,
    snr_gain,
    synth_corpus,
    with_test_sets,
    write_manifest,
    write_wav,
)
from datforge.errors import ConfigError, FormatError, PolicyError
from datforge.evalharness import evaluate
from datforge.models import DannModel, ModelConfig
from datforge.trainer import TrainConfig, train_supervised


def assert_reproduced(clips, sources, bank=None):
    """Each clip is ``apply_spec`` of its source waveform (``sources[clip_id]``) under
    its spec, with nothing passed beside the spec but the bank."""
    for clip in clips:
        expected = apply_spec(sources[clip.clip_id], clip.spec, bank)
        assert np.array_equal(clip.waveform.samples, expected.samples), clip.clip_id


def measured_snr_db(mixed: Waveform, clean: Waveform) -> float:
    """Recover the SNR actually realized in a mixture, undoing peak normalization."""
    residual = mixed.samples / mixed.gain_applied - clean.samples
    return 10.0 * np.log10(clean.power() / float(np.mean(residual**2)))


class TestSynthCorpus:
    def test_balanced_and_deterministic(self):
        a = synth_corpus(5, 4, seed=1)
        b = synth_corpus(5, 4, seed=1)
        assert len(a) == 20
        counts = collections.Counter(c.label for c in a)
        assert all(counts[k] == 5 for k in range(4))
        for x, y in zip(a, b):
            assert x.clip_id == y.clip_id
            assert np.array_equal(x.waveform.samples, y.waveform.samples)

    def test_class_fundamentals_are_distinct(self):
        f = [class_fundamental_hz(c) for c in range(4)]
        assert all(f[i + 1] / f[i] == pytest.approx(2 ** 0.25) for i in range(3))

    def test_amplitude_bounded(self):
        for clip in synth_corpus(3, 4, seed=2):
            assert np.max(np.abs(clip.waveform.samples)) <= 0.8 + 1e-9

    def test_spectral_peak_tracks_class(self):
        for clip in synth_corpus(2, 4, seed=3):
            spec = np.abs(np.fft.rfft(clip.waveform.samples))
            freqs = np.fft.rfftfreq(clip.waveform.samples.size, 1 / 16000)
            peak = freqs[np.argmax(spec)]
            f0 = class_fundamental_hz(clip.label)
            assert min(abs(peak - f0), abs(peak - 3 * f0)) < 5.0


class TestSnr:
    def test_snr_gain_identity_noise(self):
        clean = np.sin(np.linspace(0, 100, 16000))
        g = snr_gain(clean, clean, 0.0)
        assert g == pytest.approx(1.0)

    def test_mix_at_snr_hits_requested_snr(self):
        clip = synth_corpus(1, 2, seed=4)[0]
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(clip.waveform.samples.size)
        for snr in (10.0, 15.0, 20.0):
            mixed = mix_at_snr(clip.waveform, noise, snr)
            assert measured_snr_db(mixed, clip.waveform) == pytest.approx(snr, abs=0.01)

    def test_gaussian_snr_within_tolerance(self):
        clip = synth_corpus(1, 2, seed=5)[0]
        mixed = add_gaussian(clip.waveform, 12.0, seed=9)
        assert measured_snr_db(mixed, clip.waveform) == pytest.approx(12.0, abs=0.1)

    def test_silent_noise_rejected(self):
        with pytest.raises(ValueError, match="silent"):
            snr_gain(np.ones(10), np.zeros(10), 10.0)

    def test_mixture_peak_bounded(self):
        clip = synth_corpus(1, 2, seed=6)[0]
        mixed = add_gaussian(clip.waveform, 0.0, seed=1)
        assert np.max(np.abs(mixed.samples)) <= 1.0 + 1e-12


class TestReverb:
    def test_identity_ir_preserves_signal(self):
        clip = synth_corpus(1, 2, seed=7)[0]
        out = apply_reverb(clip.waveform, np.array([1.0]))
        assert np.array_equal(out.samples, clip.waveform.samples)

    def test_ir_has_unit_direct_path_and_decays(self):
        ir = make_impulse_response(0.5, seed=3, clip_samples=16000)
        assert ir[0] == 1.0
        assert ir.size == int(0.5 * 16000)
        head = np.abs(ir[1:100]).mean()
        tail = np.abs(ir[-100:]).mean()
        assert tail < head / 10

    def test_reverb_preserves_length(self):
        clip = synth_corpus(1, 2, seed=8)[0]
        ir = make_impulse_response(0.8, seed=1, clip_samples=clip.waveform.samples.size)
        out = apply_reverb(clip.waveform, ir)
        assert out.samples.size == clip.waveform.samples.size

    # (T60, clip length, taps): min(clip length, max(2, int(T60 * 16000)))
    @pytest.mark.parametrize("t60, clip_samples, taps", [
        (0.2, 16000, 3200), (0.5, 16000, 8000), (1.2, 16000, 16000), (1e6, 16000, 16000),
        (1e308, 16000, 16000), (1 / 16000, 16000, 2), (0.5, 1, 1), (0.5, 2, 2), (0.5, 3000, 3000)])
    def test_ir_is_no_longer_than_its_clip(self, t60, clip_samples, taps):
        ir = make_impulse_response(t60, seed=5, clip_samples=clip_samples)
        assert ir.size == taps
        assert ir[0] == 1.0  # the direct path

    @pytest.mark.parametrize("t60", [5e-324, 1e-5, 0.99 / 16000])
    def test_t60_under_one_sample_refused(self, t60):
        with pytest.raises(ConfigError, match="T60 must be at least one sample period"):
            make_impulse_response(t60, seed=0, clip_samples=16000)

    @staticmethod
    def uncut_impulse_response(t60_s, seed):
        """The IR of every tap up to T60, whatever the clip's length."""
        rng = np.random.default_rng(seed)
        n = max(2, int(t60_s * 16000))
        decay = np.exp(-np.arange(n) / 16000 * (np.log(1000.0) / t60_s))
        ir = 0.3 * rng.standard_normal(n) * decay
        ir[0] = 1.0
        return ir

    # every T60 of the corpus (TRAIN_T60S, UNSEEN_T60S), and one longer than any clip
    @pytest.mark.parametrize("t60", [0.2, 0.3, 0.5, 0.8, 1.2, 2.5])
    @pytest.mark.parametrize("seed", [0, 17, 4242])
    def test_reverb_of_the_cut_ir_equals_the_uncut_one(self, t60, seed):
        clip = synth_corpus(1, 2, seed=seed)[0].waveform
        spec = DistortionSpec(REVERB, seed, ir_id=t60)
        expected = apply_reverb(clip, self.uncut_impulse_response(t60, seed))
        out = apply_spec(clip, spec)
        assert out.samples.tobytes() == expected.samples.tobytes()
        assert out.gain_applied == expected.gain_applied

    def test_missing_direct_path_rejected(self):
        clip = synth_corpus(1, 2, seed=8)[0]
        with pytest.raises(ValueError, match="direct path"):
            apply_reverb(clip.waveform, np.array([0.0, 0.5]))


class TestDistortionSpec:
    def test_snr_required_iff_additive(self):
        DistortionSpec(GAUSSIAN, seed=0, snr_db=15.0)
        with pytest.raises(ValueError):
            DistortionSpec(GAUSSIAN, seed=0)
        with pytest.raises(ValueError):
            DistortionSpec(REVERB, seed=0, snr_db=15.0, ir_id=0.5)

    def test_apply_spec_deterministic(self):
        clip = synth_corpus(1, 2, seed=9)[0]
        spec = DistortionSpec(ADDITIVE_BANK, seed=42, snr_db=14.0)
        a = apply_spec(clip.waveform, spec)
        b = apply_spec(clip.waveform, spec)
        assert np.array_equal(a.samples, b.samples)

    def test_clean_spec_is_identity(self):
        clip = synth_corpus(1, 2, seed=9)[0]
        out = apply_spec(clip.waveform, DistortionSpec(CLEAN, seed=0))
        assert np.array_equal(out.samples, clip.waveform.samples)

    @pytest.mark.parametrize("pool", ["tran", "Unseen ", "seen", ""])
    def test_unknown_pool_rejected(self, pool):
        with pytest.raises(ValueError, match=f"unknown distortion pool {pool!r}"):
            DistortionSpec(GAUSSIAN, seed=0, snr_db=15.0, pool=pool)
        with pytest.raises(ValueError, match=f"unknown distortion pool {pool!r}"):
            make_spec(REVERB, 9, pool)
        with pytest.raises(KeyError):
            ProceduralNoiseBank().draw(pool, 1600, 0)

    @pytest.mark.parametrize("pool, t60s", [("train", TRAIN_T60S), ("unseen", UNSEEN_T60S)])
    def test_spec_records_its_pool(self, pool, t60s):
        specs = [make_spec(kind, seed, pool) for kind in CONTINUAL_KINDS for seed in range(20)]
        assert {s.pool for s in specs} == {pool}
        assert {s.ir_id for s in specs if s.kind == REVERB} == set(t60s)


class TestNoiseBank:
    def test_pools_draw_disjoint_families(self):
        bank = ProceduralNoiseBank()
        train_families = {bank.draw("train", 1600, s)[1] for s in range(30)}
        unseen_families = {bank.draw("unseen", 1600, s)[1] for s in range(30)}
        assert train_families <= set(TRAIN_NOISE_FAMILIES)
        assert unseen_families <= set(UNSEEN_NOISE_FAMILIES)
        assert not (train_families & unseen_families)

    def test_draw_deterministic(self):
        bank = ProceduralNoiseBank()
        a, fa = bank.draw("train", 1600, 5)
        b, fb = bank.draw("train", 1600, 5)
        assert fa == fb and np.array_equal(a, b)


class TestWavNoiseBank:
    @pytest.fixture()
    def noise_dir(self, tmp_path):
        d = tmp_path / "noise"
        d.mkdir()
        rng = np.random.default_rng(0)
        for i in range(6):  # the name hash puts n0-n2 and n4 in "train", n3 and n5 in "unseen"
            write_wav(d / f"n{i}.wav", Waveform(0.1 * rng.standard_normal(1600)))
        return d

    def test_draws_from_samples_kept_when_built(self, noise_dir):
        bank = WavNoiseBank(noise_dir)
        keys = [(pool, s) for pool in ("train", "unseen") for s in range(6)]
        before = [bank.draw(pool, 4000, s) for pool, s in keys]
        for path in noise_dir.glob("*.wav"):
            path.unlink()
        after = [bank.draw(pool, 4000, s) for pool, s in keys]
        pools = {"train": {"n0.wav", "n1.wav", "n2.wav", "n4.wav"}, "unseen": {"n3.wav", "n5.wav"}}
        assert all(name in pools[pool] for (pool, _s), (_x, name) in zip(keys, before))
        for (a, fa), (b, fb) in zip(before, after):
            assert fa == fb and a.shape == (4000,) and np.array_equal(a, b)

    def test_every_clip_is_its_spec_applied(self, noise_dir):
        bank = WavNoiseBank(noise_dir)
        corpus = synth_corpus(3, 4, seed=11)
        test = synth_corpus(2, 4, seed=12, id_prefix="test")
        split = with_test_sets(build_splits(corpus, test, 5, bank), bank)
        cont = build_continual_set(corpus, 3, bank)
        sources = {c.clip_id: c.waveform for c in corpus + test}
        for clips in (split.T, split.test_seen, split.test_unseen):
            assert_reproduced(clips, sources, bank)
        assert_reproduced(cont, {c.clip_id: c.clean for c in cont}, bank)
        distorted = split.T + split.test_seen + split.test_unseen + cont
        assert {c.spec.pool for c in distorted if c.kind == ADDITIVE_BANK} == {"train", "unseen"}

    @pytest.mark.parametrize("samples", SILENT_NOISE.values(), ids=SILENT_NOISE)
    def test_silent_wav_rejected_when_built(self, noise_dir, samples):
        write_wav(noise_dir / "silent.wav", Waveform(samples))
        with pytest.raises(ConfigError, match="silent.wav"):
            WavNoiseBank(noise_dir)

    def test_empty_dir_rejected_when_built(self, tmp_path):
        with pytest.raises(ConfigError, match="no WAV files"):
            WavNoiseBank(tmp_path)

    @pytest.mark.parametrize("rate", [8000, 44100])
    def test_wrong_rate_wav_rejected_when_built(self, noise_dir, rate):
        write_pcm_wav(noise_dir / "slow.wav", 0.1 * np.ones(800), rate)
        with pytest.raises(ConfigError, match=f"slow.wav: framerate={rate}, expected 16000"):
            WavNoiseBank(noise_dir)


class TestLargestRemainder:
    def test_exact_for_spec_proportions(self):
        assert largest_remainder_counts(200, TRAIN_PROPORTIONS) == [60, 80, 60]
        assert largest_remainder_counts(10, TRAIN_PROPORTIONS) == [3, 4, 3]

    def test_ties_break_by_position(self):
        assert largest_remainder_counts(2, (0.25, 0.25, 0.25, 0.25)) == [1, 1, 0, 0]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 500))
    def test_counts_sum_to_n(self, n):
        counts = largest_remainder_counts(n, TRAIN_PROPORTIONS)
        assert sum(counts) == n
        assert all(abs(c - n * p) <= 1 for c, p in zip(counts, TRAIN_PROPORTIONS))


# each distorted set of a split -> its kinds, their proportions and the noise pool it draws from
DISTORTED_SETS = {
    "T": (TRAIN_KINDS, TRAIN_PROPORTIONS, "train"),
    "test_seen": (TRAIN_KINDS, TRAIN_PROPORTIONS, "train"),
    "test_unseen": ((ADDITIVE_BANK, REVERB), (0.7, 0.3), "unseen"),
}


class TestBuildSplits:
    def test_fifty_fifty_disjoint(self, small_corpus, small_splits):
        assert len(small_splits.S) == len(small_splits.T) == len(small_corpus) // 2
        assert not ({c.clip_id for c in small_splits.S} & {c.clip_id for c in small_splits.T})

    @given(classes=st.integers(2, 5), n_per_class=st.integers(3, 9))
    @settings(max_examples=20, deadline=None)
    def test_every_clip_lands_in_s_or_t(self, classes, n_per_class):
        assume(classes * n_per_class >= MIN_SPLIT_CLIPS)
        corpus = synth_corpus(n_per_class, classes, seed=1)
        split = build_splits(corpus, [], seed=7)
        s_ids, t_ids = {c.clip_id for c in split.S}, {c.clip_id for c in split.T}
        assert not (s_ids & t_ids)
        assert s_ids | t_ids == {c.clip_id for c in corpus}
        assert len(split.S) - len(split.T) in (0, 1)
        with tempfile.TemporaryDirectory() as d:  # as run_experiment writes it
            path = Path(d) / "corpus_manifest.jsonl"
            write_manifest(path, manifest_entries(split))
            listed = {json.loads(line)["id"] for line in path.read_text().splitlines()}
        assert listed == {c.clip_id for c in corpus}

    @pytest.mark.parametrize("name", DISTORTED_SETS)
    def test_target_kind_proportions_exact(self, small_splits, name):
        kinds, proportions, _pool = DISTORTED_SETS[name]
        clips = getattr(small_splits, name)
        counts = collections.Counter(c.spec.kind for c in clips)
        expected = largest_remainder_counts(len(clips), proportions)
        assert [counts[k] for k in kinds] == expected

    @pytest.mark.parametrize("name", DISTORTED_SETS)
    def test_snr_in_declared_range(self, small_splits, name):
        for clip in getattr(small_splits, name):
            if clip.spec.snr_db is not None:
                assert SNR_RANGE_DB[0] <= clip.spec.snr_db <= SNR_RANGE_DB[1]

    @pytest.mark.parametrize("name", DISTORTED_SETS)
    def test_domains_follow_kind_map(self, small_splits, name):
        for clip in getattr(small_splits, name):
            assert clip.domain == KIND_TO_DOMAIN[clip.spec.kind]

    @pytest.mark.parametrize("name", DISTORTED_SETS)
    def test_waveform_is_its_spec_applied(self, small_corpus, small_splits, name):
        clips = getattr(small_splits, name)
        assert {c.spec.pool for c in clips} == {DISTORTED_SETS[name][2]}
        assert_reproduced(clips, {c.clip_id: c.waveform
                                  for c in small_corpus + small_splits.test_clean})

    def test_labels_hidden_behind_policy(self, small_corpus, small_splits):
        with pytest.raises(PolicyError):
            small_splits.oracle_labeled_target("training")
        continual = build_continual_set(small_corpus[:8], seed=3)
        assert all(c.label is None for c in small_splits.T + continual)
        oracle = small_splits.oracle_labeled_target("oracle")
        assert [c.clip_id for c in oracle] == [c.clip_id for c in small_splits.T]
        labels = {c.clip_id: c.label for c in small_corpus}
        assert all(c.label == labels[c.clip_id] for c in oracle)
        model = DannModel(ModelConfig(), seed=0)
        with pytest.raises(TypeError):
            evaluate(model, small_splits.T)
        with pytest.raises(TypeError):
            train_supervised(small_splits.T, model, TrainConfig(epochs=1))

    def test_test_sets_cover_same_clips(self, small_splits):
        ids = {c.clip_id for c in small_splits.test_clean}
        assert {c.clip_id for c in small_splits.test_seen} == ids
        assert {c.clip_id for c in small_splits.test_unseen} == ids

    def test_unseen_split_really_distorted(self, small_splits):
        clean = {c.clip_id: c for c in small_splits.test_clean}
        changed = sum(
            not np.array_equal(c.waveform.samples, clean[c.clip_id].waveform.samples)
            for c in small_splits.test_unseen
        )
        assert changed == len(small_splits.test_unseen)

    def test_deterministic_given_seed(self, small_corpus):
        a = build_splits(small_corpus, [], seed=5)
        b = build_splits(small_corpus, [], seed=5)
        assert [c.clip_id for c in a.T] == [c.clip_id for c in b.T]
        for x, y in zip(a.T, b.T):
            assert np.array_equal(x.waveform.samples, y.waveform.samples)

    def test_tiny_corpus_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            build_splits(synth_corpus(1, 2, seed=0), [], seed=0)


class TestContinualSet:
    def test_quarter_proportions(self):
        corpus = synth_corpus(10, 4, seed=13)
        cont = build_continual_set(corpus, seed=3)
        counts = collections.Counter(c.kind for c in cont)
        expected = largest_remainder_counts(len(corpus), (0.25, 0.25, 0.25, 0.25))
        assert [counts[k] for k in CONTINUAL_KINDS] == expected

    def test_waveform_is_its_spec_applied(self):
        corpus = synth_corpus(4, 4, seed=14)
        cont = build_continual_set(corpus, seed=3)
        assert all(c.clean is s.waveform for c, s in zip(cont, corpus))
        assert {c.spec.pool for c in cont} == {"train"}
        assert_reproduced(cont, {c.clip_id: c.clean for c in cont})

    def test_clean_entries_match_target(self):
        for c in build_continual_set(synth_corpus(4, 4, seed=14), seed=3):
            assert isinstance(c, Clip)
            if c.kind == CLEAN:
                assert np.array_equal(c.waveform.samples, c.clean.samples)
            else:
                assert not np.array_equal(c.waveform.samples, c.clean.samples)


class TestFeaturize:
    def test_shape_for_one_second_clip(self):
        clip = synth_corpus(1, 2, seed=15)[0]
        feats = featurize(clip.waveform)
        assert feats.shape == (98, 64)

    def test_noise_lifts_the_floor(self):
        clip = synth_corpus(1, 2, seed=16)[0]
        clean_feats = featurize(clip.waveform)
        noisy_feats = featurize(add_gaussian(clip.waveform, 10.0, seed=0))
        assert noisy_feats.mean() > clean_feats.mean() + 1.0

    def test_short_clip_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            featurize(Waveform(np.zeros(100)))

    def test_deterministic(self):
        clip = synth_corpus(1, 2, seed=17)[0]
        assert np.array_equal(featurize(clip.waveform), featurize(clip.waveform))

    @pytest.mark.parametrize("first", ["samples", "gain_applied", "features"])
    def test_a_recipe_runs_once_at_the_first_read_and_is_dropped(self, first):
        calls = []

        def recipe():
            calls.append(1)
            return Waveform(np.full(800, 2.0), gain_applied=0.5)

        w = Waveform(recipe=recipe)
        assert "samples" not in repr(w) and not hasattr(w, "label") and calls == []
        getattr(w, first)
        assert calls == [1] and "_recipe" not in vars(w)
        assert w.gain_applied == 0.5 and np.array_equal(w.samples, np.full(800, 2.0))
        assert np.array_equal(w.features, featurize(Waveform(np.full(800, 2.0))))
        assert calls == [1]

    def test_features_are_kept_once_and_read_only(self):
        w = synth_corpus(1, 2, seed=18)[0].waveform
        kept = w.features
        assert w.features is kept
        assert np.array_equal(kept, featurize(w))
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            kept += 1.0
        assert np.array_equal(kept, featurize(w))

    def test_featurize_keeps_nothing(self):
        w = synth_corpus(1, 2, seed=19)[0].waveform
        first = featurize(w)
        assert featurize(w) is not first and first.flags.writeable
        assert "features" not in vars(w)  # featurize does not fill the clip's copy

    def test_features_only_clip_keeps_its_features_and_refuses_its_samples(self, tmp_path):
        corpus = synth_corpus(2, 2, seed=20)
        cont = build_continual_set(corpus, seed=3)
        feats = [(featurize(c.waveform), featurize(c.clean)) for c in cont]
        cont = build_continual_set(corpus, seed=3)
        keep_features(cont)
        assert CLEAN in {c.kind for c in cont}  # a clean continual clip is its own input
        noise = np.ones(16000)
        for c, pair in zip(cont, feats):
            for w, f in zip((c.waveform, c.clean), pair):
                assert w.features.tobytes() == f.tobytes() and not w.features.flags.writeable
                for read in (lambda: featurize(w), w.power, lambda: mix_at_snr(w, noise, 10.0),
                             lambda: add_gaussian(w, 10.0, seed=0),
                             lambda: apply_reverb(w, np.array([1.0])),
                             lambda: write_wav(tmp_path / "clip.wav", w)):
                    with pytest.raises(AttributeError, match="samples"):
                        read()
        assert not list(tmp_path.iterdir())


class TestWavIO:
    def test_round_trip_within_quantization(self, tmp_path):
        clip = synth_corpus(1, 2, seed=18)[0]
        path = tmp_path / "clip.wav"
        write_wav(path, clip.waveform)
        with wave.open(str(path), "rb") as f:
            assert f.getframerate() == 16000
        back = read_wav(path)
        assert np.max(np.abs(back.samples - clip.waveform.samples)) < 1.0 / 32767

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"this is not audio")
        with pytest.raises(FormatError):
            read_wav(path)

    @pytest.mark.parametrize("rate", [8000, 44100])
    def test_wrong_sample_rate_rejected(self, tmp_path, rate):
        clip = synth_corpus(1, 2, seed=19)[0]
        path = tmp_path / "sr.wav"
        write_pcm_wav(path, clip.waveform.samples, rate)
        with pytest.raises(FormatError, match=f"framerate={rate}, expected 16000"):
            read_wav(path)

    @pytest.mark.parametrize("cut, frames", [(1, "15999.5"), (2000, "15000")],
                             ids=["mid-sample", "frame-boundary"])
    def test_truncated_file_rejected(self, tmp_path, cut, frames):
        path = tmp_path / "cut.wav"
        write_wav(path, Waveform(np.full(16000, 0.1)))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(FormatError, match=f"cut.wav: truncated, {frames} of the "
                                              f"header's 16000 frames"):
            read_wav(path)


class TestManifest:
    def test_entries_cover_all_splits(self, small_splits, tmp_path):
        entries = manifest_entries(small_splits)
        by_split = collections.Counter(e["split"] for e in entries)
        assert by_split["S"] == len(small_splits.S)
        assert by_split["T"] == len(small_splits.T)
        assert by_split["test_clean"] == len(small_splits.test_clean)

    def test_target_entries_have_no_class_label(self, small_splits):
        for e in manifest_entries(small_splits):
            if e["split"] == "T":
                assert e["class"] is None
                assert e["domain"] in (1, 2, 3)

    def test_test_entries_record_their_distortion(self, small_splits):
        for e in manifest_entries(small_splits):
            if e["split"] == "test_clean":
                assert (e["distortion"], e["domain"], e["snr_db"]) == (CLEAN, 0, None)
            elif e["split"] in ("test_seen", "test_unseen"):
                assert e["distortion"] in TRAIN_KINDS
                assert e["domain"] == KIND_TO_DOMAIN[e["distortion"]]
                assert (e["snr_db"] is None) == (e["distortion"] == REVERB)

    def test_jsonl_round_trip(self, small_splits, tmp_path):
        entries = manifest_entries(small_splits)
        path = tmp_path / "manifest.jsonl"
        write_manifest(path, entries)
        back = [json.loads(line) for line in path.read_text().splitlines()]
        assert back == entries


def test_derive_seed_distinct_keys():
    seeds = {derive_seed(1, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 5) == derive_seed(1, 5)
