import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import SILENT_NOISE
from hypothesis import given, settings
from hypothesis import strategies as st

from datforge.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    _load_manifest,
    _resolve_out,
    build_parser,
    main,
)
from datforge.distort import KIND_TO_DOMAIN, Waveform, read_wav, synth_corpus, write_wav
from datforge.errors import ConfigError
from datforge.evalharness import ProbeConfig, domain_probe
from datforge.models import load_checkpoint
from datforge.pipeline import (
    RUN_FILES,
    RUN_MARKER,
    STAGE_KEYS,
    CorpusSpec,
    ExperimentManifest,
    StageSpec,
    SweepSpec,
    run_experiment,
    run_probe,
    run_sweep,
    standard_manifest,
    train_stages,
)
from datforge.trainer import CONTINUAL_STAGES, DAT_STAGES, OBJECTIVES, STAGES, TrainConfig

REPO = Path(__file__).resolve().parents[1]
STANDARD_JSON = REPO / "manifests" / "standard.json"

TINY_MANIFEST = {
    "seed": 1,
    "splits_seed": 7,
    "corpus": {"classes": 4, "n_per_class": 5, "test_n_per_class": 2,
               "continual_n_per_class": 4},
    "stages": [
        {"stage": "baseline", "epochs": 1, "batch_size": 4},
        {"stage": "dat_only", "epochs": 1, "batch_size": 4, "lambda": 1e-2},
    ],
    "sweep": {"lambdas": [1e-1, 1e-2], "stage": "dat_only"},
}

# a valid value for every stage-entry key some stage reads, and for one no stage reads
SETTINGS = {"eta": 1e-3, "alpha": 1e-3, "epochs": 1, "batch_size": 4,
            "continual_epochs": 7, "beta": 3.0, "lambda": 0.5, "objective": "bce",
            "optimizer": "sgd"}
BASELINE, DAT = TINY_MANIFEST["stages"]
# TINY_MANIFEST with all five stages, the continual ones sharing one short pretraining
FIVE_STAGES = [{"stage": stage, "epochs": 1, "batch_size": 4,
                **({"continual_epochs": 1} if stage in CONTINUAL_STAGES else {})}
               for stage in STAGES]


def _write_manifest(tmp_path, **changes) -> Path:
    """TINY_MANIFEST with ``changes`` as ``tmp_path/m.json``, writing into ``tmp_path/out``
    unless ``changes`` sets ``output_dir``."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**TINY_MANIFEST, "output_dir": str(tmp_path / "out"), **changes}))
    return path


def _truncate(path: Path, cut: int):
    """Drop the last ``cut`` bytes of a file, as an interrupted copy would."""
    path.write_bytes(path.read_bytes()[:-cut])


def _noise_dir(tmp_path) -> Path:
    """``tmp_path/noise`` with six noise WAVs: the name hash puts n0-n2 and n4 in the
    "train" pool, n3 and n5 in "unseen"."""
    noise = tmp_path / "noise"
    noise.mkdir()
    rng = np.random.default_rng(0)
    for i in range(6):
        write_wav(noise / f"n{i}.wav", Waveform(0.1 * rng.standard_normal(1600)))
    return noise


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture()
def manifest_path(tmp_path):
    payload = dict(TINY_MANIFEST)
    payload["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload))
    return path


class TestManifestParsing:
    def test_round_trip(self, manifest_path):
        m = ExperimentManifest.from_file(manifest_path)
        assert m.seed == 1
        assert [s.stage for s in m.stages] == ["baseline", "dat_only"]
        assert m.stages[1].config.grl_lambda == pytest.approx(1e-2)
        assert m.sweep.lambdas == [1e-1, 1e-2]

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentManifest.from_file(tmp_path / "absent.json")

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            ExperimentManifest.from_file(path)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown manifest key"):
            ExperimentManifest.from_dict({
                "corpus": {"classes": 4}, "stages": [], "typo_key": 1,
            })

    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigError, match="unknown stage"):
            StageSpec.from_dict({"stage": "finetune"}, seed=0)

    def test_bce_stage_implies_binary(self):
        spec = StageSpec.from_dict({"stage": "dat_only", "objective": "bce"}, seed=0)
        assert spec.config.domain_setting == "binary"

    def test_default_sweep_grid(self):
        assert SweepSpec().lambdas == [1e-1, 1e-2, 1e-3, 1e-4]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_to_dict_inverts_from_dict(self, data):
        positive = st.floats(1e-8, 10.0, allow_nan=False, allow_infinity=False)
        values = {
            "objective": st.sampled_from(OBJECTIVES), "lambda": positive, "eta": positive,
            "alpha": positive, "beta": positive, "epochs": st.integers(0, 200),
            "continual_epochs": st.integers(0, 50), "batch_size": st.integers(1, 64),
        }
        entry = st.sampled_from(STAGES).flatmap(lambda stage: st.fixed_dictionaries(
            {"stage": st.just(stage)}, optional={k: values[k] for k in STAGE_KEYS[stage]}))
        stages = data.draw(st.lists(entry, min_size=1, max_size=5, unique_by=lambda e: e["stage"]))
        obj = data.draw(st.fixed_dictionaries({}, optional={
            "seed": st.integers(0, 2**31 - 1), "splits_seed": st.integers(0, 2**31 - 1),
            "output_dir": st.text(max_size=20)}))
        obj |= {
            "corpus": {"classes": data.draw(st.integers(2, 8)),
                       "n_per_class": data.draw(st.integers(5, 200)),
                       "test_n_per_class": data.draw(st.integers(1, 50)),
                       "continual_n_per_class": data.draw(st.integers(1, 50))},
            "stages": stages,
        }
        adversarial = [e["stage"] for e in stages if e["stage"] in DAT_STAGES]
        if adversarial and data.draw(st.booleans()):
            obj["sweep"] = {"lambdas": data.draw(st.lists(positive, min_size=1, max_size=4,
                                                           unique=True)),
                            "stage": data.draw(st.sampled_from(adversarial)),
                            "objective": data.draw(st.sampled_from(OBJECTIVES))}
        m = ExperimentManifest.from_dict(obj)
        assert ExperimentManifest.from_dict(json.loads(json.dumps(m.to_dict()))) == m

    @pytest.mark.parametrize("command", ["run", "sweep", "probe"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
    def test_sweep_stage_without_entry_rejected_by_every_command(self, tmp_path, capsys,
                                                               command, dry_run):
        path = _write_manifest(tmp_path, stages=[{"stage": "baseline", "epochs": 1}],
                               sweep={"lambdas": [1e-2], "stage": "dat_only"})
        assert main([command, "--manifest", str(path), *dry_run]) == EXIT_CONFIG
        assert "sweep stage 'dat_only' has no entry in the manifest's stages" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("corpus, message", [
        ({"classes": 1}, "classes must be an integer >= 2, got 1"),
        ({"n_per_class": 0}, "n_per_class must be an integer >= 1, got 0"),
        ({"n_per_class": 2.5}, "n_per_class must be an integer >= 1, got 2.5"),
        ({"test_n_per_class": 0}, "test_n_per_class must be an integer >= 1, got 0"),
        ({"continual_n_per_class": -1}, "continual_n_per_class must be an integer >= 1"),
        ({"classes": 2, "n_per_class": 3}, "corpus has 6 training clips"),
    ])
    def test_impossible_corpus_sizes_rejected(self, tmp_path, capsys, corpus, message):
        path = _write_manifest(tmp_path, corpus=dict(TINY_MANIFEST["corpus"], **corpus))
        assert main(["run", "--manifest", str(path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scale", [1, 4])
    def test_standard_corpus_sizes_accepted(self, scale):
        c = standard_manifest(1).corpus
        CorpusSpec(classes=c.classes, n_per_class=c.n_per_class // scale,
                   test_n_per_class=c.test_n_per_class // scale,
                   continual_n_per_class=c.continual_n_per_class // scale)
        CorpusSpec(classes=c.classes, n_per_class=3, test_n_per_class=2, continual_n_per_class=2)

    # (part of TINY_MANIFEST changed, the change, the error's message)
    BAD_SETTINGS = [
        ("stage", {"batch_size": 0}, "batch_size must be an integer >= 1, got 0"),
        ("stage", {"batch_size": True}, "batch_size must be an integer >= 1, got True"),
        ("stage", {"epochs": 1.5}, "epochs must be an integer >= 0, got 1.5"),
        ("stage", {"epochs": -1}, "epochs must be an integer >= 0, got -1"),
        # dat_only does not read continual_epochs; this entry becomes a stage that does
        ("stage", {"stage": "continual_plus_dat", "continual_epochs": -2},
         "continual_epochs must be an integer >= 0, got -2"),
        ("stage", {"lambda": 0}, "grl_lambda must be a finite number > 0, got 0"),
        ("stage", {"eta": "fast"}, "eta must be a finite number > 0, got 'fast'"),
        ("stage", {"alpha": float("nan")}, "alpha must be a finite number > 0, got nan"),
        ("stage", {"beta": 1e400}, "beta must be a finite number > 0, got inf"),
        ("manifest", {"seed": -1}, "seed must be an integer >= 0, got -1"),
        ("manifest", {"splits_seed": 2.5}, "splits_seed must be an integer >= 0, got 2.5"),
        ("manifest", {"splits_seed": False}, "splits_seed must be an integer >= 0, got False"),
        # the corpus is built from the manifest seed, and names none of its own
        ("corpus", {"seed": 1}, "unknown manifest key(s) in corpus: ['seed']"),
        ("sweep", {"lambdas": [1e-2, 1e400]}, "sweep lambda must be a finite number > 0, got inf"),
        ("sweep", {"lambdas": 0.1}, "sweep lambdas must be a non-empty list, got 0.1"),
        ("sweep", {"lambdas": [0.01, 0.1, 0.01]},
         "sweep lambda(s) [0.01] are listed more than once"),
        ("sweep", {"objective": "hinge"}, "unknown sweep objective 'hinge'"),
        ("sweep", {"stage": "baseline"}, "sweep stage 'baseline' reads no lambda"),
        ("manifest", {"stages": [dict(BASELINE, **{"lambda": 0.5, "objective": "bce", "beta": 3.0,
                                                   "continual_epochs": 7}), DAT]},
         "stage 'baseline' does not read ['beta', 'continual_epochs', 'lambda', 'objective']"),
        ("manifest", {"stages": []}, "manifest lists no stages"),
        ("manifest", {"stages": 5}, "stages must be a JSON list, got 5"),
        ("manifest", {"stages": [5]},
         "each stage entry must be a JSON object with a 'stage' key, got 5"),
        ("manifest", {"stages": [BASELINE, DAT, BASELINE]},
         "stage(s) ['baseline'] have more than one entry"),
        ("manifest", {"corpus": 5}, "corpus must be a JSON object, got 5"),
        ("manifest", {"sweep": 5}, "sweep must be a JSON object, got 5"),
        ("corpus", {"type": "synthetic"}, "unknown manifest key(s) in corpus: ['type']"),
        ("manifest", {"output_dir": 5}, "output_dir must be a path string, got 5"),
        ("manifest", {"output_dir": ["out"]}, "output_dir must be a path string, got ['out']"),
        ("corpus", {"noise_wav_dir": 5},
         "corpus noise_wav_dir must be a path string or null, got 5"),
        ("corpus", {"noise_wav_dir": True},
         "corpus noise_wav_dir must be a path string or null, got True"),
        ("corpus", {"noise_wav_dir": ""},
         "corpus noise_wav_dir must be a path string or null, got ''"),
    ]

    @pytest.mark.parametrize("command", ["run", "sweep", "probe"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
    @pytest.mark.parametrize("part, change, message", BAD_SETTINGS)
    def test_bad_settings_rejected_before_any_output(self, tmp_path, capsys, command, dry_run,
                                                     part, change, message):
        if part == "stage":
            changes = {"stages": [TINY_MANIFEST["stages"][0],
                                  dict(TINY_MANIFEST["stages"][1], **change)]}
        elif part == "manifest":
            changes = change
        else:
            changes = {part: dict(TINY_MANIFEST[part], **change)}
        path = _write_manifest(tmp_path, **changes)
        assert main([command, "--manifest", str(path), *dry_run]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "probe"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
    # every stage trains at the manifest seed, so no stage entry takes a seed of its own
    @pytest.mark.parametrize("stage, key", [(stage, key) for stage in STAGES
                                            for key in [*SETTINGS, "seed"]
                                            if key not in STAGE_KEYS[stage]])
    def test_setting_the_stage_does_not_read_rejected(self, tmp_path, capsys, command, dry_run,
                                                      stage, key):
        stages = [e for e in TINY_MANIFEST["stages"] if e["stage"] != stage]
        entry = {"stage": stage, key: SETTINGS.get(key, TINY_MANIFEST["seed"])}
        path = _write_manifest(tmp_path, stages=[*stages, entry])
        assert main([command, "--manifest", str(path), *dry_run]) == EXIT_CONFIG
        assert f"stage {stage!r} does not read [{key!r}]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "probe"])
    def test_negative_seed_override_rejected(self, manifest_path, tmp_path, capsys, command):
        assert main([command, "--manifest", str(manifest_path), "--seed", "-1"]) == EXIT_CONFIG
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _reference_standard_manifest(seed: int) -> ExperimentManifest:
    """The Python literal that defined ``standard_manifest`` before ``manifests/standard.json`` did."""
    return ExperimentManifest.from_dict({
        "seed": seed,
        "splits_seed": 7,
        "corpus": {"classes": 4, "n_per_class": 100, "test_n_per_class": 25,
                   "continual_n_per_class": 50},
        "stages": [
            {"stage": "baseline", "epochs": 50},
            {"stage": "oracle", "epochs": 50},
            {"stage": "continual_only", "epochs": 50},
            {"stage": "dat_only", "epochs": 80, "lambda": 1e-2},
            {"stage": "continual_plus_dat", "epochs": 50, "lambda": 1e-3},
        ],
        "sweep": {"lambdas": [1e-1, 1e-2, 1e-3, 1e-4], "stage": "dat_only"},
        "output_dir": "datforge-out",
    })


class TestStandardManifest:
    @pytest.mark.parametrize("seed", [1, 2, 3, 301])
    def test_equals_reference_literal(self, seed):
        assert standard_manifest(seed) == _reference_standard_manifest(seed)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cli_seed_matches_library(self, seed):
        args = build_parser().parse_args(
            ["run", "--manifest", str(STANDARD_JSON), "--seed", str(seed)])
        assert _load_manifest(args) == standard_manifest(seed)

    def test_with_seed_sets_manifest_corpus_and_stage_seeds(self):
        m = ExperimentManifest.from_dict(dict(TINY_MANIFEST, splits_seed=9))
        s = m.with_seed(4)
        assert (s.seed, s.corpus.seed, s.splits_seed) == (4, 4, 9)
        assert [x.config.seed for x in s.stages] == [4, 4]
        assert (m.seed, m.corpus.seed) == (1, 1)  # the original is left alone
        assert [x.config.seed for x in m.stages] == [1, 1]

    @pytest.mark.parametrize("seed, other", [(5, 1), (0, 3), (2, 2)])
    def test_manifest_seed_key_is_with_seed(self, seed, other):
        # the corpus and every stage are seeded by the manifest's seed key, as by --seed
        m = ExperimentManifest.from_dict(dict(TINY_MANIFEST, seed=seed))
        assert m == ExperimentManifest.from_dict(dict(TINY_MANIFEST, seed=other)).with_seed(seed)
        assert (m.corpus.seed, *(s.config.seed for s in m.stages)) == (seed, seed, seed)
        assert m.with_seed(m.seed) == m

    def test_seed_apart_from_the_manifest_seed_refused(self):
        m = ExperimentManifest.from_dict(dict(TINY_MANIFEST))
        with pytest.raises(ConfigError, match=r"seeds \{'corpus': 3\} differ from the manifest"):
            replace(m, corpus=replace(m.corpus, seed=3))
        with pytest.raises(ConfigError, match=r"seeds \{'dat_only': 0\} differ from the manifest"):
            replace(m, stages=[m.stages[0], replace(m.stages[1], config=TrainConfig())])


class TestRunCommand:
    def test_dry_run_writes_nothing(self, manifest_path, tmp_path, capsys):
        assert main(["run", "--manifest", str(manifest_path), "--dry-run"]) == EXIT_OK
        assert not (tmp_path / "out").exists()
        out = capsys.readouterr().out
        assert "baseline" in out and "dat_only" in out

    def test_run_produces_artifacts(self, manifest_path, tmp_path):
        assert main(["run", "--manifest", str(manifest_path)]) == EXIT_OK
        out = tmp_path / "out"
        for name in ("report.csv", "report.json", "training_log.csv",
                     "corpus_manifest.jsonl", "manifest.json",
                     "baseline.ckpt", "dat_only.ckpt"):
            assert (out / name).is_file(), name
        assert not (out / "RUN-INCOMPLETE").exists()
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "stage,objective,lambda,clean_acc,seen_acc,unseen_acc"
        assert len(lines) == 3

    def test_written_manifest_is_a_runnable_manifest(self, manifest_path, tmp_path):
        assert main(["run", "--manifest", str(manifest_path)]) == EXIT_OK
        written = tmp_path / "out" / "manifest.json"
        assert main(["run", "--manifest", str(written), "--dry-run"]) == EXIT_OK
        assert ExperimentManifest.from_file(written) == ExperimentManifest.from_file(manifest_path)

    @pytest.mark.parametrize("classes", [2, 6])
    def test_label_head_has_one_output_per_corpus_class(self, tmp_path, classes):
        path = _write_manifest(tmp_path, corpus=dict(TINY_MANIFEST["corpus"], classes=classes))
        assert main(["run", "--manifest", str(path)]) == EXIT_OK
        for stage in ("baseline", "dat_only"):
            ckpt = load_checkpoint(tmp_path / "out" / f"{stage}.ckpt")
            assert {name: v.shape for name, _g, v in ckpt}["y.out.W"] == (32, classes)
        assert main(["sweep", "--manifest", str(path)]) == EXIT_OK

    def test_seed_override(self, manifest_path, capsys):
        m = ExperimentManifest.from_file(manifest_path)
        assert m.seed == 1  # manifest value; --seed must override it
        assert main(["run", "--manifest", str(manifest_path),
                     "--seed", "5", "--dry-run"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "seed: 5" in lines  # once: it seeds the corpus and every stage
        assert not [l for l in lines if l.startswith(("corpus: ", "stage: ")) and "seed" in l]

    def test_missing_manifest_exit_code(self, tmp_path, capsys):
        code = main(["run", "--manifest", str(tmp_path / "none.json")])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_interrupted_run_marker_recovery(self, manifest_path, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "RUN-INCOMPLETE").write_text("running\n")
        (out / "stale.txt").write_text("leftover")
        (out / "report.csv").write_text("stale report\n")
        # no run writes a dat_only_continual.ckpt: dat_only pretrains nothing
        (out / "dat_only_continual.ckpt").write_text("user's file")
        assert main(["run", "--manifest", str(manifest_path)]) == EXIT_OK
        # only what a run writes is removed; a file the run did not write survives
        assert (out / "stale.txt").read_text() == "leftover"
        assert (out / "dat_only_continual.ckpt").read_text() == "user's file"
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "stage,objective,lambda,clean_acc,seen_acc,unseen_acc"
        assert not (out / "RUN-INCOMPLETE").exists()

    def test_run_files_are_the_names_a_run_writes(self, tmp_path):
        manifest = ExperimentManifest.from_dict(dict(TINY_MANIFEST, stages=FIVE_STAGES))
        run_experiment(manifest, tmp_path)
        written = {p.name for p in tmp_path.iterdir()}
        assert set(RUN_FILES) == written | {RUN_MARKER, "probe.json"}

    @pytest.mark.parametrize("command", ["run", "sweep", "probe"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
    @pytest.mark.parametrize("samples", SILENT_NOISE.values(), ids=SILENT_NOISE)
    def test_silent_noise_wav_is_config_error_before_training(self, tmp_path, capsys, command,
                                                              dry_run, samples):
        noise = _noise_dir(tmp_path)
        write_wav(noise / "silent.wav", Waveform(samples))
        payload = dict(TINY_MANIFEST, output_dir=str(tmp_path / "out"))
        payload["corpus"] = dict(TINY_MANIFEST["corpus"], noise_wav_dir=str(noise))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        assert main([command, "--manifest", str(path), *dry_run]) == EXIT_CONFIG
        assert "silent.wav" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "probe"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
    @pytest.mark.parametrize("cut", [1, 200], ids=["mid-sample", "frame-boundary"])
    def test_truncated_noise_wav_is_config_error_before_training(self, tmp_path, capsys,
                                                                 command, dry_run, cut):
        noise = _noise_dir(tmp_path)
        _truncate(noise / "n3.wav", cut)
        path = _write_manifest(tmp_path, corpus=dict(TINY_MANIFEST["corpus"],
                                                     noise_wav_dir=str(noise)))
        assert main([command, "--manifest", str(path), *dry_run]) == EXIT_CONFIG
        assert "noise WAV unusable" in (err := capsys.readouterr().err) and "n3.wav" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "probe"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
    @pytest.mark.parametrize("state", ["missing", "empty"])
    def test_noise_dir_without_wavs_is_config_error_before_training(self, tmp_path, capsys,
                                                                    command, dry_run, state):
        noise = tmp_path / "noise"
        if state == "empty":
            noise.mkdir()
        path = _write_manifest(tmp_path, corpus=dict(TINY_MANIFEST["corpus"],
                                                     noise_wav_dir=str(noise)))
        assert main([command, "--manifest", str(path), *dry_run]) == EXIT_CONFIG
        assert f"no WAV files in noise directory {noise}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert noise.exists() == (state == "empty")

    def test_non_finite_loss_exit_code(self, manifest_path, monkeypatch, capsys):
        from datforge import distort

        real = distort.featurize  # the run builds its clips afresh, so each one featurizes
        monkeypatch.setattr(distort, "featurize", lambda w: np.full_like(real(w), np.nan))
        assert main(["run", "--manifest", str(manifest_path)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "stage 'baseline': non-finite L_y (nan) at epoch 0, step 0" in err


def test_wav_noise_bank_is_read_once_by_each_command(tmp_path, monkeypatch, capsys):
    from datforge import distort, pipeline

    noise = _noise_dir(tmp_path)
    path = _write_manifest(tmp_path, corpus=dict(TINY_MANIFEST["corpus"],
                                                 noise_wav_dir=str(noise)))
    built, draws, kept, synthesized = [], [], [], []
    real_init, real_draw = distort.WavNoiseBank.__init__, distort.WavNoiseBank.draw
    real_build, real_synth = pipeline.build_training_data, pipeline.synth_corpus

    def counting(self, noise_dir):
        built.append(noise_dir)
        real_init(self, noise_dir)

    def recording(self, pool, n, seed):
        draws.append((pool, seed))
        return real_draw(self, pool, n, seed)

    def no_procedural_noise(*args):
        raise AssertionError("drew procedural noise with a noise directory set")

    def keeping(*args, **kwargs):
        kept.append(real_build(*args, **kwargs))
        return kept[-1]

    def synth(*args, **kwargs):
        synthesized.append(args)
        return real_synth(*args, **kwargs)

    monkeypatch.setattr(distort.WavNoiseBank, "__init__", counting)
    monkeypatch.setattr(distort.WavNoiseBank, "draw", recording)
    monkeypatch.setattr(distort.ProceduralNoiseBank, "draw", no_procedural_noise)
    monkeypatch.setattr(pipeline, "build_training_data", keeping)
    monkeypatch.setattr(pipeline, "synth_corpus", synth)
    seed = ["--seed", "2"]
    for command, *rest in (["run", *seed], ["probe", *seed], ["sweep"], ["run", "--dry-run"],
                           ["probe", *seed, "--dry-run"], ["sweep", "--dry-run"]):
        built.clear()
        assert main([command, "--manifest", str(path), *rest]) == EXIT_OK, [command, *rest]
        assert built == [str(noise)], [command, *rest]
        if [command, *rest] == ["run", *seed]:
            # T's additive clips, distorted in order first, drew their noise from the WAVs
            t_seeds = [c.spec.seed for c in kept[0].splits.T if c.kind == "additive_bank"]
            assert t_seeds and draws[:len(t_seeds)] == [("train", s) for s in t_seeds]
    built.clear()
    synthesized.clear()
    # the finished run is seed 2's, so a probe at the manifest's seed 1 is refused
    assert main(["probe", "--manifest", str(path)]) == EXIT_CONFIG
    assert "holds no finished run" in capsys.readouterr().err
    assert built == [str(noise)] and synthesized == []


class TestDeterminism:
    def test_report_csv_byte_identical_across_runs(self, tmp_path):
        manifest = ExperimentManifest.from_dict(dict(TINY_MANIFEST))
        run_experiment(manifest, tmp_path / "a")
        run_experiment(manifest, tmp_path / "b")
        assert (tmp_path / "a/report.csv").read_bytes() == (tmp_path / "b/report.csv").read_bytes()
        assert (tmp_path / "a/training_log.csv").read_bytes() == \
            (tmp_path / "b/training_log.csv").read_bytes()

    def test_config_hash_leaves_out_output_dir(self, tmp_path):
        hashes = []
        for name in ("a", "b"):
            manifest = ExperimentManifest.from_dict(dict(TINY_MANIFEST, output_dir=name))
            run_experiment(manifest, tmp_path / name)
            assert json.loads((tmp_path / name / "manifest.json").read_text())["output_dir"] == name
            hashes.append(json.loads((tmp_path / name / "report.json").read_text())
                          ["metadata"]["config_hash"])
        assert hashes[0] == hashes[1]


class TestSweepCommand:
    def test_sweep_csv_and_reported_flags(self, manifest_path, tmp_path, capsys):
        assert main(["sweep", "--manifest", str(manifest_path)]) == EXIT_OK
        path = tmp_path / "out" / "sweep_report.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "lambda,reported,clean_acc,seen_acc,unseen_acc"
        rows = [l.split(",") for l in lines[1:]]
        assert [r[0] for r in rows] == ["0.1", "0.01"]  # descending lambda
        assert [r[1] for r in rows] == ["false", "true"]  # 1e-2 is a reported slot

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
    def test_sweep_without_section_is_config_error(self, tmp_path, capsys, dry_run):
        payload = {k: v for k, v in TINY_MANIFEST.items() if k != "sweep"}
        payload["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        assert main(["sweep", "--manifest", str(path), *dry_run]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: manifest has no 'sweep' section\n"
        assert not (tmp_path / "out").exists()

    def test_dry_run_lists_the_lambdas_in_the_order_the_cells_train(self, tmp_path, capsys):
        payload = dict(TINY_MANIFEST, output_dir=str(tmp_path / "out"),
                       sweep={"lambdas": [1e-2, 1e-1], "stage": "dat_only", "objective": "bce"})
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        assert main(["sweep", "--manifest", str(path), "--dry-run"]) == EXIT_OK
        assert capsys.readouterr().out == "sweep stage=dat_only objective=bce lambdas=[0.1, 0.01]\n"
        assert not (tmp_path / "out").exists()
        rows = run_sweep(ExperimentManifest.from_file(path), tmp_path / "out")
        assert [r["lambda"] for r in rows] == [0.1, 0.01]

    def test_parallel_jobs_match_serial(self, tmp_path):
        manifest = ExperimentManifest.from_dict(dict(TINY_MANIFEST))
        serial = run_sweep(manifest, tmp_path / "s", jobs=1)
        parallel = run_sweep(manifest, tmp_path / "p", jobs=2)
        assert serial == parallel
        assert (tmp_path / "s" / "sweep_report.csv").read_bytes() == \
            (tmp_path / "p" / "sweep_report.csv").read_bytes()

    def test_sweep_trains_with_the_stage_entry_settings(self, tmp_path, monkeypatch):
        from datforge import pipeline

        seen = []
        real = pipeline.run_stage

        def recording(stage, splits, cfg, *args, **kwargs):
            seen.append((stage, cfg.epochs, cfg.batch_size, cfg.grl_lambda))
            return real(stage, splits, cfg, *args, **kwargs)

        monkeypatch.setattr(pipeline, "run_stage", recording)
        run_sweep(ExperimentManifest.from_dict(dict(TINY_MANIFEST)), tmp_path, jobs=1)
        # the manifest's dat_only entry: 1 epoch of batch 4, not TrainConfig's 80 epochs
        assert seen == [("dat_only", 1, 4, 1e-1), ("dat_only", 1, 4, 1e-2)]

    @pytest.mark.parametrize("lambdas", [[], [1e-2, 0.0], [1e-2, -1.0]])
    def test_bad_lambdas_rejected_when_parsed(self, tmp_path, lambdas):
        payload = dict(TINY_MANIFEST, output_dir=str(tmp_path / "out"),
                       sweep={"lambdas": lambdas, "stage": "dat_only"})
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        assert main(["sweep", "--manifest", str(path), "--dry-run"]) == EXIT_CONFIG
        assert main(["sweep", "--manifest", str(path)]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_sweep_stage_without_entry_is_config_error(self, tmp_path):
        payload = dict(TINY_MANIFEST, output_dir=str(tmp_path / "out"),
                       sweep={"lambdas": [1e-2], "stage": "continual_plus_dat"})
        with pytest.raises(ConfigError, match="continual_plus_dat"):
            run_sweep(ExperimentManifest.from_dict(payload), tmp_path / "out")
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        assert main(["sweep", "--manifest", str(path)]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()


class TestProbeCommand:
    def test_probe_writes_json(self, manifest_path, tmp_path, capsys):
        assert main(["run", "--manifest", str(manifest_path)]) == EXIT_OK
        assert main(["probe", "--manifest", str(manifest_path)]) == EXIT_OK
        rows = json.loads((tmp_path / "out" / "probe.json").read_text())
        assert [r["stage"] for r in rows] == ["baseline", "dat_only"]
        assert all(0.0 <= r["probe_acc"] <= 1.0 for r in rows)

    def test_probe_json_equals_probing_the_trained_stages(self, tmp_path):
        manifest = ExperimentManifest.from_dict(dict(TINY_MANIFEST, stages=FIVE_STAGES))
        run_experiment(manifest, tmp_path)
        run_probe(manifest, tmp_path)
        # the reference: the probe of each stage as trained in this process, not reloaded
        results, splits = train_stages(manifest, manifest.stages, jobs=1)
        rows = []
        for res in results:
            probe = domain_probe(res.model, splits, ProbeConfig(seed=manifest.seed))
            rows.append({"stage": res.stage, "objective": res.objective,
                         "lambda": res.grl_lambda, "probe_acc": probe.probe_acc,
                         "chance_level": probe.chance_level, "converged": probe.converged,
                         "seed": manifest.seed})
        assert [r["objective"] for r in rows] == [None, None, None, "ce", "ce"]
        assert (tmp_path / "probe.json").read_bytes() == \
            (json.dumps(rows, indent=2) + "\n").encode()

    def test_probe_json_records_the_probe_seed(self, manifest_path, tmp_path):
        assert main(["run", "--manifest", str(manifest_path), "--seed", "2"]) == EXIT_OK
        assert main(["probe", "--manifest", str(manifest_path), "--seed", "2"]) == EXIT_OK
        rows = json.loads((tmp_path / "out" / "probe.json").read_text())
        assert [r["seed"] for r in rows] == [2, 2]

    def test_probe_builds_only_s_and_t(self, manifest_path, tmp_path, monkeypatch):
        from datforge import pipeline

        assert main(["run", "--manifest", str(manifest_path)]) == EXIT_OK
        built = []  # the id prefix of each corpus the probe synthesizes
        real = pipeline.synth_corpus

        def recording(n_per_class, classes, seed, id_prefix="clip"):
            built.append(id_prefix)
            return real(n_per_class, classes, seed, id_prefix)

        monkeypatch.setattr(pipeline, "synth_corpus", recording)
        assert main(["probe", "--manifest", str(manifest_path)]) == EXIT_OK
        assert built == ["clip"]  # the training corpus: no test corpus, no continual one

    def test_rerun_removes_the_probe_of_the_checkpoints_it_replaces(self, manifest_path,
                                                                     tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--manifest", str(manifest_path)]) == EXIT_OK
        assert main(["probe", "--manifest", str(manifest_path)]) == EXIT_OK
        (out / "notes.txt").write_text("kept")
        assert main(["run", "--manifest", str(manifest_path), "--seed", "2"]) == EXIT_OK
        assert not (out / "probe.json").exists()  # its rows described the seed-1 checkpoints
        assert (out / "notes.txt").read_text() == "kept"
        capsys.readouterr()
        assert main(["probe", "--manifest", str(manifest_path)]) == EXIT_CONFIG
        assert f"{out} holds no finished run" in capsys.readouterr().err
        assert main(["probe", "--manifest", str(manifest_path), "--seed", "2"]) == EXIT_OK
        rows = json.loads((out / "probe.json").read_text())
        assert [r["seed"] for r in rows] == [2, 2]

    @pytest.mark.parametrize("named_by", ["--seed", "manifest.json"])
    def test_probe_trains_nothing(self, tmp_path, monkeypatch, named_by):
        from datforge import pipeline, trainer

        path = _write_manifest(tmp_path, stages=FIVE_STAGES)
        assert main(["run", "--manifest", str(path), "--seed", "2"]) == EXIT_OK

        def no_training(*args, **kwargs):
            raise AssertionError("probe trained")

        for module, name in ((pipeline, "run_stage"), (pipeline, "pretrain"),
                             (trainer, "run_stage"), (trainer, "pretrain"),
                             (trainer, "continual_pretrain"), (trainer, "train_supervised"),
                             (trainer, "train_dat")):
            monkeypatch.setattr(module, name, no_training)
        # the seed of the run, or the manifest the run wrote, names the same experiment
        args = (["--manifest", str(path), "--seed", "2"] if named_by == "--seed"
                else ["--manifest", str(tmp_path / "out" / "manifest.json")])
        assert main(["probe", *args]) == EXIT_OK
        assert len(json.loads((tmp_path / "out" / "probe.json").read_text())) == 5

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
    @pytest.mark.parametrize("state", ["absent", "empty", "marker", "other seed",
                                       "corrupt manifest", "missing checkpoint"])
    def test_no_finished_run_is_config_error(self, manifest_path, tmp_path, capsys, state,
                                             dry_run):
        out = tmp_path / "out"
        if state == "empty":
            out.mkdir()
        elif state != "absent":
            seed = ["--seed", "2"] if state == "other seed" else []
            assert main(["run", "--manifest", str(manifest_path), *seed]) == EXIT_OK
        if state == "marker":
            (out / "RUN-INCOMPLETE").write_text("running\n")
        if state == "corrupt manifest":
            (out / "manifest.json").write_text("{")
        if state == "missing checkpoint":
            (out / "dat_only.ckpt").unlink()
        before = _files(out) if out.exists() else None
        capsys.readouterr()
        assert main(["probe", "--manifest", str(manifest_path), *dry_run]) == EXIT_CONFIG
        expected = (f"checkpoint {out / 'dat_only.ckpt'} of the finished run is missing"
                    if state == "missing checkpoint" else f"{out} holds no finished run")
        assert expected in capsys.readouterr().err
        assert (_files(out) if out.exists() else None) == before
        assert not (out / "probe.json").exists()

    def test_dry_run_prints_the_run_plan_and_trains_nothing(self, manifest_path, tmp_path,
                                                           capsys, monkeypatch):
        from datforge import pipeline

        out = tmp_path / "out"
        assert main(["run", "--manifest", str(manifest_path)]) == EXIT_OK  # the run it checks
        before = _files(out)

        def no_training(*args, **kwargs):
            raise AssertionError("probe --dry-run trained a stage")

        monkeypatch.setattr(pipeline, "run_stage", no_training)
        capsys.readouterr()
        assert main(["run", "--manifest", str(manifest_path), "--dry-run"]) == EXIT_OK
        run_plan = capsys.readouterr().out
        assert main(["probe", "--manifest", str(manifest_path), "--dry-run"]) == EXIT_OK
        assert capsys.readouterr().out == run_plan
        assert _files(out) == before  # neither dry run wrote, removed or changed a file


class TestDistortCommand:
    @pytest.fixture()
    def wav_dir(self, tmp_path):
        d = tmp_path / "in"
        d.mkdir()
        for clip in synth_corpus(2, 2, seed=30):
            write_wav(d / f"{clip.clip_id}.wav", clip.waveform)
        return d

    def test_mixed_distortion_round_trip(self, wav_dir, tmp_path, capsys):
        out = tmp_path / "dist"
        assert main(["distort", str(wav_dir), str(out), "--seed", "1"]) == EXIT_OK
        wavs = sorted(out.glob("*.wav"))
        assert len(wavs) == 4
        entries = [json.loads(l) for l in (out / "manifest.jsonl").read_text().splitlines()]
        kinds = [e["distortion"] for e in entries]
        assert sorted(set(kinds)) == sorted(set(kinds) & {"additive_bank", "gaussian", "reverb"})
        assert all(e["domain"] == KIND_TO_DOMAIN[e["distortion"]] for e in entries)
        assert all(e["snr_db"] == 15.0 for e in entries if e["distortion"] != "reverb")
        for w in wavs:
            read_wav(w)  # output stays valid 16-bit mono 16 kHz

    def test_single_kind_gaussian_changes_audio(self, wav_dir, tmp_path):
        out = tmp_path / "g"
        assert main(["distort", str(wav_dir), str(out),
                     "--kind", "gaussian", "--snr", "12"]) == EXIT_OK
        name = sorted(wav_dir.glob("*.wav"))[0].name
        a = read_wav(wav_dir / name).samples
        b = read_wav(out / name).samples
        assert not np.array_equal(a, b)

    def test_bad_wav_skipped_with_warning(self, wav_dir, tmp_path, capsys):
        (wav_dir / "broken.wav").write_bytes(b"junk")
        out = tmp_path / "d"
        assert main(["distort", str(wav_dir), str(out)]) == EXIT_OK
        assert "skipping broken.wav" in capsys.readouterr().err

    def test_all_bad_inputs_exit_runtime(self, tmp_path, capsys):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "x.wav").write_bytes(b"junk")
        assert main(["distort", str(d), str(tmp_path / "o")]) == EXIT_RUNTIME

    def test_missing_input_dir_exit_config(self, tmp_path):
        assert main(["distort", str(tmp_path / "nope"), str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("flags, message", [
        (["--snr", "nan"], "--snr must be a finite number of dB, got nan"),
        (["--snr", "inf"], "--snr must be a finite number of dB, got inf"),
        (["--snr=-inf"], "--snr must be a finite number of dB, got -inf"),
        (["--t60", "0"], "--t60 must be a finite number > 0, got 0.0"),
        (["--t60=-1"], "--t60 must be a finite number > 0, got -1.0"),
        (["--t60", "nan"], "--t60 must be a finite number > 0, got nan"),
        (["--t60", "inf"], "--t60 must be a finite number > 0, got inf"),
        (["--kind", "reverb", "--t60", "5e-324"],
         "--t60 must be at least one sample period (6.25e-05 s), got 5e-324"),
        (["--seed=-1"], "--seed must be an integer >= 0, got -1"),
        (["--kind", "gaussian", "--t60", "0.5"], "--t60 is not read by --kind gaussian"),
        (["--kind", "additive_bank", "--t60", "0.5"], "--t60 is not read by --kind additive_bank"),
        (["--kind", "reverb", "--snr", "3"], "--snr is not read by --kind reverb"),
    ])
    def test_bad_flags_rejected_before_output(self, wav_dir, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        assert main(["distort", str(wav_dir), str(out), *flags]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["in", "./in/"])
    def test_output_dir_equal_to_input_rejected(self, wav_dir, tmp_path, capsys, monkeypatch,
                                                spelling):
        before = _files(wav_dir)
        monkeypatch.chdir(tmp_path)
        assert main(["distort", "in", spelling]) == EXIT_CONFIG
        assert "output directory in is the input directory" in capsys.readouterr().err
        assert _files(wav_dir) == before

    @pytest.mark.parametrize("cut", [1, 2000], ids=["mid-sample", "frame-boundary"])
    def test_truncated_wav_skipped_with_warning(self, wav_dir, tmp_path, capsys, cut):
        victim = sorted(wav_dir.glob("*.wav"))[1]
        _truncate(victim, cut)
        out = tmp_path / "d"
        assert main(["distort", str(wav_dir), str(out)]) == EXIT_OK
        assert f"skipping {victim.name}: {victim}: truncated" in capsys.readouterr().err
        assert sorted(p.name for p in out.glob("*.wav")) == \
            sorted(p.name for p in wav_dir.glob("*.wav") if p != victim)

    def test_negative_snr_is_a_valid_setting(self, wav_dir, tmp_path):
        out = tmp_path / "o"
        assert main(["distort", str(wav_dir), str(out), "--kind", "gaussian",
                     "--snr", "-5"]) == EXIT_OK
        assert len(list(out.glob("*.wav"))) == 4


def test_datforge_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("DATFORGE_OUT", str(tmp_path))
    payload = dict(TINY_MANIFEST)
    payload["output_dir"] = "rel-out"
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    assert main(["run", "--manifest", str(path)]) == EXIT_OK
    assert (tmp_path / "rel-out" / "report.csv").is_file()


def test_datforge_out_leaves_an_absolute_output_dir_alone(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DATFORGE_OUT", str(tmp_path / "root"))
    path = _write_manifest(tmp_path)
    assert main(["run", "--manifest", str(path), "--dry-run"]) == EXIT_OK
    assert f"output_dir: {tmp_path / 'out'}" in capsys.readouterr().out.splitlines()


def _readme_commands() -> list[list[str]]:
    """Every ``datforge ...`` line of the README's ``sh`` blocks, split as a shell would."""
    commands, in_sh = [], False
    for line in (REPO / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("datforge "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_stage_key_table_is_stage_keys():
    lines = (REPO / "README.md").read_text().splitlines()
    start = next(i for i, l in enumerate(lines) if "keys besides `stage`" in l) + 2  # past |---|
    table, first = {}, []
    for line in lines[start:]:
        if not line.lstrip().startswith("|"):
            break
        stages, keys = (re.findall(r"`(\w+)`", cell) for cell in line.split("|")[1:3])
        above = re.search(r"the (\w+) above", line)  # the first row's keys, counted in words
        if above:
            assert above.group(1) == ["three", "four", "five"][len(first) - 3], line
            keys = first + keys
        first = first or keys
        table.update(dict.fromkeys(stages, keys))
    assert table == {stage: list(keys) for stage, keys in STAGE_KEYS.items()}


def test_readme_layout_block_is_the_package_modules():
    lines = (REPO / "README.md").read_text().splitlines()
    start = lines.index("src/datforge/") + 1
    block = lines[start : lines.index("```", start)]
    named = [m.group(1) for line in block for m in [re.match(r"  (\w+\.py) ", line)] if m]
    modules = {p.name for p in (REPO / "src" / "datforge").glob("*.py")} - {"__init__.py"}
    assert sorted(named) == sorted(modules)


def test_readme_cli_block_parses_and_dry_runs(monkeypatch, capsys, tmp_path):
    commands = _readme_commands()
    assert {c[0] for c in commands} == {"run", "sweep", "probe", "distort"}
    monkeypatch.chdir(REPO)
    monkeypatch.setenv("DATFORGE_OUT", str(tmp_path))
    finished = set()  # the manifests a documented `run` has finished before this line
    for argv in commands:
        args = build_parser().parse_args(argv)
        if "--manifest" not in argv:
            continue
        manifest = argv[argv.index("--manifest") + 1]
        if argv[0] == "probe":  # probe reads the finished run of its manifest
            assert manifest in finished, f"README probes {manifest} before running it"
        elif argv[0] == "run" and "--dry-run" not in argv:
            finished.add(manifest)
            # what the finished run leaves for `probe --dry-run` to check: its manifest.json
            # and a file of each stage checkpoint's name, which a dry run does not read
            m = _load_manifest(args)
            out = _resolve_out(m)
            out.mkdir(parents=True)
            (out / "manifest.json").write_text(json.dumps(m.to_dict()))
            for spec in m.stages:
                (out / f"{spec.stage}.ckpt").touch()
        dry = argv if "--dry-run" in argv else [*argv, "--dry-run"]
        assert main(dry) == EXIT_OK, argv
    capsys.readouterr()
