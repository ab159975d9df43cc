"""Manifest-driven experiment orchestration shared by the CLI and the test suite."""

from __future__ import annotations

import csv
import functools
import json
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import runtime
from .distort import (
    MIN_SPLIT_CLIPS,
    CorpusSplit,
    WavNoiseBank,
    build_continual_set,
    build_splits,
    derive_seed,
    manifest_entries,
    synth_corpus,
    with_test_sets,
    write_manifest,
)
from .errors import ConfigError, require_count, require_positive
from .evalharness import (
    MetricsReport,
    ProbeConfig,
    build_report,
    config_hash,
    domain_probe,
    write_report_csv,
    write_report_json,
)
from .models import DannModel, ModelConfig
from .trainer import (
    CONTINUAL_STAGES,
    DAT_STAGES,
    DEFAULT_LAMBDA_GRID,
    OBJECTIVES,
    REPORTED_LAMBDAS,
    STAGE_FIELDS,
    STAGES,
    LogRow,
    StageResult,
    TrainConfig,
    adversarial_settings,
    pretrain,
    pretrain_settings,
    run_stage,
)

RUN_MARKER = "RUN-INCOMPLETE"
# every name run_experiment can write into its output dir, whatever the manifest's stages,
# and the probe.json that run_probe writes there from its checkpoints
RUN_FILES = ("report.csv", "report.json", "manifest.json", "training_log.csv",
             "corpus_manifest.jsonl", RUN_MARKER, "probe.json",
             *(f"{stage}.ckpt" for stage in STAGES),
             *(f"{stage}_continual.ckpt" for stage in CONTINUAL_STAGES))


def _check_keys(obj, allowed: set[str], where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown manifest key(s) in {where}: {sorted(unknown)}")


@dataclass
class CorpusSpec:
    classes: int = 4
    n_per_class: int = 100
    test_n_per_class: int = 25
    continual_n_per_class: int = 50
    seed: int = 1
    noise_wav_dir: str | None = None

    def __post_init__(self):
        for name, least in (("classes", 2), ("n_per_class", 1), ("test_n_per_class", 1),
                            ("continual_n_per_class", 1), ("seed", 0)):
            require_count(f"corpus {name}", getattr(self, name), least)
        if self.noise_wav_dir is not None and (not isinstance(self.noise_wav_dir, str)
                                               or not self.noise_wav_dir):
            raise ConfigError(f"corpus noise_wav_dir must be a path string or null, "
                              f"got {self.noise_wav_dir!r}")
        if self.classes * self.n_per_class < MIN_SPLIT_CLIPS:
            raise ConfigError(f"corpus has {self.classes * self.n_per_class} training clips "
                              f"(classes x n_per_class), fewer than {MIN_SPLIT_CLIPS}")

    @functools.cached_property
    def noise_bank(self) -> WavNoiseBank | None:
        """The WAV noise bank, read on first use, or None for the procedural one."""
        return None if self.noise_wav_dir is None else WavNoiseBank(self.noise_wav_dir)

    @classmethod
    def from_dict(cls, obj: dict, seed: int) -> "CorpusSpec":
        _check_keys(obj, set(cls.__dataclass_fields__) - {"seed"}, "corpus")
        return cls(**obj, seed=seed)


# a stage entry's keys, each mapped to its TrainConfig field: the fields the stage reads
# besides the seed, with grl_lambda named "lambda"
STAGE_KEYS = {stage: {("lambda" if f == "grl_lambda" else f): f for f in names}
              for stage, names in STAGE_FIELDS.items()}


@dataclass
class StageSpec:
    stage: str
    config: TrainConfig

    @classmethod
    def from_dict(cls, obj: dict, seed: int) -> "StageSpec":
        if not isinstance(obj, dict) or "stage" not in obj:
            raise ConfigError(f"each stage entry must be a JSON object with a 'stage' key, "
                              f"got {obj!r}")
        stage = obj["stage"]
        if stage not in STAGES:
            raise ConfigError(f"unknown stage {stage!r}; expected one of {STAGES}")
        keys = STAGE_KEYS[stage]
        unread = sorted(set(obj) - {"stage", *keys})
        if unread:
            raise ConfigError(f"stage {stage!r} does not read {unread}; its entry takes "
                              f"only 'stage' and {list(keys)}")
        kw = {keys[k]: v for k, v in obj.items() if k != "stage"}
        return cls(stage, TrainConfig(seed=seed, **kw))

    def to_dict(self) -> dict:
        """The entry as ``from_dict`` reads it: the stage and every setting the stage reads."""
        return {"stage": self.stage,
                **{k: getattr(self.config, f) for k, f in STAGE_KEYS[self.stage].items()}}


@dataclass
class SweepSpec:
    lambdas: list[float] = field(default_factory=lambda: list(DEFAULT_LAMBDA_GRID))
    stage: str = "dat_only"
    objective: str = "ce"

    def __post_init__(self):
        if self.stage not in DAT_STAGES:
            raise ConfigError(f"sweep stage {self.stage!r} reads no lambda; expected one of "
                              f"{DAT_STAGES}")
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"unknown sweep objective {self.objective!r}")
        if not isinstance(self.lambdas, list) or not self.lambdas:
            raise ConfigError(f"sweep lambdas must be a non-empty list, got {self.lambdas!r}")
        for lam in self.lambdas:
            require_positive("sweep lambda", lam)
        repeated = sorted({lam for lam in self.lambdas if self.lambdas.count(lam) > 1})
        if repeated:
            raise ConfigError(f"sweep lambda(s) {repeated} are listed more than once")

    @classmethod
    def from_dict(cls, obj: dict) -> "SweepSpec":
        _check_keys(obj, {f for f in cls.__dataclass_fields__}, "sweep")
        return cls(**obj)


@dataclass
class ExperimentManifest:
    corpus: CorpusSpec
    stages: list[StageSpec]
    splits_seed: int = 7
    seed: int = 1
    sweep: SweepSpec | None = None
    output_dir: str = "datforge-out"

    def __post_init__(self):
        require_count("seed", self.seed, 0)
        require_count("splits_seed", self.splits_seed, 0)
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a path string, got {self.output_dir!r}")
        if not self.stages:
            raise ConfigError("manifest lists no stages")
        names = [s.stage for s in self.stages]
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ConfigError(f"stage(s) {repeated} have more than one entry")
        if self.sweep is not None and all(s.stage != self.sweep.stage for s in self.stages):
            raise ConfigError(f"sweep stage {self.sweep.stage!r} has no entry in the "
                              f"manifest's stages")
        # to_dict writes only the manifest seed, so any other corpus or stage seed would be lost
        seeds = {"corpus": self.corpus.seed, **{s.stage: s.config.seed for s in self.stages}}
        apart = {name: seed for name, seed in seeds.items() if seed != self.seed}
        if apart:
            raise ConfigError(f"seeds {apart} differ from the manifest seed {self.seed}")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentManifest":
        _check_keys(obj, {"corpus", "stages", "splits_seed", "seed", "sweep", "output_dir"},
                    "manifest")
        if "corpus" not in obj or "stages" not in obj:
            raise ConfigError("manifest requires 'corpus' and 'stages'")
        if not isinstance(obj["stages"], list):
            raise ConfigError(f"stages must be a JSON list, got {obj['stages']!r}")
        seed = obj.get("seed", cls.seed)
        require_count("seed", seed, 0)  # before the corpus and stages are built from it
        return cls(
            corpus=CorpusSpec.from_dict(obj["corpus"], seed),
            stages=[StageSpec.from_dict(s, seed) for s in obj["stages"]],
            sweep=SweepSpec.from_dict(obj["sweep"]) if obj.get("sweep") is not None else None,
            seed=seed,
            **{k: obj[k] for k in ("splits_seed", "output_dir") if k in obj},
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentManifest":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"manifest file not found: {path}")
        try:
            obj = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"manifest {path} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"manifest {path} must hold a JSON object")
        return cls.from_dict(obj)

    def to_dict(self) -> dict:
        """The manifest as ``from_dict`` reads it, so ``from_dict(m.to_dict()) == m``."""
        obj = {
            "corpus": {k: v for k, v in asdict(self.corpus).items() if k != "seed"},
            "splits_seed": self.splits_seed,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "stages": [s.to_dict() for s in self.stages],
        }
        if self.sweep is not None:
            obj["sweep"] = asdict(self.sweep)
        return obj

    def with_seed(self, seed: int) -> "ExperimentManifest":
        """The manifest with ``seed`` as its ``seed`` key, which is what ``--seed`` sets."""
        return self.from_dict({**self.to_dict(), "seed": seed})


STANDARD_MANIFEST = Path(__file__).resolve().parents[2] / "manifests" / "standard.json"


def standard_manifest(seed: int) -> ExperimentManifest:
    """The standard synthetic experiment, ``manifests/standard.json``, at ``seed``.

    This is the configuration behind the trend and probe acceptance criteria,
    and ``datforge run --manifest manifests/standard.json --seed N`` runs it too.
    """
    return ExperimentManifest.from_file(STANDARD_MANIFEST).with_seed(seed)


@dataclass
class ExperimentData:
    splits: CorpusSplit
    continual_set: list
    classes: int  # the corpus's; the label head gets one output per class


def build_training_data(corpus: CorpusSpec, splits_seed: int,
                        with_continual: bool) -> ExperimentData:
    """S, T and the continual set: what training reads, distorted with ``corpus.noise_bank``.
    The splits' test sets are empty; ``add_test_sets`` builds them."""
    # the training corpus is passed unnamed, so that T's clean sources, which the split
    # replaces with distorted copies, are freed before the continual set is built
    splits = build_splits(synth_corpus(corpus.n_per_class, corpus.classes, corpus.seed),
                          splits_seed, noise_bank=corpus.noise_bank)
    continual = []
    if with_continual:
        cont_corpus = synth_corpus(corpus.continual_n_per_class, corpus.classes,
                                   derive_seed(corpus.seed, 202), id_prefix="cont")
        continual = build_continual_set([c.waveform for c in cont_corpus],
                                        derive_seed(splits_seed, 7), corpus.noise_bank)
    return ExperimentData(splits, continual, corpus.classes)


def add_test_sets(splits: CorpusSplit, corpus: CorpusSpec, splits_seed: int) -> CorpusSplit:
    """``splits`` with the clean, seen-distortion and unseen-distortion test sets, the
    distorted ones drawn from ``corpus.noise_bank``."""
    test = synth_corpus(corpus.test_n_per_class, corpus.classes,
                        derive_seed(corpus.seed, 101), id_prefix="test")
    return with_test_sets(splits, test, splits_seed, corpus.noise_bank)


def build_experiment_data(corpus: CorpusSpec, splits_seed: int,
                          with_continual: bool = True) -> ExperimentData:
    """Every split of the corpus: ``build_training_data``, then ``add_test_sets``."""
    data = build_training_data(corpus, splits_seed, with_continual)
    data.splits = add_test_sets(data.splits, corpus, splits_seed)
    return data


def _keep_features(data: ExperimentData):
    """Featurize every clip of ``data`` and free its samples one clip at a time, so the
    features reuse the memory the samples left; a function, so no loop variable outlives it."""
    sp = data.splits
    for clip in (*sp.S, *sp.T, *sp.test_clean, *sp.test_seen, *sp.test_unseen, *data.continual_set):
        clip.waveform.release()
        if clip.clean is not None:
            clip.clean.release()


# ---------------------------------------------------------------------------
# parallel map
# ---------------------------------------------------------------------------

def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


_worker_job = None  # (fn, items), set once in each pool worker by _start_worker


def _start_worker(fn, items):
    global _worker_job
    _worker_job = (fn, items)


def _run_item(i: int):
    fn, items = _worker_job
    return fn(items[i])


def parallel_map(fn, items, jobs: int) -> list:
    """``[fn(x) for x in items]`` in up to ``jobs`` forked workers, one BLAS thread each.

    The workers are ``min(jobs, len(items), usable_cpus())``.  ``fn`` and
    ``items`` reach them through fork, so neither needs to pickle; only the
    results do.  Results come back in item order.  The exception of the first
    failing item (in item order, as a serial loop would meet it) is re-raised
    with its type and message, after cancelling the items not yet started.

    Workers inherit the one BLAS thread and the allocator policy that
    importing ``datforge`` set (``datforge.runtime``).  The map runs in this
    process when it has one worker, when the platform has no ``fork``, when
    no OpenBLAS thread setter was found (so workers could not be kept from
    oversubscribing the CPUs), or when other Python threads are running
    (forking them is unsafe).
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    workers = min(jobs, len(items), usable_cpus())
    if (workers < 2 or not runtime.ONE_THREAD
            or "fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1):
        return [fn(x) for x in items]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=(fn, items)) as pool:
        futures = [pool.submit(_run_item, i) for i in range(len(items))]
        try:
            return [f.result() for f in futures]
        except BaseException:
            for f in futures:
                f.cancel()
            raise


def _model_cfg(cfg: TrainConfig, data: ExperimentData) -> ModelConfig:
    """The model of a stage: one label output per corpus class, the objective's domain setting."""
    return ModelConfig(n_classes=data.classes, domain_setting=cfg.domain_setting)


def stage_groups(stages: list[StageSpec]) -> list[list[StageSpec]]:
    """The stages, one group per distinct continual pretraining, in order of first stage.

    Continual stages that agree on every ``PRETRAIN_FIELDS`` setting share a
    group; any other stage is a group of its own.
    """
    groups: dict[object, list[StageSpec]] = {}
    for spec in stages:
        key = pretrain_settings(spec.config) if spec.stage in CONTINUAL_STAGES else spec.stage
        groups.setdefault(key, []).append(spec)
    return list(groups.values())


def _train_group(group: list[StageSpec], data: ExperimentData) -> list[StageResult]:
    """Pretrain once if the group's stages are continual, then train each from its own copy."""
    first = group[0]
    pretrained = None
    if first.stage in CONTINUAL_STAGES:
        pretrained = pretrain(first.config, data.continual_set,
                              _model_cfg(first.config, data), first.stage)
    return [run_stage(s.stage, data.splits, s.config, _model_cfg(s.config, data), pretrained)
            for s in group]


def run_stages(manifest: ExperimentManifest, data: ExperimentData) -> list[StageResult]:
    """Train every stage of the manifest; results come in manifest order, whatever the workers.

    Each ``stage_groups`` group is one item of ``parallel_map``, with one
    worker per usable CPU.  A wrapper put around ``run_stage`` (a tracer's or
    profiler's) keeps its record in this process, and a forked worker would
    add to a copy that is lost, so wrapped stages train here.
    """
    jobs = 1 if hasattr(run_stage, "__wrapped__") else usable_cpus()
    trained = parallel_map(lambda group: _train_group(group, data),
                           stage_groups(manifest.stages), jobs)
    by_stage = {res.stage: res for results in trained for res in results}
    return [by_stage[spec.stage] for spec in manifest.stages]


def write_training_log(path, rows: list[LogRow]):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["stage", "epoch", "step", "L_y", "L_d", "lambda", "objective", "seed"])
        for r in rows:
            writer.writerow([
                r.stage, r.epoch, r.step, f"{r.loss_y:.10g}",
                "" if r.loss_d is None else f"{r.loss_d:.10g}",
                "" if r.grl_lambda is None else f"{r.grl_lambda:g}",
                r.objective or "", r.seed,
            ])


def run_experiment(manifest: ExperimentManifest, out_dir: Path) -> MetricsReport:
    """Full pipeline: corpus -> stages -> checkpoints and report files under ``out_dir``.

    The training clips keep their features and free their samples before the stage
    workers fork.  The test sets are built after training, so the workers do not
    inherit them, and after the continual set, which only pretraining reads, is freed.
    """
    needs_continual = any(s.stage in CONTINUAL_STAGES for s in manifest.stages)
    data = build_training_data(manifest.corpus, manifest.splits_seed, needs_continual)
    _keep_features(data)  # its test sets are still empty

    out_dir = Path(out_dir)
    marker = out_dir / RUN_MARKER
    if marker.exists():  # previous interrupted run: remove only what it may have written
        for name in RUN_FILES:
            (out_dir / name).unlink(missing_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    marker.write_text("running\n")
    # a probe of the checkpoints this run replaces no longer describes the dir
    (out_dir / "probe.json").unlink(missing_ok=True)

    results = run_stages(manifest, data)
    log_rows = [row for res in results for row in res.log]
    write_training_log(out_dir / "training_log.csv", log_rows)
    for res in results:
        res.model.save(out_dir / f"{res.stage}.ckpt")
        if res.start is not None:
            res.start.save(out_dir / f"{res.stage}_continual.ckpt")

    splits = data.splits
    del data  # the run's last reference to the continual set, freed before the test sets
    splits = add_test_sets(splits, manifest.corpus, manifest.splits_seed)
    write_manifest(out_dir / "corpus_manifest.jsonl", manifest_entries(splits))

    payload = manifest.to_dict()
    # where a run is written is not part of what it computes
    meta = {"seed": manifest.seed, "splits_seed": manifest.splits_seed,
            "config_hash": config_hash({k: v for k, v in payload.items() if k != "output_dir"})}
    report = build_report(results, splits, meta)
    write_report_csv(out_dir / "report.csv", report)
    write_report_json(out_dir / "report.json", report)
    (out_dir / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    marker.unlink()
    return report


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_cell(args):
    data, cfg, lam, stage, pretrained = args
    cfg = replace(cfg, grl_lambda=lam)
    result = run_stage(stage, data.splits, cfg, _model_cfg(cfg, data), pretrained)
    report = build_report([result], data.splits)
    row = report.rows[0]
    return lam, (row.clean_acc, row.seen_acc, row.unseen_acc)


def run_sweep(manifest: ExperimentManifest, out_dir: Path, jobs: int = 1) -> list[dict]:
    """Train the sweep's stage once per lambda, from the manifest's entry for that stage.

    Cells run through ``parallel_map``; ``_sweep_cell`` is looked up when the
    sweep starts, so a wrapper installed around it runs in the workers.  A
    continual stage pretrains once, before the map, since lambda is not one
    of ``PRETRAIN_FIELDS``; every cell trains from a copy of that extractor.  Every
    clip keeps its features and frees its samples first, so no cell featurizes.
    """
    if manifest.sweep is None:
        raise ConfigError("manifest has no 'sweep' section")
    sweep = manifest.sweep
    entry = next(s for s in manifest.stages if s.stage == sweep.stage)
    lams = sorted(sweep.lambdas, reverse=True)
    cfg = replace(entry.config, objective=sweep.objective)
    needs_continual = sweep.stage in CONTINUAL_STAGES
    data = build_experiment_data(manifest.corpus, manifest.splits_seed, needs_continual)
    _keep_features(data)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pretrained = None
    if needs_continual:
        pretrained = pretrain(cfg, data.continual_set, _model_cfg(cfg, data), sweep.stage)
    cells = [(data, cfg, lam, sweep.stage, pretrained) for lam in lams]
    rows = []
    for lam, (clean, seen, unseen) in parallel_map(_sweep_cell, cells, jobs):
        rows.append({"lambda": lam, "reported": lam in REPORTED_LAMBDAS,
                     "clean_acc": clean, "seen_acc": seen, "unseen_acc": unseen})
    _write_sweep_csv(out_dir / "sweep_report.csv", rows)
    return rows


def _write_sweep_csv(path, rows: list[dict]):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["lambda", "reported", "clean_acc", "seen_acc", "unseen_acc"])
        for r in rows:
            writer.writerow([f"{r['lambda']:g}", str(r["reported"]).lower(),
                             f"{r['clean_acc']:.6f}", f"{r['seen_acc']:.6f}",
                             f"{r['unseen_acc']:.6f}"])


def require_finished_run(manifest: ExperimentManifest, out_dir: Path):
    """Raise ``ConfigError`` unless ``out_dir`` holds a finished run of ``manifest``: no
    ``RUN-INCOMPLETE`` marker, its ``manifest.json`` and every ``<stage>.ckpt``."""
    try:
        recorded = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError):  # absent or corrupt: not a finished run
        recorded = None
    if (out_dir / RUN_MARKER).exists() or recorded != manifest.to_dict():
        raise ConfigError(f"{out_dir} holds no finished run of this manifest; run it first")
    for spec in manifest.stages:
        path = out_dir / f"{spec.stage}.ckpt"
        if not path.is_file():
            raise ConfigError(f"checkpoint {path} of the finished run is missing")


def run_probe(manifest: ExperimentManifest, out_dir: Path) -> list[dict]:
    """Probe each stage's checkpoint in the finished run of ``manifest`` in ``out_dir``."""
    out_dir = Path(out_dir)
    require_finished_run(manifest, out_dir)
    data = build_training_data(manifest.corpus, manifest.splits_seed, with_continual=False)
    probe_cfg = ProbeConfig(seed=manifest.seed)
    rows = []
    for spec in manifest.stages:
        model = DannModel(_model_cfg(spec.config, data), 0)
        model.load(out_dir / f"{spec.stage}.ckpt")
        probe = domain_probe(model, data.splits, probe_cfg)
        objective, lam = adversarial_settings(spec.stage, spec.config)
        rows.append({"stage": spec.stage, "objective": objective, "lambda": lam,
                     "probe_acc": probe.probe_acc, "chance_level": probe.chance_level,
                     "converged": probe.converged, "seed": probe_cfg.seed})
    (out_dir / "probe.json").write_text(json.dumps(rows, indent=2) + "\n")
    return rows
