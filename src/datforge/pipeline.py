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
    ToneCorpus,
    WavNoiseBank,
    build_continual_set,
    build_splits,
    derive_seed,
    keep_features,
    manifest_entries,
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
            obj = json.loads(path.read_bytes())
        except ValueError as exc:  # bytes that are not UTF-8 included
            raise ConfigError(f"manifest {path} is not valid JSON: {exc}") from exc
        try:
            return cls.from_dict(obj)
        except ConfigError as exc:
            raise ConfigError(f"manifest {path}: {exc}") from exc

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


def build_training_data(corpus: CorpusSpec, splits_seed: int,
                        with_continual: bool) -> ExperimentData:
    """S, T and the continual set: what training reads, distorted with ``corpus.noise_bank``,
    each clip making its samples at first read.  The splits' test sets are empty;
    ``with_test_sets`` makes them of the test corpus the splits record."""
    tests = ToneCorpus(corpus.test_n_per_class, corpus.classes, derive_seed(corpus.seed, 101),
                       "test")
    splits = build_splits(ToneCorpus(corpus.n_per_class, corpus.classes, corpus.seed), tests,
                          splits_seed, corpus.noise_bank)
    sources = ToneCorpus(corpus.continual_n_per_class, corpus.classes,
                         derive_seed(corpus.seed, 202), "cont")
    continual = build_continual_set(sources, derive_seed(splits_seed, 7),
                                    corpus.noise_bank) if with_continual else []
    return ExperimentData(splits, continual)


def build_experiment_data(corpus: CorpusSpec, splits_seed: int,
                          with_continual: bool = True) -> ExperimentData:
    """``build_training_data`` with the splits' test sets, every clip making its samples at
    first read and keeping them after; only the tests and perfbench call it."""
    data = build_training_data(corpus, splits_seed, with_continual)
    data.splits = with_test_sets(data.splits, corpus.noise_bank)
    return data


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


def _model_cfg(cfg: TrainConfig, classes: int) -> ModelConfig:
    """The model of a stage: one label output per corpus class, the objective's domain setting."""
    return ModelConfig(n_classes=classes, domain_setting=cfg.domain_setting)


def stage_groups(stages: list[StageSpec]) -> list[list[StageSpec]]:
    """The stages, one group per distinct continual pretraining, in order of first stage.

    Continual stages that agree on every ``PRETRAIN_FIELDS`` setting share a
    group; any other stage, each sweep cell too, is a group of its own.
    """
    groups: dict[object, list[StageSpec]] = {}
    for i, spec in enumerate(stages):
        key = pretrain_settings(spec.config) if spec.stage in CONTINUAL_STAGES else i
        groups.setdefault(key, []).append(spec)
    return list(groups.values())


def _sweep_cell(args) -> list[StageResult]:
    """Train one ``train_stages`` item: a group of stages, pretrained here first if they are
    continual and come with no ``Pretrained``.  perfbench's tracer wraps this function by
    name to hand worker spans back, so it keeps the name it had when only sweeps used it."""
    group, data, classes, pretrained = args
    first = group[0]
    if pretrained is None and first.stage in CONTINUAL_STAGES:
        pretrained = pretrain(first.config, data.continual_set,
                              _model_cfg(first.config, classes), first.stage)
    return [run_stage(s.stage, data.splits, s.config, _model_cfg(s.config, classes), pretrained)
            for s in group]


def train_stages(manifest: ExperimentManifest, specs: list[StageSpec],
                 jobs: int) -> tuple[list[StageResult], CorpusSplit]:
    """Train ``specs`` on the manifest's corpus in up to ``jobs`` workers; return their results
    in the order of ``specs``, and the splits with their test sets.

    Every clip keeps only its features (``keep_features``): the training clips' are made
    before the workers fork, the test sets' after training, once the continual set, which
    only pretraining reads, is freed.  So no worker inherits a sample or a test clip.  Each
    ``stage_groups`` group is one ``parallel_map`` item that pretrains in its worker while
    the other groups train.  When all of ``specs`` make one continual group, nothing could
    train beside its pretraining: this process pretrains once, lets go of the continual
    set, and each spec becomes an item of its own.
    """
    corpus = manifest.corpus
    data = build_training_data(corpus, manifest.splits_seed,
                               any(s.stage in CONTINUAL_STAGES for s in specs))
    keep_features([*data.splits.S, *data.splits.T, *data.continual_set])
    groups, pretrained = stage_groups(specs), None
    if len(groups) == 1 and specs[0].stage in CONTINUAL_STAGES:
        first = specs[0]
        pretrained = pretrain(first.config, data.continual_set,
                              _model_cfg(first.config, corpus.classes), first.stage)
        data.continual_set = []
        runtime.trim_heap()  # so the workers fork from the heap without what it freed
        groups = [[s] for s in specs]
    trained = parallel_map(_sweep_cell, [(g, data, corpus.classes, pretrained) for g in groups],
                           jobs)
    splits = data.splits
    del data  # the last reference to the continual set, freed before the test sets
    splits = with_test_sets(splits, corpus.noise_bank)
    keep_features(c for trio in zip(splits.test_seen, splits.test_unseen, splits.test_clean)
                  for c in trio)  # each source's distorted clips before its own
    by_spec = {id(s): res for g, results in zip(groups, trained) for s, res in zip(g, results)}
    return [by_spec[id(s)] for s in specs], splits


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

    The stages train in one worker per usable CPU (``train_stages``).  A wrapper put
    around ``run_stage`` (a tracer's or profiler's) keeps its record in this process, and
    a forked worker would add to a copy that is lost, so wrapped stages train here.
    """
    out_dir = Path(out_dir)
    marker = out_dir / RUN_MARKER
    if marker.exists():  # previous interrupted run: remove only what it may have written
        for name in RUN_FILES:
            (out_dir / name).unlink(missing_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    marker.write_text("running\n")
    # a probe of the checkpoints this run replaces no longer describes the dir
    (out_dir / "probe.json").unlink(missing_ok=True)

    jobs = 1 if hasattr(run_stage, "__wrapped__") else usable_cpus()
    results, splits = train_stages(manifest, manifest.stages, jobs)
    write_training_log(out_dir / "training_log.csv", [row for res in results for row in res.log])
    for res in results:
        res.model.save(out_dir / f"{res.stage}.ckpt")
        if res.start is not None:
            res.start.save(out_dir / f"{res.stage}_continual.ckpt")
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

def sweep_plan(manifest: ExperimentManifest) -> tuple[SweepSpec, list[float]]:
    """The manifest's sweep and its lambdas in the order the cells run, largest first."""
    if manifest.sweep is None:
        raise ConfigError("manifest has no 'sweep' section")
    return manifest.sweep, sorted(manifest.sweep.lambdas, reverse=True)


def run_sweep(manifest: ExperimentManifest, out_dir: Path, jobs: int = 1) -> list[dict]:
    """Train the sweep's stage once per lambda, from the manifest's entry for that stage,
    through ``train_stages``, then evaluate the cells here.  ``_sweep_cell`` is looked up
    when the map starts, so a wrapper installed around it runs in the workers."""
    sweep, lams = sweep_plan(manifest)
    entry = next(s for s in manifest.stages if s.stage == sweep.stage)
    cfg = replace(entry.config, objective=sweep.objective)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    results, splits = train_stages(
        manifest, [StageSpec(sweep.stage, replace(cfg, grl_lambda=lam)) for lam in lams], jobs)
    rows = [{"lambda": r.grl_lambda, "reported": r.grl_lambda in REPORTED_LAMBDAS,
             "clean_acc": r.clean_acc, "seen_acc": r.seen_acc, "unseen_acc": r.unseen_acc}
            for r in build_report(results, splits).rows]
    _write_sweep_csv(Path(out_dir) / "sweep_report.csv", rows)
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
    keep_features([*data.splits.S, *data.splits.T])
    probe_cfg = ProbeConfig(seed=manifest.seed)
    rows = []
    for spec in manifest.stages:
        model = DannModel(_model_cfg(spec.config, manifest.corpus.classes), 0)
        model.load(out_dir / f"{spec.stage}.ckpt")
        probe = domain_probe(model, data.splits, probe_cfg)
        objective, lam = adversarial_settings(spec.stage, spec.config)
        rows.append({"stage": spec.stage, "objective": objective, "lambda": lam,
                     "probe_acc": probe.probe_acc, "chance_level": probe.chance_level,
                     "converged": probe.converged, "seed": probe_cfg.seed})
    (out_dir / "probe.json").write_text(json.dumps(rows, indent=2) + "\n")
    return rows
