"""The benchmark's workloads: one closed-loop unit of work each, plus its output checks.

Every workload runs the standard experiment's manifest
(``pipeline.standard_manifest``) with the corpus scaled down by
``CORPUS_SCALE``, so that several units fit in one timed run; stage epochs,
lambdas, batch size and seeds are the standard ones.  A unit writes only
inside the fresh directory the caller created for it.

Library calls go through module attributes (``evalharness.domain_probe``,
not a name imported here), so that the traced run sees them.  A unit
returns a ``UnitResult``: the sub-units it attempted (a stage or probe, a
clip, a sweep cell), the ones that failed an output check, and the numbers
the benchmark reports besides time.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from datforge import distort, evalharness, models, pipeline
from datforge.trainer import CONTINUAL_STAGES, TrainConfig

CORPUS_SCALE = 4
CORPUS_SEEDS_PER_UNIT = 3
FEATURE_SHAPE = (98, distort.N_BANDS)
SWEEP_LAMBDAS = (1e-2, 1e-3)  # the reported pair
SWEEP_JOBS = 2


@dataclass
class UnitResult:
    attempted: int
    problems: dict[str, list[str]] = field(default_factory=dict)  # failed sub-unit -> why
    values: dict[str, float] = field(default_factory=dict)         # accuracy-type numbers
    digests: dict[str, str] = field(default_factory=dict)          # sha256 of result files

    @property
    def failed(self) -> int:
        return len(self.problems)

    def fail(self, sub_unit: str, why: str):
        self.problems.setdefault(sub_unit, []).append(why)


def bench_manifest(seed: int, scale: int = CORPUS_SCALE) -> pipeline.ExperimentManifest:
    """``standard_manifest(seed)`` with every corpus size divided by ``scale``."""
    m = pipeline.standard_manifest(seed)
    c = m.corpus
    m.corpus = dataclasses.replace(
        c,
        n_per_class=c.n_per_class // scale,
        test_n_per_class=c.test_n_per_class // scale,
        continual_n_per_class=c.continual_n_per_class // scale,
    )
    return m


def unit_seed(seed: int, k: int) -> int:
    """Seed of the k-th unit of a run: no two units of a run share inputs."""
    return seed + 1000 * k


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _acc_ok(x: float) -> bool:
    return math.isfinite(x) and 0.0 <= x <= 1.0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def experiment_unit(manifest: pipeline.ExperimentManifest, workdir: Path) -> UnitResult:
    """``run_experiment``, then ``domain_probe`` on every stage, from the checkpoints it wrote.

    The probe's splits come from ``build_experiment_data(..., with_continual=False)``,
    as a user probing a finished run gets them.
    """
    out = Path(workdir) / "run"
    report = pipeline.run_experiment(manifest, out)
    data = pipeline.build_experiment_data(manifest.corpus, manifest.splits_seed,
                                          with_continual=False)
    probes = {}
    for spec in manifest.stages:
        model = models.DannModel(models.ModelConfig(domain_setting=spec.config.domain_setting), 0)
        model.load(out / f"{spec.stage}.ckpt")
        probes[spec.stage] = evalharness.domain_probe(
            model, data.splits, evalharness.ProbeConfig(seed=manifest.seed))

    res = UnitResult(attempted=experiment_planned(manifest))
    check_experiment(res, manifest, out, probes)
    res.digests["report.csv"] = _sha256(out / "report.csv")
    res.values["mean_acc"] = float(np.mean(
        [a for r in report.rows for a in (r.clean_acc, r.seen_acc, r.unseen_acc)]))
    res.values["dat_unseen_acc"] = next(r.unseen_acc for r in report.rows if r.stage == "dat_only")
    res.values["probe_gap"] = probes["baseline"].probe_acc - probes["dat_only"].probe_acc
    return res


def experiment_planned(manifest) -> int:
    return 2 * len(manifest.stages)  # each stage and its probe


def check_experiment(res: UnitResult, manifest, out: Path, probes: dict):
    stages = [s.stage for s in manifest.stages]
    with open(out / "report.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    if [r["stage"] for r in rows] != stages:
        for s in stages:
            res.fail(f"stage {s}", f"report.csv stages {[r['stage'] for r in rows]} != {stages}")
    for r in rows:
        for col in ("clean_acc", "seen_acc", "unseen_acc"):
            if not _acc_ok(float(r[col])):
                res.fail(f"stage {r['stage']}", f"{col}={r[col]}")
    with open(out / "training_log.csv", newline="") as f:
        for r in csv.DictReader(f):
            for col in ("L_y", "L_d"):
                if r[col] and not math.isfinite(float(r[col])):
                    res.fail(f"stage {r['stage']}", f"{col}={r[col]} at epoch {r['epoch']}")
    for s in stages:
        for name in [f"{s}.ckpt"] + ([f"{s}_continual.ckpt"] if s in CONTINUAL_STAGES else []):
            try:
                entries = models.load_checkpoint(out / name)
            except (OSError, ValueError) as exc:  # FormatError is a ValueError
                res.fail(f"stage {s}", f"{name} does not reload: {exc}")
                continue
            if not all(np.all(np.isfinite(v)) for _n, _g, v in entries):
                res.fail(f"stage {s}", f"{name} holds non-finite values")
    for s, p in probes.items():
        if not _acc_ok(p.probe_acc):
            res.fail(f"probe {s}", f"probe_acc={p.probe_acc}")


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def corpus_unit(manifest: pipeline.ExperimentManifest, workdir: Path) -> UnitResult:
    """Build the corpus with its continual set for three derived corpus seeds; featurize every clip once.

    The clips are S, T, the three test sets, and the continual inputs and
    their clean targets.
    """
    res = UnitResult(attempted=0)
    for j in range(CORPUS_SEEDS_PER_UNIT):
        spec = dataclasses.replace(manifest.corpus, seed=distort.derive_seed(manifest.seed, j))
        data = pipeline.build_experiment_data(spec, manifest.splits_seed, with_continual=True)
        sp = data.splits
        waves = [c.waveform for part in (sp.S, sp.T, sp.test_clean, sp.test_seen, sp.test_unseen)
                 for c in part]
        waves += [c.waveform for c in data.continual_set] + [c.clean for c in data.continual_set]
        for i, w in enumerate(waves):
            x = distort.featurize(w)
            if x.shape != FEATURE_SHAPE or not np.all(np.isfinite(x)):
                res.fail(f"corpus {j} clip {i}",
                         f"features {x.shape}, finite={bool(np.all(np.isfinite(x)))}")
        res.attempted += len(waves)
    return res


def corpus_planned(manifest) -> int:
    c = manifest.corpus
    train = c.n_per_class * c.classes
    per_seed = 2 * (train // 2) + 3 * c.test_n_per_class * c.classes \
        + 2 * c.continual_n_per_class * c.classes
    return CORPUS_SEEDS_PER_UNIT * per_seed


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_manifest(manifest: pipeline.ExperimentManifest) -> pipeline.ExperimentManifest:
    """The manifest with the reported lambda pair swept over the ``dat_only`` stage.

    ``run_sweep`` trains each cell from ``TrainConfig(seed, objective)``.  The
    standard ``dat_only`` entry must equal that, so that making the sweep
    honour the stage's settings leaves this workload's work unchanged.
    """
    m = dataclasses.replace(manifest, sweep=pipeline.SweepSpec(lambdas=list(SWEEP_LAMBDAS),
                                                               stage="dat_only"))
    dat = next(s.config for s in m.stages if s.stage == "dat_only")
    applied = TrainConfig(seed=m.seed, objective=m.sweep.objective)
    if dataclasses.replace(dat, grl_lambda=applied.grl_lambda) != applied:
        raise ValueError(f"dat_only stage {dat} differs from what run_sweep applies: {applied}")
    return m


def sweep_unit(manifest: pipeline.ExperimentManifest, workdir: Path) -> UnitResult:
    """``run_sweep`` over the reported lambda pair in two worker processes."""
    out = Path(workdir) / "sweep"
    rows = pipeline.run_sweep(sweep_manifest(manifest), out, jobs=SWEEP_JOBS)
    res = UnitResult(attempted=len(SWEEP_LAMBDAS))
    with open(out / "sweep_report.csv", newline="") as f:
        lams = sorted(float(r["lambda"]) for r in csv.DictReader(f))
    if lams != sorted(SWEEP_LAMBDAS):
        for lam in SWEEP_LAMBDAS:
            res.fail(f"cell {lam:g}", f"sweep_report.csv lambdas {lams} != {sorted(SWEEP_LAMBDAS)}")
    for r in rows:
        for col in ("clean_acc", "seen_acc", "unseen_acc"):
            if not _acc_ok(r[col]):
                res.fail(f"cell {r['lambda']:g}", f"{col}={r[col]}")
    res.digests["sweep_report.csv"] = _sha256(out / "sweep_report.csv")
    res.values["mean_acc"] = float(np.mean(
        [r[c] for r in rows for c in ("clean_acc", "seen_acc", "unseen_acc")]))
    res.values["dat_unseen_acc"] = next(r["unseen_acc"] for r in rows if r["lambda"] == 1e-2)
    return res


# name -> (unit, number of sub-units a unit plans; all count as failed if it raises)
WORKLOADS = {
    "experiment": (experiment_unit, experiment_planned),
    "corpus": (corpus_unit, corpus_planned),
    "sweep": (sweep_unit, lambda manifest: len(SWEEP_LAMBDAS)),
}
