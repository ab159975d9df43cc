"""Golden outputs: what datforge writes, pinned byte for byte in ``tests/golden.json``.

Three sections are recorded:

- ``standard``: conftest's ``standard_results`` (the criterion-5/6
  experiment, trained once per session; nothing more is trained here): each
  seed's ``report.csv``, ``training_log.csv``, the checkpoint of every model
  and every ``start`` model, and both domain probe accuracies as
  ``float.hex``.
- ``small``: every file a tiny five-stage ``run`` writes (``report.json``
  without its ``created_at``), the ``probe.json`` after it, and the
  ``sweep_report.csv`` of a ``dat_only`` and a ``continual_plus_dat`` sweep,
  each at jobs 1 and 2.  Its ``dat_only`` trains under ``entropy`` and its
  ``continual_plus_dat`` under ``bce``; the standard experiment trains ``ce``
  only.
- ``distort``: each WAV and the ``manifest.jsonl`` that ``datforge distort``
  writes under each of ``DISTORT_FLAGS``, from clips of four lengths and one
  file that is no WAV, with the output directory in the manifest replaced by
  ``<out>``.

Float64 bits depend on the numpy build and on the kernels a ``DYNAMIC_ARCH``
OpenBLAS picks for the CPU, so the file names the platform it was recorded
on; on any other platform the tests fail and name both.  A change meant to
be exact never re-records the file.  To re-record it on purpose, run

    PYTHONPATH=src python3 tests/test_golden.py

which prints the digests that moved.
"""

import ctypes
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from conftest import PROBED_STAGES, standard_experiment, sha256_of
from datforge import runtime
from datforge.cli import EXIT_OK, main
from datforge.distort import Waveform, synth_corpus, write_wav
from datforge.pipeline import ExperimentManifest, run_experiment, run_probe, run_sweep

GOLDEN = Path(__file__).with_name("golden.json")
RECORD_COMMAND = "PYTHONPATH=src python3 tests/test_golden.py"

# a learning rate high enough that two epochs move the accuracies, so that each sweep
# cell's row differs from the others' and a swap of two cells shows
SMALL_MANIFEST = {
    "seed": 1,
    "splits_seed": 7,
    "corpus": {"classes": 4, "n_per_class": 5, "test_n_per_class": 3,
               "continual_n_per_class": 4},
    "stages": [
        {"stage": "baseline", "epochs": 2, "batch_size": 4, "eta": 1e-2},
        {"stage": "oracle", "epochs": 2, "batch_size": 4, "eta": 1e-2},
        {"stage": "continual_only", "epochs": 2, "continual_epochs": 2, "batch_size": 4,
         "eta": 1e-2},
        {"stage": "dat_only", "epochs": 2, "batch_size": 4, "eta": 1e-2, "lambda": 0.1,
         "objective": "entropy"},
        {"stage": "continual_plus_dat", "epochs": 2, "continual_epochs": 2, "batch_size": 4,
         "eta": 1e-2, "lambda": 0.1, "objective": "bce"},
    ],
}
# each sweep runs under the objective its stage trains with in SMALL_MANIFEST
SWEEPS = {"dat_only": "entropy", "continual_plus_dat": "bce"}
SWEEP_LAMBDAS = [10.0, 1.0, 1e-3]
# the flag sets of `datforge distort` that the golden file pins, by the name of their section
DISTORT_FLAGS = {
    "mixed": ["--kind", "mixed"],
    "gaussian_snr5": ["--kind", "gaussian", "--snr", "5"],
    "reverb_t60_0.001": ["--kind", "reverb", "--t60", "0.001"],
    "additive_bank_seed4": ["--kind", "additive_bank", "--seed", "4"],
}
DISTORT_LENGTHS = (16000, 12000, 7000, 3000)  # samples of each input clip


def platform() -> dict:
    """What the float64 bits of a run depend on besides datforge: numpy, its BLAS, and the
    kernels OpenBLAS picked for this CPU (None where OpenBLAS has no ``get_corename``)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    corename = runtime.blas_function("get_corename", ctypes.c_char_p, [])
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version')}",
            "openblas_core": corename().decode() if corename is not None else None}


def standard_digests(per_seed: dict) -> dict:
    out = {}
    for seed, result in per_seed.items():
        out.update({f"{seed}/{name}": digest for name, digest in result["files"].items()})
        out.update({f"{seed}/probe_acc.{stage}": float(result["probes"][stage]).hex()
                    for stage in PROBED_STAGES})
    return out


def _report_json_digest(path: Path) -> str:
    """sha256 of ``report.json`` as ``write_report_json`` lays it out, without ``created_at``."""
    payload = json.loads(path.read_text())
    del payload["metadata"]["created_at"]
    canonical = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(canonical.encode()).hexdigest()


def small_digests(root: Path) -> dict:
    """Run, probe and sweep ``SMALL_MANIFEST`` under ``root``; the sha256 of what they wrote."""
    manifest = ExperimentManifest.from_dict(SMALL_MANIFEST)
    run_dir = root / "run"
    run_experiment(manifest, run_dir)
    run_probe(manifest, run_dir)
    out = {f"run/{p.name}": sha256_of(p) for p in sorted(run_dir.iterdir())
           if p.name != "report.json"}
    out["run/report.json"] = _report_json_digest(run_dir / "report.json")
    for stage, objective in SWEEPS.items():
        swept = ExperimentManifest.from_dict(dict(
            SMALL_MANIFEST, sweep={"lambdas": SWEEP_LAMBDAS, "stage": stage,
                                   "objective": objective}))
        for jobs in (1, 2):
            sweep_dir = root / f"sweep_{stage}_jobs{jobs}"
            run_sweep(swept, sweep_dir, jobs)
            out[f"sweep/{stage}/jobs{jobs}/sweep_report.csv"] = sha256_of(
                sweep_dir / "sweep_report.csv")
    return out


def distort_digests(root: Path) -> dict:
    """Run ``datforge distort`` under each of ``DISTORT_FLAGS`` on one input directory
    made under ``root``; the sha256 of what each run wrote."""
    in_dir = root / "in"
    in_dir.mkdir(parents=True)
    # "broken.wav" sorts first, so the files after it are distorted under its skipped index
    (in_dir / "broken.wav").write_bytes(b"junk")
    for clip, n in zip(synth_corpus(2, 2, seed=30), DISTORT_LENGTHS):
        write_wav(in_dir / f"{clip.clip_id}.wav", Waveform(clip.waveform.samples[:n]))
    out = {}
    for name, flags in DISTORT_FLAGS.items():
        out_dir = root / name
        assert main(["distort", str(in_dir), str(out_dir), *flags]) == EXIT_OK, flags
        for p in sorted(out_dir.iterdir()):
            data = p.read_bytes()
            if p.name == "manifest.jsonl":
                data = data.replace(str(out_dir).encode(), b"<out>")
            out[f"{name}/{p.name}"] = hashlib.sha256(data).hexdigest()
    return out


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _check(section: str, actual: dict):
    golden, here = _golden(), platform()
    assert here == golden["platform"], (
        f"tests/golden.json was recorded on {golden['platform']}, this is {here}: "
        f"the outputs may differ in their last bits here; re-record with {RECORD_COMMAND}")
    recorded = golden[section]
    moved = sorted(k for k in recorded.keys() | actual.keys()
                   if recorded.get(k) != actual.get(k))
    assert not moved, f"golden {section!r} outputs moved: {moved}"


def test_golden_standard_experiment(standard_results):
    per_seed, _ = standard_results
    _check("standard", standard_digests(per_seed))


def test_golden_small_run_probe_and_sweeps(tmp_path):
    _check("small", small_digests(tmp_path))


def test_golden_distort_command(tmp_path):
    _check("distort", distort_digests(tmp_path))


def record():
    """Rewrite ``tests/golden.json`` from this tree and platform; print what moved."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        per_seed, _ = standard_experiment(tmp / "standard")
        new = {"platform": platform(), "record": RECORD_COMMAND,
               "standard": standard_digests(per_seed), "small": small_digests(tmp / "small"),
               "distort": distort_digests(tmp / "distort")}
    old = _golden() if GOLDEN.exists() else {}
    for section in ("platform", "standard", "small", "distort"):
        before, after = old.get(section, {}), new[section]
        for key in sorted(before.keys() | after.keys()):
            if before.get(key) != after.get(key):
                print(f"moved: {section}/{key}: {before.get(key)} -> {after.get(key)}")
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    record()
