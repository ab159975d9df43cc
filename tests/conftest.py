import hashlib
import struct
import time
import wave
from pathlib import Path

import numpy as np
import pytest

from datforge.distort import DEFAULT_SR, build_splits, synth_corpus, with_test_sets
from datforge.evalharness import build_report, domain_probe, write_report_csv
from datforge.pipeline import standard_manifest, train_stages, usable_cpus, write_training_log

SEEDS = (1, 2, 3)  # the seeds of the standard experiment that criteria 5 and 6 read
PROBED_STAGES = ("baseline", "dat_only")
# noise a draw for a one-second clip finds silent: zero throughout, or zero for its first second
SILENT_NOISE = {"all-zero": np.zeros(1600),
                "first-second-zero": np.r_[np.zeros(DEFAULT_SR), 0.1 * np.ones(DEFAULT_SR)]}


# mutate() ops that make a valid datforge WAV declare a chunk running past the file's end:
# its 16-byte fmt chunk declaring 10^6 bytes, or a 10^6-byte LIST chunk before its data chunk
WAV_CHUNKS_PAST_THE_END = {"fmt-1e6": [("put", 16, struct.pack("<I", 10**6))],
                           "LIST-1e6": [("insert", 36, b"LIST" + struct.pack("<I", 10**6))]}


def mutate(data: bytes, ops) -> bytes:
    """``data`` with each of ``ops`` applied in turn: ``("cut", i)`` keeps the first i bytes,
    ``("put", i, b)`` writes b over the bytes from i, ``("insert", i, b)`` inserts b at i,
    each i taken modulo ``len(data) + 1``, and ``("shuffle", s)`` permutes the lines by
    ``default_rng(s)``."""
    for op, *args in ops:
        if op == "shuffle":
            lines = data.split(b"\n")
            order = np.random.default_rng(args[0]).permutation(len(lines))
            data = b"\n".join(lines[i] for i in order)
            continue
        i = args[0] % (len(data) + 1)
        if op == "cut":
            data = data[:i]
        elif op == "put":
            data = data[:i] + args[1] + data[i + len(args[1]):]
        else:
            data = data[:i] + args[1] + data[i:]
    return data


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
    return with_test_sets(build_splits(small_corpus, test, seed=5))


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def standard_experiment(out_root: Path) -> tuple[dict, float]:
    """The standard experiment at each of ``SEEDS``, and the seconds it took.

    Each seed maps to its report rows by stage, the domain probe accuracy of
    each ``PROBED_STAGES`` model, and the sha256 of the files it writes under
    ``out_root/<seed>``: ``report.csv`` and ``training_log.csv`` as ``run``
    writes them, and the checkpoint of every model and every ``start`` model.
    """
    start = time.monotonic()
    per_seed = {}
    for seed in SEEDS:
        manifest = standard_manifest(seed)
        trained, splits = train_stages(manifest, manifest.stages, usable_cpus())
        report = build_report(trained, splits)
        models = {r.stage: r.model for r in trained}
        probes = {stage: domain_probe(models[stage], splits).probe_acc
                  for stage in PROBED_STAGES}
        out = out_root / str(seed)
        out.mkdir(parents=True)
        write_report_csv(out / "report.csv", report)
        write_training_log(out / "training_log.csv", [row for r in trained for row in r.log])
        for r in trained:
            r.model.save(out / f"{r.stage}.ckpt")
            if r.start is not None:
                r.start.save(out / f"{r.stage}_continual.ckpt")
        per_seed[seed] = {"rows": {r.stage: r for r in report.rows}, "probes": probes,
                          "files": {p.name: sha256_of(p) for p in sorted(out.iterdir())}}
    return per_seed, time.monotonic() - start


@pytest.fixture(scope="session")
def standard_results(tmp_path_factory):
    """``standard_experiment``, trained once per session for criteria 5 and 6 and the
    golden-output test."""
    return standard_experiment(tmp_path_factory.mktemp("standard"))
