"""The readers of files from outside the program, fed mutated copies of a valid file.

A WAV (``read_wav``), a checkpoint (``load_checkpoint``) and a manifest
(``ExperimentManifest.from_file``) are truncated, overwritten in a few bytes, given an
inserted chunk or line, and, for the text files, shuffled by line.  Each reader must give
its result or its documented error naming the path, and never raise another type.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
from conftest import WAV_CHUNKS_PAST_THE_END, mutate
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from datforge.distort import Waveform, read_wav, write_wav
from datforge.errors import ConfigError, FormatError
from datforge.gradcore import Parameter
from datforge.models import load_checkpoint, save_checkpoint
from datforge.pipeline import STANDARD_MANIFEST, ExperimentManifest

FUZZ = settings(max_examples=150, deadline=None, database=None)


def _written(write) -> bytes:
    """The bytes ``write(path)`` puts in a new file."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "file"
        write(path)
        return path.read_bytes()


VALID_WAV = _written(lambda p: write_wav(p, Waveform(0.5 * np.sin(np.arange(400) / 7.0))))
VALID_CKPT = _written(lambda p: save_checkpoint(p, [
    Parameter(np.array([0.5, -1.25]), "feature_extractor", "f.b"),
    Parameter(np.array([[1.0, 2.0], [3.0, -4.0]]), "label_predictor", "y.W")]))
VALID_MANIFEST = STANDARD_MANIFEST.read_bytes()

CKPT_VALUES = VALID_CKPT.index(b"\n", VALID_CKPT.index(b"param")) + 1  # f.b's values line
CKPT_VALUES_LEN = VALID_CKPT.index(b"\n", CKPT_VALUES) - CKPT_VALUES
MANIFEST_SEED = VALID_MANIFEST.index(b'"seed": ') + len(b'"seed": ')

_at = st.integers(0, 2**16)  # a byte offset, taken modulo the file's length + 1
_chunk = st.builds(lambda cid, size, body: cid + struct.pack("<I", size) + body,
                   st.sampled_from([b"fmt ", b"data", b"LIST", b"fact", b"RIFF"]),
                   st.one_of(st.integers(0, 64), st.integers(0, 2**32 - 1)),
                   st.binary(max_size=24))
BYTE_OPS = st.one_of(
    st.tuples(st.just("cut"), _at),
    st.tuples(st.just("put"), _at, st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("insert"), st.one_of(st.sampled_from([12, 36, 44]), _at), _chunk))
TEXT_OPS = st.one_of(
    BYTE_OPS,
    st.tuples(st.just("insert"), _at, st.text(max_size=24).map(str.encode)),
    st.tuples(st.just("shuffle"), st.integers(0, 2**16)))


def _fed(data: bytes, read):
    """``read(path)`` of a new file holding ``data``."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input"
        path.write_bytes(data)
        return read(path)


def _naming(error, data: bytes, read, prefix=""):
    """``read``'s result for a file holding ``data``, or None if it raised ``error`` whose
    message starts with ``prefix`` and the path; any other exception propagates."""
    def reading(path):
        try:
            return read(path)
        except error as exc:
            assert str(exc).startswith(f"{prefix}{path}"), str(exc)
            return None
    return _fed(data, reading)


@given(ops=st.lists(BYTE_OPS, min_size=1, max_size=3))
@example(ops=WAV_CHUNKS_PAST_THE_END["fmt-1e6"])
@example(ops=WAV_CHUNKS_PAST_THE_END["LIST-1e6"])
@FUZZ
@seed(31)
def test_a_mutated_wav_reads_or_is_a_format_error_naming_it(ops):
    w = _naming(FormatError, mutate(VALID_WAV, ops), read_wav)
    if w is not None:
        assert w.samples.ndim == 1 and w.samples.size > 0
        assert np.all(np.abs(w.samples) <= 32768 / 32767)


@given(ops=st.lists(TEXT_OPS, min_size=1, max_size=3))
@example(ops=[("put", CKPT_VALUES, b"0x1p99999".ljust(CKPT_VALUES_LEN))])  # past float64
@example(ops=[("put", CKPT_VALUES, b"\xff")])  # not UTF-8
@example(ops=[("put", CKPT_VALUES, b"inf nan".ljust(CKPT_VALUES_LEN))])
@FUZZ
@seed(32)
def test_a_mutated_checkpoint_loads_or_is_a_format_error_naming_it(ops):
    entries = _naming(FormatError, mutate(VALID_CKPT, ops), load_checkpoint)
    if entries is not None:
        names = [name for name, _group, _value in entries]
        assert len(names) == len(set(names))
        assert all(np.all(np.isfinite(value)) for _name, _group, value in entries)


@given(ops=st.lists(TEXT_OPS, min_size=1, max_size=3))
@example(ops=[("put", MANIFEST_SEED, b"\xff")])  # not UTF-8
@example(ops=[("insert", MANIFEST_SEED, b"-")])  # a seed of -1
@FUZZ
@seed(33)
def test_a_mutated_manifest_reads_or_is_a_config_error_naming_it(ops):
    manifest = _naming(ConfigError, mutate(VALID_MANIFEST, ops), ExperimentManifest.from_file,
                       prefix="manifest ")
    if manifest is not None:
        assert ExperimentManifest.from_dict(manifest.to_dict()) == manifest


def test_the_unmutated_files_read():
    assert _fed(VALID_WAV, read_wav).samples.size == 400
    assert [name for name, _g, _v in _fed(VALID_CKPT, load_checkpoint)] == ["f.b", "y.W"]
    assert _fed(VALID_MANIFEST, ExperimentManifest.from_file).seed == 1
