"""Property tests: byte flips, truncations and insertions of every file the package reads.

The files are a saved model, a bare tensor container, a PPM frame, a PGM mask
and a corpus manifest. Every mutated file either loads to a valid result or
raises ``PipelineError``, and ``tamperloc infer`` on a mutated model or frame
exits 0 or 2. Examples are derandomized, so the same inputs run every time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamperloc.cli import EXIT_DATA, EXIT_OK, cli_main
from tamperloc.core import Frame
from tamperloc.datagen import MANIFEST_NAME, DatasetManifest, load_manifest, load_split, make_dataset, make_texture
from tamperloc.errors import PipelineError
from tamperloc.formats import (
    load_model,
    read_pgm,
    read_ppm,
    read_tensorfile,
    save_model,
    write_pgm,
    write_ppm,
    write_tensorfile,
)
from tamperloc.fusion import ArchConfig, init_network, micro_arch

FUZZ = settings(derandomize=True, deadline=None, max_examples=100)
# each example runs the full network on a 32 px frame, about 10 ms
CLI_FUZZ = settings(derandomize=True, deadline=None, max_examples=50)

FRAME_SIDE = 32  # the smallest multiple of 4 the texture view's 25 px bank fits


@st.composite
def mutations(draw, blob: bytes) -> bytes:
    """``blob`` truncated, with one to four bytes XOR-ed with a non-zero value,
    or with one to eight bytes inserted.

    Half the flips and insertions land in the first 256 bytes, where headers
    and metadata live.
    """
    kind = draw(st.sampled_from(("truncate", "flip", "insert")))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    data = bytearray(blob)
    at = st.one_of(st.integers(0, min(255, len(data) - 1)), st.integers(0, len(data) - 1))
    if kind == "insert":
        i = draw(at)
        return bytes(data[:i] + draw(st.binary(min_size=1, max_size=8)) + data[i:])
    for _ in range(draw(st.integers(1, 4))):
        data[draw(at)] ^= draw(st.integers(1, 255))
    return bytes(data)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid inputs in a scratch directory: a micro and a full model, a bare
    tensor container, a 32 px PPM and PGM, and a two-item 32 px corpus."""
    root = tmp_path_factory.mktemp("fuzz")
    save_model(root / "micro.uvlt", init_network(micro_arch(), 5))
    save_model(root / "full.uvlt", init_network(ArchConfig(), 5))
    rng = np.random.default_rng(5)
    records = [("scalar", np.float64(1.5)), ("empty", np.zeros((0, 4))), ("grid", rng.normal(size=(2, 3, 4)))]
    write_tensorfile(root / "bare.uvlt", records)
    write_ppm(root / "frame.ppm", make_texture("value_noise", 5, FRAME_SIDE))
    write_pgm(root / "mask.pgm", rng.uniform(size=(FRAME_SIDE, FRAME_SIDE)) < 0.3)
    make_dataset(root / "corpus", count=2, size=FRAME_SIDE, seed=5)
    return root


def _infer(root, model, frame) -> int:
    return cli_main(["infer", "--model", str(model), "--in", str(frame), "--out", str(root / "mask.pgm")])


def test_mutated_model_loads_finite_or_raises(files):
    @FUZZ
    @given(mutations((files / "micro.uvlt").read_bytes()))
    def check(blob):
        path = files / "mutated_micro.uvlt"
        path.write_bytes(blob)
        try:
            params, _ = load_model(path)
        except PipelineError:
            return
        for name, t in params.tensors.items():
            assert np.isfinite(t.data).all(), name

    check()


def test_mutated_ppm_reads_or_raises(files):
    @FUZZ
    @given(mutations((files / "frame.ppm").read_bytes()))
    def check(blob):
        path = files / "mutated_frame.ppm"
        path.write_bytes(blob)
        try:
            frame = read_ppm(path)
        except PipelineError:
            return
        assert np.isfinite(frame.data).all()
        assert frame.data.min() >= 0.0 and frame.data.max() <= 1.0

    check()


def test_mutated_pgm_reads_or_raises(files):
    @FUZZ
    @given(mutations((files / "mask.pgm").read_bytes()))
    def check(blob):
        path = files / "mutated_mask.pgm"
        path.write_bytes(blob)
        try:
            mask = read_pgm(path)
        except PipelineError:
            return
        assert mask.ndim == 2 and mask.dtype == np.float64
        assert np.isin(mask, (0.0, 1.0)).all()

    check()


def test_mutated_tensorfile_reads_or_raises(files):
    @FUZZ
    @given(mutations((files / "bare.uvlt").read_bytes()))
    def check(blob):
        path = files / "mutated_bare.uvlt"
        path.write_bytes(blob)
        try:
            records = read_tensorfile(path)
        except PipelineError:
            return
        for name, array in records:
            assert isinstance(name, str)
            assert isinstance(array, np.ndarray) and array.dtype == np.float64

    check()


def test_mutated_manifest_loads_or_raises(files):
    corpus = files / "corpus"
    manifest = (corpus / MANIFEST_NAME).read_bytes()

    @FUZZ
    @given(mutations(manifest))
    def check(blob):
        (corpus / MANIFEST_NAME).write_bytes(blob)
        try:
            assert isinstance(load_manifest(corpus), DatasetManifest)
            items = load_split(corpus, "all")
        except PipelineError:
            return
        for item_id, frame, mask in items:
            assert isinstance(item_id, str) and isinstance(frame, Frame)
            assert mask.ndim == 2 and mask.dtype == np.float64

    try:
        check()
    finally:
        (corpus / MANIFEST_NAME).write_bytes(manifest)


def test_infer_on_mutated_model_exits_0_or_2(files):
    @CLI_FUZZ
    @given(mutations((files / "full.uvlt").read_bytes()))
    def check(blob):
        path = files / "mutated_full.uvlt"
        path.write_bytes(blob)
        assert _infer(files, path, files / "frame.ppm") in (EXIT_OK, EXIT_DATA)

    check()


def test_infer_on_mutated_ppm_exits_0_or_2(files):
    @CLI_FUZZ
    @given(mutations((files / "frame.ppm").read_bytes()))
    def check(blob):
        path = files / "mutated_frame.ppm"
        path.write_bytes(blob)
        assert _infer(files, files / "full.uvlt", path) in (EXIT_OK, EXIT_DATA)

    check()
