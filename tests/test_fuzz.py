"""Property tests: byte flips and truncations of a saved model and of a PPM.

Every mutated file either loads to a valid result or raises ``PipelineError``,
and ``tamperloc infer`` on it exits 0 or 2. Examples are derandomized, so the
same inputs run every time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamperloc.cli import EXIT_DATA, EXIT_OK, cli_main
from tamperloc.datagen import make_texture
from tamperloc.errors import PipelineError
from tamperloc.formats import load_model, read_ppm, save_model, write_ppm
from tamperloc.fusion import ArchConfig, init_network, micro_arch

FUZZ = settings(derandomize=True, deadline=None, max_examples=100)
# each example runs the full network on a 32 px frame, about 10 ms
CLI_FUZZ = settings(derandomize=True, deadline=None, max_examples=50)

FRAME_SIDE = 32  # the smallest multiple of 4 the texture view's 25 px bank fits


@st.composite
def mutations(draw, blob: bytes) -> bytes:
    """``blob`` truncated, or with one to four bytes XOR-ed with a non-zero value.

    Half the flips land in the first 256 bytes, where headers and metadata live.
    """
    if draw(st.booleans()):
        return blob[: draw(st.integers(0, len(blob) - 1))]
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.one_of(st.integers(0, min(255, len(data) - 1)), st.integers(0, len(data) - 1)))
        data[i] ^= draw(st.integers(1, 255))
    return bytes(data)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid micro model, a valid full model, a valid 32 px PPM, and a scratch directory."""
    root = tmp_path_factory.mktemp("fuzz")
    save_model(root / "micro.uvlt", init_network(micro_arch(), 5))
    save_model(root / "full.uvlt", init_network(ArchConfig(), 5))
    write_ppm(root / "frame.ppm", make_texture("value_noise", 5, FRAME_SIDE))
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
