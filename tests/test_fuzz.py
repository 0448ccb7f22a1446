"""Property tests: byte flips, truncations and insertions of every file the package reads,
arbitrary perturbation spec strings, and arbitrary sizes and counts for the
constructors that take them.

The files are a saved model, a bare tensor container, a PPM frame, a PGM mask
and a corpus manifest. Every mutated file either loads to a valid result or
raises ``PipelineError``, and ``tamperloc infer`` on a mutated model or frame
exits 0 or 2. A spec string parses to a ``PerturbSpec`` with a finite
parameter or raises ``PipelineError``. A training config, network shape or
corpus request either builds something ``train``, ``init_network`` or
``make_dataset`` accepts or raises ``PipelineError``. Examples are
derandomized, so the same inputs run every time.
"""

import math

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
from tamperloc.fusion import INPUT_CHANNELS, VARIANTS, ArchConfig, forward, init_network, micro_arch
from tamperloc.perturb import KINDS, PerturbSpec, parse_spec
from tamperloc.train import TrainConfig, train

FUZZ = settings(derandomize=True, deadline=None, max_examples=100)
# each example runs the full network on a 25 px frame, about 6 ms
CLI_FUZZ = settings(derandomize=True, deadline=None, max_examples=50)

# the smallest side the texture view's 25 px bank fits (texture.BANK_SIDE); not
# a multiple of 4, so the infer properties also run the network's padding
FRAME_SIDE = 25


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


def sizes(low: int, high: int):
    """Integers in [low, high] as ints, numpy ints and floats, fractions in
    that range, NaN, the infinities, bools and one-integer tuples."""
    ints = st.integers(low, high)
    return st.one_of(
        ints,
        ints.map(np.int64),
        ints.map(float),
        st.floats(low, high).filter(lambda v: not v.is_integer()),
        st.sampled_from((math.nan, math.inf, -math.inf)),
        st.booleans(),
        st.tuples(ints),
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid inputs in a scratch directory: a micro and a full model, a bare
    tensor container, a 25 px PPM and PGM, and a two-item 25 px corpus."""
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


@pytest.mark.parametrize("kind", (None, *KINDS))
def test_perturbation_spec_parses_or_raises(kind):
    # arbitrary text, or kind:<float> for one kind with NaN and infinities drawn
    floats = st.floats(allow_nan=True, allow_infinity=True)
    specs = st.text() if kind is None else floats.map(f"{kind}:{{!r}}".format)

    @FUZZ
    @given(specs)
    def check(text):
        try:
            spec = parse_spec(text)
        except PipelineError:
            return
        assert isinstance(spec, PerturbSpec)
        assert spec.param is None or np.isfinite(spec.param)

    check()


def test_train_config_trains_or_raises():
    # RGB-only 8 px frames and narrow layers keep an accepted draw to a few milliseconds
    arch = ArchConfig(input_channels=INPUT_CHANNELS, stage1_widths=(2, 2, 2), branch_width=1, token_dim=2, heads=1,
                      encoder_layers=1, mlp_ratio=1)
    items = [(Frame(np.full((3, 8, 8), 0.5)), np.eye(8))]

    @FUZZ
    @given(sizes(0, 3), sizes(0, 3))
    def check(steps, batch_size):
        try:
            cfg = TrainConfig(steps=steps, batch_size=batch_size, views=())
        except PipelineError:
            return
        _, history = train(cfg, arch, items)
        assert len(history) == steps

    check()


def test_arch_config_builds_a_network_or_raises():
    # a small valid shape with up to three fields replaced, so that a fair share of the draws builds a network
    base = dict(input_channels=3, stage1_widths=(2, 2, 2), branch_width=1, token_dim=4, heads=2, encoder_layers=1,
                mlp_ratio=1)
    width = sizes(0, 4)
    widths = st.one_of(width, st.tuples(width, width, width), st.tuples(width, width))
    override = st.sampled_from(sorted(base)).flatmap(
        lambda name: st.tuples(st.just(name), widths if name == "stage1_widths" else width)
    )

    @FUZZ
    @given(st.sampled_from(VARIANTS), st.lists(override, max_size=3))
    def check(variant, overrides):
        try:
            cfg = ArchConfig(variant, **{**base, **dict(overrides)})
        except PipelineError:
            return
        assert ArchConfig.from_row(cfg.row()) == cfg
        probs = forward(init_network(cfg, 0), np.full((cfg.input_channels, 8, 8), 0.5))
        assert probs.shape == (8, 8)

    check()


def test_make_dataset_writes_or_raises(tmp_path):
    @FUZZ
    @given(sizes(0, 2), sizes(24, 32))
    def check(count, size):
        try:
            manifest = make_dataset(tmp_path, count=count, size=size, seed=0)
        except PipelineError:
            return
        items = load_split(tmp_path, "all")
        assert len(items) == len(manifest.items) == count
        assert all(frame.data.shape == (3, size, size) for _, frame, _ in items)

    check()
