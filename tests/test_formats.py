import json
import math
import struct
import warnings

import numpy as np
import pytest
from numpy.random import default_rng

from tamperloc.core import Frame
from tamperloc.errors import PipelineError
from tamperloc.formats import (
    PGM_VISUAL_ORIGINAL,
    TENSOR_MAGIC,
    load_model,
    netpbm_header,
    read_pgm,
    read_ppm,
    read_report,
    read_tensorfile,
    report_to_doc,
    save_model,
    write_pgm,
    write_ppm,
    write_report,
    write_tensorfile,
)
from tamperloc.fusion import ArchConfig, forward, init_network, micro_arch
from tamperloc.metrics import FrameMetrics, MetricsReport


def poke_float32_bits(path, name: str, bits: int) -> None:
    """Overwrite the first payload value of record ``name`` with raw float32 ``bits``."""
    blob = bytearray(path.read_bytes())
    at = blob.index(struct.pack("<H", len(name)) + name.encode()) + 2 + len(name)
    (ndim,) = struct.unpack_from("<I", blob, at)
    struct.pack_into("<I", blob, at + 4 + 4 * ndim, bits)
    path.write_bytes(bytes(blob))


def quantized_frame(seed: int, h: int = 12, w: int = 10) -> Frame:
    rng = default_rng(seed)
    return Frame(rng.integers(0, 256, size=(3, h, w)).astype(np.float64) / 255.0)


class TestPpm:
    def test_round_trip_is_byte_identical(self, tmp_path):
        f = quantized_frame(0)
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_ppm(p1, f)
        write_ppm(p2, read_ppm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_after_write_recovers_quantized_samples_exactly(self, tmp_path):
        f = quantized_frame(1)
        path = tmp_path / "f.ppm"
        write_ppm(path, f)
        np.testing.assert_array_equal(read_ppm(path).data, f.data)

    def test_quantization_error_bounded_by_half_step(self, tmp_path):
        rng = default_rng(2)
        f = Frame(rng.uniform(0.0, 1.0, size=(3, 16, 16)))
        path = tmp_path / "f.ppm"
        write_ppm(path, f)
        assert float(np.abs(read_ppm(path).data - f.data).max()) <= 1.0 / 510.0 + 1e-12

    def test_smallest_white_frame_payload_is_all_0xff(self, tmp_path):
        path = tmp_path / "white.ppm"
        write_ppm(path, Frame(np.ones((3, 8, 8))))
        blob = path.read_bytes()
        header = b"P6\n8 8\n255\n"
        assert blob[: len(header)] == header
        assert blob[len(header) :] == b"\xff" * (8 * 8 * 3)

    def test_rejects_ascii_variant_magic(self, tmp_path):
        path = tmp_path / "f.ppm"
        path.write_bytes(b"P3\n8 8\n255\n" + b"0 " * 192)
        with pytest.raises(PipelineError, match="bad-magic"):
            read_ppm(path)

    def test_rejects_non_255_maxval(self, tmp_path):
        path = tmp_path / "f.ppm"
        path.write_bytes(b"P6\n8 8\n128\n" + b"\x00" * 192)
        with pytest.raises(PipelineError, match="unsupported-depth"):
            read_ppm(path)

    def test_rejects_short_payload(self, tmp_path):
        path = tmp_path / "f.ppm"
        path.write_bytes(b"P6\n8 8\n255\n" + b"\x00" * 191)
        with pytest.raises(PipelineError, match="truncated"):
            read_ppm(path)

    def test_rejects_header_that_ends_early(self, tmp_path):
        path = tmp_path / "f.ppm"
        path.write_bytes(b"P6\n8 8\n")
        with pytest.raises(PipelineError, match="truncated"):
            read_ppm(path)

    def test_rejects_non_integer_header_token(self, tmp_path):
        path = tmp_path / "f.ppm"
        path.write_bytes(b"P6\n8 eight\n255\n" + b"\x00" * 192)
        with pytest.raises(PipelineError, match="bad-header"):
            read_ppm(path)

    def test_header_comments_are_skipped(self, tmp_path):
        f = quantized_frame(3, 8, 8)
        path = tmp_path / "f.ppm"
        write_ppm(path, f)
        body = path.read_bytes()[len(b"P6\n8 8\n255\n") :]
        commented = tmp_path / "c.ppm"
        commented.write_bytes(b"P6\n# made by hand\n8 8\n255\n" + body)
        np.testing.assert_array_equal(read_ppm(commented).data, f.data)


class TestPgm:
    def test_binary_round_trip_identity(self, tmp_path):
        rng = default_rng(4)
        mask = (rng.uniform(size=(9, 13)) > 0.5).astype(np.float64)
        path = tmp_path / "m.pgm"
        write_pgm(path, mask)
        np.testing.assert_array_equal(read_pgm(path), mask)

    def test_visual_all_original_writes_gray_128(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pgm(path, np.zeros((8, 8)), visual=True)
        payload = path.read_bytes()[len(b"P5\n8 8\n255\n") :]
        assert payload == bytes([PGM_VISUAL_ORIGINAL]) * 64

    def test_visual_round_trip_recovers_mask(self, tmp_path):
        rng = default_rng(5)
        mask = (rng.uniform(size=(8, 8)) > 0.5).astype(np.float64)
        path = tmp_path / "m.pgm"
        write_pgm(path, mask, visual=True)
        np.testing.assert_array_equal(read_pgm(path), mask)

    def test_rejects_non_2d_mask(self, tmp_path):
        with pytest.raises(PipelineError, match="bad-mask"):
            write_pgm(tmp_path / "m.pgm", np.zeros((3, 8, 8)))

    def test_rejects_ppm_magic(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P6\n8 8\n255\n" + b"\x00" * 192)
        with pytest.raises(PipelineError, match="bad-magic"):
            read_pgm(path)

    def test_rejects_short_payload(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n8 8\n255\n" + b"\x00" * 63)
        with pytest.raises(PipelineError, match="truncated"):
            read_pgm(path)


# (file bytes, the message every reader gives), as the readers gave them
# before the header check was shared
BAD_PPMS = [
    (b"P3\n8 8\n255\n", "bad-magic: expected P6, got b'P3'"),
    (b"", "bad-magic: expected P6, got b''"),
    (b"P6\n8 8\n128\n" + b"\x00" * 192, "unsupported-depth: maxval must be 255, got 128"),
    (b"P6\n8 8\n255\n" + b"\x00" * 191, "truncated: need 192 payload bytes, have 191"),
    (b"P6\n8 8\n255", "truncated: need 192 payload bytes, have 0"),
    (b"P6\n8 8\n", "truncated: header ended early"),
    (b"P6\n8 eight\n255\n", "bad-header: expected integer, got b'eight'"),
    (b"P6\n0 8\n255\n", "bad-header: bad dimensions 0x8"),
]


def header_of(path, magic: bytes) -> tuple[int, int]:
    with open(path, "rb") as fh:
        return netpbm_header(fh, magic)


class TestNetpbmHeader:
    @pytest.mark.parametrize("magic", [b"P6", b"P5"])
    def test_returns_width_and_height_and_leaves_the_file_at_the_payload(self, tmp_path, magic):
        path = tmp_path / "f"
        channels = 3 if magic == b"P6" else 1
        payload = bytes(range(7 * 5 * channels))
        path.write_bytes(magic + b"\n# a comment\n7 5\n255\n" + payload + b"tail")
        with open(path, "rb") as fh:
            assert netpbm_header(fh, magic) == (7, 5)
            assert fh.read(len(payload)) == payload

    @pytest.mark.parametrize("blob,message", BAD_PPMS, ids=[m.split(":")[0] + f"-{i}" for i, (_, m) in enumerate(BAD_PPMS)])
    def test_the_check_and_the_reader_give_the_same_error(self, tmp_path, blob, message):
        path = tmp_path / "f.ppm"
        path.write_bytes(blob)
        for check in (lambda: read_ppm(path), lambda: header_of(path, b"P6")):
            with pytest.raises(PipelineError) as info:
                check()
            assert str(info.value) == message

    def test_a_mask_payload_is_counted_in_single_bytes(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n8 8\n255\n" + b"\x00" * 63)
        with pytest.raises(PipelineError, match="^truncated: need 64 payload bytes, have 63$"):
            header_of(path, b"P5")
        path.write_bytes(b"P5\n8 8\n255\n" + b"\x00" * 64)
        assert header_of(path, b"P5") == (8, 8)


class TestTensorFile:
    def test_round_trip_preserves_names_order_shapes(self, tmp_path):
        rng = default_rng(6)
        records = [
            ("scalar", np.asarray(3.25)),
            ("vec", rng.standard_normal(7)),
            ("mat", rng.standard_normal((3, 5)).astype(np.float32).astype(np.float64)),
            ("cube.variée", rng.integers(-4, 5, size=(2, 3, 4)).astype(np.float64)),
        ]
        path = tmp_path / "t.uvlt"
        write_tensorfile(path, records)
        loaded = read_tensorfile(path)
        assert [name for name, _ in loaded] == [name for name, _ in records]
        for (_, out), (_, src) in zip(loaded, records):
            assert out.shape == src.shape
            assert out.dtype == np.float64
            np.testing.assert_array_equal(out, src.astype(np.float32).astype(np.float64))

    def test_float32_exact_values_survive_unchanged(self, tmp_path):
        values = np.asarray([0.5, -0.25, 1.0, 123.0, 2.0**-20])
        path = tmp_path / "t.uvlt"
        write_tensorfile(path, [("v", values)])
        np.testing.assert_array_equal(read_tensorfile(path)[0][1], values)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "t.uvlt"
        write_tensorfile(path, [("v", np.zeros(2))])
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XVLT"
        path.write_bytes(bytes(blob))
        with pytest.raises(PipelineError, match="bad-magic"):
            read_tensorfile(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "t.uvlt"
        path.write_bytes(TENSOR_MAGIC + struct.pack("<II", 9, 0))
        with pytest.raises(PipelineError, match="corrupt-record"):
            read_tensorfile(path)

    def test_rejects_dims_exceeding_payload(self, tmp_path):
        path = tmp_path / "t.uvlt"
        record = struct.pack("<H", 1) + b"x" + struct.pack("<I", 1) + struct.pack("<I", 100) + b"\x00" * 4
        path.write_bytes(TENSOR_MAGIC + struct.pack("<II", 1, 1) + record)
        with pytest.raises(PipelineError, match="corrupt-record"):
            read_tensorfile(path)

    def test_rejects_dims_whose_product_wraps_int64(self, tmp_path):
        path = tmp_path / "t.uvlt"
        record = struct.pack("<H", 1) + b"x" + struct.pack("<I", 8) + struct.pack("<8I", *[2**31] * 8)
        path.write_bytes(TENSOR_MAGIC + struct.pack("<II", 1, 1) + record)
        with pytest.raises(PipelineError, match="corrupt-record"):
            read_tensorfile(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.uvlt"
        write_tensorfile(path, [("v", np.zeros(2))])
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(PipelineError, match="corrupt-record"):
            read_tensorfile(path)

    def test_rejects_implausible_ndim(self, tmp_path):
        path = tmp_path / "t.uvlt"
        record = struct.pack("<H", 1) + b"x" + struct.pack("<I", 9)
        path.write_bytes(TENSOR_MAGIC + struct.pack("<II", 1, 1) + record)
        with pytest.raises(PipelineError, match="corrupt-record"):
            read_tensorfile(path)

    def test_rejects_non_utf8_record_name(self, tmp_path):
        path = tmp_path / "t.uvlt"
        record = struct.pack("<H", 1) + b"\xff" + struct.pack("<I", 1) + struct.pack("<I", 1) + b"\x00" * 4
        path.write_bytes(TENSOR_MAGIC + struct.pack("<II", 1, 1) + record)
        with pytest.raises(PipelineError, match="corrupt-record"):
            read_tensorfile(path)

    def test_rejects_file_ending_inside_record(self, tmp_path):
        path = tmp_path / "t.uvlt"
        write_tensorfile(path, [("v", np.zeros(4))])
        blob = path.read_bytes()
        path.write_bytes(blob[:13])  # ends one byte into the name length field
        with pytest.raises(PipelineError, match="truncated"):
            read_tensorfile(path)

    def test_rejects_short_final_payload(self, tmp_path):
        path = tmp_path / "t.uvlt"
        write_tensorfile(path, [("v", np.zeros(4))])
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 3])
        with pytest.raises(PipelineError, match="corrupt-record"):
            read_tensorfile(path)


class TestModelContainer:
    def test_round_trip_recovers_arch_views_seed(self, tmp_path):
        cfg = micro_arch("vit_cnn")
        params = init_network(cfg, 123456789)
        path = tmp_path / "m.uvlt"
        save_model(path, params, views=("pixel", "texture"))
        loaded, views = load_model(path)
        assert loaded.arch == cfg
        assert loaded.seed == 123456789
        assert views == ("texture", "pixel")

    @pytest.mark.parametrize("variant", ["cnn_vit", "cnn_only", "vit_only", "vit_cnn"])
    def test_arch_record_is_the_config_row(self, tmp_path, variant):
        cfg = ArchConfig(variant=variant)
        path = tmp_path / "m.uvlt"
        save_model(path, init_network(cfg, 1))
        assert dict(read_tensorfile(path))["meta.arch"].tolist() == list(cfg.row())
        assert load_model(path)[0].arch == cfg

    def test_round_trip_recovers_largest_seed(self, tmp_path):
        path = tmp_path / "m.uvlt"
        save_model(path, init_network(micro_arch(), 2**48 - 1))
        assert load_model(path)[0].seed == 2**48 - 1

    @pytest.mark.parametrize("variant", ["cnn_vit", "cnn_only", "vit_only", "vit_cnn"])
    def test_saved_model_forwards_reproducibly(self, tmp_path, variant):
        cfg = micro_arch(variant)
        params = init_network(cfg, 11)
        x = default_rng(12).uniform(0.0, 1.0, size=(cfg.input_channels, 8, 8))
        path = tmp_path / "m.uvlt"
        save_model(path, params)
        first, _ = load_model(path)
        second, _ = load_model(path)
        out_first = forward(first, x)
        assert out_first.tobytes() == forward(second, x).tobytes()
        # payloads are 32-bit on disk, so the reload matches fresh params
        # to float32 precision rather than bit-exactly
        np.testing.assert_allclose(out_first, forward(params, x), atol=1e-5)

    def test_second_save_is_byte_stable(self, tmp_path):
        params = init_network(micro_arch(), 3)
        p1, p2 = tmp_path / "a.uvlt", tmp_path / "b.uvlt"
        save_model(p1, params, views=("edge",))
        loaded, views = load_model(p1)
        save_model(p2, loaded, views=views)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_missing_metadata(self, tmp_path):
        path = tmp_path / "m.uvlt"
        write_tensorfile(path, [("weights", np.zeros((2, 2)))])
        with pytest.raises(PipelineError, match="corrupt-record"):
            load_model(path)

    def test_rejects_non_utf8_record_name(self, tmp_path):
        path = tmp_path / "m.uvlt"
        save_model(path, init_network(micro_arch(), 0))
        blob = bytearray(path.read_bytes())
        blob[14] = 0xFF  # first byte of the first record's name
        path.write_bytes(bytes(blob))
        with pytest.raises(PipelineError, match="corrupt-record"):
            load_model(path)

    def test_rejects_missing_parameter(self, tmp_path):
        params = init_network(micro_arch(), 0)
        path = tmp_path / "m.uvlt"
        save_model(path, params)
        records = read_tensorfile(path)
        dropped = [(n, a) for n, a in records if n != "head.w"]
        write_tensorfile(path, dropped)
        with pytest.raises(PipelineError, match="corrupt-record"):
            load_model(path)

    def test_rejects_wrong_parameter_shape(self, tmp_path):
        params = init_network(micro_arch(), 0)
        path = tmp_path / "m.uvlt"
        save_model(path, params)
        records = [(n, np.zeros(3) if n == "head.b" else a) for n, a in read_tensorfile(path)]
        write_tensorfile(path, records)
        with pytest.raises(PipelineError, match="corrupt-record"):
            load_model(path)

    @staticmethod
    def saved_with_row(tmp_path, key, index, value):
        path = tmp_path / "m.uvlt"
        save_model(path, init_network(micro_arch(), 0))
        records = read_tensorfile(path)
        for name, array in records:
            if name == key:
                array[index] = value
        write_tensorfile(path, records)
        return path

    @pytest.mark.parametrize(
        "index,value",
        [(0, np.nan), (0, -1.0), (0, 4.0), (0, 0.5), (2, np.inf), (5, np.nan), (6, 8.25), (7, 0.0)],
        ids=["nan-variant", "variant-minus-1", "variant-past-end", "fractional-variant", "inf-width",
             "nan-branch", "fractional-dim", "zero-heads"],
    )
    def test_rejects_corrupt_arch_row(self, tmp_path, index, value):
        path = self.saved_with_row(tmp_path, "meta.arch", index, value)
        with pytest.raises(PipelineError, match="corrupt-record"):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, 0.5])
    def test_rejects_corrupt_seed_row(self, tmp_path, value):
        path = self.saved_with_row(tmp_path, "meta.seed", 1, value)
        with pytest.raises(PipelineError, match="corrupt-record"):
            load_model(path)

    # float32 holds 2**24 exactly, so a half that large reaches the range check
    @pytest.mark.parametrize("index,value", [(0, -1.0), (0, 2.0**24), (1, -1.0), (1, 2.0**24)],
                             ids=["high-negative", "high-2**24", "low-negative", "low-2**24"])
    def test_rejects_seed_half_out_of_range(self, tmp_path, index, value):
        path = self.saved_with_row(tmp_path, "meta.seed", index, value)
        with pytest.raises(PipelineError, match="corrupt-record"):
            load_model(path)

    def test_rejects_short_feature_row(self, tmp_path):
        path = tmp_path / "m.uvlt"
        save_model(path, init_network(micro_arch(), 0))
        records = [(n, a[:2] if n == "meta.features" else a) for n, a in read_tensorfile(path)]
        write_tensorfile(path, records)
        with pytest.raises(PipelineError, match="corrupt-record"):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, 7.5, -1.0, 2.0], ids=["nan", "fractional", "minus-1", "two"])
    def test_rejects_feature_bit_other_than_0_or_1(self, tmp_path, value):
        path = self.saved_with_row(tmp_path, "meta.features", 1, value)
        with pytest.raises(PipelineError, match="corrupt-record"):
            load_model(path)

    def test_rejects_signalling_nan_without_a_warning(self, tmp_path):
        path = tmp_path / "m.uvlt"
        save_model(path, init_network(micro_arch(), 0))
        poke_float32_bits(path, "head.b", 0x7F800001)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(PipelineError, match="corrupt-record"):
                load_model(path)
        assert caught == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "plus-inf", "minus-inf"])
    def test_rejects_non_finite_parameter(self, tmp_path, value):
        path = self.saved_with_row(tmp_path, "head.w", (0, 0), value)
        with pytest.raises(PipelineError, match="corrupt-record"):
            load_model(path)

    def test_save_refuses_parameter_that_overflows_float32(self, tmp_path):
        params = init_network(micro_arch(), 0)
        params.tensors["head.b"].data[0] = 1e39
        path = tmp_path / "m.uvlt"
        with pytest.raises(PipelineError, match="non-finite-parameter"):
            save_model(path, params)
        assert not path.exists()


def sample_report() -> MetricsReport:
    rows = (
        FrameMetrics("frame_0000", 0.8125, 0.9, 0.75),
        FrameMetrics("frame_0001", 0.6875, 0.8, 0.5),
        FrameMetrics("frame_0002", 1.0, 1.0, 1.0),
    )
    mean = lambda key: math.fsum(getattr(r, key) for r in rows) / len(rows)
    return MetricsReport(
        miou=mean("miou"),
        f1=mean("f1"),
        miou_fg=mean("miou_fg"),
        per_frame=rows,
        features=("texture", "pixel"),
        perturbation="gaussian:0.02",
        seed=5,
        arch="cnn_vit",
        threshold=0.5,
    )


class TestReports:
    def test_doc_carries_config_rows_and_summary(self):
        doc = report_to_doc(sample_report())
        assert doc["config"] == {
            "features": ["texture", "pixel"],
            "perturbation": "gaussian:0.02",
            "seed": 5,
            "arch": "cnn_vit",
            "threshold": 0.5,
        }
        assert [row["id"] for row in doc["per_frame"]] == ["frame_0000", "frame_0001", "frame_0002"]

    def test_summary_recomputes_from_per_frame_rows(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(path, sample_report())
        doc = read_report(path)
        for key in ("miou", "f1", "miou_fg"):
            values = [row[key] for row in doc["per_frame"]]
            assert abs(doc["summary"][key] - math.fsum(values) / len(values)) <= 1e-9

    def test_report_file_is_plain_json(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(path, sample_report())
        doc = json.loads(path.read_text())
        assert set(doc) == {"config", "per_frame", "summary"}

    def test_read_rejects_missing_sections(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"config": {}, "per_frame": []}))
        with pytest.raises(PipelineError, match="corrupt-record"):
            read_report(path)
