import dataclasses
import hashlib
import importlib
import json
import os
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest
from numpy.random import default_rng

from tamperloc.cli import EXIT_DATA, cli_main
from tamperloc.core import Frame
from tamperloc.datagen import (
    MANIFEST_NAME,
    MASK_FRACTION_BOUNDS,
    QUALITY_CHOICES,
    SIGMA_CHOICES,
    TEXTURE_KINDS,
    DatasetManifest,
    Region,
    SpliceSpec,
    load_manifest,
    load_split,
    make_dataset,
    make_texture,
    rasterize,
    sample_region,
    sample_splice_spec,
    simulate_inpaint,
    splice,
)
from tamperloc.errors import PipelineError
from tamperloc.formats import read_pgm, read_ppm, save_model, write_pgm, write_ppm
from tamperloc.frequency import frequency_features
from tamperloc.fusion import ArchConfig, init_network
from tamperloc.pixel import srm_features
from tamperloc.texture import BANK_SIDE

datagen_mod = importlib.import_module("tamperloc.datagen")
cli_mod = importlib.import_module("tamperloc.cli")


def null_splice_spec(seed: int, sigma: float = 0.01, quality: int = 100, region: "Region | None" = None) -> SpliceSpec:
    """Host and donor identical on every axis: the frame carries no boundary."""
    return SpliceSpec(
        host_kind="value_noise",
        host_seed=seed,
        donor_kind="value_noise",
        donor_seed=seed,
        region=region or Region("rectangle", (20, 22, 18, 16)),
        host_sigma=sigma,
        donor_sigma=sigma,
        host_quality=quality,
        donor_quality=quality,
    )


class TestMakeTexture:
    def test_deterministic(self):
        a = make_texture("grating", 5, 32)
        b = make_texture("grating", 5, 32)
        assert a.data.tobytes() == b.data.tobytes()

    def test_kinds_cover_the_declared_set(self):
        assert TEXTURE_KINDS == ("grating", "value_noise", "gradient", "checker")
        for kind in TEXTURE_KINDS:
            f = make_texture(kind, 0, 16)
            assert f.data.shape == (3, 16, 16)

    def test_rejects_unknown_kind(self):
        with pytest.raises(PipelineError, match="bad-kind"):
            make_texture("plasma", 0, 32)

    def test_rejects_small_size_and_bad_seed(self):
        with pytest.raises(PipelineError, match="bad-size"):
            make_texture("grating", 0, 15)
        with pytest.raises(PipelineError, match="bad-seed"):
            make_texture("grating", -3, 32)

    def test_gradient_rows_and_columns_monotone(self):
        for seed in range(5):
            data = make_texture("gradient", seed, 32).data
            for axis in (1, 2):
                diffs = np.diff(data, axis=axis)
                assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)

    def test_value_noise_means_stay_centered_over_100_seeds(self):
        # measured sweep: means spanned [0.4178, 0.5793] over seeds 0-99
        means = [float(make_texture("value_noise", seed, 64).data.mean()) for seed in range(100)]
        assert min(means) >= 0.35
        assert max(means) <= 0.65


class TestRegions:
    def test_rejects_unknown_shape(self):
        with pytest.raises(PipelineError, match="bad-region"):
            Region("triangle", (1, 2, 3, 4))

    def test_rejects_wrong_geometry_arity(self):
        with pytest.raises(PipelineError, match="bad-region"):
            Region("rectangle", (1, 2, 3))
        with pytest.raises(PipelineError, match="bad-region"):
            Region("polygon", ((0, 0), (1, 1)))

    def test_rectangle_rasterizes_exact_extent(self):
        mask = rasterize(Region("rectangle", (4, 6, 10, 12)), 32, 32)
        expected = np.zeros((32, 32))
        expected[4:14, 6:18] = 1.0
        np.testing.assert_array_equal(mask, expected)

    def test_ellipse_contains_center_excludes_corners(self):
        mask = rasterize(Region("ellipse", (16, 16, 8, 10)), 32, 32)
        assert mask[16, 16] == 1.0
        assert mask[16, 26] == 1.0  # on the semi-axis boundary
        assert mask[8, 6] == 0.0
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_square_polygon_matches_rectangle(self):
        poly = rasterize(Region("polygon", ((8, 8), (8, 20), (20, 20), (20, 8))), 32, 32)
        rect = rasterize(Region("rectangle", (9, 8, 12, 12)), 32, 32)
        # even-odd casting against pixel centers: rows strictly below the top edge
        np.testing.assert_array_equal(poly, rect)

    def test_rejects_regions_touching_the_border(self):
        with pytest.raises(PipelineError, match="bad-region"):
            rasterize(Region("rectangle", (0, 4, 10, 10)), 32, 32)

    def test_rejects_degenerate_area(self):
        with pytest.raises(PipelineError, match="bad-region"):
            rasterize(Region("rectangle", (4, 4, 2, 2)), 64, 64)
        with pytest.raises(PipelineError, match="bad-region"):
            rasterize(Region("rectangle", (2, 2, 50, 50)), 64, 64)

    def test_sampled_regions_are_always_valid(self):
        rng = default_rng(77)
        for _ in range(33):
            region = sample_region(rng, 64, 64)
            mask = rasterize(region, 64, 64)
            frac = mask.mean()
            assert MASK_FRACTION_BOUNDS[0] <= frac <= MASK_FRACTION_BOUNDS[1]


class TestSpliceSpec:
    def test_validates_kinds_sigma_quality(self):
        region = Region("rectangle", (10, 10, 16, 16))
        with pytest.raises(PipelineError, match="bad-kind"):
            SpliceSpec("plasma", 0, "grating", 0, region)
        with pytest.raises(PipelineError, match="bad-sigma"):
            SpliceSpec("grating", 0, "grating", 0, region, host_sigma=0.5)
        with pytest.raises(PipelineError, match="bad-quality"):
            SpliceSpec("grating", 0, "grating", 0, region, donor_quality=0)

    def test_sampled_specs_never_collide_on_both_axes(self):
        rng = default_rng(11)
        for _ in range(50):
            spec = sample_splice_spec(rng, 64)
            assert not (spec.host_sigma == spec.donor_sigma and spec.host_quality == spec.donor_quality)
            assert spec.host_sigma in SIGMA_CHOICES and spec.donor_sigma in SIGMA_CHOICES
            assert spec.host_quality in QUALITY_CHOICES and spec.donor_quality in QUALITY_CHOICES


class TestSplice:
    def test_outside_region_equals_processed_host_bit_exactly(self):
        region = Region("rectangle", (20, 22, 18, 16))
        spec = SpliceSpec("grating", 3, "checker", 4, region, host_sigma=0.02, donor_sigma=0.0,
                          host_quality=75, donor_quality=100)
        frame, mask = splice(spec, 64)
        # a they-only-differ-in-donor spec reproduces the processed host everywhere
        host_only = SpliceSpec("grating", 3, "grating", 3, region, host_sigma=0.02, donor_sigma=0.02,
                               host_quality=75, donor_quality=75)
        host_frame, _ = splice(host_only, 64)
        outside = mask < 0.5
        assert frame.data[:, outside].tobytes() == host_frame.data[:, outside].tobytes()

    def test_mask_equals_rasterized_region(self):
        region = Region("ellipse", (30, 30, 10, 12))
        spec = SpliceSpec("gradient", 1, "value_noise", 2, region)
        _, mask = splice(spec, 64)
        np.testing.assert_array_equal(mask, rasterize(region, 64, 64))

    def test_null_splice_leaves_no_srm_boundary(self):
        # host == donor on every axis: inside/outside SRM grand means agree.
        # single instances fluctuate (max observed 0.014), so the control is a
        # 16-seed battery whose mean must clear the bound (measured 0.0063)
        diffs = []
        for seed in range(16):
            frame, mask = splice(null_splice_spec(seed), 64)
            srm = srm_features(frame)
            inside = mask > 0.5
            diffs.append(abs(float(srm.data[:, inside].mean()) - float(srm.data[:, ~inside].mean())))
        assert float(np.mean(diffs)) < 0.01

    def test_default_range_splices_show_srm_boundary_contrast(self):
        # the feature-detectability premise: adjacent pixel pairs straddling
        # the mask boundary differ strongly in SRM space (measured 0.79-0.87)
        rng = default_rng(2024)
        for _ in range(6):
            spec = sample_splice_spec(rng, 64)
            frame, mask = splice(spec, 64)
            m = mask > 0.5
            srm = srm_features(frame).data
            total, count = 0.0, 0
            for dy, dx in ((0, 1), (1, 0)):
                a = m[: m.shape[0] - dy, : m.shape[1] - dx]
                b = m[dy:, dx:]
                crossing = a != b
                va = srm[:, : srm.shape[1] - dy, : srm.shape[2] - dx][:, crossing]
                vb = srm[:, dy:, dx:][:, crossing]
                total += float(np.abs(va - vb).sum())
                count += va.size
            assert total / count > 0.02


class TestSpliceWindow:
    # splice compresses the donor only over the 8x8 blocks that cover the
    # region; the frame must equal the one made from the whole compressed
    # donor, also where the window ends in a partial last block, whose
    # reflect padding copies rows and columns of the block before it
    @pytest.mark.parametrize("size,region", [
        (64, Region("rectangle", (20, 22, 18, 16))),
        (37, Region("rectangle", (27, 25, 9, 11))),
        (42, Region("rectangle", (40, 2, 1, 38))),  # rows only in the partial last block
        (44, Region("rectangle", (2, 40, 40, 3))),  # columns only in the partial last block
        (60, Region("ellipse", (57, 30, 1.5, 16))),
        (61, Region("polygon", ((40, 30), (59, 59), (59, 20)))),
    ])
    def test_frame_equals_the_whole_donor_spliced(self, size, region):
        spec = SpliceSpec("value_noise", 5, "grating", 6, region, host_sigma=0.01, donor_sigma=0.02,
                          host_quality=90, donor_quality=60)
        frame, mask = splice(spec, size)
        host = datagen_mod._source_frame(spec.host_kind, spec.host_seed, spec.host_sigma, spec.host_quality, size)
        donor = datagen_mod._source_frame(spec.donor_kind, spec.donor_seed, spec.donor_sigma, spec.donor_quality, size)
        assert frame.data.tobytes() == np.where(mask[None] > 0.5, donor, host).tobytes()


class TestSimulateInpaint:
    def test_outside_region_unchanged(self):
        host = make_texture("checker", 2, 64)
        region = Region("rectangle", (20, 20, 24, 24))
        out, mask = simulate_inpaint(host, region, 9)
        outside = mask < 0.5
        np.testing.assert_array_equal(out.data[:, outside], host.data[:, outside])

    def test_deterministic_under_fixed_seed(self):
        host = make_texture("value_noise", 3, 64)
        region = Region("ellipse", (32, 32, 10, 10))
        a, _ = simulate_inpaint(host, region, 4)
        b, _ = simulate_inpaint(host, region, 4)
        assert a.data.tobytes() == b.data.tobytes()

    def test_high_band_energy_drops_inside_region(self):
        # hosts need acquisition noise for the high band to carry energy the
        # fill can remove; measured variance ratios 0.10-0.16 on these seeds
        region_in = Region("rectangle", (20, 20, 24, 24))
        for seed in range(4):
            host, _ = splice(null_splice_spec(seed, sigma=0.04, region=Region("rectangle", (4, 4, 12, 12))), 64)
            out, mask = simulate_inpaint(host, region_in, seed + 100)
            inside = mask > 0.5
            before = frequency_features(host)
            after = frequency_features(out)
            for name in ("dct8_high_R", "dct8_high_G", "dct8_high_B"):
                i = before.labels.index(name)
                assert float(after.data[i][inside].var()) < float(before.data[i][inside].var())


class TestMakeDataset:
    def test_split_counts_16_items(self, tmp_path):
        manifest = make_dataset(tmp_path, count=16, size=64, seed=3, train_fraction=0.75)
        assert manifest.counts == {"train": 12, "eval": 4}
        splits = [item["split"] for item in manifest.items]
        assert splits == ["train"] * 12 + ["eval"] * 4

    def test_regeneration_is_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        make_dataset(a_dir, count=6, size=64, seed=21, inpaint_fraction=0.5)
        make_dataset(b_dir, count=6, size=64, seed=21, inpaint_fraction=0.5)
        names = sorted(os.listdir(a_dir))
        assert names == sorted(os.listdir(b_dir))
        for name in names:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_files_are_pinned(self, tmp_path):
        # sha256 over (name, bytes) of every written file: the files must not move
        # between versions; three of the six items are inpainted, which pins the blur
        make_dataset(tmp_path, count=6, size=32, seed=3, inpaint_fraction=0.5)
        digest = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == "7fa466f41479a5a953286955e438d7967d2e59baa5fc5a93a99e616f8a3f37bf"

    def test_masks_are_strictly_binary(self, tmp_path):
        make_dataset(tmp_path, count=6, size=64, seed=5, inpaint_fraction=0.5)
        for _, _, mask in load_split(tmp_path, "all"):
            assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_frames_are_8bit_quantized_on_load(self, tmp_path):
        make_dataset(tmp_path, count=2, size=64, seed=6, train_fraction=1.0)
        _, frame, _ = load_split(tmp_path, "train")[0]
        np.testing.assert_allclose(frame.data * 255.0, np.rint(frame.data * 255.0), atol=1e-9)

    def test_manifest_round_trips_and_files_exist(self, tmp_path):
        manifest = make_dataset(tmp_path, count=4, size=64, seed=7)
        loaded = load_manifest(tmp_path)
        assert isinstance(loaded, DatasetManifest)
        assert loaded.seed == 7 and loaded.size == 64
        for item in loaded.items:
            assert (tmp_path / item["frame"]).exists()
            assert (tmp_path / item["mask"]).exists()
            assert item["kind"] in ("splice", "inpaint")

    def test_manifest_spec_echo_regenerates_the_frame(self, tmp_path):
        make_dataset(tmp_path, count=3, size=64, seed=8, train_fraction=1.0, inpaint_fraction=0.0)
        manifest = load_manifest(tmp_path)
        item = manifest.items[0]
        doc = item["spec"]
        region_doc = doc["region"]
        geometry = [tuple(p) for p in region_doc["geometry"]] if region_doc["shape"] == "polygon" else region_doc["geometry"]
        spec = SpliceSpec(
            host_kind=doc["host"]["texture"],
            host_seed=doc["host"]["seed"],
            donor_kind=doc["donor"]["texture"],
            donor_seed=doc["donor"]["seed"],
            region=Region(region_doc["shape"], geometry),
            host_sigma=doc["host"]["sigma"],
            donor_sigma=doc["donor"]["sigma"],
            host_quality=doc["host"]["quality"],
            donor_quality=doc["donor"]["quality"],
        )
        frame, _ = splice(spec, 64)
        stored = (tmp_path / item["frame"]).read_bytes()
        from tamperloc.formats import write_ppm

        regen = tmp_path / "regen.ppm"
        write_ppm(regen, frame)
        assert regen.read_bytes() == stored

    def test_validation_errors(self, tmp_path):
        with pytest.raises(PipelineError, match="bad-count"):
            make_dataset(tmp_path, count=0, size=64, seed=0)
        with pytest.raises(PipelineError, match="bad-split"):
            make_dataset(tmp_path, count=2, size=64, seed=0, train_fraction=1.5)
        with pytest.raises(PipelineError, match="bad-split"):
            make_dataset(tmp_path, count=2, size=64, seed=0, inpaint_fraction=-0.1)

    @pytest.mark.parametrize(
        "kwargs,code",
        [(dict(count=2.5), "bad-count"), (dict(count=float("nan")), "bad-count"), (dict(count=(2,)), "bad-count"),
         (dict(size=32.5), "bad-size"), (dict(size=float("inf")), "bad-size"), (dict(size="32"), "bad-size"),
         (dict(train_fraction="0.5"), "bad-split"), (dict(train_fraction=(0.5,)), "bad-split"),
         (dict(inpaint_fraction=[0.2]), "bad-split"), (dict(inpaint_fraction=np.array([0.2, 0.3])), "bad-split"),
         (dict(train_fraction=float("nan")), "bad-split"), (dict(inpaint_fraction=float("inf")), "bad-split"),
         (dict(train_fraction=float("-inf")), "bad-split")],
        ids=["fractional-count", "nan-count", "tuple-count", "fractional-size", "inf-size", "string-size",
             "string-train-fraction", "tuple-train-fraction", "list-inpaint-fraction", "array-inpaint-fraction",
             "nan-train-fraction", "inf-inpaint-fraction", "minus-inf-train-fraction"],
    )
    def test_rejects_non_integer_count_and_size_before_creating_the_directory(self, tmp_path, kwargs, code):
        with pytest.raises(PipelineError, match=code):
            make_dataset(tmp_path / "out", **{"count": 2, "size": 32, "seed": 0, **kwargs})
        assert not (tmp_path / "out").exists()

    def test_integral_count_and_size_write_the_same_corpus(self, tmp_path):
        make_dataset(tmp_path / "a", count=2, size=32, seed=4)
        manifest = make_dataset(tmp_path / "b", count=2.0, size=np.float64(32), seed=4)
        assert type(manifest.size) is int and len(manifest.items) == 2
        for name in sorted(os.listdir(tmp_path / "a")):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("seed", [-1, 2.5, float("nan")])
    def test_rejects_bad_seed_before_creating_the_directory(self, tmp_path, seed):
        with pytest.raises(PipelineError, match="bad-seed"):
            make_dataset(tmp_path / "out", count=2, size=32, seed=seed)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("size", [16, 24])
    def test_rejects_sides_below_the_texture_bank_before_creating_the_directory(self, tmp_path, size):
        assert size < BANK_SIDE
        with pytest.raises(PipelineError, match="bad-size"):
            make_dataset(tmp_path / "out", count=2, size=size, seed=0)
        assert not (tmp_path / "out").exists()

    def test_unwritable_destination_is_io_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(PipelineError, match="io-error"):
            make_dataset(blocker / "sub", count=1, size=64, seed=0)

    def test_load_split_rejects_unknown_split(self, tmp_path):
        make_dataset(tmp_path, count=2, size=64, seed=1)
        with pytest.raises(PipelineError, match="bad-split"):
            load_split(tmp_path, "test")

    def test_load_manifest_missing_is_io_error(self, tmp_path):
        with pytest.raises(PipelineError, match="io-error"):
            load_manifest(tmp_path / "nowhere")

    @pytest.mark.parametrize(
        "blob",
        [
            b"{",
            b"{}",
            b"[]",
            b"\xff\xfe{}",
            b'{"seed": 0, "size": 64, "counts": {}, "items": {}}',
            b'{"seed": 0, "size": 64, "counts": {}, "items": [{"frame": "f.ppm", "mask": "m.pgm"}]}',
            b'{"seed": "0", "size": 64, "counts": {}, "items": []}',
            b'{"seed": 0, "size": 64, "counts": {}, "items": [{"frame": "f\\u0000.ppm", "mask": "m.pgm", "split": "train"}]}',
        ],
        ids=["truncated", "empty-object", "array", "not-utf8", "items-not-list", "item-without-split", "string-seed",
             "nul-in-path"],
    )
    def test_malformed_manifest_is_bad_manifest(self, tmp_path, blob):
        (tmp_path / MANIFEST_NAME).write_bytes(blob)
        with pytest.raises(PipelineError, match="bad-manifest"):
            load_split(tmp_path, "all")

    @pytest.mark.parametrize("split", ["tr4in", "all", "", None, 1])
    def test_item_split_other_than_train_or_eval_is_bad_manifest(self, tmp_path, split):
        make_dataset(tmp_path, count=4, size=32, seed=2)
        doc = json.loads((tmp_path / MANIFEST_NAME).read_text())
        doc["items"][1]["split"] = split
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(doc))
        for which in ("train", "eval", "all"):
            with pytest.raises(PipelineError, match="bad-manifest"):
                load_split(tmp_path, which)
        code = cli_main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.uvlt"), "--steps", "1"])
        assert code == EXIT_DATA
        assert not (tmp_path / "m.uvlt").exists()

    def test_manifest_document_is_the_dataclass(self, tmp_path):
        manifest = make_dataset(tmp_path, count=3, size=32, seed=6)
        doc = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert sorted(doc) == sorted(f.name for f in dataclasses.fields(DatasetManifest))
        assert load_manifest(tmp_path) == manifest

    def test_load_split_ids_follow_manifest_order(self, tmp_path):
        make_dataset(tmp_path, count=4, size=64, seed=2, train_fraction=0.5)
        train = load_split(tmp_path, "train")
        assert [item_id for item_id, _, _ in train] == ["frame_0000", "frame_0001"]
        evals = load_split(tmp_path, "eval")
        assert [item_id for item_id, _, _ in evals] == ["frame_0002", "frame_0003"]


def damage(path: Path, how: str) -> None:
    """Remove, truncate, or rewrite at another size the netpbm file at ``path``."""
    if how == "removed":
        path.unlink()
    elif how == "truncated":
        path.write_bytes(path.read_bytes()[:-1])
    elif path.suffix == ".ppm":
        write_ppm(path, Frame(np.full((3, 40, 40), 0.5)))
    else:
        write_pgm(path, np.zeros((40, 40)))


DAMAGE_CODES = {"removed": "io-error", "truncated": "truncated", "resized": "shape-mismatch"}


class TestCorpusSplit:
    def test_reads_an_item_only_when_it_is_indexed(self, tmp_path, monkeypatch):
        make_dataset(tmp_path, count=4, size=32, seed=2)
        reads = []
        real = datagen_mod.read_ppm
        monkeypatch.setattr(datagen_mod, "read_ppm", lambda path: reads.append(Path(path).name) or real(path))
        split = load_split(tmp_path, "all")
        assert isinstance(split, Sequence) and len(split) == 4 and reads == []
        item_id, frame, mask = split[-1]
        assert item_id == "frame_0003" and reads == ["frame_0003.ppm"]
        assert isinstance(frame, Frame) and mask.shape == (32, 32) and mask.dtype == np.float64
        tail = split[1:3]
        assert len(tail) == 2 and reads == ["frame_0003.ppm"]
        assert [item_id for item_id, _, _ in tail] == ["frame_0001", "frame_0002"]
        assert [item_id for item_id, _, _ in split] == [f"frame_{i:04d}" for i in range(4)]
        with pytest.raises(IndexError):
            split[4]

    def test_items_are_the_files_pixels(self, tmp_path):
        make_dataset(tmp_path, count=3, size=32, seed=4)
        for item_id, frame, mask in load_split(tmp_path, "all"):
            assert frame.data.tobytes() == read_ppm(tmp_path / f"{item_id}.ppm").data.tobytes()
            index = item_id.split("_")[1]
            assert mask.tobytes() == read_pgm(tmp_path / f"mask_{index}.pgm").tobytes()

    def test_reads_by_absolute_path(self, tmp_path, monkeypatch):
        make_dataset(tmp_path / "corpus", count=2, size=32, seed=1)
        monkeypatch.chdir(tmp_path)
        split = load_split("corpus", "all")
        monkeypatch.chdir(tmp_path / "corpus")
        assert split[0][0] == "frame_0000"

    @pytest.mark.parametrize("how", ["removed", "truncated"])
    @pytest.mark.parametrize("name", ["frame_0001.ppm", "mask_0001.pgm"])
    def test_a_damaged_file_fails_at_load_with_todays_code(self, tmp_path, name, how):
        make_dataset(tmp_path, count=3, size=32, seed=5)
        damage(tmp_path / name, how)
        with pytest.raises(PipelineError, match=f"^{DAMAGE_CODES[how]}:"):
            load_split(tmp_path, "all")

    def test_a_frame_in_place_of_its_mask_is_bad_magic_at_load(self, tmp_path):
        make_dataset(tmp_path, count=2, size=32, seed=5)
        doc = json.loads((tmp_path / MANIFEST_NAME).read_text())
        doc["items"][1]["mask"] = doc["items"][1]["frame"]
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(doc))
        with pytest.raises(PipelineError, match="^bad-magic: expected P5"):
            load_split(tmp_path, "all")

    def test_a_mask_of_another_size_is_a_shape_mismatch_at_load(self, tmp_path):
        make_dataset(tmp_path, count=3, size=32, seed=5)
        write_pgm(tmp_path / "mask_0002.pgm", np.zeros((32, 30)))
        with pytest.raises(PipelineError, match=r"^shape-mismatch: frame_0002: mask \(32, 30\) vs frame 32x32$"):
            load_split(tmp_path, "all")

    @pytest.mark.parametrize("how", sorted(DAMAGE_CODES))
    @pytest.mark.parametrize("name", ["frame_0001.ppm", "mask_0001.pgm"])
    def test_a_file_damaged_after_load_fails_as_it_is_read_naming_the_item(self, tmp_path, name, how):
        make_dataset(tmp_path, count=3, size=32, seed=5)
        split = load_split(tmp_path, "all")
        damage(tmp_path / name, how)
        assert split[0][0] == "frame_0000" and split[2][0] == "frame_0002"
        with pytest.raises(PipelineError, match=f"^{DAMAGE_CODES[how]}: frame_0001: ") as info:
            split[1]
        assert info.value.code == DAMAGE_CODES[how]

    @pytest.mark.parametrize("how", sorted(DAMAGE_CODES))
    def test_eval_on_a_file_damaged_after_load_prints_one_error_line(self, tmp_path, monkeypatch, capsys, how):
        make_dataset(tmp_path / "corpus", count=4, size=32, seed=5, train_fraction=0.5)
        model = tmp_path / "m.uvlt"
        save_model(model, init_network(ArchConfig(), 0))
        real = cli_mod.load_split

        def load_then_damage(data_dir, split):
            items = real(data_dir, split)
            damage(tmp_path / "corpus" / "frame_0003.ppm", how)
            return items

        monkeypatch.setattr(cli_mod, "load_split", load_then_damage)
        argv = ["eval", "--model", str(model), "--data", str(tmp_path / "corpus"), "--json", str(tmp_path / "r.json")]
        assert cli_main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {DAMAGE_CODES[how]}: frame_0003: ")
        assert not (tmp_path / "r.json").exists()
