"""Synthetic tampered-frame corpus with exact ground-truth masks.

Each item is manufactured so at least one detectable inconsistency class is
present: texture statistics (different procedural families), edges (hard,
unblended splice boundaries), noise levels (per-source Gaussian sigma), and
compression history (per-source JPEG-style quality). Inpainting-style items
instead over-smooth a region of an otherwise consistent frame.

Generation is deterministic: every random draw comes from generators keyed by
explicit integer seeds, so a manifest regenerates byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .core import Frame, check_int, check_real, check_seed
from .errors import PipelineError
from .formats import netpbm_header, read_pgm, read_ppm, write_pgm, write_ppm
from .perturb import gaussian_blur, quantize_like_jpeg
from .texture import BANK_SIDE

TEXTURE_KINDS = ("grating", "value_noise", "gradient", "checker")
REGION_SHAPES = ("ellipse", "rectangle", "polygon")
MIN_TEXTURE_SIZE = 16

# sampled area fraction stays well inside the 2%-40% validity band
AREA_FRACTION_RANGE = (0.05, 0.35)
MASK_FRACTION_BOUNDS = (0.02, 0.40)

SIGMA_CHOICES = (0.0, 0.01, 0.02, 0.04)
QUALITY_CHOICES = (60, 75, 90, 100)

INPAINT_BLUR_SIGMA = 4.0
INPAINT_BLUR_KSIZE = 25
INPAINT_NOISE_SIGMA = 0.01

MANIFEST_NAME = "manifest.json"


# --- procedural textures ----------------------------------------------------


def _colorize(v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Map a scalar field in [0, 1] to RGB with mild per-channel contrast/tint.

    Contrast stays positive (monotone maps stay monotone) and the ranges are
    narrow enough to keep whole-frame means near 0.5.
    """
    contrast = rng.uniform(0.4, 0.9, size=3)
    tint = rng.uniform(-0.08, 0.08, size=3)
    rgb = 0.5 + contrast[:, None, None] * (v[None] - 0.5) + tint[:, None, None]
    return np.clip(rgb, 0.0, 1.0)


def _grating(rng: np.random.Generator, size: int) -> np.ndarray:
    theta = rng.uniform(0.0, math.pi)
    wavelength = rng.uniform(4.0, 12.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    amp = rng.uniform(0.3, 0.5)
    y, x = np.mgrid[0:size, 0:size].astype(np.float64)
    ramp = x * math.cos(theta) + y * math.sin(theta)
    return 0.5 + amp * np.sin(2.0 * math.pi * ramp / wavelength + phase)


def _lattice_noise(rng: np.random.Generator, size: int, cell: int) -> np.ndarray:
    nodes = size // cell + 2
    grid = rng.uniform(0.0, 1.0, size=(nodes, nodes))
    t = np.arange(size, dtype=np.float64) / cell
    i = t.astype(np.intp)
    f = t - i
    fy, fx = f[:, None], f[None, :]
    g00 = grid[np.ix_(i, i)]
    g01 = grid[np.ix_(i, i + 1)]
    g10 = grid[np.ix_(i + 1, i)]
    g11 = grid[np.ix_(i + 1, i + 1)]
    return (1 - fy) * ((1 - fx) * g00 + fx * g01) + fy * ((1 - fx) * g10 + fx * g11)


def _value_noise(rng: np.random.Generator, size: int) -> np.ndarray:
    return 0.65 * _lattice_noise(rng, size, 8) + 0.35 * _lattice_noise(rng, size, 4)


def _gradient(rng: np.random.Generator, size: int) -> np.ndarray:
    a = rng.uniform(0.3, 1.0) * rng.choice((-1.0, 1.0))
    b = rng.uniform(0.3, 1.0) * rng.choice((-1.0, 1.0))
    y, x = np.mgrid[0:size, 0:size].astype(np.float64)
    ramp = a * x + b * y
    return (ramp - ramp.min()) / (ramp.max() - ramp.min())


def _checker(rng: np.random.Generator, size: int) -> np.ndarray:
    cell = int(rng.choice((4, 8)))
    lo = rng.uniform(0.05, 0.35)
    hi = rng.uniform(0.65, 0.95)
    y, x = np.mgrid[0:size, 0:size]
    return np.where((y // cell + x // cell) % 2 == 0, lo, hi)


_TEXTURE_FIELDS = {
    "grating": _grating,
    "value_noise": _value_noise,
    "gradient": _gradient,
    "checker": _checker,
}


def make_texture(kind: str, seed: int, size: int) -> Frame:
    """Deterministic procedural RGB texture, ``size`` x ``size``, in [0, 1]."""
    if kind not in _TEXTURE_FIELDS:
        raise PipelineError("bad-kind", f"unknown texture {kind!r}, expected one of {TEXTURE_KINDS}")
    if size < MIN_TEXTURE_SIZE:
        raise PipelineError("bad-size", f"textures need size >= {MIN_TEXTURE_SIZE}, got {size}")
    rng = np.random.default_rng(np.random.SeedSequence([101, check_seed(seed)]))
    field = _TEXTURE_FIELDS[kind](rng, int(size))
    return Frame(_colorize(field, rng))


# --- regions ----------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """Mask geometry in pixel units.

    ``geometry`` by shape: ellipse (cy, cx, ry, rx); rectangle (top, left,
    height, width); polygon ((y, x), ...) with at least three vertices.
    """

    shape: str
    geometry: tuple

    def __post_init__(self):
        if self.shape not in REGION_SHAPES:
            raise PipelineError("bad-region", f"unknown shape {self.shape!r}")
        geometry = tuple(tuple(p) for p in self.geometry) if self.shape == "polygon" else tuple(self.geometry)
        if self.shape == "polygon":
            if len(geometry) < 3 or any(len(p) != 2 for p in geometry):
                raise PipelineError("bad-region", "polygon needs >= 3 (y, x) vertices")
        elif len(geometry) != 4:
            raise PipelineError("bad-region", f"{self.shape} needs 4 geometry values, got {len(geometry)}")
        object.__setattr__(self, "geometry", geometry)


def _rasterize(region: Region, height: int, width: int) -> np.ndarray:
    ys = np.arange(height, dtype=np.float64)[:, None]
    xs = np.arange(width, dtype=np.float64)[None, :]
    if region.shape == "ellipse":
        cy, cx, ry, rx = (float(v) for v in region.geometry)
        return ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
    if region.shape == "rectangle":
        top, left, h, w = (int(v) for v in region.geometry)
        return (ys >= top) & (ys < top + h) & (xs >= left) & (xs < left + w)
    # polygon: even-odd ray casting against pixel centers
    inside = np.zeros((height, width), dtype=bool)
    points = region.geometry
    for k in range(len(points)):
        y1, x1 = points[k]
        y2, x2 = points[(k + 1) % len(points)]
        straddles = (ys > min(y1, y2)) & (ys <= max(y1, y2))
        if y1 == y2:
            continue
        xcross = x1 + (x2 - x1) * (ys - y1) / (y2 - y1)
        inside ^= straddles & (xs < xcross)
    return inside


def _mask_valid(mask: np.ndarray) -> bool:
    frac = float(mask.mean())
    if not (MASK_FRACTION_BOUNDS[0] <= frac <= MASK_FRACTION_BOUNDS[1]):
        return False
    # strictly inside: the one-pixel border stays clear
    return not (mask[0].any() or mask[-1].any() or mask[:, 0].any() or mask[:, -1].any())


def rasterize(region: Region, height: int, width: int) -> np.ndarray:
    """Binary float mask of the region; rejects out-of-bounds or degenerate areas."""
    mask = _rasterize(region, height, width)
    if not _mask_valid(mask):
        raise PipelineError(
            "bad-region",
            f"region must sit strictly inside {height}x{width} covering "
            f"{MASK_FRACTION_BOUNDS[0]:.0%}-{MASK_FRACTION_BOUNDS[1]:.0%} of it",
        )
    return mask.astype(np.float64)


def sample_region(rng: np.random.Generator, height: int, width: int) -> Region:
    """Draw a random valid region; shape uniform over ellipse/rectangle/polygon."""
    for _ in range(64):
        shape = REGION_SHAPES[rng.integers(len(REGION_SHAPES))]
        frac = rng.uniform(*AREA_FRACTION_RANGE)
        area = frac * height * width
        if shape == "ellipse":
            aspect = rng.uniform(0.6, 1.6)
            rx = math.sqrt(area * aspect / math.pi)
            ry = rx / aspect
            if ry + 2 >= height - 3 - ry or rx + 2 >= width - 3 - rx:
                continue
            cy = rng.uniform(ry + 2, height - 3 - ry)
            cx = rng.uniform(rx + 2, width - 3 - rx)
            region = Region("ellipse", (cy, cx, ry, rx))
        elif shape == "rectangle":
            aspect = rng.uniform(0.5, 2.0)
            w = max(2, int(round(math.sqrt(area * aspect))))
            h = max(2, int(round(area / w)))
            if h + 4 >= height or w + 4 >= width:
                continue
            top = int(rng.integers(2, height - 2 - h))
            left = int(rng.integers(2, width - 2 - w))
            region = Region("rectangle", (top, left, h, w))
        else:
            count = int(rng.integers(5, 9))
            rbar = math.sqrt(area / math.pi)
            rmax = rbar * 1.25
            if rmax + 2 >= height - 3 - rmax or rmax + 2 >= width - 3 - rmax:
                continue
            cy = rng.uniform(rmax + 2, height - 3 - rmax)
            cx = rng.uniform(rmax + 2, width - 3 - rmax)
            angles = 2.0 * math.pi * np.arange(count) / count + rng.uniform(-0.3, 0.3, size=count)
            radii = rbar * rng.uniform(0.75, 1.25, size=count)
            points = tuple((cy + r * math.sin(a), cx + r * math.cos(a)) for r, a in zip(radii, angles))
            region = Region("polygon", points)
        if _mask_valid(_rasterize(region, height, width)):
            return region
    raise PipelineError("bad-region", f"no valid region fits a {height}x{width} frame")


# --- splicing and inpainting -------------------------------------------------


@dataclass(frozen=True)
class SpliceSpec:
    """Everything needed to rebuild one spliced frame bit-exactly."""

    host_kind: str
    host_seed: int
    donor_kind: str
    donor_seed: int
    region: Region
    host_sigma: float = 0.0
    donor_sigma: float = 0.0
    host_quality: int = 100
    donor_quality: int = 100

    def __post_init__(self):
        for kind in (self.host_kind, self.donor_kind):
            if kind not in TEXTURE_KINDS:
                raise PipelineError("bad-kind", f"unknown texture {kind!r}")
        for sigma in (self.host_sigma, self.donor_sigma):
            if not (0.0 <= sigma <= 0.25):
                raise PipelineError("bad-sigma", f"noise sigma {sigma} outside [0, 0.25]")
        for quality in (self.host_quality, self.donor_quality):
            if not (1 <= quality <= 100):
                raise PipelineError("bad-quality", f"quality {quality} outside [1, 100]")


def _source_frame(kind: str, seed: int, sigma: float, quality: float, size: int, window=(slice(None),) * 2) -> np.ndarray:
    """Texture -> additive noise -> block-quantisation, the per-source history,
    compressed over ``window`` (rows, cols) only: see :func:`_block_window`.

    The noise stream is keyed by the texture seed alone so identical sources
    stay bit-identical regardless of whether they act as host or donor.
    """
    data = make_texture(kind, seed, size).data
    if sigma > 0.0:
        rng = np.random.default_rng(np.random.SeedSequence([401, int(seed)]))
        data = np.clip(data + rng.normal(0.0, sigma, size=data.shape), 0.0, 1.0)
    return quantize_like_jpeg(data[(slice(None),) + tuple(window)], quality)


def _block_window(mask: np.ndarray, block: int = 8) -> tuple[slice, slice]:
    """Rows and columns of the whole compression blocks that cover the mask.

    Blocks are compressed one by one, so a source compressed over this window
    has the bytes of the whole compressed source there. A window that ends
    in the frame's partial last block also takes the block before it, whose
    rows (or columns) that block's reflect padding copies.
    """
    def span(hit):
        idx, n = np.flatnonzero(hit), len(hit)
        lo, hi = idx[0] // block * block, min(n, (idx[-1] // block + 1) * block)
        return slice(min(lo, n - n % block - block) if hi == n and n % block else lo, hi)

    inside = mask > 0.5
    return span(inside.any(axis=1)), span(inside.any(axis=0))


def splice(spec: SpliceSpec, size: int) -> tuple[Frame, np.ndarray]:
    """Copy donor pixels into the host inside the region, hard boundary.

    Outside the region the frame equals the processed host bit-exactly; the
    mask is exactly the rasterised region. The donor is compressed only over
    the blocks that cover the region.
    """
    mask = rasterize(spec.region, size, size)
    window = _block_window(mask)
    frame = _source_frame(spec.host_kind, spec.host_seed, spec.host_sigma, spec.host_quality, size)
    donor = _source_frame(spec.donor_kind, spec.donor_seed, spec.donor_sigma, spec.donor_quality, size, window)
    inside = frame[(slice(None),) + window]
    inside[...] = np.where(mask[window][None] > 0.5, donor, inside)
    return Frame(frame), mask


def simulate_inpaint(f: Frame, region: Region, seed: int) -> tuple[Frame, np.ndarray]:
    """Replace the region with an over-smooth copy of itself.

    Strong Gaussian blur plus faint seeded noise mimics the statistics of
    generatively filled areas: detail is gone but the fill is not flat.
    """
    mask = rasterize(region, f.height, f.width)
    blurred = gaussian_blur(f.data, INPAINT_BLUR_SIGMA, INPAINT_BLUR_KSIZE)
    rng = np.random.default_rng(np.random.SeedSequence([501, int(seed)]))
    filled = np.clip(blurred + rng.normal(0.0, INPAINT_NOISE_SIGMA, size=f.data.shape), 0.0, 1.0)
    return Frame(np.where(mask[None] > 0.5, filled, f.data)), mask


def sample_splice_spec(rng: np.random.Generator, size: int) -> SpliceSpec:
    """Random spec; the (sigma, quality) pair never collides on both axes."""
    host_kind = TEXTURE_KINDS[rng.integers(len(TEXTURE_KINDS))]
    donor_kind = TEXTURE_KINDS[rng.integers(len(TEXTURE_KINDS))]
    host_seed = int(rng.integers(1 << 20))
    donor_seed = int(rng.integers(1 << 20))
    while True:
        host_sigma = float(SIGMA_CHOICES[rng.integers(len(SIGMA_CHOICES))])
        donor_sigma = float(SIGMA_CHOICES[rng.integers(len(SIGMA_CHOICES))])
        host_quality = int(QUALITY_CHOICES[rng.integers(len(QUALITY_CHOICES))])
        donor_quality = int(QUALITY_CHOICES[rng.integers(len(QUALITY_CHOICES))])
        if not (host_sigma == donor_sigma and host_quality == donor_quality):
            break
    return SpliceSpec(
        host_kind=host_kind,
        host_seed=host_seed,
        donor_kind=donor_kind,
        donor_seed=donor_seed,
        region=sample_region(rng, size, size),
        host_sigma=host_sigma,
        donor_sigma=donor_sigma,
        host_quality=host_quality,
        donor_quality=donor_quality,
    )


# --- corpus ------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetManifest:
    """Index of one generated corpus: global seed, per-split counts, items.

    Items are plain dicts (frame/mask paths relative to the manifest, split,
    kind, and the full spec echo) so the manifest survives JSON untouched.
    """

    seed: int
    size: int
    counts: dict
    items: tuple


def _region_doc(region: Region) -> dict:
    geometry = [list(p) for p in region.geometry] if region.shape == "polygon" else list(region.geometry)
    return {"shape": region.shape, "geometry": geometry}


def _source_doc(kind: str, seed: int, sigma: float, quality: int) -> dict:
    return {"texture": kind, "seed": seed, "sigma": sigma, "quality": quality}


def _sample_item(seed: int, index: int, size: int, inpaint_fraction: float) -> tuple[str, dict, Frame, np.ndarray]:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 303, int(index)]))
    if rng.uniform() < inpaint_fraction:
        kind = TEXTURE_KINDS[rng.integers(len(TEXTURE_KINDS))]
        tex_seed = int(rng.integers(1 << 20))
        sigma = float(SIGMA_CHOICES[rng.integers(len(SIGMA_CHOICES))])
        quality = int(QUALITY_CHOICES[rng.integers(len(QUALITY_CHOICES))])
        region = sample_region(rng, size, size)
        noise_seed = int(rng.integers(1 << 20))
        host = Frame(_source_frame(kind, tex_seed, sigma, quality, size))
        frame, mask = simulate_inpaint(host, region, noise_seed)
        spec_doc = {
            "host": _source_doc(kind, tex_seed, sigma, quality),
            "noise_seed": noise_seed,
            "region": _region_doc(region),
        }
        return "inpaint", spec_doc, frame, mask
    spec = sample_splice_spec(rng, size)
    frame, mask = splice(spec, size)
    spec_doc = {
        "host": _source_doc(spec.host_kind, spec.host_seed, spec.host_sigma, spec.host_quality),
        "donor": _source_doc(spec.donor_kind, spec.donor_seed, spec.donor_sigma, spec.donor_quality),
        "region": _region_doc(spec.region),
    }
    return "splice", spec_doc, frame, mask


def make_dataset(
    out_dir,
    count: int,
    size: int,
    seed: int,
    train_fraction: float = 0.75,
    inpaint_fraction: float = 0.25,
) -> DatasetManifest:
    """Generate ``count`` items with per-index derived seeds and write them out.

    Items land in ``out_dir`` as frame_NNNN.ppm / mask_NNNN.pgm plus a
    manifest; the first round(count * train_fraction) items form the train
    split, the rest eval. Same arguments always regenerate identical bytes.
    """
    count = check_int(count, "bad-count", "item count")
    train_fraction = check_real(train_fraction, "bad-split", "train fraction", 0.0, 1.0)
    inpaint_fraction = check_real(inpaint_fraction, "bad-split", "inpaint fraction", 0.0, 1.0)
    size = check_int(size, "bad-size", "frame size (the texture view's bank must fit)", BANK_SIDE)
    seed = check_seed(seed)

    n_train = int(round(count * train_fraction))
    items = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for index in range(count):
            kind, spec_doc, frame, mask = _sample_item(seed, index, size, inpaint_fraction)
            frame_name = f"frame_{index:04d}.ppm"
            mask_name = f"mask_{index:04d}.pgm"
            write_ppm(os.path.join(out_dir, frame_name), frame)
            write_pgm(os.path.join(out_dir, mask_name), mask)
            items.append(
                {
                    "index": index,
                    "frame": frame_name,
                    "mask": mask_name,
                    "split": "train" if index < n_train else "eval",
                    "kind": kind,
                    "spec": spec_doc,
                }
            )
        manifest = DatasetManifest(
            seed=seed,
            size=size,
            counts={"train": n_train, "eval": count - n_train},
            items=tuple(items),
        )
        with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
            json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise PipelineError("io-error", f"cannot write dataset to {out_dir}: {exc}") from exc
    return manifest


def load_manifest(data_dir) -> DatasetManifest:
    """Read a corpus manifest; anything unreadable as one is ``bad-manifest``."""
    try:
        with open(os.path.join(data_dir, MANIFEST_NAME), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise PipelineError("io-error", f"cannot read manifest in {data_dir}: {exc}") from exc
    except ValueError as exc:  # malformed JSON or UTF-8
        raise PipelineError("bad-manifest", f"{MANIFEST_NAME} in {data_dir}: {exc}") from None
    if not _manifest_schema_ok(doc):
        raise PipelineError("bad-manifest", f"{MANIFEST_NAME} in {data_dir} lacks the corpus fields")
    return DatasetManifest(doc["seed"], doc["size"], doc["counts"], tuple(doc["items"]))


def _manifest_schema_ok(doc) -> bool:
    """The fields ``DatasetManifest`` and ``load_split`` read, with their types.

    A path holding a NUL character cannot be opened, so it is malformed too,
    and so is an item split other than ``train`` or ``eval``, which both of
    those splits would skip.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("counts"), dict):
        return False
    if any(type(doc.get(key)) is not int for key in ("seed", "size")):
        return False
    items = doc.get("items")
    return isinstance(items, list) and all(
        isinstance(item, dict)
        and all(isinstance(item.get(key), str) and "\0" not in item[key] for key in ("frame", "mask"))
        and item.get("split") in ("train", "eval")
        for item in items
    )


class CorpusSplit(Sequence):
    """One split of a corpus on disk, as (item id, frame, mask) items.

    It holds each item's id, two file paths and checked (height, width), not
    pixels: ``[i]`` reads item i's files, and so do iteration and the items
    of a slice, so a consumer holds an item only while a job works on it. A
    file that changed after ``load_split`` checked it fails as it is read,
    naming the item: ``io-error`` when it is gone, its format's code (such
    as ``truncated``) when it is corrupt, ``shape-mismatch`` when it has
    another size. So a split must not outlive its directory.
    """

    def __init__(self, entries: tuple):
        self._entries = entries  # (item id, frame path, mask path, (height, width))

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CorpusSplit(self._entries[index])
        item_id, frame_path, mask_path, shape = self._entries[index]
        try:
            frame, mask = read_ppm(frame_path), read_pgm(mask_path)
        except OSError as exc:
            raise PipelineError("io-error", f"{item_id}: dataset file missing: {exc}") from exc
        except PipelineError as exc:
            raise PipelineError(exc.code, f"{item_id}: {exc.message}") from None
        if (frame.height, frame.width) != shape or mask.shape != shape:
            raise PipelineError(
                "shape-mismatch",
                f"{item_id}: frame {frame.height}x{frame.width} and mask {mask.shape[0]}x{mask.shape[1]}, "
                f"checked as {shape[0]}x{shape[1]}",
            )
        return item_id, frame, mask


def _checked_shape(path, magic: bytes) -> tuple[int, int]:
    """(height, width) from a netpbm file's header, once the header is checked."""
    with open(path, "rb") as fh:
        width, height = netpbm_header(fh, magic)
    return height, width


def load_split(data_dir, split: str = "train") -> CorpusSplit:
    """One split as a sequence of (item id, frame, mask) triples, manifest order.

    Every file is checked now, as ``formats.netpbm_header`` checks it, and a
    frame and its mask must have one size (else ``shape-mismatch``), so a
    missing or corrupt file fails before any work starts. Pixels are read
    only when an item is indexed (see ``CorpusSplit``), so the split is
    usable only while the corpus stays where it is. Frames come back
    8-bit quantised by the file round trip, which is exactly what training
    and evaluation are meant to see.
    """
    if split not in ("train", "eval", "all"):
        raise PipelineError("bad-split", f"split must be train, eval or all, got {split!r}")
    manifest = load_manifest(data_dir)
    entries = []
    try:
        for item in manifest.items:
            if split != "all" and item["split"] != split:
                continue
            item_id = os.path.splitext(item["frame"])[0]
            frame_path, mask_path = (os.path.abspath(os.path.join(data_dir, item[key])) for key in ("frame", "mask"))
            shape, mask_shape = _checked_shape(frame_path, b"P6"), _checked_shape(mask_path, b"P5")
            if mask_shape != shape:
                raise PipelineError("shape-mismatch", f"{item_id}: mask {mask_shape} vs frame {shape[0]}x{shape[1]}")
            entries.append((item_id, frame_path, mask_path, shape))
    except OSError as exc:
        raise PipelineError("io-error", f"dataset file missing in {data_dir}: {exc}") from exc
    return CorpusSplit(tuple(entries))
