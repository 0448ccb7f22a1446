"""On-disk formats: binary netpbm images, the tensor container, reports, models.

Frames travel as 8-bit binary PPM (P6), masks as binary PGM (P5). Tensor
collections use a little-endian container with magic ``UVLT``; payloads are
32-bit floats while everything in memory stays 64-bit. Evaluation reports are
plain JSON documents.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Sequence

import numpy as np

from .core import Frame
from .errors import PipelineError
from .fusion import ArchConfig, FEATURE_VIEWS, ParamStore, VARIANTS, check_views, param_spec
from .autodiff import Tensor
from .metrics import MetricsReport

TENSOR_MAGIC = b"UVLT"
TENSOR_VERSION = 1

# visual masks: white = tampered, mid-gray = original
PGM_VISUAL_ORIGINAL = 128
PGM_READ_THRESHOLD = 192


def write_ppm(path, f: Frame) -> None:
    """Binary PPM, maxval 255, samples quantised by round(v * 255)."""
    body = np.rint(f.data * 255.0).astype(np.uint8).transpose(1, 2, 0).tobytes()
    with open(path, "wb") as fh:
        fh.write(f"P6\n{f.width} {f.height}\n255\n".encode("ascii"))
        fh.write(body)


def _read_header_tokens(blob: bytes, count: int, offset: int) -> tuple[list[int], int]:
    """Read ``count`` whitespace-separated integer tokens, skipping # comments."""
    tokens: list[int] = []
    i = offset
    while len(tokens) < count:
        while i < len(blob) and blob[i : i + 1].isspace():
            i += 1
        if i < len(blob) and blob[i : i + 1] == b"#":
            while i < len(blob) and blob[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(blob) and not blob[i : i + 1].isspace():
            i += 1
        if start == i:
            raise PipelineError("truncated", "header ended early")
        try:
            tokens.append(int(blob[start:i]))
        except ValueError:
            raise PipelineError("bad-header", f"expected integer, got {blob[start:i]!r}") from None
    return tokens, i + 1  # exactly one whitespace byte separates header and payload


def _read_netpbm(path, magic: bytes) -> tuple[int, int, bytes]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(magic):
        raise PipelineError("bad-magic", f"expected {magic.decode()}, got {blob[:2]!r}")
    (width, height, maxval), offset = _read_header_tokens(blob, 3, len(magic))
    if maxval != 255:
        raise PipelineError("unsupported-depth", f"maxval must be 255, got {maxval}")
    if width < 1 or height < 1:
        raise PipelineError("bad-header", f"bad dimensions {width}x{height}")
    return width, height, blob[offset:]


def read_ppm(path) -> Frame:
    width, height, payload = _read_netpbm(path, b"P6")
    need = width * height * 3
    if len(payload) < need:
        raise PipelineError("truncated", f"need {need} payload bytes, have {len(payload)}")
    pixels = np.frombuffer(payload[:need], dtype=np.uint8).reshape(height, width, 3)
    return Frame(pixels.transpose(2, 0, 1).astype(np.float64) / 255.0)


def write_pgm(path, mask: np.ndarray, visual: bool = False) -> None:
    """Binary PGM mask. Binary mode writes 255/0; visual mode writes 255/128
    (white = tampered, gray = original) for direct viewing."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise PipelineError("bad-mask", f"expected (H, W), got {m.shape}")
    on, off = (255, PGM_VISUAL_ORIGINAL) if visual else (255, 0)
    body = np.where(m > 0, on, off).astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii"))
        fh.write(body)


def read_pgm(path) -> np.ndarray:
    """Read a mask written in either mode; bytes >= 192 count as tampered."""
    width, height, payload = _read_netpbm(path, b"P5")
    need = width * height
    if len(payload) < need:
        raise PipelineError("truncated", f"need {need} payload bytes, have {len(payload)}")
    raw = np.frombuffer(payload[:need], dtype=np.uint8).reshape(height, width)
    return (raw >= PGM_READ_THRESHOLD).astype(np.float64)


def write_tensorfile(path, records: Sequence[tuple[str, np.ndarray]]) -> None:
    """Named float tensors: magic, version, count, then one record per tensor.

    Record layout: u16 name length + utf-8 name, u32 ndim, u32 dims, then the
    payload as little-endian float32 in row-major order.
    """
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<II", TENSOR_VERSION, len(records)))
        for name, array in records:
            encoded = str(name).encode("utf-8")
            arr = np.asarray(array, dtype=np.float64).astype("<f4", order="C")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise PipelineError("truncated", f"file ended inside {what}")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out


def read_tensorfile(path) -> list[tuple[str, np.ndarray]]:
    """Read every record back as float64 arrays, in file order."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    if r.take(4, "magic") != TENSOR_MAGIC:
        raise PipelineError("bad-magic", "not a tensor container")
    version, count = struct.unpack("<II", r.take(8, "header"))
    if version != TENSOR_VERSION:
        raise PipelineError("corrupt-record", f"unknown version {version}")
    records: list[tuple[str, np.ndarray]] = []
    for _ in range(count):
        (name_len,) = struct.unpack("<H", r.take(2, "record name"))
        try:
            name = r.take(name_len, "record name").decode("utf-8")
        except UnicodeDecodeError:
            raise PipelineError("corrupt-record", "record name is not UTF-8") from None
        (ndim,) = struct.unpack("<I", r.take(4, "record dims"))
        if ndim > 8:
            raise PipelineError("corrupt-record", f"{name}: implausible ndim {ndim}")
        dims = struct.unpack(f"<{ndim}I", r.take(4 * ndim, "record dims"))
        need = 4 * math.prod(dims)  # exact: an int64 product of eight u32 dims can wrap
        if r.pos + need > len(r.blob):
            raise PipelineError("corrupt-record", f"{name}: dims {dims} exceed payload")
        payload = r.take(need, "record payload")
        with np.errstate(invalid="ignore"):  # a signalling NaN widens quietly; load_model rejects it
            array = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float64)
        records.append((name, array))
    if r.pos != len(r.blob):
        raise PipelineError("corrupt-record", f"{len(r.blob) - r.pos} trailing bytes")
    return records


# --- model container ------------------------------------------------------

_META_ARCH = "meta.arch"
_META_FEATURES = "meta.features"
_META_SEED = "meta.seed"


def save_model(path, params: ParamStore, views: "Sequence[str] | None" = None) -> None:
    """Parameters plus architecture, train-time feature switches and seed.

    A parameter that is not finite once narrowed to float32 is
    ``non-finite-parameter``, and nothing is written.
    """
    cfg = params.arch
    chosen = check_views(views)
    with np.errstate(over="ignore"):
        for name, t in params.tensors.items():
            if not np.isfinite(t.data.astype(np.float32)).all():
                raise PipelineError("non-finite-parameter", f"{name} is not finite in float32")
    arch_row = [
        float(VARIANTS.index(cfg.variant)),
        float(cfg.input_channels),
        *(float(v) for v in cfg.stage1_widths),
        float(cfg.branch_width),
        float(cfg.token_dim),
        float(cfg.heads),
        float(cfg.encoder_layers),
        float(cfg.mlp_ratio),
    ]
    records = [
        (_META_ARCH, np.asarray(arch_row)),
        (_META_FEATURES, np.asarray([1.0 if v in chosen else 0.0 for v in FEATURE_VIEWS])),
        (_META_SEED, np.asarray([params.seed // 2**24, params.seed % 2**24], dtype=np.float64)),
    ]
    records.extend((name, t.data) for name, t in params.tensors.items())
    write_tensorfile(path, records)


def _integer_row(table: dict, key: str, length: int) -> list[int]:
    """A metadata row of ``length`` finite integral values, as Python ints."""
    row = table[key]
    if row.shape != (length,) or not np.all(np.isfinite(row)) or np.any(row != np.rint(row)):
        raise PipelineError("corrupt-record", f"{key} must hold {length} integers, got {row}")
    return [int(v) for v in row]


def load_model(path) -> tuple[ParamStore, tuple[str, ...]]:
    """Rebuild a ParamStore and its train-time feature switches.

    Every malformed record, a non-finite parameter included, is
    ``corrupt-record``.
    """
    table = dict(read_tensorfile(path))
    for key in (_META_ARCH, _META_FEATURES, _META_SEED):
        if key not in table:
            raise PipelineError("corrupt-record", f"missing {key}")
    row = _integer_row(table, _META_ARCH, 10)
    if not 0 <= row[0] < len(VARIANTS):
        raise PipelineError("corrupt-record", f"unknown variant index {row[0]}")
    try:
        cfg = ArchConfig(
            variant=VARIANTS[row[0]],
            input_channels=row[1],
            stage1_widths=(row[2], row[3], row[4]),
            branch_width=row[5],
            token_dim=row[6],
            heads=row[7],
            encoder_layers=row[8],
            mlp_ratio=row[9],
        )
    except PipelineError as exc:
        raise PipelineError("corrupt-record", f"{_META_ARCH}: {exc}") from None
    high, low = _integer_row(table, _META_SEED, 2)
    if not (0 <= high < 2**24 and 0 <= low < 2**24):
        raise PipelineError("corrupt-record", f"{_META_SEED} halves must lie in [0, 2**24), got {high}, {low}")
    seed = high * 2**24 + low
    bits = _integer_row(table, _META_FEATURES, len(FEATURE_VIEWS))
    if any(bit not in (0, 1) for bit in bits):
        raise PipelineError("corrupt-record", f"{_META_FEATURES} must hold 0 or 1 per view, got {bits}")
    tensors: dict[str, Tensor] = {}
    for name, shape, _ in param_spec(cfg):
        if name not in table:
            raise PipelineError("corrupt-record", f"missing parameter {name}")
        if table[name].shape != shape:
            raise PipelineError("corrupt-record", f"{name}: shape {table[name].shape}, expected {shape}")
        if not np.isfinite(table[name]).all():
            raise PipelineError("corrupt-record", f"{name}: non-finite value")
        tensors[name] = Tensor(table[name], requires_grad=True)
    views = tuple(v for v, bit in zip(FEATURE_VIEWS, bits) if bit)
    return ParamStore(cfg, seed, tensors), views


# --- evaluation reports ----------------------------------------------------


def report_to_doc(report: MetricsReport) -> dict:
    """JSON-ready document: config block, per-frame rows, recomputable summary."""
    return {
        "config": {
            "features": list(report.features),
            "perturbation": report.perturbation,
            "seed": report.seed,
            "arch": report.arch,
            "threshold": report.threshold,
        },
        "per_frame": [
            {"id": row.item_id, "miou": row.miou, "f1": row.f1, "miou_fg": row.miou_fg}
            for row in report.per_frame
        ],
        "summary": {"miou": report.miou, "f1": report.f1, "miou_fg": report.miou_fg},
    }


def write_report(path, report: MetricsReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_doc(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("config", "per_frame", "summary"):
        if key not in doc:
            raise PipelineError("corrupt-record", f"report missing {key!r}")
    return doc
