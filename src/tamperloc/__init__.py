"""Multi-view tampering localization for video frames.

Four fixed forensic feature views (Gabor texture, Sobel/Laplacian edges, SRM
noise residuals, block-DCT bands) feed a small two-stage local-then-global
fusion network trained with a self-contained reverse-mode autodiff engine.
Synthetic corpus generation, perturbation robustness transforms, pixel-level
metrics, bit-exact file formats and a CLI round out the pipeline.
"""

from .core import FeatureStack, Frame, Kernel2D, concat_channels, luminance, rgb_stack
from .datagen import (
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
from .edge import edge_features, laplacian_features, sobel_features
from .errors import PipelineError
from .formats import (
    load_model,
    read_pgm,
    read_ppm,
    read_report,
    read_tensorfile,
    save_model,
    write_pgm,
    write_ppm,
    write_report,
    write_tensorfile,
)
from .frequency import band_mask, band_reconstruct, dct2, frequency_features, idct2
from .fusion import (
    FEATURE_VIEWS,
    INPUT_CHANNELS,
    VARIANTS,
    ArchConfig,
    ParamStore,
    bce_loss,
    build_feature_stack,
    finite_difference_check,
    forward,
    init_network,
    micro_arch,
    predict,
)
from .metrics import ConfusionCounts, MetricsReport, binarize, confusion_counts, evaluate, f1_score, miou
from .perturb import PerturbSpec, parse_spec, perturb_pair, perturb_suite
from .pixel import srm_features
from .texture import GaborParams, extract_texture, gabor_bank, gabor_kernel
from .train import Adam, TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "ArchConfig",
    "ConfusionCounts",
    "DatasetManifest",
    "FEATURE_VIEWS",
    "FeatureStack",
    "Frame",
    "GaborParams",
    "INPUT_CHANNELS",
    "Kernel2D",
    "MetricsReport",
    "ParamStore",
    "PerturbSpec",
    "PipelineError",
    "Region",
    "SpliceSpec",
    "TrainConfig",
    "VARIANTS",
    "band_mask",
    "band_reconstruct",
    "bce_loss",
    "binarize",
    "build_feature_stack",
    "concat_channels",
    "confusion_counts",
    "dct2",
    "edge_features",
    "evaluate",
    "extract_texture",
    "f1_score",
    "finite_difference_check",
    "forward",
    "frequency_features",
    "gabor_bank",
    "gabor_kernel",
    "idct2",
    "init_network",
    "laplacian_features",
    "load_manifest",
    "load_model",
    "load_split",
    "luminance",
    "make_dataset",
    "make_texture",
    "micro_arch",
    "miou",
    "parse_spec",
    "perturb_pair",
    "perturb_suite",
    "predict",
    "rasterize",
    "read_pgm",
    "read_ppm",
    "read_report",
    "read_tensorfile",
    "rgb_stack",
    "sample_region",
    "sample_splice_spec",
    "save_model",
    "simulate_inpaint",
    "sobel_features",
    "splice",
    "srm_features",
    "train",
    "write_pgm",
    "write_ppm",
    "write_report",
    "write_tensorfile",
]
