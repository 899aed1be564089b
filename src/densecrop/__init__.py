"""Density-crop guided semi-supervised detection toolkit.

Detector-agnostic building blocks for small-object detection on
aerial-like scenes: density-crop labeling over box clusters, mean-teacher
semi-supervised training with crop discovery on unlabeled images,
multi-stage zoom-in inference, and COCO-style evaluation, all runnable at
desk scale on synthetic scenes.
"""

__version__ = "0.1.0"

from .geometry import Box, Detection  # noqa: F401
from .croplab import CropParams, label_density_crops  # noqa: F401
from .dataset import (  # noqa: F401
    Annotation,
    DatasetSplit,
    ImageRecord,
    SceneSample,
    SyntheticConfig,
    UpscalePolicy,
    generate_synthetic_dataset,
    split_dataset,
)
from .detect import OracleBackend, OracleNoiseModel, ToyDetector, ToyDetectorConfig  # noqa: F401
from .infer import InferenceConfig  # noqa: F401
from .metrics import EvalReport, evaluate_ap, profile_errors  # noqa: F401
from .teacher import TrainerConfig, train  # noqa: F401
