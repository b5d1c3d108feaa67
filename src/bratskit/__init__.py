"""Volumetric segmentation evaluation, ensemble fusion and synthetic
augmentation preparation for BraTS-style pipelines."""

from .volume import (
    BinaryMask,
    Geometry,
    LabelVolume,
    RegionProbVolume,
    ScalarVolume,
)
from .nifti import open_region_prob, read_volume, write_volume
from .regions import REGIONS, Region, extract_region, reconstruct_labels
from .morphology import (
    ComponentMap,
    Connectivity,
    connected_components,
    dilate,
    surface_voxels,
)
from .metrics import (
    HD95_PENALTY,
    CaseMetrics,
    LesionMatchReport,
    MatchParams,
    MetricPair,
    case_metrics_legacy,
    case_metrics_lesionwise,
    dice,
    hd95,
    lesion_match,
)
from .ranking import MetricTable, RankingResult, rank_solutions
from .postprocess import ThresholdScope, ThresholdSpec, apply_thresholds
from .fusion import StapleFit, StapleResult, average_fusion, staple_binary, staple_fusion
from .synthprep import (
    CorruptionField,
    LambdaPair,
    TumourGeometry,
    build_corruption_field,
    corrupt_crop,
    decay_exponent,
    discriminator_loss,
    generator_loss,
    lambda_schedule,
    place_label,
    replacement_probability,
    tumour_geometry,
)
from .phantom import Lesion, Perturbation, PhantomSpec, generate_phantom

__version__ = "0.1.0"
