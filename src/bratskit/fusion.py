"""Ensemble fusion: probability averaging and per-region binary STAPLE."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .regions import REGIONS, Region, extract_region, reconstruct_labels
from .volume import BinaryMask, LabelVolume, RegionProbVolume

_EPS = 1e-7
# staple_binary counts decision patterns in a histogram of 2**R bins.
MAX_RATERS = 16


class PriorKind(Enum):
    MeanOfMasks = "mean_of_masks"
    Fixed = "fixed"


@dataclass(frozen=True)
class StapleParams:
    max_iters: int = 100
    tol: float = 1e-6
    init_sensitivity: float = 0.99
    init_specificity: float = 0.99
    prior: PriorKind = PriorKind.MeanOfMasks
    fixed_prior: Optional[float] = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValidationError("tol must be > 0")
        for p in (self.init_sensitivity, self.init_specificity):
            if not 0.0 < p < 1.0:
                raise ValidationError("init probabilities must lie in (0, 1)")
        if self.prior is PriorKind.Fixed:
            if self.fixed_prior is None or not 0.0 < self.fixed_prior < 1.0:
                raise ValidationError("fixed prior must lie in (0, 1)")


@dataclass(frozen=True)
class StapleResult:
    consensus: BinaryMask
    weights: np.ndarray  # per-voxel posterior in [0, 1], shape = dims
    rater_performance: list  # (sensitivity, specificity) per input
    iterations_run: int
    converged: bool


def average_fusion(maps: Sequence[RegionProbVolume]):
    """Channelwise mean of the probability maps, binarized at >= 0.5 and
    reconstructed into a label volume."""
    if not maps:
        raise ValidationError("average_fusion needs at least one probability map")
    geometry = maps[0].geometry
    for m in maps[1:]:
        geometry.require_compatible(m.geometry)
    # One float64 accumulator, summed map by map: the same order as np.mean
    # over the stacked maps, without a float64 copy of each map.
    mean = maps[0].channels.astype(np.float64)
    for m in maps[1:]:
        mean += m.channels
    mean /= len(maps)
    fused = RegionProbVolume(geometry, mean.astype(np.float32))
    masks = [BinaryMask(geometry, fused.channels[c] >= 0.5) for c in range(3)]
    labels = reconstruct_labels(*masks)
    return fused, labels


def staple_binary(masks: Sequence[BinaryMask], params: StapleParams = StapleParams()) -> StapleResult:
    """EM estimation of per-rater sensitivity/specificity and the per-voxel
    posterior of the latent true mask.

    With the mean-of-masks or a fixed prior, a voxel's posterior depends only
    on its pattern of rater decisions. EM therefore runs on the counts of the
    patterns that occur (at most 2**R), and the posterior is mapped back to
    the voxels once at the end. The E-step works in the log domain so
    products over many raters stay stable.
    """
    if len(masks) < 2:
        raise ValidationError("staple_binary needs at least 2 masks")
    if len(masks) > MAX_RATERS:
        raise ValidationError(
            f"staple_binary accepts at most {MAX_RATERS} masks, got {len(masks)}")
    geometry = masks[0].geometry
    for m in masks[1:]:
        geometry.require_compatible(m.geometry)
    n_raters = len(masks)

    # Bit j of a voxel's code is rater j's decision.
    code = np.zeros(geometry.dims, dtype=np.uint16)
    for j, m in enumerate(masks):
        code |= m.bits.astype(np.uint16) << j
    counts = np.bincount(code.ravel())
    patterns = np.flatnonzero(counts)
    counts = counts[patterns]
    d = ((patterns[:, None] >> np.arange(n_raters)) & 1).astype(bool)  # (patterns, raters)

    if not d.any():
        empty = BinaryMask(geometry, np.zeros(geometry.dims, dtype=bool))
        perf = [(1.0, 1.0)] * n_raters
        return StapleResult(empty, np.zeros(geometry.dims), perf, 0, True)

    if params.prior is PriorKind.MeanOfMasks:
        prior = d.mean(axis=1)
    else:
        prior = np.full(len(patterns), params.fixed_prior)
    prior = np.clip(prior, _EPS, 1.0 - _EPS)
    log_prior_t = np.log(prior)
    log_prior_f = np.log1p(-prior)

    p = np.full(n_raters, params.init_sensitivity)  # sensitivity
    q = np.full(n_raters, params.init_specificity)  # specificity

    converged = False
    for iterations in range(1, params.max_iters + 1):
        # E-step: log P(T, decisions) per pattern, summed over the raters.
        log_a = log_prior_t + np.where(d, np.log(p), np.log1p(-p)).sum(axis=1)
        log_b = log_prior_f + np.where(d, np.log1p(-q), np.log(q)).sum(axis=1)
        m = np.maximum(log_a, log_b)
        ea = np.exp(log_a - m)
        w = ea / (ea + np.exp(log_b - m))

        # M-step: voxel sums are pattern sums weighted by the pattern counts.
        cw = counts * w
        cnw = counts * (1.0 - w)
        new_p = np.clip(cw @ d / cw.sum(), _EPS, 1.0 - _EPS)
        new_q = np.clip(cnw @ ~d / cnw.sum(), _EPS, 1.0 - _EPS)

        delta = max(np.abs(new_p - p).max(), np.abs(new_q - q).max())
        p, q = new_p, new_q
        if delta < params.tol:
            converged = True
            break

    lut = np.zeros(1 << n_raters)
    lut[patterns] = w
    weights = lut[code]
    consensus = BinaryMask(geometry, weights >= 0.5)
    perf = [(float(pi), float(qi)) for pi, qi in zip(p, q)]
    return StapleResult(consensus, weights, perf, iterations, converged)


def staple_fusion(labels: Sequence[LabelVolume], params: StapleParams = StapleParams(),
                  on_region: Optional[Callable[[Region, StapleResult], None]] = None) -> LabelVolume:
    """Run binary STAPLE independently per region and reconstruct labels.

    `on_region`, when given, is called with each region and its STAPLE result.
    """
    if len(labels) < 2:
        raise ValidationError("staple_fusion needs at least 2 label volumes")
    geometry = labels[0].geometry
    for lv in labels[1:]:
        geometry.require_compatible(lv.geometry)
    consensus = {}
    for region in REGIONS:
        masks = [extract_region(lv, region) for lv in labels]
        result = staple_binary(masks, params)
        if on_region is not None:
            on_region(region, result)
        consensus[region] = result.consensus
    return reconstruct_labels(consensus[REGIONS[0]], consensus[REGIONS[1]], consensus[REGIONS[2]])
