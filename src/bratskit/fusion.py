"""Ensemble fusion: probability averaging and per-region binary STAPLE."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .regions import REGIONS, Region, extract_region, reconstruct_labels
from .volume import (
    BinaryMask,
    LabelVolume,
    RegionProbVolume,
    boxed_mask,
    common_geometry,
    crop,
    integral,
    tumour_box,
)

_EPS = 1e-7
# staple_binary counts decision patterns in a histogram of 2**R bins.
MAX_RATERS = 16
# EM starts every rater at this sensitivity and specificity, and stops once
# every estimate moves by less than _TOL in an iteration.
_INIT_PERFORMANCE = 0.99
_TOL = 1e-6


@dataclass(frozen=True)
class StapleResult:
    consensus: BinaryMask
    weights: np.ndarray  # per-voxel posterior in [0, 1], shape = dims
    rater_performance: list  # (sensitivity, specificity) per input
    iterations_run: int
    converged: bool


class StapleFit(NamedTuple):
    """What EM found from the decision-pattern counts alone."""

    posterior: np.ndarray  # posterior of each R-bit pattern code, 2**R entries
    rater_performance: list  # (sensitivity, specificity) per input
    iterations_run: int
    converged: bool


def average_fusion(maps: Iterable[RegionProbVolume]):
    """Channelwise mean of the probability maps, binarized at >= 0.5 and
    reconstructed into a label volume.

    A map is a RegionProbVolume or anything with its `geometry` and indexable
    `channels`, such as `nifti.RegionProbFile`, which reads a channel from disk
    when it is indexed. The mean is built one channel at a time: the maps'
    channels are summed in input order into one float64 channel accumulator,
    divided once and cast once into the float32 result, so file-backed maps
    hold one input channel in memory, whatever their number.
    """
    maps = list(maps)
    if not maps:
        raise ValidationError("average_fusion needs at least one probability map")
    geometry = common_geometry(maps)
    # The result in file order: x fastest, channel slowest.
    fused = np.moveaxis(np.empty(geometry.dims + (3,), np.float32, order="F"), 3, 0)
    acc = np.empty(geometry.dims, np.float64, order="F")
    for c in range(3):
        # The same sums, in the same order, as np.mean over the stacked float64
        # maps. The first map is copied, not added to zeros, which would turn -0.0 into 0.0.
        np.copyto(acc, maps[0].channels[c])
        for m in maps[1:]:
            acc += m.channels[c]
        acc /= len(maps)
        fused[c] = acc
    del acc  # the thresholds below read the float32 result
    masks = [BinaryMask(geometry, fused[c] >= 0.5) for c in range(3)]
    return RegionProbVolume(geometry, fused), reconstruct_labels(*masks)


def _checked_max_iters(n_raters, max_iters) -> int:
    """`max_iters` as an int, once the rater count and `max_iters` pass STAPLE's checks."""
    if not 2 <= n_raters <= MAX_RATERS:
        raise ValidationError(f"STAPLE needs 2 to {MAX_RATERS} raters, got {n_raters}")
    return integral(max_iters, "max_iters", 1)


def _pattern_codes(bits) -> np.ndarray:
    """Each voxel's decision pattern: bit j is rater j's decision. The codes
    keep the first array's memory order, so F-ordered masks are not copied into C order."""
    code = np.zeros_like(bits[0], dtype=np.uint16)
    for j, b in enumerate(bits):
        code |= b.astype(np.uint16) << j
    return code


def _staple_em(code, outside, n_raters, max_iters) -> StapleFit:
    """EM on the pattern codes of a box, with `outside` more voxels of pattern 0.

    The prior of a voxel is the share of raters that mark it, so its
    posterior depends only on its pattern of rater decisions. EM therefore
    runs on the counts of the patterns that occur (at most 2**R). The E-step
    works in the log domain so products over many raters stay stable.
    """
    counts = np.bincount(code.ravel(order="K"), minlength=1)
    counts[0] += outside
    lut = np.zeros(1 << n_raters)
    if counts.size == 1:  # no rater marks a voxel
        return StapleFit(lut, [(1.0, 1.0)] * n_raters, 0, True)
    patterns = np.flatnonzero(counts)
    counts = counts[patterns]
    d = ((patterns[:, None] >> np.arange(n_raters)) & 1).astype(bool)  # (patterns, raters)

    prior = np.clip(d.mean(axis=1), _EPS, 1.0 - _EPS)
    log_prior_t = np.log(prior)
    log_prior_f = np.log1p(-prior)

    p = np.full(n_raters, _INIT_PERFORMANCE)  # sensitivity
    q = np.full(n_raters, _INIT_PERFORMANCE)  # specificity

    converged = False
    for iterations in range(1, max_iters + 1):
        # E-step: log P(T, decisions) per pattern, summed over the raters.
        log_a = log_prior_t + np.where(d, np.log(p), np.log1p(-p)).sum(axis=1)
        log_b = log_prior_f + np.where(d, np.log1p(-q), np.log(q)).sum(axis=1)
        m = np.maximum(log_a, log_b)
        ea = np.exp(log_a - m)
        w = ea / (ea + np.exp(log_b - m))

        # M-step: voxel sums are pattern sums weighted by the pattern counts.
        # A zero weight sum is no evidence, so that estimate stays as it was.
        cw = counts * w
        cnw = counts * (1.0 - w)
        new_p = np.clip(cw @ d / cw.sum(), _EPS, 1.0 - _EPS) if cw.sum() > 0 else p
        new_q = np.clip(cnw @ ~d / cnw.sum(), _EPS, 1.0 - _EPS) if cnw.sum() > 0 else q

        delta = max(np.abs(new_p - p).max(), np.abs(new_q - q).max())
        p, q = new_p, new_q
        if delta < _TOL:
            converged = True
            break

    lut[patterns] = w
    return StapleFit(lut, [(float(pi), float(qi)) for pi, qi in zip(p, q)], iterations, converged)


# The box of raters that mark nothing: one voxel, which like every other has pattern 0.
_CORNER = (slice(0, 1),) * 3


def staple_binary(masks: Sequence[BinaryMask], max_iters: int = 100) -> StapleResult:
    """EM estimation of per-rater sensitivity/specificity and the per-voxel
    posterior of the latent true mask.

    Patterns are coded on the raters' box only: every voxel outside it has
    pattern 0, and the posterior is mapped back to the voxels once at the end.
    """
    max_iters = _checked_max_iters(len(masks), max_iters)
    geometry = masks[0].geometry
    box = tumour_box(masks) or _CORNER  # refuses a mask on another grid
    code = _pattern_codes([m.bits[box] for m in masks])
    fit = _staple_em(code, geometry.n_voxels - code.size, len(masks), max_iters)
    weights = np.full_like(masks[0].bits, fit.posterior[0], dtype=np.float64)
    weights[box] = fit.posterior[code]
    return StapleResult(BinaryMask(geometry, weights >= 0.5), weights, fit.rater_performance,
                        fit.iterations_run, fit.converged)


def staple_fusion(labels: Sequence[LabelVolume], max_iters: int = 100,
                  on_region: Optional[Callable[[Region, StapleFit], None]] = None) -> LabelVolume:
    """Run binary STAPLE independently per region and reconstruct labels; the
    same labels as `reconstruct_labels` of each region's `staple_binary` consensus.

    The labels are cut once to their joint box, and each region is coded,
    thresholded and rebuilt there. Every voxel outside the box has pattern 0 in
    each region, so it takes the label rebuilt from the three regions' pattern-0
    decisions. `on_region`, when given, is called with each region and its fit.
    """
    max_iters = _checked_max_iters(len(labels), max_iters)
    geometry = labels[0].geometry
    box = tumour_box(labels) or _CORNER  # refuses a volume on another grid
    cut = [crop(lv, box) for lv in labels]
    inside, outside = [], []
    for region in REGIONS:
        code = _pattern_codes([extract_region(lv, region).bits for lv in cut])
        fit = _staple_em(code, geometry.n_voxels - code.size, len(labels), max_iters)
        if on_region is not None:
            on_region(region, fit)
        marked = fit.posterior >= 0.5
        inside.append(boxed_mask(marked[code], geometry.spacing))
        outside.append(boxed_mask(marked[:1].reshape(1, 1, 1), geometry.spacing))
    voxels = np.full_like(labels[0].voxels, reconstruct_labels(*outside).voxels.item())
    voxels[box] = reconstruct_labels(*inside).voxels
    return LabelVolume(geometry, voxels)
