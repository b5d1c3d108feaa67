"""Ensemble fusion: probability averaging and per-region binary STAPLE."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .regions import REGIONS, Region, extract_region, reconstruct_labels
from .volume import BinaryMask, LabelVolume, RegionProbVolume, integral, tumour_box

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


def average_fusion(maps: Iterable[RegionProbVolume]):
    """Channelwise mean of the probability maps, binarized at >= 0.5 and
    reconstructed into a label volume.

    `maps` may be a list or any other iterable, such as a generator of file
    reads: each map is added into one float64 accumulator as it arrives and
    released before the next is drawn, so a generator holds one input map at a
    time whatever the number of maps.
    """
    maps = iter(maps)
    first = next(maps, None)
    if first is None:
        raise ValidationError("average_fusion needs at least one probability map")
    geometry = first.geometry
    # Summed map by map: the same order as np.mean over the stacked float64 maps.
    mean = first.channels.astype(np.float64)
    del first
    n = 1
    # `del m` ends the loop body: the loop variable would otherwise keep the
    # previous map alive while the iterator reads the next one.
    for m in maps:
        geometry.require_compatible(m.geometry)
        mean += m.channels
        n += 1
        del m
    mean /= n
    fused = RegionProbVolume(geometry, mean.astype(np.float32))
    del mean  # the thresholds below read the float32 map
    masks = [BinaryMask(geometry, fused.channels[c] >= 0.5) for c in range(3)]
    labels = reconstruct_labels(*masks)
    return fused, labels


def staple_binary(masks: Sequence[BinaryMask], max_iters: int = 100) -> StapleResult:
    """EM estimation of per-rater sensitivity/specificity and the per-voxel
    posterior of the latent true mask.

    The prior of a voxel is the share of raters that mark it, so its
    posterior depends only on its pattern of rater decisions. EM therefore
    runs on the counts of the patterns that occur (at most 2**R), and the
    posterior is mapped back to the voxels once at the end. The E-step works in the log domain so
    products over many raters stay stable. Patterns are coded on the raters'
    box only: every voxel outside it has pattern 0.
    """
    n_raters = len(masks)
    if not 2 <= n_raters <= MAX_RATERS:
        raise ValidationError(f"STAPLE needs 2 to {MAX_RATERS} raters, got {n_raters}")
    max_iters = integral(max_iters, "max_iters", 1)
    geometry = masks[0].geometry
    box = tumour_box(masks)  # refuses a mask on another grid
    if box is None:
        empty = BinaryMask(geometry, np.zeros_like(masks[0].bits))
        perf = [(1.0, 1.0)] * n_raters
        return StapleResult(empty, np.zeros_like(masks[0].bits, dtype=np.float64), perf, 0, True)

    # Bit j of a voxel's code is rater j's decision. Every array below keeps the
    # first mask's memory order, so no step copies F-ordered masks into C order.
    code = np.zeros_like(masks[0].bits[box], dtype=np.uint16)
    for j, m in enumerate(masks):
        code |= m.bits[box].astype(np.uint16) << j
    counts = np.bincount(code.ravel(order="K"))
    counts[0] += geometry.n_voxels - code.size
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

    lut = np.zeros(1 << n_raters)
    lut[patterns] = w
    weights = np.full_like(masks[0].bits, lut[0], dtype=np.float64)
    weights[box] = lut[code]
    consensus = BinaryMask(geometry, weights >= 0.5)
    perf = [(float(pi), float(qi)) for pi, qi in zip(p, q)]
    return StapleResult(consensus, weights, perf, iterations, converged)


def staple_fusion(labels: Sequence[LabelVolume], max_iters: int = 100,
                  on_region: Optional[Callable[[Region, StapleResult], None]] = None) -> LabelVolume:
    """Run binary STAPLE independently per region and reconstruct labels.

    `on_region`, when given, is called with each region and its STAPLE result.
    The rater count and geometry are checked by the first region's
    `staple_binary`: each extracted mask keeps its volume's geometry.
    """
    consensus = []
    for region in REGIONS:
        result = staple_binary([extract_region(lv, region) for lv in labels], max_iters)
        if on_region is not None:
            on_region(region, result)
        consensus.append(result.consensus)
        # Only the consensus is kept: the full-grid weights must not outlive
        # the region while the next one runs.
        del result
    return reconstruct_labels(*consensus)
