"""Ensemble fusion: probability averaging and per-region binary STAPLE."""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .cores import Tasks
from .errors import ValidationError
from .morphology import lesion_clusters
from .nifti import _output, open_region_prob
from .regions import REGIONS, Region, bit_code, extract_region, rebuild_labels
from .volume import (BinaryMask, LabelVolume, RegionProbVolume, common_geometry, crop, integral,
                     probability_bits)

_EPS = 1e-7
# staple_binary counts decision patterns in a histogram of 2**R bins.
MAX_RATERS = 16
# EM starts every rater at this sensitivity and specificity, and stops once
# every estimate moves by less than _TOL in an iteration.
_INIT_PERFORMANCE = 0.99
_TOL = 1e-6
# Mean fusion works in slabs of this many z-planes, so each slab's buffers
# stay a few planes in size.
_SLAB_PLANES = 4


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


def average_fusion(maps: Iterable[RegionProbVolume], prob_out=None):
    """Channelwise mean of the probability maps, binarized at >= 0.5 and
    reconstructed into a label volume.

    A map is a RegionProbVolume or anything with its `geometry` and its
    `planes(c, z0, z1)`, such as `nifti.RegionProbFile`, which reads those
    planes from disk when asked for them. A map's `unchecked_planes`, when it
    has them, are read instead, as the [0, 1] check is made here.
    The grid is fused in slabs of `_SLAB_PLANES` z-planes, one `cores.Tasks`
    task each, submitted in z order. In each slab the maps' channels are
    summed in input order into a float64 accumulator, divided once and cast
    once to float32: np.mean's arithmetic over stacked float64 copies, except
    that a -0.0 mean keeps its sign. That float64 work, the >= 0.5 test and
    the label rebuild run only on the box of the (x, y) columns where some
    map holds a value other than +0.0; every voxel outside it is a +0.0 mean
    and label 0, as the sum of +0.0s is. So maps that are zero outside the
    tumour cost little beyond their reads, and dense maps cost what they
    did. The bytes do not depend on the thread count. A map's planes are read
    and checked only in their slab, one map at a time. If slabs fail, the
    error of the first one in z order is raised.

    Without `prob_out` the mean is returned as a RegionProbVolume, and the
    call holds it and a few planes of buffers per slab in flight. Given a
    path, each slab writes its planes of the mean to that file as it
    finishes them (`nifti._output`, header last), no full-size mean is held,
    and the mean is returned as `nifti.open_region_prob(prob_out)`. A
    refused fusion then leaves no file that it created and leaves an
    existing one a file the reader refuses. `prob_out` must not name a map's
    file, which would be overwritten while it is still read.
    """
    maps = list(maps)
    if not maps:
        raise ValidationError("average_fusion needs at least one probability map")
    geometry = common_geometry(maps)
    voxels = np.empty(geometry.dims, np.uint8, order="F")
    if prob_out is None:
        # The result in file order, x fastest and channel slowest, written as its payload.
        fused = np.empty(geometry.dims + (3,), np.float32, order="F")
        payload = fused.reshape(-1, order="F").view(np.uint8)

        def write(data, offset):
            payload[offset:offset + data.nbytes] = data.view(np.uint8)

        output = contextlib.nullcontext(write)
    else:
        output = _output(prob_out, "region_prob", geometry)
    with output as write, Tasks() as tasks:
        for z0 in range(0, geometry.dims[2], _SLAB_PLANES):
            tasks.run(_fuse_slab, maps, write, voxels, z0)
    if prob_out is None:
        mean = RegionProbVolume(geometry, np.moveaxis(fused, 3, 0))
    else:
        mean = open_region_prob(prob_out)
    return mean, LabelVolume(geometry, voxels)


# A box is a pair of slices, x then y, of the (x, y) columns of a slab. The
# box of no column is the only one whose x slice stops at 0.
_NO_COLUMNS = (slice(0, 0), slice(0, 0))


def _fuse_slab(maps, write, voxels, z0):
    """Fuse the slab of `_SLAB_PLANES` z-planes (fewer at the end of the
    grid) that begins at plane z0: its labels into `voxels`, and each
    channel's mean through `write(data, payload offset)`.

    A channel's float64 sum, its quotient and its >= 0.5 test run on the box
    of the columns that some map marks in it (`_summed`), and the labels are
    rebuilt on the union of the three channels' boxes. Every other cell of
    the mean and the labels is set to +0.0 or 0 before it is written out.

    It runs as a `cores.Tasks` task, so it calls numpy, private helpers,
    `volume.probability_bits`, `regions.rebuild_labels`, the maps' planes and
    `write` only: no function that a tracer wraps with a shared span stack."""
    nx, ny, nz = voxels.shape
    z1 = min(z0 + _SLAB_PLANES, nz)
    acc = np.empty((nx, ny, z1 - z0), np.float64, order="F")
    mean = np.empty_like(acc, np.float32)
    written = (slice(0, nx), slice(0, ny))  # mean is +0.0 outside this box
    boxes, hits = [], []
    for c in range(3):
        box = _summed(maps, c, z0, z1, acc)
        _zero_outside(mean[written], _within(box, written))
        # The float64 quotient, cast once to float32 as it is stored.
        np.divide(acc[box], len(maps), out=mean[box], casting="unsafe")
        written = box
        boxes.append(box)
        hits.append(mean[box] >= 0.5)
        # A channel's planes are contiguous in the file: x fastest, channel slowest.
        write(mean.ravel(order="F"), (c * nz + z0) * nx * ny * mean.itemsize)
    labels = voxels[:, :, z0:z1]
    union = functools.reduce(_union, boxes)
    _zero_outside(labels, union)
    within = labels[union]
    rebuild_labels(*(_widened(hit, box, union, within.shape) for hit, box in zip(hits, boxes)),
                   out=within)


def _summed(maps, c, z0, z1, acc):
    """Sum channel c of the maps' planes z0 to z1 into `acc`, in input
    order, on the box of the columns where some map's bit pattern is not
    that of +0.0 (so -0.0 marks a column), and return that box. `acc`
    outside the box is left as it was.

    One map's planes are read at a time, and one pass (`probability_bits`)
    both checks them and finds the columns they mark; once the box is the
    whole slab, it only checks them. The first map is copied on its box, not
    added to zeros, which would turn -0.0 into 0.0. A column that the box
    takes in later starts from +0.0: every map before held +0.0 in it."""
    whole = (slice(0, acc.shape[0]), slice(0, acc.shape[1]))
    box = _NO_COLUMNS
    for i, m in enumerate(maps):
        planes = getattr(m, "unchecked_planes", m.planes)(c, z0, z1)
        if box == whole:
            probability_bits(planes)  # the check alone: every column is in the box
            grown = whole
        else:
            grown = _union(box, _marked(probability_bits(planes, 2)))
        if i == 0:
            np.copyto(acc[grown], planes[grown])
        else:
            _zero_outside(acc[grown], _within(box, grown))
            acc[grown] += planes[grown]
        box = grown
    return box


def _marked(bits):
    """The box of the columns whose `bits` (x, y) are nonzero."""
    xs = np.flatnonzero(bits.max(axis=1))
    if not xs.size:
        return _NO_COLUMNS
    x = slice(int(xs[0]), int(xs[-1]) + 1)
    ys = np.flatnonzero(bits[x].max(axis=0))
    return x, slice(int(ys[0]), int(ys[-1]) + 1)


def _union(a, b):
    """The smallest box that holds boxes a and b."""
    if not a[0].stop or not b[0].stop:
        return b if not a[0].stop else a
    return tuple(slice(min(p.start, q.start), max(p.stop, q.stop)) for p, q in zip(a, b))


def _within(box, outer):
    """The columns of `box` inside the box `outer`, as a box of a slab cut to `outer`."""
    xs, ys = (slice(max(b.start, o.start) - o.start, min(b.stop, o.stop) - o.start)
              for b, o in zip(box, outer))
    return (xs, ys) if xs.start < xs.stop and ys.start < ys.stop else _NO_COLUMNS


def _zero_outside(array, box):
    """Set the cells of the slab `array` (x, y, z) outside the columns of `box` to 0."""
    if not box[0].stop:
        array.fill(0)
        return
    xs, ys = box
    array[:, :ys.start] = 0
    array[:, ys.stop:] = 0
    array[:xs.start, ys] = 0
    array[xs.stop:, ys] = 0


def _widened(hit, box, outer, shape):
    """The decisions `hit` on `box` as decisions of `shape` on `outer`, a box
    that holds it: False outside `box`."""
    if box == outer:
        return hit
    wide = np.zeros(shape, bool, order="F")
    wide[_within(box, outer)] = hit
    return wide


def _checked_max_iters(n_raters, max_iters) -> int:
    """`max_iters` as an int, once the rater count and `max_iters` pass STAPLE's checks."""
    if not 2 <= n_raters <= MAX_RATERS:
        raise ValidationError(f"STAPLE needs 2 to {MAX_RATERS} raters, got {n_raters}")
    return integral(max_iters, "max_iters", 1)


def _staple_em(codes, n_voxels, n_raters, max_iters) -> StapleFit:
    """EM on the voxel counts of the decision patterns of a grid of `n_voxels`.

    `codes` are the pattern codes (`regions.bit_code`, bit j rater j's
    decision) of boxes that hold each marked voxel once; every other voxel
    has pattern 0. The prior of a voxel is the share of raters that mark it,
    so its posterior depends only on its pattern of rater decisions. EM
    therefore runs on the counts of the patterns that occur (at most 2**R).
    The E-step works in the log domain so products over many raters stay stable.
    """
    counts = sum((np.bincount(code.ravel(order="K"), minlength=1 << n_raters) for code in codes),
                 np.zeros(1 << n_raters, np.intp))
    counts[0] = n_voxels - counts[1:].sum()
    lut = np.zeros(1 << n_raters)
    if not counts[1:].any():  # no rater marks a voxel
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


def staple_binary(masks: Sequence[BinaryMask], max_iters: int = 100) -> StapleResult:
    """EM estimation of per-rater sensitivity/specificity and the per-voxel
    posterior of the latent true mask.

    Patterns are coded on the boxes of the masks' lesion clusters
    (`morphology.lesion_clusters`), as in `staple_fusion`: every voxel outside
    them has pattern 0 and takes its posterior, and a box holds only its own
    cluster's voxels (L shapes merge), so its posterior is pasted whole.
    """
    max_iters = _checked_max_iters(len(masks), max_iters)
    geometry = masks[0].geometry
    clusters = lesion_clusters(masks, 0)  # refuses a mask on another grid
    codes = [bit_code([m.bits[box] for m in masks]) for box in clusters]
    fit = _staple_em(codes, geometry.n_voxels, len(masks), max_iters)
    weights = np.full_like(masks[0].bits, fit.posterior[0], dtype=np.float64)
    for box, code in zip(clusters, codes):
        weights[box] = fit.posterior[code]
    return StapleResult(BinaryMask(geometry, weights >= 0.5), weights, fit.rater_performance,
                        fit.iterations_run, fit.converged)


def staple_fusion(labels: Sequence[LabelVolume], max_iters: int = 100,
                  on_region: Optional[Callable[[Region, StapleFit], None]] = None) -> LabelVolume:
    """Run binary STAPLE independently per region and reconstruct labels; the
    same labels as `reconstruct_labels` of each region's `staple_binary` consensus.

    Each region is coded on the boxes of the labels' lesion clusters
    (`morphology.lesion_clusters`; L shapes merge, so a box holds its own
    cluster alone), fitted once on the pattern counts summed over them, and
    thresholded in each box; `regions.rebuild_labels` rebuilds the labels
    from the three regions' decisions. Every voxel
    outside the clusters has pattern 0 in each region, so it takes the label
    of the three regions' pattern-0 decisions. `on_region`, when given, is
    called with each region and its fit, which is that of the whole grid.
    """
    max_iters = _checked_max_iters(len(labels), max_iters)
    geometry = labels[0].geometry
    clusters = lesion_clusters(labels, 0)  # refuses a volume on another grid
    cuts = [[crop(lv, box) for lv in labels] for box in clusters]
    codes, marked = [], []
    for region in REGIONS:
        codes.append([bit_code([extract_region(lv, region).bits for lv in cut]) for cut in cuts])
        fit = _staple_em(codes[-1], geometry.n_voxels, len(labels), max_iters)
        if on_region is not None:
            on_region(region, fit)
        marked.append(fit.posterior >= 0.5)
    voxels = np.full_like(labels[0].voxels, rebuild_labels(*(m[:1] for m in marked))[0])
    for box, *region_codes in zip(clusters, *codes):
        rebuild_labels(*(m[code] for m, code in zip(marked, region_codes)), out=voxels[box])
    return LabelVolume(geometry, voxels)
