"""Data-side machinery for synthetic tumour generation.

Covers the deterministic transforms around the generative model: tumour
geometry and the radial replacement-probability field, noise corruption of a
tumour-centred crop, random placement of tumour labels into healthy brain, and
the generator/discriminator loss formulas with their two-step weight schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cores import Tasks
from .errors import DegenerateInputError, IncompatibleGeometryError, PlacementError, ValidationError
from .volume import (BinaryMask, Geometry, LabelVolume, ScalarVolume, _Volume, common_geometry,
                     integral, real, require_probabilities, tumour_box)

CROP_SIZE = 96


@dataclass(frozen=True)
class TumourGeometry:
    bbox_min: tuple[int, int, int]
    bbox_max: tuple[int, int, int]
    center: tuple[int, int, int]
    max_size: int


@dataclass(frozen=True, eq=False)
class CorruptionField(_Volume):
    """Replacement probability per crop voxel and the decay exponent it was
    built with; the probabilities are checked as `RegionProbVolume`'s are."""

    geometry: Geometry
    probs: np.ndarray  # float64, shape = geometry.dims, values in [0, 1]
    exponent: float

    _payload = "probs"

    def __post_init__(self):
        require_probabilities(self._freeze(np.float64, self.geometry.dims, "probs"))


@dataclass(frozen=True)
class LambdaPair:
    lambda1: float
    lambda2: float


def tumour_geometry(labels: LabelVolume) -> TumourGeometry:
    """Bounding box, centre and largest extent of the nonzero label voxels.

    The centre is the midpoint (floor) of the first and last occupied slice
    along each axis.
    """
    box = tumour_box((labels,))
    if box is None:
        raise DegenerateInputError("no tumour voxels")
    bbox_min = tuple(s.start for s in box)
    bbox_max = tuple(s.stop - 1 for s in box)
    center = tuple((lo + hi) // 2 for lo, hi in zip(bbox_min, bbox_max))
    max_size = max(hi - lo + 1 for lo, hi in zip(bbox_min, bbox_max))
    return TumourGeometry(bbox_min, bbox_max, center, max_size)


def decay_exponent(max_size: int) -> float:
    """Affine decay exponent in the tumour size; equals 1.1 at size 96."""
    if integral(max_size, "max_size", 1) > CROP_SIZE:
        raise ValidationError(f"max_size must be in [1, {CROP_SIZE}], got {max_size}")
    slope = -0.2 / 68.0
    return slope * max_size + 1.1 - CROP_SIZE * slope


def replacement_probability(distance, exponent: float):
    """Probability of replacing a voxel at the given distance from the centre;
    `distance` is a number >= 0 or an array of them, and the result has its
    shape. A distance whose power overflows gets the limit, 0."""
    exponent = real(exponent, "exponent", 0.0)
    if exponent < 1.0:
        raise ValidationError(f"exponent must be >= 1, got {exponent}")
    try:
        d = np.asarray(distance)
    except ValueError:  # a ragged list
        d = np.asarray(None)
    # Written so that NaN, which fails every comparison, is refused too.
    if not (d.dtype.kind in "iuf" and (d >= 0).all()):
        raise ValidationError("distance must be a number >= 0 or an array of them")
    # numpy's array and scalar powers can differ in the last bit, so a number
    # is raised as a one-element array and gets the value the field holds.
    with np.errstate(over="ignore"):
        power = exponent ** d.astype(np.float64, copy=False).reshape(-1)
    return np.clip(83.0 / (power + 82.0), 0.0, 1.0).reshape(d.shape)[()]


def build_corruption_field(geom: TumourGeometry, crop_geometry: Geometry) -> CorruptionField:
    """Radial replacement-probability field over the crop grid.

    Distance is Euclidean voxel distance to the crop centre voxel (48, 48, 48);
    the field is fully deterministic. The probability is computed once per
    distinct integer squared radius (at most 3 * 48^2 + 1 of them) and the
    grid of squared radii indexes that table.
    """
    if crop_geometry.dims != (CROP_SIZE, CROP_SIZE, CROP_SIZE):
        raise ValidationError(f"crop geometry must be {CROP_SIZE}^3, got {crop_geometry.dims}")
    exponent = decay_exponent(geom.max_size)
    center = CROP_SIZE // 2
    table = replacement_probability(np.sqrt(np.arange(3 * center**2 + 1.0)), exponent)
    squares = (np.arange(CROP_SIZE) - center) ** 2
    return CorruptionField(crop_geometry, table[squares[:, None, None] + squares[:, None] + squares],
                           exponent)


def _minmax_to_unit_range(values):
    """Min-max normalise `values`, a float64 array, to [-1, 1] in place."""
    lo = values.min()
    hi = values.max()
    if hi == lo:
        raise DegenerateInputError("constant image; cannot normalize to [-1, 1]")
    # The bytes of 2.0 * (values - lo) / (hi - lo) - 1.0, without its temporaries.
    values -= lo
    values *= 2.0
    values /= hi - lo
    values -= 1.0


def _normal_draws(rng, out):
    rng.standard_normal(out=out)


def _replacement_draws(rng, probs, noise, replaced):
    """The uniform draws that choose the replaced voxels, then the noise that
    replaces them, in the stream order of `corrupt_crop`."""
    rng.random(out=noise)
    np.less(noise, probs, out=replaced)
    rng.standard_normal(out=noise)


def corrupt_crop(image: ScalarVolume, labels: LabelVolume, field: CorruptionField,
                 rng_seed: int, return_mask: bool = False):
    """Build the noisy generator input for one tumour-centred crop.

    Pipeline: min-max normalize to [-1, 1], add unit Gaussian noise,
    re-normalize, then replace every tumour voxel with a fresh Gaussian draw
    and every healthy voxel with probability given by the field. One seeded
    stream in a fixed draw order makes the output deterministic per seed.

    The draws fill buffers in two `cores.Tasks` tasks, one after the other,
    while this thread normalises; only the running task uses the stream, so
    the bytes do not depend on the thread count.
    """
    common_geometry((image, labels, field))
    # numpy takes a negative seed with a bare ValueError and None as fresh entropy.
    rng_seed = integral(rng_seed, "rng_seed", 0)
    if image.geometry.dims != (CROP_SIZE, CROP_SIZE, CROP_SIZE):
        raise ValidationError(f"crop inputs must be {CROP_SIZE}^3")
    rng = np.random.default_rng(rng_seed)
    # The draws fill C-ordered buffers that this thread allocates, and
    # arithmetic on mixed orders is several times slower, so the image and
    # the tumour mask are made in C order, while the first draw runs: every
    # array below is C-ordered whatever the inputs' order.
    dims = image.geometry.dims
    first, noise, replaced = np.empty(dims), np.empty(dims), np.empty(dims, bool)
    with Tasks() as tasks:
        tasks.run(_normal_draws, rng, first)
        base = image.voxels.astype(np.float64, order="C")
        _minmax_to_unit_range(base)
        tumour = np.not_equal(labels.voxels, 0, order="C")
    with Tasks() as tasks:
        tasks.run(_replacement_draws, rng, field.probs, noise, replaced)
        base += first
        _minmax_to_unit_range(base)
    replaced |= tumour
    np.copyto(base, noise, where=replaced)
    result = ScalarVolume(image.geometry, base.astype(np.float32))
    if return_mask:
        return result, BinaryMask(image.geometry, replaced)
    return result


def place_label(target_labels: LabelVolume, brain_mask: BinaryMask,
                candidate: LabelVolume, rng_seed: int, max_attempts: int = 100):
    """Place a candidate tumour label crop into a healthy part of the target.

    Crop origins are sampled uniformly; a placement is valid when every nonzero
    candidate voxel lands on brain tissue that is still label 0. The candidate
    must have the target's spacing. Returns the updated volume and the chosen
    origin, or raises after max_attempts.
    """
    target_labels.geometry.require_compatible(brain_mask.geometry)
    if not target_labels.geometry.same_spacing(candidate.geometry):
        raise IncompatibleGeometryError(f"candidate spacing {candidate.geometry.spacing} differs "
                                        f"from target spacing {target_labels.geometry.spacing}")
    rng_seed = integral(rng_seed, "rng_seed", 0)
    max_attempts = integral(max_attempts, "max_attempts", 1)
    tdims = target_labels.geometry.dims
    cdims = candidate.geometry.dims
    if any(c > t for c, t in zip(cdims, tdims)):
        raise ValidationError(f"candidate {cdims} does not fit in target {tdims}")
    rng = np.random.default_rng(rng_seed)
    # Only the box of the candidate's tumour is checked and pasted (an empty
    # one for an empty candidate). Elementwise checks and a masked paste run
    # in any memory order; boolean indexing walks an F-ordered box in C order.
    inner = tumour_box((candidate,)) or (slice(0, 0),) * 3
    tumour = candidate.voxels[inner]
    cand_nz = tumour != 0
    for _ in range(max_attempts):
        origin = tuple(int(rng.integers(0, t - c + 1)) for t, c in zip(tdims, cdims))
        box = tuple(slice(o + s.start, o + s.stop) for o, s in zip(origin, inner))
        if not (cand_nz & ~(brain_mask.bits[box] & (target_labels.voxels[box] == 0))).any():
            out = target_labels.voxels.copy(order="K")
            np.copyto(out[box], tumour, where=cand_nz)
            return LabelVolume(target_labels.geometry, out), origin
    raise PlacementError(f"no valid placement found in {max_attempts} attempts")


def lambda_schedule(epoch: int) -> LambdaPair:
    """Second-training-step loss weights: the reconstruction weight ramps
    linearly from 1 to 100 over 1000 epochs, with lambda1 = 1 / lambda2."""
    if integral(epoch, "epoch", 0) > 1000:
        raise ValidationError(f"epoch must be in [0, 1000], got {epoch}")
    lambda2 = (100.0 - 1.0) / 1000.0 * epoch + 1.0
    return LambdaPair(1.0 / lambda2, lambda2)


def generator_loss(d_scores, recon: ScalarVolume, target: ScalarVolume,
                   lambdas: LambdaPair) -> float:
    """Adversarial term plus weighted mean absolute reconstruction error."""
    recon.geometry.require_compatible(target.geometry)
    mae = float(np.abs(target.voxels.astype(np.float64) - recon.voxels).mean())
    return float(-lambdas.lambda1 * _mean_log(d_scores) + lambdas.lambda2 * mae)


def discriminator_loss(d_fake, d_real) -> float:
    return _mean_log(d_fake) - _mean_log(d_real)


def _mean_log(scores) -> float:
    """Mean log of discriminator scores: a nonempty numeric array, finite and > 0."""
    try:
        scores = np.asarray(scores)
    except ValueError:  # a ragged list
        scores = np.asarray(None)
    # Written so that NaN, which fails every comparison, is refused too.
    numeric = scores.dtype.kind in "iuf" and scores.size
    if not (numeric and ((0 < scores) & (scores < np.inf)).all()):
        raise ValidationError("discriminator scores must be nonempty, finite and > 0")
    return float(np.log(scores.astype(np.float64)).mean())
