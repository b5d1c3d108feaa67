"""Synthetic ground-truth / prediction pairs with analytically known lesions.

Lesions are nested ellipsoid shells, so their voxelizations and pairwise
distances can be recomputed by brute force in tests without touching the main
code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import ndimage

from .errors import ValidationError
from .volume import Geometry, LabelVolume, integral, real, triple


@dataclass(frozen=True)
class Lesion:
    center: tuple[int, int, int]
    radii: tuple[float, float, float]
    # (label, radius scale) outermost first, e.g. ED rim 1.0, NCR 0.6, ET 0.3
    shells: tuple = ((2, 1.0), (1, 0.6), (3, 0.3))


@dataclass(frozen=True)
class Perturbation:
    kind: str = "none"  # none | shift | erode | add_fp | drop_lesion
    shift: tuple[int, int, int] = (0, 0, 0)
    iterations: int = 1
    fp_center: tuple[int, int, int] = (0, 0, 0)
    fp_radius: float = 1.0
    fp_label: int = 3
    drop_index: int = 0


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int]
    lesions: Sequence[Lesion]
    perturbation: Perturbation = field(default_factory=Perturbation)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)


def _ellipsoid_mask(dims, center, radii):
    # Each axis term broadcasts along the other two axes; only the sum has the grid's shape.
    grids = np.ogrid[0 : dims[0], 0 : dims[1], 0 : dims[2]]
    return sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii)) <= 1.0


def _build_labels(dims, lesions):
    voxels = np.zeros(dims, dtype=np.uint8)
    occupied = np.zeros(dims, dtype=bool)
    for i, lesion in enumerate(lesions):
        mask = np.zeros(dims, dtype=bool)
        for label, scale in lesion.shells:
            shell = _ellipsoid_mask(dims, lesion.center, tuple(r * scale for r in lesion.radii))
            voxels[shell] = label
            mask |= shell
        if (occupied & mask).any():
            raise ValidationError(f"lesion {i} overlaps an earlier lesion")
        occupied |= mask
    return voxels


def _shift_zero_fill(voxels, offset):
    """`voxels` moved by `offset` voxels per axis; what moves in is 0. The
    clamps leave both slices of an axis empty once |offset| >= its size."""
    dst = tuple(slice(max(o, 0), max(n + min(o, 0), 0)) for o, n in zip(offset, voxels.shape))
    src = tuple(slice(max(-o, 0), max(n - max(o, 0), 0)) for o, n in zip(offset, voxels.shape))
    out = np.zeros_like(voxels)
    out[dst] = voxels[src]
    return out


def _label(value, what) -> int:
    label = integral(value, what, 0)
    if label > 3:
        raise ValidationError(f"{what} {label} outside {{0,1,2,3}}")
    return label


def _shell(shell, what) -> tuple:
    try:
        label, scale = shell
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a (label, scale) pair, got {shell!r}") from None
    return _label(label, f"{what} label"), real(scale, f"{what} scale", 0.0)


def _checked(spec: PhantomSpec):
    """(geometry, spec) with each number checked by a `volume` rule whatever
    the kind; a spec or part that is not a sequence or lacks a field is refused too."""
    try:
        geometry = Geometry(spec.dims, spec.spacing)
        lesions = tuple(
            Lesion(triple(l.center, f"lesion {i} center", real, -np.inf),
                   triple(l.radii, f"lesion {i} radii", real, 0.0),
                   tuple(_shell(shell, f"lesion {i} shell") for shell in l.shells))
            for i, l in enumerate(spec.lesions))
        p = spec.perturbation
        pert = Perturbation(p.kind, triple(p.shift, "shift", integral, -np.inf),
                            integral(p.iterations, "iterations", 1),
                            triple(p.fp_center, "fp_center", real, -np.inf),
                            real(p.fp_radius, "fp_radius", 0.0), _label(p.fp_label, "fp_label"),
                            integral(p.drop_index, "drop_index", 0))
    except (AttributeError, TypeError) as exc:
        raise ValidationError(f"not a phantom spec ({type(exc).__name__}: {exc})") from None
    return geometry, PhantomSpec(geometry.dims, lesions, pert, geometry.spacing)


def generate_phantom(spec: PhantomSpec):
    """Return (gt, pred) label volumes; pred is gt under the perturbation."""
    geometry, spec = _checked(spec)
    pert = spec.perturbation
    for i, lesion in enumerate(spec.lesions):
        for c, r, n in zip(lesion.center, lesion.radii, spec.dims):
            if c - r < -0.5 or c + r > n - 0.5:
                raise ValidationError(f"lesion {i} does not fit inside dims {spec.dims}")
    try:
        gt_voxels = _build_labels(spec.dims, spec.lesions)

        if pert.kind == "none":
            pred_voxels = gt_voxels.copy()
        elif pert.kind == "shift":
            pred_voxels = _shift_zero_fill(gt_voxels, pert.shift)
        elif pert.kind == "erode":
            keep = ndimage.binary_erosion(
                gt_voxels > 0, structure=ndimage.generate_binary_structure(3, 1),
                # Past max(dims) iterations nothing is left to erode.
                iterations=min(pert.iterations, max(spec.dims)), border_value=0,
            )
            pred_voxels = np.where(keep, gt_voxels, 0)
        elif pert.kind == "add_fp":
            pred_voxels = gt_voxels.copy()
            fp = _ellipsoid_mask(spec.dims, pert.fp_center, (pert.fp_radius,) * 3)
            pred_voxels[fp] = pert.fp_label
        elif pert.kind == "drop_lesion":
            if pert.drop_index >= len(spec.lesions):
                raise ValidationError(f"drop_index {pert.drop_index} out of range")
            kept = [l for i, l in enumerate(spec.lesions) if i != pert.drop_index]
            pred_voxels = _build_labels(spec.dims, kept)
        else:
            raise ValidationError(f"unknown perturbation kind {pert.kind!r}")
    except MemoryError:
        raise ValidationError(f"dims {spec.dims} are too large to allocate") from None

    return LabelVolume(geometry, gt_voxels), LabelVolume(geometry, pred_voxels)


def random_phantom_spec(rng: np.random.Generator, max_dim: int = 32,
                        max_lesions: int = 2, perturb: bool = True) -> PhantomSpec:
    """Randomized spec for oracle sweeps; lesions are placed without overlap
    by rejection."""
    dims = tuple(int(rng.integers(12, max_dim + 1)) for _ in range(3))
    n_lesions = int(rng.integers(1, max_lesions + 1))
    lesions = []
    for _ in range(n_lesions):
        for _attempt in range(50):
            radii = tuple(float(rng.uniform(1.0, min(dims) / 5)) for _ in range(3))
            center = tuple(
                int(rng.integers(int(np.ceil(r)), n - int(np.ceil(r))))
                for r, n in zip(radii, dims)
            )
            trial = lesions + [Lesion(center, radii)]
            try:
                _build_labels(dims, trial)
            except ValidationError:
                continue
            lesions = trial
            break
    if not lesions:
        lesions = [Lesion(tuple(d // 2 for d in dims), (1.5, 1.5, 1.5))]
    if perturb:
        kind = rng.choice(["none", "shift", "erode", "add_fp"])
        pert = Perturbation(
            kind=str(kind),
            shift=tuple(int(rng.integers(-2, 3)) for _ in range(3)),
            iterations=1,
            fp_center=tuple(int(rng.integers(1, n - 1)) for n in dims),
            fp_radius=float(rng.uniform(0.8, 2.0)),
            fp_label=int(rng.choice([1, 2, 3])),
        )
    else:
        pert = Perturbation()
    return PhantomSpec(dims, tuple(lesions), pert)
