"""Core volume types.

All voxel data is stored as numpy arrays of shape ``dims`` indexed ``[x, y, z]``.
The linear order contract is x-fastest: voxel (x, y, z) lives at flat index
``x + nx * (y + ny * z)``, i.e. Fortran order of the ``(nx, ny, nz)`` array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, IncompatibleGeometryError, ValidationError

SPACING_RTOL = 1e-5


@dataclass(frozen=True)
class Geometry:
    """Grid shape in voxels plus voxel spacing in mm."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        spacing = tuple(float(s) for s in self.spacing)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValidationError(f"dims must be 3 positive integers, got {self.dims}")
        if len(spacing) != 3 or any(s <= 0 for s in spacing):
            raise ValidationError(f"spacing must be 3 positive reals, got {self.spacing}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def compatible(self, other: "Geometry") -> bool:
        if self.dims != other.dims:
            return False
        return all(
            abs(a - b) <= SPACING_RTOL * max(abs(a), abs(b))
            for a, b in zip(self.spacing, other.spacing)
        )

    def require_compatible(self, other: "Geometry"):
        if not self.compatible(other):
            raise IncompatibleGeometryError(
                f"incompatible geometries: {self.dims}/{self.spacing} vs "
                f"{other.dims}/{other.spacing}"
            )


def _check_shape(geometry: Geometry, array: np.ndarray, name: str):
    if array.shape != geometry.dims:
        raise ValidationError(
            f"{name} shape {array.shape} does not match dims {geometry.dims}"
        )


@dataclass(frozen=True)
class LabelVolume:
    """Discrete tumour labels: 0 background, 1 NCR, 2 ED, 3 ET."""

    geometry: Geometry
    voxels: np.ndarray
    # True when the file carried legacy label 4 that was remapped to 3 on read.
    legacy_remapped: bool = field(default=False, compare=False)

    def __post_init__(self):
        vox = np.ascontiguousarray(self.voxels, dtype=np.uint8)
        _check_shape(self.geometry, vox, "label")
        if vox.size and vox.max() > 3:
            bad = int(vox.max())
            raise ValidationError(f"label value {bad} outside {{0,1,2,3}}")
        vox.setflags(write=False)
        object.__setattr__(self, "voxels", vox)

    def __eq__(self, other):
        if not isinstance(other, LabelVolume):
            return NotImplemented
        return self.geometry == other.geometry and np.array_equal(self.voxels, other.voxels)


@dataclass(frozen=True)
class ScalarVolume:
    """Dense float32 intensity volume."""

    geometry: Geometry
    voxels: np.ndarray

    def __post_init__(self):
        vox = np.ascontiguousarray(self.voxels, dtype=np.float32)
        _check_shape(self.geometry, vox, "scalar")
        vox.setflags(write=False)
        object.__setattr__(self, "voxels", vox)

    def __eq__(self, other):
        if not isinstance(other, ScalarVolume):
            return NotImplemented
        return self.geometry == other.geometry and np.array_equal(self.voxels, other.voxels)


@dataclass(frozen=True)
class RegionProbVolume:
    """Per-voxel region probabilities, channel order WT, TC, ET."""

    geometry: Geometry
    channels: np.ndarray  # shape (3, nx, ny, nz)

    def __post_init__(self):
        ch = np.ascontiguousarray(self.channels, dtype=np.float32)
        if ch.shape != (3,) + self.geometry.dims:
            raise ValidationError(
                f"channels shape {ch.shape} does not match (3, *dims) for {self.geometry.dims}"
            )
        # Written so that NaN, which fails every comparison, is rejected too.
        if ch.size and not (ch.min() >= 0.0 and ch.max() <= 1.0):
            raise ValidationError("region probabilities must lie in [0, 1]")
        ch.setflags(write=False)
        object.__setattr__(self, "channels", ch)

    def __eq__(self, other):
        if not isinstance(other, RegionProbVolume):
            return NotImplemented
        return self.geometry == other.geometry and np.array_equal(self.channels, other.channels)


@dataclass(frozen=True)
class BinaryMask:
    """Dense boolean mask sharing the LabelVolume linear order."""

    geometry: Geometry
    bits: np.ndarray

    def __post_init__(self):
        bits = np.ascontiguousarray(self.bits, dtype=bool)
        _check_shape(self.geometry, bits, "mask")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    def __eq__(self, other):
        if not isinstance(other, BinaryMask):
            return NotImplemented
        return self.geometry == other.geometry and np.array_equal(self.bits, other.bits)

    def count(self) -> int:
        return int(self.bits.sum())

    def any(self) -> bool:
        return bool(self.bits.any())


def zscore_normalize(volume: ScalarVolume, foreground: BinaryMask) -> ScalarVolume:
    """Z-score the foreground voxels (population statistics), zero the background."""
    volume.geometry.require_compatible(foreground.geometry)
    fg = foreground.bits
    if not fg.any():
        raise DegenerateInputError("empty foreground mask")
    values = volume.voxels[fg].astype(np.float64)
    mean = values.mean()
    std = values.std()
    if std == 0.0:
        raise DegenerateInputError("zero-variance foreground")
    out = np.zeros(volume.geometry.dims, dtype=np.float32)
    out[fg] = ((volume.voxels[fg] - mean) / std).astype(np.float32)
    return ScalarVolume(volume.geometry, out)
