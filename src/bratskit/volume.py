"""Core volume types.

All voxel data is stored as numpy arrays of shape ``dims`` indexed ``[x, y, z]``.
The linear order contract is on indices, x-fastest: voxel (x, y, z) has flat index
``x + nx * (y + ny * z)``. In memory an array may be C- or F-ordered; every
payload read from a file keeps the file's F order, and arrays derived from a
label volume keep its order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import IncompatibleGeometryError, ValidationError

SPACING_RTOL = 1e-5
# NIfTI-1 stores each dim in an int16, and every volume is read from or written to NIfTI-1.
MAX_DIM = 32767


def _as_float(value) -> float:
    """float(value), or NaN (refused by every rule) for a bool, a str or a non-number."""
    try:
        return np.nan if isinstance(value, (bool, np.bool_, str)) else float(value)
    except (TypeError, ValueError, OverflowError):
        return np.nan


def integral(value, what, minimum) -> int:
    """`value` as an int. Keeps 3, 3.0, np.int64(3) and np.float32(3); refuses
    a bool, a string, 2.5, NaN, Inf and anything below `minimum`."""
    number = _as_float(value)
    if not (number.is_integer() and number >= minimum):
        raise ValidationError(f"{what} must be one of the integers >= {minimum}, got {value!r}")
    return int(value)


def real(value, what, lower) -> float:
    """`value` as a finite float greater than `lower`; refuses a bool and a string."""
    number = _as_float(value)
    if not lower < number < np.inf:
        raise ValidationError(f"{what} must be a finite real > {lower}, got {value!r}")
    return number


def member(kind, value, what):
    """The member of the enum `kind` that `value` is, or whose value it is."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        allowed = ", ".join(repr(m.value) for m in kind)
        raise ValidationError(f"{what} must be one of {allowed}, got {value!r}") from None


def triple(values, what, rule, bound) -> tuple:
    """`rule(v, what, bound)` of each entry of a 3-entry sequence that is not a string."""
    if isinstance(values, str) or not hasattr(values, "__len__") or len(values) != 3:
        raise ValidationError(f"{what} must have 3 entries, got {values!r}")
    return tuple(rule(v, what, bound) for v in values)


@dataclass(frozen=True)
class Geometry:
    """Grid shape in voxels plus voxel spacing in mm."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "dims", triple(self.dims, "dims", integral, 1))
        if max(self.dims) > MAX_DIM:
            raise ValidationError(f"dims must be at most {MAX_DIM} (NIfTI-1), got {self.dims}")
        object.__setattr__(self, "spacing", triple(self.spacing, "spacing", real, 0.0))

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def same_spacing(self, other: "Geometry") -> bool:
        return all(
            abs(a - b) <= SPACING_RTOL * max(abs(a), abs(b))
            for a, b in zip(self.spacing, other.spacing)
        )

    def compatible(self, other: "Geometry") -> bool:
        return self.dims == other.dims and self.same_spacing(other)

    def require_compatible(self, other: "Geometry"):
        if not self.compatible(other):
            raise IncompatibleGeometryError(
                f"incompatible geometries: {self.dims}/{self.spacing} vs "
                f"{other.dims}/{other.spacing}"
            )


def common_geometry(volumes) -> Geometry:
    """The geometry the volumes share; IncompatibleGeometryError if one differs."""
    geometry = volumes[0].geometry
    for v in volumes[1:]:
        geometry.require_compatible(v.geometry)
    return geometry


class _Volume:
    """Freeze and equality shared by the volume types; `_payload` names the
    array field. Equality ignores flags such as `legacy_remapped`, and defining
    `__eq__` here leaves the volumes unhashable."""

    _payload = "voxels"

    @property
    def payload(self) -> np.ndarray:
        return getattr(self, self._payload)

    def _freeze(self, dtype, shape, what):
        """Store the payload read-only, in the memory order it was given; return it.

        A volume takes ownership of its array: when no cast is needed the
        caller's array is stored uncopied and made read-only, and a write
        through another view of its buffer would change the volume. Only a
        bool, integer or real payload is cast, and a cast to an integer
        dtype must keep every value."""
        try:
            array = np.asarray(self.payload)
        except ValueError as exc:  # a ragged nesting
            raise ValidationError(f"{what} payload is not an array: {exc}") from None
        if array.dtype != dtype:
            if array.dtype.kind not in "biuf":
                raise ValidationError(f"{what} payload must be bool, integer or real, "
                                      f"got {array.dtype}")
            # No cast warning: the label check below, or the volume type's own
            # check, refuses what NaN, Inf or an overflow becomes.
            with np.errstate(invalid="ignore", over="ignore"):
                given, array = array, array.astype(dtype)
            if array.dtype.kind == "u" and not np.array_equal(array, given):
                raise ValidationError(f"{what} payload holds values that {array.dtype} "
                                      "does not: a cast would change them")
        if array.shape != shape:
            raise ValidationError(f"{what} shape {array.shape} does not match {shape}")
        array.setflags(write=False)
        object.__setattr__(self, self._payload, array)
        return array

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.geometry == other.geometry and np.array_equal(self.payload, other.payload)


@dataclass(frozen=True, eq=False)
class LabelVolume(_Volume):
    """Discrete tumour labels: 0 background, 1 NCR, 2 ED, 3 ET."""

    geometry: Geometry
    voxels: np.ndarray
    # True when the file carried legacy label 4 that was remapped to 3 on read.
    legacy_remapped: bool = False

    def __post_init__(self):
        vox = self._freeze(np.uint8, self.geometry.dims, "label")
        if vox.size and vox.max() > 3:
            raise ValidationError(f"label value {int(vox.max())} outside {{0,1,2,3}}")


@dataclass(frozen=True, eq=False)
class ScalarVolume(_Volume):
    """Dense float32 intensity volume."""

    geometry: Geometry
    voxels: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self._freeze(np.float32, self.geometry.dims, "scalar")).all():
            raise ValidationError("scalar payload contains NaN/Inf")


@dataclass(frozen=True, eq=False)
class RegionProbVolume(_Volume):
    """Per-voxel region probabilities, channel order WT, TC, ET."""

    geometry: Geometry
    channels: np.ndarray  # shape (3, nx, ny, nz)

    _payload = "channels"

    def __post_init__(self):
        require_probabilities(self._freeze(np.float32, (3,) + self.geometry.dims, "channels"))


def require_probabilities(array):
    """Refuse region probabilities outside [0, 1], NaN included; return the array."""
    # Written so that NaN, which fails every comparison, is rejected too.
    if array.size and not (array.min() >= 0.0 and array.max() <= 1.0):
        raise ValidationError("region probabilities must lie in [0, 1]")
    return array


@dataclass(frozen=True, eq=False)
class BinaryMask(_Volume):
    """Dense boolean mask sharing the LabelVolume linear order."""

    geometry: Geometry
    bits: np.ndarray

    _payload = "bits"

    def __post_init__(self):
        self._freeze(bool, self.geometry.dims, "mask")

    def count(self) -> int:
        return int(self.bits.sum())

    def any(self) -> bool:
        return bool(self.bits.any())


def hull(boxes, pad, dims):
    """Smallest box holding every box, grown by `pad` voxels, clipped to dims.
    A box is a tuple of one slice per axis."""
    return tuple(slice(max(min(b[i].start for b in boxes) - pad, 0),
                       min(max(b[i].stop for b in boxes) + pad, n))
                 for i, n in enumerate(dims))


def tumour_box(volumes):
    """Box of the nonzero voxels of every volume; None when every volume is
    empty. The volumes are label volumes or masks on one grid;
    IncompatibleGeometryError if not."""
    common_geometry(volumes)
    # Two passes per volume, each streaming memory in its own order with no
    # grid-sized temporary: the profile along the axis that varies slowest in
    # memory, and the plane of the other two axes.
    hits = [np.zeros(n, dtype=bool) for n in volumes[0].geometry.dims]
    for v in volumes:
        slow = int(np.argmax(v.payload.strides))
        a, b = (axis for axis in range(3) if axis != slow)
        hits[slow] |= v.payload.any(axis=(a, b))
        plane = v.payload.any(axis=slow)
        hits[a] |= plane.any(axis=1)
        hits[b] |= plane.any(axis=0)
    if not hits[0].any():
        return None
    return tuple(slice(int(at[0]), int(at[-1]) + 1) for at in map(np.flatnonzero, hits))


def boxed_mask(bits, spacing) -> BinaryMask:
    """A mask on its own grid: the voxels of a box cut from a larger volume."""
    return BinaryMask(Geometry(bits.shape, spacing), bits)


def crop(volume, box):
    """A 3-D volume's voxels in `box`, on a grid of the box's shape with the
    same spacing. A lesion cluster's box holds that cluster's voxels alone."""
    payload = volume.payload[box]
    return replace(volume, geometry=Geometry(payload.shape, volume.geometry.spacing),
                   **{volume._payload: payload})

