"""Minimal NIfTI-1 reader/writer.

Supports exactly the subset this toolkit needs: uncompressed, little-endian,
sizeof_hdr 348, magic "n+1", datatype 2 (uint8) or 16 (float32), vox_offset 352
(any finite value >= 352 on read).
Label volumes are 3D uint8; scalar volumes 3D float32; region-probability
volumes 4D float32 with the 4th dimension of size 3 (channel order WT, TC, ET).
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import (
    CompressedInputError,
    FormatError,
    UnsupportedDatatypeError,
    ValidationError,
)
from .volume import Geometry, LabelVolume, RegionProbVolume, ScalarVolume

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC = b"n+1\x00"

DT_UINT8 = 2
DT_FLOAT32 = 16

_OFF_SIZEOF_HDR = 0
_OFF_DIM = 40
_OFF_DATATYPE = 70
_OFF_BITPIX = 72
_OFF_PIXDIM = 76
_OFF_VOX_OFFSET = 108
_OFF_MAGIC = 344


def _build_header(dims, spacing, datatype, bitpix, ndim, dim4=1):
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, _OFF_SIZEOF_HDR, HEADER_SIZE)
    dim = [ndim, dims[0], dims[1], dims[2], dim4, 1, 1, 1]
    struct.pack_into("<8h", hdr, _OFF_DIM, *dim)
    struct.pack_into("<h", hdr, _OFF_DATATYPE, datatype)
    struct.pack_into("<h", hdr, _OFF_BITPIX, bitpix)
    pixdim = [1.0, spacing[0], spacing[1], spacing[2], 1.0, 1.0, 1.0, 1.0]
    struct.pack_into("<8f", hdr, _OFF_PIXDIM, *pixdim)
    struct.pack_into("<f", hdr, _OFF_VOX_OFFSET, float(VOX_OFFSET))
    hdr[_OFF_MAGIC : _OFF_MAGIC + 4] = MAGIC
    return bytes(hdr)


def _require_finite(volume):
    if not np.isfinite(volume.voxels).all():
        raise ValidationError("scalar payload contains NaN/Inf")
    return volume


def write_volume(volume, path):
    """Serialize a LabelVolume, ScalarVolume or RegionProbVolume to disk.

    Emits a 348-byte header, 4 zero pad bytes (no extensions) and the raw
    little-endian payload in x-fastest order. Output bytes are deterministic.
    """
    path = Path(path)
    dims = volume.geometry.dims
    spacing = volume.geometry.spacing
    if isinstance(volume, LabelVolume):
        header = _build_header(dims, spacing, DT_UINT8, 8, 3)
        payload = volume.voxels.astype("<u1").tobytes(order="F")
    elif isinstance(volume, ScalarVolume):
        _require_finite(volume)
        header = _build_header(dims, spacing, DT_FLOAT32, 32, 3)
        payload = volume.voxels.astype("<f4").tobytes(order="F")
    elif isinstance(volume, RegionProbVolume):
        header = _build_header(dims, spacing, DT_FLOAT32, 32, 4, dim4=3)
        # 4D F-order: the three spatial channels are written back to back.
        payload = b"".join(
            volume.channels[c].astype("<f4").tobytes(order="F") for c in range(3)
        )
    else:
        raise ValidationError(f"unsupported volume type {type(volume).__name__}")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(b"\x00" * (VOX_OFFSET - HEADER_SIZE))
        fh.write(payload)


def _parse_header(raw):
    if len(raw) >= 2 and raw[0] == 0x1F and raw[1] == 0x8B:
        raise CompressedInputError("gzip magic detected; compressed input is unsupported")
    if len(raw) < HEADER_SIZE:
        raise FormatError(f"file too short for a NIfTI-1 header ({len(raw)} bytes)", offset=0)
    (sizeof_hdr,) = struct.unpack_from("<i", raw, _OFF_SIZEOF_HDR)
    if sizeof_hdr != HEADER_SIZE:
        raise FormatError(f"sizeof_hdr is {sizeof_hdr}, expected {HEADER_SIZE}", offset=_OFF_SIZEOF_HDR)
    magic = raw[_OFF_MAGIC : _OFF_MAGIC + 4]
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=_OFF_MAGIC)
    dim = struct.unpack_from("<8h", raw, _OFF_DIM)
    (datatype,) = struct.unpack_from("<h", raw, _OFF_DATATYPE)
    pixdim = struct.unpack_from("<8f", raw, _OFF_PIXDIM)
    (vox_offset,) = struct.unpack_from("<f", raw, _OFF_VOX_OFFSET)
    ndim = dim[0]
    if ndim not in (3, 4):
        raise FormatError(f"unsupported number of dimensions {ndim}", offset=_OFF_DIM)
    dims = tuple(int(d) for d in dim[1:4])
    if any(d < 1 for d in dims):
        raise FormatError(f"non-positive spatial dim in {dims}", offset=_OFF_DIM)
    dim4 = int(dim[4]) if ndim == 4 else 1
    spacing = tuple(float(p) for p in pixdim[1:4])
    # Both checks are written so that NaN, which fails every comparison, fails.
    if not all(0.0 < s < math.inf for s in spacing):
        raise FormatError(f"pixdim {spacing} must be positive and finite", offset=_OFF_PIXDIM)
    if not VOX_OFFSET <= vox_offset < math.inf:
        raise FormatError(f"vox_offset {vox_offset} must be finite and >= {VOX_OFFSET}",
                          offset=_OFF_VOX_OFFSET)
    return dims, dim4, spacing, datatype, int(vox_offset)


def read_volume(path, kind):
    """Read a volume of the given kind: 'label', 'scalar' or 'region_prob'."""
    if kind not in ("label", "scalar", "region_prob"):
        raise ValueError(f"unknown kind {kind!r}")
    raw = Path(path).read_bytes()
    dims, dim4, spacing, datatype, vox_offset = _parse_header(raw)
    geometry = Geometry(dims, spacing)

    if kind == "label":
        if datatype != DT_UINT8:
            raise UnsupportedDatatypeError(
                f"label volume requires datatype {DT_UINT8} (uint8), got {datatype}"
            )
        expected, dtype, itemsize = geometry.n_voxels, "<u1", 1
        if dim4 != 1:
            raise FormatError(f"label volume must be 3D, got 4th dim {dim4}", offset=_OFF_DIM)
    else:
        if datatype != DT_FLOAT32:
            raise UnsupportedDatatypeError(
                f"{kind} volume requires datatype {DT_FLOAT32} (float32), got {datatype}"
            )
        dtype, itemsize = "<f4", 4
        if kind == "region_prob":
            if dim4 != 3:
                raise FormatError(
                    f"region_prob volume must have 4th dim 3, got {dim4}", offset=_OFF_DIM
                )
            expected = geometry.n_voxels * 3
        else:
            if dim4 != 1:
                raise FormatError(f"scalar volume must be 3D, got 4th dim {dim4}", offset=_OFF_DIM)
            expected = geometry.n_voxels

    payload = raw[vox_offset:]
    if len(payload) < expected * itemsize:
        raise FormatError(
            f"payload truncated: need {expected * itemsize} bytes, have {len(payload)}",
            offset=vox_offset,
        )
    flat = np.frombuffer(payload, dtype=dtype, count=expected)

    if kind == "label":
        vox = flat.reshape(dims, order="F").copy()
        if vox.max(initial=0) > 4:
            raise ValidationError(f"label value {int(vox.max())} outside {{0,1,2,3,4}}")
        remapped = bool((vox == 4).any())
        if remapped:
            vox[vox == 4] = 3
        return LabelVolume(geometry, vox, legacy_remapped=remapped)
    if kind == "scalar":
        return _require_finite(ScalarVolume(geometry, flat.reshape(dims, order="F")))
    channels = flat.reshape(dims + (3,), order="F")
    return RegionProbVolume(geometry, np.moveaxis(channels, 3, 0))
