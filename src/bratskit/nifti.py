"""Minimal NIfTI-1 reader/writer.

Supports exactly the subset this toolkit needs: uncompressed, little-endian,
sizeof_hdr 348, magic "n+1", datatype 2 (uint8) or 16 (float32), vox_offset 352
(any whole number >= 352 on read) and no intensity scaling (scl_slope 0 or NaN,
or 1 with scl_inter 0 or NaN).
Label volumes are 3D uint8; scalar volumes 3D float32; region-probability
volumes 4D float32 with the 4th dimension of size 3 (channel order WT, TC, ET).
Every payload is read once into a new read-only array, in the file's
x-fastest (F) order; legacy label 4 is remapped in place. A region-probability
file can also be opened and read one slab of z-planes of one channel at a
time (`open_region_prob`): it has the `geometry` and the `planes(c, z0, z1)`
of a volume in memory, and each read opens and closes the file.
A payload already in file order is written without a copy. Every output is
written by one in-place writer, `_output`, with its header written last, so a
write cut short leaves a file the reader refuses, or none when the write
created it; mean fusion streams its slabs to a map through the same writer.
"""

from __future__ import annotations

import contextlib
import errno
import math
import os
import struct
from typing import NamedTuple

import numpy as np

from .errors import (
    CompressedInputError,
    FormatError,
    UnsupportedDatatypeError,
    ValidationError,
)
from .volume import Geometry, LabelVolume, RegionProbVolume, ScalarVolume, require_probabilities

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
_OFF_SCL_SLOPE = 112
_OFF_MAGIC = 344


class _Kind(NamedTuple):
    volume: type
    datatype: int
    dtype: np.dtype  # little-endian payload dtype
    dim4: int  # 1 for the 3D kinds


_KINDS = {
    "label": _Kind(LabelVolume, DT_UINT8, np.dtype("<u1"), 1),
    "scalar": _Kind(ScalarVolume, DT_FLOAT32, np.dtype("<f4"), 1),
    "region_prob": _Kind(RegionProbVolume, DT_FLOAT32, np.dtype("<f4"), 3),
}


def _build_header(dims, spacing, kind):
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, _OFF_SIZEOF_HDR, HEADER_SIZE)
    dim = [3 if kind.dim4 == 1 else 4, dims[0], dims[1], dims[2], kind.dim4, 1, 1, 1]
    struct.pack_into("<8h", hdr, _OFF_DIM, *dim)
    struct.pack_into("<h", hdr, _OFF_DATATYPE, kind.datatype)
    struct.pack_into("<h", hdr, _OFF_BITPIX, 8 * kind.dtype.itemsize)
    pixdim = [1.0, spacing[0], spacing[1], spacing[2], 1.0, 1.0, 1.0, 1.0]
    struct.pack_into("<8f", hdr, _OFF_PIXDIM, *pixdim)
    struct.pack_into("<f", hdr, _OFF_VOX_OFFSET, float(VOX_OFFSET))
    hdr[_OFF_MAGIC : _OFF_MAGIC + 4] = MAGIC
    return bytes(hdr)


def write_volume(volume, path):
    """Serialize a LabelVolume, ScalarVolume or RegionProbVolume to disk.

    Emits a 348-byte header, 4 zero pad bytes (no extensions) and the raw
    little-endian payload in x-fastest order. Output bytes are deterministic.
    The file is written by `_output`, in place and header last. A refused
    volume leaves an existing file as it was.
    """
    kind = next((name for name, k in _KINDS.items() if type(volume) is k.volume), None)
    if kind is None:
        raise ValidationError(f"unsupported volume type {type(volume).__name__}")
    spec = _KINDS[kind]
    # File order (x fastest, 4th dim slowest) is F order with the channel axis
    # last. The F ravel of a payload already in file order is a view, written
    # through its buffer with no copy; any other layout is copied once.
    payload = np.moveaxis(volume.payload.reshape((spec.dim4,) + volume.geometry.dims), 0, 3)
    data = payload.astype(spec.dtype, copy=False).ravel(order="F")
    with _output(path, kind, volume.geometry) as write:
        write(data, 0)


@contextlib.contextmanager
def _output(path, kind, geometry):
    """The one writer of outputs: the file at `path` rewritten in place as a
    volume of `kind` on `geometry`, header last.

    On entry the file is opened without O_TRUNC (created if missing) and its
    352 header bytes are zeroed. The context gives `write(data, offset)`,
    which writes a contiguous array at byte `offset` of the payload, from
    any thread. On leaving it a longer file is cut to length and then the
    header is written. A failure before that removes a file this call
    created and leaves an existing one a file the reader refuses
    (`sizeof_hdr is 0`). The file is closed in any case, and every OSError
    of the writer names it.
    """
    spec = _KINDS[kind]
    header = _build_header(geometry.dims, geometry.spacing, spec) + bytes(VOX_OFFSET - HEADER_SIZE)
    end = VOX_OFFSET + geometry.n_voxels * spec.dim4 * spec.dtype.itemsize
    # No O_TRUNC: on ext4 a truncate of a file that holds data starts its
    # writeback at close, and the next truncate waits for it. O_EXCL tells a
    # file this call creates from one that was there; it follows no symlink.
    try:
        fd, created = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), True
    except FileExistsError:
        fd, created = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), False

    def named(call, *args):
        try:
            return call(fd, *args)
        except OSError as exc:
            exc.filename = os.fspath(path)  # os.pwrite, os.fstat and os.ftruncate name none
            raise

    try:
        named(_pwrite_all, bytes(VOX_OFFSET), 0)
        yield lambda data, offset: named(_pwrite_all, data, VOX_OFFSET + offset)
        if named(os.fstat).st_size > end:
            named(os.ftruncate, end)
        named(_pwrite_all, header, 0)
    except BaseException:
        if created:
            os.unlink(path)
        raise
    finally:
        os.close(fd)


def _pwrite_all(fd, data, offset):
    """Write all bytes of `data` to `fd` at byte `offset`, raising OSError on
    a write that makes no progress."""
    view = memoryview(data).cast("B")
    while view:
        wrote = os.pwrite(fd, view, offset)
        if not wrote:
            raise OSError(errno.EIO, f"write at byte {offset} made no progress")
        view, offset = view[wrote:], offset + wrote


def _checked_header(path, kind):
    """The kind's table entry, the geometry and the payload offset of the file
    at `path`, read from its header and length. Refuses a header, datatype,
    4th dim or payload length that does not fit the kind."""
    with open(path, "rb") as fh:
        raw, size = fh.read(HEADER_SIZE), os.fstat(fh.fileno()).st_size
    spec = _KINDS.get(kind)
    if spec is None:
        raise ValidationError(f"unknown kind {kind!r}")
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
    vox_offset, slope, inter = struct.unpack_from("<3f", raw, _OFF_VOX_OFFSET)
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
    if not vox_offset.is_integer():
        raise FormatError(f"vox_offset {vox_offset} must be a whole number of bytes",
                          offset=_OFF_VOX_OFFSET)
    if not (slope == 0 or math.isnan(slope) or (slope == 1 and (inter == 0 or math.isnan(inter)))):
        raise FormatError(f"scl_slope {slope} and scl_inter {inter} ask for scaling, "
                          "which is unsupported", offset=_OFF_SCL_SLOPE)
    geometry = Geometry(dims, spacing)
    if datatype != spec.datatype:
        raise UnsupportedDatatypeError(f"{kind} volume requires datatype {spec.datatype} "
                                       f"({spec.dtype.name}), got {datatype}")
    if dim4 != spec.dim4:
        raise FormatError(f"{kind} volume must have 4th dim {spec.dim4}, got {dim4}",
                          offset=_OFF_DIM)
    offset = int(vox_offset)
    _require_payload(geometry.n_voxels * dim4 * spec.dtype.itemsize, size - offset, offset)
    return spec, geometry, offset


def _require_payload(nbytes, have, offset):
    if have < nbytes:
        raise FormatError(f"payload truncated: need {nbytes} bytes, have {max(have, 0)}",
                          offset=offset)


def _read_range(path, offset, shape, dtype):
    """A new F-ordered array of `shape` and `dtype` read from the file at byte
    `offset`; the file is opened and closed again. FormatError if the file ends
    first (its length was checked with its header, so it was cut short since)."""
    array = np.empty(shape, dtype, order="F")
    buffer, done = memoryview(array.ravel(order="K")).cast("B"), 0
    fd = os.open(path, os.O_RDONLY)
    try:
        while done < len(buffer) and (got := os.preadv(fd, [buffer[done:]], offset + done)):
            done += got
    finally:
        os.close(fd)
    _require_payload(len(buffer), done, offset)
    return array


def read_volume(path, kind):
    """Read a volume of the given kind: 'label', 'scalar' or 'region_prob'.

    The payload is read once into a new read-only array, in file (x-fastest,
    F) order. A label file that holds legacy label 4 has 4 remapped to 3 in
    that array, with `legacy_remapped` set.
    """
    spec, geometry, offset = _checked_header(path, kind)
    payload = np.moveaxis(_read_range(path, offset, geometry.dims + (spec.dim4,), spec.dtype), 3, 0)
    payload = payload if spec.dim4 > 1 else payload[0]

    if kind == "label":
        top = int(payload.max(initial=0))
        if top > 4:
            raise ValidationError(f"label value {top} outside {{0,1,2,3,4}}")
        if top == 4:
            np.minimum(payload, 3, out=payload)
        return LabelVolume(geometry, payload, legacy_remapped=top == 4)
    return spec.volume(geometry, payload)


class RegionProbFile(NamedTuple):
    """A region-probability file with a checked header and length. It has the
    `geometry` and `planes` of a RegionProbVolume, but holds no voxels: each
    slab is read from the payload at byte `offset` when asked for."""

    path: str | os.PathLike
    geometry: Geometry
    offset: int

    def planes(self, c, z0, z1):
        """Planes z0 to z1 of channel c, read from the file in file order and
        checked against the [0, 1] rule. Each read opens the file and closes
        it again, whether the read succeeds or fails. A range outside one
        channel's planes, which would read another channel's bytes, is refused."""
        return require_probabilities(self.unchecked_planes(c, z0, z1))

    def unchecked_planes(self, c, z0, z1):
        """`planes` without the [0, 1] check, for a caller that makes it in
        its own pass over the planes, as mean fusion does."""
        nx, ny, nz = self.geometry.dims
        if not (c in range(3) and z0 in range(nz + 1) and z1 in range(z0, nz + 1)):
            raise ValidationError(f"cannot read planes {z0} to {z1} of channel {c}: "
                                  f"a file has channels 0 to 2 of {nz} planes each")
        dtype = _KINDS["region_prob"].dtype
        offset = self.offset + (c * nz + z0) * nx * ny * dtype.itemsize
        return _read_range(self.path, offset, (nx, ny, z1 - z0), dtype)


def open_region_prob(path):
    """Check a region-probability file's header and length, as `read_volume`
    does, reading only the header; its planes are read when asked for."""
    _, geometry, offset = _checked_header(path, "region_prob")
    return RegionProbFile(path, geometry, offset)
