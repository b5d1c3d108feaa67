import gzip
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bratskit.errors import (
    BratskitError,
    CompressedInputError,
    FormatError,
    IncompatibleGeometryError,
    UnsupportedDatatypeError,
    ValidationError,
)
from bratskit.fusion import average_fusion, staple_binary, staple_fusion
from bratskit.nifti import open_region_prob, read_volume, write_volume
from bratskit.regions import reconstruct_labels
from bratskit.synthprep import CROP_SIZE, CorruptionField, corrupt_crop
from bratskit.volume import (
    MAX_DIM,
    BinaryMask,
    Geometry,
    LabelVolume,
    RegionProbVolume,
    ScalarVolume,
)

from conftest import LAYOUTS, relaid


def random_label(rng, dims, spacing=(1.0, 1.0, 1.0)):
    return LabelVolume(Geometry(dims, spacing), rng.integers(0, 4, dims).astype(np.uint8))


def random_scalar(rng, dims, spacing=(1.0, 1.0, 1.0)):
    return ScalarVolume(Geometry(dims, spacing), rng.standard_normal(dims).astype(np.float32))


def random_prob(rng, dims, spacing=(1.0, 1.0, 1.0)):
    return RegionProbVolume(Geometry(dims, spacing), rng.random((3, *dims)).astype(np.float32))


class TestGeometry:
    def test_compatibility_tolerance(self):
        a = Geometry((4, 4, 4), (1.0, 1.0, 1.0))
        b = Geometry((4, 4, 4), (1.0 + 5e-6, 1.0, 1.0))
        c = Geometry((4, 4, 4), (1.1, 1.0, 1.0))
        assert a.compatible(b)
        assert not a.compatible(c)
        assert not a.compatible(Geometry((4, 4, 5)))

    def test_rejects_bad_dims_and_spacing(self):
        with pytest.raises(ValidationError):
            Geometry((0, 4, 4))
        with pytest.raises(ValidationError):
            Geometry((4, 4, 4), (0.0, 1.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "a", "1.0"])
    def test_rejects_non_finite_spacing(self, bad):
        with pytest.raises(ValidationError):
            Geometry((2, 2, 2), (bad, 1.0, 1.0))

    @pytest.mark.parametrize("bad", [16.5, 0.5, np.float64(16.25), np.nan, np.inf, "16"])
    def test_rejects_fractional_dim(self, bad):
        with pytest.raises(ValidationError, match="dims"):
            Geometry((16, bad, 16))

    def test_dims_within_the_nifti_limit(self):
        assert Geometry((MAX_DIM, 1, MAX_DIM)).dims == (MAX_DIM, 1, MAX_DIM)
        for dims in [(MAX_DIM + 1, 1, 1), (1, 40000, 1), (1, 1, 10**12)]:
            with pytest.raises(ValidationError, match=str(MAX_DIM)):
                Geometry(dims)

    def test_volume_past_the_nifti_limit_writes_nothing(self, tmp_path):
        # A dim past the int16 header field cannot be written, so no such volume is built.
        path = tmp_path / "big.nii"
        with pytest.raises(ValidationError):
            write_volume(LabelVolume(Geometry((40000, 4, 4)), np.zeros((40000, 4, 4), np.uint8)),
                         path)
        assert not path.exists()

    def test_accepts_integral_dims_of_any_type(self):
        dims = Geometry((16.0, np.int64(16), np.float32(16))).dims
        assert dims == (16, 16, 16)
        assert all(type(d) is int for d in dims)


def _prob(g):
    return RegionProbVolume(g, np.full((3, *g.dims), 0.5, np.float32))


def _mask(g):
    return BinaryMask(g, np.zeros(g.dims, bool))


def _labels(g):
    return LabelVolume(g, np.zeros(g.dims, np.uint8))


def _corrupt(geometries):
    image, labels, field = geometries
    voxels = np.random.default_rng(0).standard_normal(image.dims).astype(np.float32)
    return corrupt_crop(ScalarVolume(image, voxels), _labels(labels),
                        CorruptionField(field, np.zeros(field.dims), 1.1), 0)


# Each caller of the shared geometry check: its grid and a call on the
# geometries of its three inputs, in order.
GEOMETRY_CALLERS = {
    "average_fusion": ((4, 4, 4), lambda gs: average_fusion([_prob(g) for g in gs])),
    "staple_binary": ((4, 4, 4), lambda gs: staple_binary([_mask(g) for g in gs])),
    "staple_fusion": ((4, 4, 4), lambda gs: staple_fusion([_labels(g) for g in gs])),
    "reconstruct_labels": ((4, 4, 4), lambda gs: reconstruct_labels(*(_mask(g) for g in gs))),
    "corrupt_crop": ((CROP_SIZE,) * 3, _corrupt),
}


@pytest.mark.parametrize("caller", sorted(GEOMETRY_CALLERS))
@pytest.mark.parametrize("bad_index", [1, 2], ids=["second", "last"])
def test_geometry_check_callers_refuse_one_mismatch(caller, bad_index):
    dims, call = GEOMETRY_CALLERS[caller]
    odd = (dims[0], dims[1], dims[2] + 1)
    call([Geometry(dims), Geometry(dims), Geometry(dims)])  # agreeing inputs pass
    with pytest.raises(IncompatibleGeometryError):
        call([Geometry(odd if i == bad_index else dims) for i in range(3)])


class TestScalarValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values_when_built(self, bad):
        vox = np.zeros((2, 2, 2), np.float32)
        vox[1, 0, 1] = bad
        with pytest.raises(ValidationError, match="scalar payload contains NaN/Inf"):
            ScalarVolume(Geometry((2, 2, 2)), vox)


class TestRegionProbValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.1])
    def test_rejects_values_outside_unit_interval(self, bad):
        ch = np.full((3, 2, 2, 2), 0.5, np.float32)
        ch[1, 0, 1, 0] = bad
        with pytest.raises(ValidationError):
            RegionProbVolume(Geometry((2, 2, 2)), ch)

    def test_read_rejects_nan_payload(self, rng, tmp_path):
        path = tmp_path / "p.nii"
        write_volume(random_prob(rng, (3, 3, 3)), path)
        raw = bytearray(path.read_bytes())
        raw[352 + 4 * 5:352 + 4 * 6] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError):
            read_volume(path, "region_prob")


class TestVolumeTypes:
    MAKERS = {
        "label": lambda g, a: LabelVolume(g, a.astype(np.uint8)),
        "scalar": lambda g, a: ScalarVolume(g, a.astype(np.float32)),
        "mask": lambda g, a: BinaryMask(g, a.astype(bool)),
        "region_prob": lambda g, a: RegionProbVolume(g, np.stack([a] * 3).astype(np.float32)),
    }

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_frozen_equal_and_unhashable(self, kind):
        make = self.MAKERS[kind]
        g = Geometry((2, 3, 4))
        a = np.zeros((2, 3, 4))
        a[1, 2, 3] = 1
        vol = make(g, a)
        payload = getattr(vol, {"region_prob": "channels", "mask": "bits"}.get(kind, "voxels"))
        assert payload.flags.c_contiguous and not payload.flags.writeable
        assert vol == make(g, a.copy())
        assert vol != make(g, np.zeros_like(a))
        assert vol != make(Geometry((2, 3, 4), (2.0, 1.0, 1.0)), a)
        with pytest.raises(TypeError):
            hash(vol)
        with pytest.raises(ValidationError, match="does not match"):
            make(g, np.zeros((4, 3, 2)))

    def test_volume_takes_ownership_of_its_array(self, rng, tmp_path):
        g = Geometry((2, 3, 4))
        a = np.zeros(g.dims, np.uint8)
        vol = LabelVolume(g, a)
        assert vol.voxels is a and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0, 0] = 1
        # a float map read from a file is read-only, and building a volume on
        # it copies nothing
        write_volume(random_prob(rng, g.dims), tmp_path / "p.nii")
        probs = read_volume(tmp_path / "p.nii", "region_prob")
        assert not probs.channels.flags.writeable
        assert RegionProbVolume(g, probs.channels).channels is probs.channels

    def test_types_never_compare_equal(self):
        g = Geometry((2, 2, 2))
        ones = np.ones((2, 2, 2))
        assert LabelVolume(g, ones.astype(np.uint8)) != BinaryMask(g, ones.astype(bool))
        assert LabelVolume(g, ones.astype(np.uint8)) != ScalarVolume(g, ones)

    def test_label_outside_the_four_labels_rejected(self):
        vox = np.zeros((2, 2, 2), np.uint8)
        vox[1, 0, 1] = 4
        with pytest.raises(ValidationError, match=r"label value 4 outside \{0,1,2,3\}"):
            LabelVolume(Geometry((2, 2, 2)), vox)

    @pytest.mark.parametrize("value", [257, -255, 1.7, 3.5, np.nan, np.inf, 1e300])
    def test_a_cast_that_changes_a_label_is_refused(self, value):
        payload = np.zeros((2, 2, 2), np.asarray(value).dtype)
        payload[1, 0, 1] = value
        with pytest.raises(ValidationError, match="label"):
            LabelVolume(Geometry((2, 2, 2)), payload)

    @pytest.mark.parametrize("payload", [np.arange(8, dtype=np.int64) % 4,
                                         np.arange(8, dtype=np.float64) % 4,
                                         np.arange(8) % 2 == 1, [0, 1, 2, 3, 3, 2, 1, 0]])
    def test_a_cast_that_keeps_every_label_is_accepted(self, payload):
        vol = LabelVolume(Geometry((8, 1, 1)), np.reshape(payload, (8, 1, 1)))
        assert vol.voxels.dtype == np.uint8
        assert vol.voxels.ravel().tolist() == np.asarray(payload, np.int64).tolist()

    def test_a_mask_cast_keeps_nonzero_is_true(self):
        mask = BinaryMask(Geometry((4, 1, 1)), np.array([0.0, 0.5, -2.0, np.nan]).reshape(4, 1, 1))
        assert mask.bits.ravel().tolist() == [False, True, True, True]

    TYPES = {"label": (LabelVolume, ()), "scalar": (ScalarVolume, ()),
             "mask": (BinaryMask, ()), "region_prob": (RegionProbVolume, (3,))}

    @pytest.mark.parametrize("payload", ["x", None, [[0, 0], [0]], {"a": 0}, object(),
                                         np.zeros((2, 1, 1), complex)],
                             ids=["str", "None", "ragged", "dict", "object", "complex"])
    @pytest.mark.parametrize("kind", sorted(TYPES))
    def test_a_payload_that_cannot_be_cast_is_refused(self, kind, payload):
        make, _ = self.TYPES[kind]
        with pytest.raises(ValidationError):
            make(Geometry((2, 1, 1)), payload)

    @pytest.mark.parametrize("kind", ["scalar", "region_prob"])
    def test_a_float_cast_that_overflows_is_refused(self, kind):
        make, channels = self.TYPES[kind]
        with pytest.raises(ValidationError):
            make(Geometry((2, 1, 1)), np.full(channels + (2, 1, 1), 1e300))

    def test_mask_is_not_written(self, tmp_path):
        mask = BinaryMask(Geometry((2, 2, 2)), np.ones((2, 2, 2), bool))
        path = tmp_path / "m.nii"
        with pytest.raises(ValidationError, match="unsupported volume type BinaryMask"):
            write_volume(mask, path)
        assert not path.exists()

    def test_legacy_remapped_not_compared(self):
        g = Geometry((2, 2, 2))
        vox = np.full((2, 2, 2), 3, np.uint8)
        assert LabelVolume(g, vox, legacy_remapped=True) == LabelVolume(g, vox)


class TestRoundTrip:
    def test_scalar_round_trip_bit_exact(self, rng, tmp_path):
        vol = random_scalar(rng, (7, 5, 3))
        path = tmp_path / "s.nii"
        write_volume(vol, path)
        back = read_volume(path, "scalar")
        assert back.geometry == vol.geometry
        assert back.voxels.tobytes() == vol.voxels.tobytes()

    @pytest.mark.parametrize("kind", ["label", "scalar", "region_prob"])
    def test_many_random_round_trips(self, rng, tmp_path, kind):
        make = {"label": random_label, "scalar": random_scalar, "region_prob": random_prob}[kind]
        for i in range(10):
            dims = tuple(int(rng.integers(1, 9)) for _ in range(3))
            # pixdim is stored as float32; use representable spacings
            spacing = tuple(float(np.float32(rng.uniform(0.5, 3.0))) for _ in range(3))
            vol = make(rng, dims, spacing)
            path = tmp_path / f"{kind}_{i}.nii"
            write_volume(vol, path)
            assert read_volume(path, kind) == vol

    def test_write_deterministic(self, rng, tmp_path):
        vol = random_label(rng, (6, 6, 6))
        write_volume(vol, tmp_path / "a.nii")
        write_volume(vol, tmp_path / "b.nii")
        assert (tmp_path / "a.nii").read_bytes() == (tmp_path / "b.nii").read_bytes()

    def test_single_voxel_file_length(self, tmp_path):
        vol = LabelVolume(Geometry((1, 1, 1)), np.full((1, 1, 1), 3, dtype=np.uint8))
        path = tmp_path / "t.nii"
        write_volume(vol, path)
        assert path.stat().st_size == 353

    def test_pixdim_round_trip(self, tmp_path):
        vol = LabelVolume(Geometry((2, 2, 2), (1.0, 1.0, 1.0)), np.zeros((2, 2, 2), np.uint8))
        path = tmp_path / "p.nii"
        write_volume(vol, path)
        assert read_volume(path, "label").geometry.spacing == (1.0, 1.0, 1.0)

    def test_linear_order_contract(self, tmp_path):
        # voxel (x,y,z) must sit at payload index x + nx*(y + ny*z)
        dims = (3, 4, 5)
        vox = np.zeros(dims, dtype=np.uint8)
        vox[2, 1, 3] = 3
        path = tmp_path / "probe.nii"
        write_volume(LabelVolume(Geometry(dims), vox), path)
        payload = path.read_bytes()[352:]
        flat_index = 2 + 3 * (1 + 4 * 3)
        assert payload[flat_index] == 3
        assert sum(payload) == 3


def write_raw_label(path, values):
    """A label file whose payload holds `values` as they are, 4 and 5 included."""
    write_volume(LabelVolume(Geometry(values.shape), np.zeros(values.shape, np.uint8)), path)
    path.write_bytes(path.read_bytes()[:352] + values.tobytes(order="F"))


class TestLegacyRemap:
    def test_mixed_payload_reads_4_as_3(self, rng, tmp_path):
        values = rng.integers(0, 5, (6, 5, 4)).astype(np.uint8)
        values[:5, 0, 0] = [0, 1, 2, 3, 4]
        write_raw_label(tmp_path / "l.nii", values)
        back = read_volume(tmp_path / "l.nii", "label")
        assert back.legacy_remapped
        assert np.array_equal(back.voxels, np.where(values == 4, 3, values))
        assert back.voxels.flags.f_contiguous

    def test_payload_without_4_is_read_once(self, rng, tmp_path):
        # The payload is the read-only array the file was read into: one
        # payload-sized allocation, in file order.
        values = rng.integers(0, 4, (64, 64, 64)).astype(np.uint8)
        write_raw_label(tmp_path / "l.nii", values)
        back = read_volume(tmp_path / "l.nii", "label")
        assert not back.legacy_remapped
        assert np.array_equal(back.voxels, values)
        assert not back.voxels.flags.writeable and back.voxels.flags.f_contiguous
        assert read_peak(tmp_path / "l.nii", "label") < 1.5 * values.nbytes

    def test_label_5_refused(self, rng, tmp_path):
        values = rng.integers(0, 5, (6, 5, 4)).astype(np.uint8)
        values[3, 2, 1] = 5
        write_raw_label(tmp_path / "l.nii", values)
        with pytest.raises(ValidationError, match=r"^label value 5 outside \{0,1,2,3,4\}$"):
            read_volume(tmp_path / "l.nii", "label")


class TestHeaderErrors:
    def test_legacy_label_remap(self, tmp_path):
        dims = (4, 4, 4)
        vox = np.zeros(dims, dtype=np.uint8)
        vox[1, 2, 3] = 3
        path = tmp_path / "l.nii"
        write_volume(LabelVolume(Geometry(dims), vox), path)
        # patch the payload byte to the legacy value 4
        raw = bytearray(path.read_bytes())
        idx = 352 + 1 + 4 * (2 + 4 * 3)
        assert raw[idx] == 3
        raw[idx] = 4
        path.write_bytes(bytes(raw))
        back = read_volume(path, "label")
        assert back.voxels[1, 2, 3] == 3
        assert back.legacy_remapped

    def test_gzip_rejected(self, tmp_path, rng):
        vol = random_label(rng, (3, 3, 3))
        plain = tmp_path / "x.nii"
        write_volume(vol, plain)
        gz = tmp_path / "x.nii.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        with pytest.raises(CompressedInputError):
            read_volume(gz, "label")

    def test_bad_sizeof_hdr(self, tmp_path, rng):
        vol = random_label(rng, (3, 3, 3))
        path = tmp_path / "x.nii"
        write_volume(vol, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<i", raw, 0, 999)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_volume(path, "label")
        assert err.value.offset == 0

    def test_bad_magic(self, tmp_path, rng):
        path = tmp_path / "x.nii"
        write_volume(random_label(rng, (3, 3, 3)), path)
        raw = bytearray(path.read_bytes())
        raw[344:348] = b"ni1\x00"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_volume(path, "label")
        assert err.value.offset == 344

    def test_wrong_datatype_for_kind(self, tmp_path, rng):
        path = tmp_path / "x.nii"
        write_volume(random_scalar(rng, (3, 3, 3)), path)
        with pytest.raises(UnsupportedDatatypeError):
            read_volume(path, "label")

    def test_unsupported_datatype_code(self, tmp_path, rng):
        path = tmp_path / "x.nii"
        write_volume(random_scalar(rng, (3, 3, 3)), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<h", raw, 70, 4)  # int16, unsupported
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedDatatypeError):
            read_volume(path, "scalar")

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "x.nii"
        write_volume(random_label(rng, (4, 4, 4)), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError):
            read_volume(path, "label")

    @pytest.mark.parametrize("vox_offset", [np.nan, np.inf, -np.inf, 0.0, 348.0, 351.0, -352.0])
    def test_bad_vox_offset(self, tmp_path, rng, vox_offset):
        path = tmp_path / "x.nii"
        write_volume(random_label(rng, (3, 3, 3)), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 108, vox_offset)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_volume(path, "label")
        assert err.value.offset == 108

    def test_larger_vox_offset_accepted(self, tmp_path, rng):
        vol = random_label(rng, (3, 3, 3))
        path = tmp_path / "x.nii"
        write_volume(vol, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 108, 368.0)
        path.write_bytes(bytes(raw[:352]) + bytes(16) + bytes(raw[352:]))
        assert read_volume(path, "label") == vol

    @pytest.mark.parametrize("vox_offset", [352.5, 355.9, 367.999])
    def test_fractional_vox_offset_refused(self, tmp_path, rng, vox_offset):
        # Truncating 355.9 to 355 would read the payload from the wrong byte.
        path = tmp_path / "x.nii"
        write_volume(random_label(rng, (3, 3, 3)), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 108, vox_offset)
        path.write_bytes(bytes(raw[:352]) + bytes(16) + bytes(raw[352:]))
        with pytest.raises(FormatError, match="vox_offset") as err:
            read_volume(path, "label")
        assert err.value.offset == 108

    @pytest.mark.parametrize("kind", ["label", "region_prob", "scalar"])
    @pytest.mark.parametrize("slope, inter", [(2.0, 5.0), (2.0, 0.0), (1.0, 5.0), (-1.0, 0.0),
                                              (np.inf, 0.0), (1.0, np.inf), (1.0, -np.inf)])
    def test_scaling_refused(self, tmp_path, rng, kind, slope, inter):
        # A reader that ignored scl_slope/scl_inter would return unscaled voxels.
        path = tmp_path / "x.nii"
        write_volume(MUTATED_KINDS[kind][0](rng, (3, 3, 3)), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<2f", raw, 112, slope, inter)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="scl_slope") as err:
            read_volume(path, kind)
        assert err.value.offset == 112
        if kind == "region_prob":
            with pytest.raises(FormatError, match=re.escape(str(err.value))):
                open_region_prob(path)

    @pytest.mark.parametrize("slope, inter", [(0.0, 0.0), (-0.0, 7.0), (0.0, np.nan),
                                              (np.nan, 3.0), (1.0, 0.0), (1.0, -0.0), (1.0, np.nan)])
    def test_unset_or_identity_scaling_accepted(self, tmp_path, rng, slope, inter):
        vol = random_scalar(rng, (3, 3, 3))
        path = tmp_path / "x.nii"
        write_volume(vol, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<2f", raw, 112, slope, inter)
        path.write_bytes(bytes(raw))
        assert read_volume(path, "scalar") == vol

    @pytest.mark.parametrize("pixdim", [np.nan, np.inf])
    def test_non_finite_pixdim(self, tmp_path, rng, pixdim):
        path = tmp_path / "x.nii"
        write_volume(random_label(rng, (3, 3, 3)), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 80, pixdim)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_volume(path, "label")
        assert err.value.offset == 76

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scalar_refused_on_read(self, tmp_path, rng, bad):
        path = tmp_path / "s.nii"
        write_volume(random_scalar(rng, (3, 3, 3)), path)
        raw = bytearray(path.read_bytes())
        raw[352 + 4 * 7:352 + 4 * 8] = np.float32(bad).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="NaN/Inf"):
            read_volume(path, "scalar")

    def test_unknown_kind_refused(self, tmp_path, rng):
        path = tmp_path / "x.nii"
        write_volume(random_label(rng, (3, 3, 3)), path)
        with pytest.raises(ValidationError, match="unknown kind 'labels'"):
            read_volume(path, "labels")

    def test_nan_scalar_refused_on_write(self, tmp_path):
        g = Geometry((2, 2, 2))
        vox = np.zeros((2, 2, 2), np.float32)
        vox[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            write_volume(ScalarVolume(g, vox), tmp_path / "n.nii")


MUTATED_KINDS = {
    "label": (random_label, LabelVolume),
    "scalar": (random_scalar, ScalarVolume),
    "region_prob": (random_prob, RegionProbVolume),
}
# Offsets of the fields the reader parses: sizeof_hdr, dim[0..4], datatype,
# bitpix, pixdim[1..3], vox_offset, magic.
HEADER_FIELDS = [0, 40, 42, 44, 46, 48, 70, 72, 80, 84, 88, 108, 344]
FIELD_VALUES = st.one_of(
    st.binary(min_size=1, max_size=4),
    st.integers(-(2 ** 15), 2 ** 15 - 1).map(lambda v: struct.pack("<h", v)),
    st.sampled_from([0.0, -0.0, -1.0, 1e-40, 352.0, 352.5, 1e30, np.nan, np.inf, -np.inf])
    .map(lambda v: struct.pack("<f", v)),
)
MUTATION = st.tuples(st.one_of(st.sampled_from(HEADER_FIELDS), st.integers(0, 351)), FIELD_VALUES)


def _outcome(read):
    """What `read()` gives, or the type and message of the toolkit error it raises."""
    try:
        return read()
    except BratskitError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(MUTATED_KINDS)), mutations=st.lists(MUTATION, min_size=1, max_size=6))
def test_header_mutation_gives_volume_or_toolkit_error(tmp_path, kind, mutations):
    make, expected = MUTATED_KINDS[kind]
    path = tmp_path / f"{kind}.nii"
    write_volume(make(np.random.default_rng(7), (3, 2, 2), (1.5, 1.0, 2.0)), path)
    raw = bytearray(path.read_bytes())
    for offset, value in mutations:
        raw[offset:offset + len(value)] = value
    path.write_bytes(bytes(raw))
    vol = _outcome(lambda: read_volume(path, kind))
    if kind == "region_prob":
        # Both readers share one header check and one range read: the same
        # error, or the same channels.
        opened = _outcome(lambda: [open_region_prob(path).channels[c].tobytes(order="F")
                                   for c in range(3)])
        assert opened == (vol if isinstance(vol, tuple)
                          else [c.tobytes(order="F") for c in vol.channels])
    if isinstance(vol, tuple):
        return
    assert type(vol) is expected
    assert all(0.0 < s < np.inf for s in vol.geometry.spacing)


class TestPayloadLayout:
    @pytest.mark.parametrize("kind", ["scalar", "region_prob"])
    def test_float_payloads_are_read_only_file_views(self, rng, tmp_path, kind):
        make, _ = MUTATED_KINDS[kind]
        path = tmp_path / f"{kind}.nii"
        write_volume(make(rng, (5, 4, 3)), path)
        payload = read_volume(path, kind).payload
        assert not payload.flags.writeable and not payload.flags.owndata
        for channel in payload.reshape((-1, 5, 4, 3)):
            assert channel.flags.f_contiguous

    def test_label_payload_is_a_read_only_file_view(self, rng, tmp_path):
        path = tmp_path / "label.nii"
        write_volume(random_label(rng, (5, 4, 3)), path)
        voxels = read_volume(path, "label").voxels
        assert not voxels.flags.writeable and not voxels.flags.owndata
        assert voxels.flags.f_contiguous

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("kind", sorted(MUTATED_KINDS))
    def test_written_bytes_do_not_depend_on_layout(self, rng, tmp_path, kind, layout):
        make, _ = MUTATED_KINDS[kind]
        vol = make(rng, (5, 4, 3), (1.5, 1.0, 2.0))
        write_volume(vol, tmp_path / "c.nii")
        write_volume(relaid(vol, layout), tmp_path / "relaid.nii")
        assert (tmp_path / "relaid.nii").read_bytes() == (tmp_path / "c.nii").read_bytes()
        assert read_volume(tmp_path / "relaid.nii", kind) == vol

    def test_region_prob_read_peak_memory(self, rng, tmp_path):
        path = tmp_path / "p.nii"
        write_volume(random_prob(rng, (64, 64, 64)), path)
        payload_bytes = 3 * 4 * 64 ** 3
        assert read_peak(path, "region_prob") < 1.5 * payload_bytes

    def test_label_read_peak_memory(self, rng, tmp_path):
        # Without legacy label 4 the file bytes are the only payload-sized
        # allocation: the label payload is viewed, not copied.
        path = tmp_path / "l.nii"
        write_volume(random_label(rng, (64, 64, 64)), path)
        payload_bytes = 64 ** 3
        assert read_peak(path, "label") < 1.5 * payload_bytes

    def test_legacy_label_read_peak_memory(self, rng, tmp_path):
        # Legacy label 4 is remapped in the array the file was read into, not
        # into a second payload.
        path = tmp_path / "l.nii"
        values = rng.integers(0, 5, (64, 64, 64)).astype(np.uint8)
        write_raw_label(path, values)
        assert read_peak(path, "label") < 1.5 * values.nbytes
        back = read_volume(path, "label")
        assert back.legacy_remapped and np.array_equal(back.voxels, np.minimum(values, 3))

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_write_copies_only_a_payload_out_of_file_order(self, rng, tmp_path, layout):
        # The file order of a region-prob map is the first-axis-slowest layout:
        # written through a buffer view, with no payload-sized allocation.
        vol = relaid(random_prob(rng, (64, 64, 64)), layout)
        payload_bytes = 3 * 4 * 64 ** 3
        tracemalloc.start()
        try:
            write_volume(vol, tmp_path / "relaid.nii")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (0.25 if layout == "first-axis-slowest" else 1.25) * payload_bytes
        write_volume(relaid(vol, "C"), tmp_path / "c.nii")
        assert (tmp_path / "relaid.nii").read_bytes() == (tmp_path / "c.nii").read_bytes()


def read_peak(path, kind):
    """Peak traced allocation, in bytes, of one read_volume call."""
    tracemalloc.start()
    try:
        read_volume(path, kind)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _truncated(raw):
    return raw[:-4]


def _gzipped(raw):
    return gzip.compress(raw)


def _datatype_uint8(raw):
    struct.pack_into("<h", raw, 70, 2)
    return raw


def _three_dimensional(raw):
    struct.pack_into("<h", raw, 40, 3)
    return raw


def _short_header(raw):
    return raw[:100]


class TestOpenRegionProb:
    def test_channels_equal_the_read_volume(self, rng, tmp_path):
        path = tmp_path / "p.nii"
        write_volume(random_prob(rng, (5, 4, 3), (1.5, 1.0, 2.0)), path)
        opened, read = open_region_prob(path), read_volume(path, "region_prob")
        assert opened.geometry == read.geometry
        for c in range(3):
            channel = opened.channels[c]
            assert channel.flags.f_contiguous
            assert channel.tobytes() == read.channels[c].tobytes()

    @pytest.mark.parametrize("damage", [_truncated, _gzipped, _datatype_uint8,
                                        _three_dimensional, _short_header])
    def test_refuses_what_read_volume_refuses(self, rng, tmp_path, damage):
        path = tmp_path / "p.nii"
        write_volume(random_prob(rng, (5, 4, 3)), path)
        path.write_bytes(damage(bytearray(path.read_bytes())))
        with pytest.raises(BratskitError) as read_error:
            read_volume(path, "region_prob")
        with pytest.raises(type(read_error.value), match=re.escape(str(read_error.value))):
            open_region_prob(path)

    @pytest.mark.parametrize("bad", [np.nan, -0.5, 1.5])
    def test_channel_checked_when_read(self, rng, tmp_path, bad):
        path = tmp_path / "p.nii"
        write_volume(random_prob(rng, (5, 4, 3)), path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.float32(bad).tobytes()  # the last voxel of the last channel
        path.write_bytes(bytes(raw))
        opened = open_region_prob(path)
        opened.channels[0], opened.channels[1]
        with pytest.raises(ValidationError, match=r"region probabilities must lie in \[0, 1\]"):
            opened.channels[2]

    def test_planes_equal_the_read_volume(self, rng, tmp_path):
        path = tmp_path / "p.nii"
        write_volume(random_prob(rng, (5, 4, 7), (1.5, 1.0, 2.0)), path)
        opened, read = open_region_prob(path), read_volume(path, "region_prob")
        for c in range(3):
            for planes in (slice(0, 1), slice(2, 6), slice(5, 7), slice(6, 9), slice(7, 9),
                           slice(-3, None), slice(None, 2)):
                key = (c, slice(None), slice(None), planes)
                expected, got = read.channels[key], opened.channels[key]
                assert got.flags.f_contiguous and got.shape == expected.shape
                assert got.tobytes(order="F") == expected.tobytes(order="F")

    @pytest.mark.parametrize("key", [(0, 1), (0, slice(None), slice(None), slice(0, 4, 2)),
                                     (0, slice(1, 2), slice(None), slice(0, 1)),
                                     (0, slice(None), slice(None), 1), (3,)])
    def test_refuses_a_key_it_cannot_read(self, rng, tmp_path, key):
        path = tmp_path / "p.nii"
        write_volume(random_prob(rng, (5, 4, 3)), path)
        with pytest.raises(IndexError):
            open_region_prob(path).channels[key]

    def test_file_cut_short_after_open(self, rng, tmp_path):
        path = tmp_path / "p.nii"
        write_volume(random_prob(rng, (5, 4, 3)), path)
        opened = open_region_prob(path)
        path.write_bytes(path.read_bytes()[:-4])
        opened.channels[1]
        with pytest.raises(FormatError, match="payload truncated"):
            opened.channels[2]
