import gzip
import struct

import numpy as np
import pytest

from bratskit.errors import (
    CompressedInputError,
    DegenerateInputError,
    FormatError,
    UnsupportedDatatypeError,
    ValidationError,
)
from bratskit.nifti import read_volume, write_volume
from bratskit.volume import (
    BinaryMask,
    Geometry,
    LabelVolume,
    RegionProbVolume,
    ScalarVolume,
    zscore_normalize,
)


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

    def test_nan_scalar_refused_on_write(self, tmp_path):
        g = Geometry((2, 2, 2))
        vox = np.zeros((2, 2, 2), np.float32)
        vox[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            write_volume(ScalarVolume(g, vox), tmp_path / "n.nii")


class TestZScore:
    def test_hand_computed_values(self):
        g = Geometry((3, 1, 1))
        vol = ScalarVolume(g, np.array([1.0, 2.0, 3.0], np.float32).reshape(3, 1, 1))
        fg = BinaryMask(g, np.ones((3, 1, 1), bool))
        out = zscore_normalize(vol, fg)
        expected = np.array([-1.2247, 0.0, 1.2247])
        assert np.allclose(out.voxels.ravel(), expected, atol=1e-3)

    def test_background_exactly_zero(self, rng):
        g = Geometry((5, 5, 5))
        vol = ScalarVolume(g, rng.standard_normal((5, 5, 5)).astype(np.float32) + 7)
        fg_bits = rng.random((5, 5, 5)) < 0.5
        fg_bits[0, 0, 0] = True
        fg_bits[1, 1, 1] = True
        out = zscore_normalize(vol, BinaryMask(g, fg_bits))
        assert (out.voxels[~fg_bits] == 0.0).all()
        vals = out.voxels[fg_bits].astype(np.float64)
        assert abs(vals.mean()) < 1e-4
        assert abs(vals.std() - 1.0) < 1e-4

    def test_idempotent_on_standardized_input(self, rng):
        g = Geometry((4, 4, 4))
        fg = BinaryMask(g, np.ones((4, 4, 4), bool))
        vol = ScalarVolume(g, rng.standard_normal((4, 4, 4)).astype(np.float32))
        once = zscore_normalize(vol, fg)
        twice = zscore_normalize(once, fg)
        assert np.allclose(once.voxels, twice.voxels, atol=1e-4)

    def test_affine_rescale_invariance(self, rng):
        g = Geometry((4, 4, 4))
        fg = BinaryMask(g, np.ones((4, 4, 4), bool))
        base = rng.standard_normal((4, 4, 4)).astype(np.float32)
        a = zscore_normalize(ScalarVolume(g, base), fg)
        b = zscore_normalize(ScalarVolume(g, 3.5 * base + 11.0), fg)
        assert np.allclose(a.voxels, b.voxels, atol=1e-4)

    def test_degenerate_inputs(self):
        g = Geometry((2, 2, 2))
        vol = ScalarVolume(g, np.ones((2, 2, 2), np.float32))
        with pytest.raises(DegenerateInputError):
            zscore_normalize(vol, BinaryMask(g, np.zeros((2, 2, 2), bool)))
        with pytest.raises(DegenerateInputError):
            zscore_normalize(vol, BinaryMask(g, np.ones((2, 2, 2), bool)))
