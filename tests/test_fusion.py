import errno
import functools
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from bratskit.cli import main
from bratskit.errors import FormatError, IncompatibleGeometryError, ValidationError
import bratskit.fusion
from bratskit.fusion import (
    MAX_RATERS,
    StapleFit,
    average_fusion,
    staple_binary,
    staple_fusion,
)
from bratskit.morphology import lesion_clusters
from bratskit.nifti import VOX_OFFSET, open_region_prob, read_volume, write_volume
from bratskit.regions import REGIONS, Region, extract_region, reconstruct_labels
from bratskit.volume import BinaryMask, Geometry, LabelVolume, RegionProbVolume, tumour_box

from conftest import LAYOUTS, labels_from_array, on_cores, relaid
from oracles import staple_em_oracle


def prob_volume(rng, g):
    return RegionProbVolume(g, rng.random((3, *g.dims)).astype(np.float32))


class TestAverageFusion:
    def test_single_input_identity(self, rng):
        g = Geometry((5, 5, 5))
        pv = prob_volume(rng, g)
        fused, labels = average_fusion([pv])
        assert np.allclose(fused.channels, pv.channels)
        masks = [BinaryMask(g, pv.channels[c] >= 0.5) for c in range(3)]
        assert labels == reconstruct_labels(*masks)

    def test_arithmetic_mean(self):
        g = Geometry((2, 2, 2))
        a = np.zeros((3, 2, 2, 2), np.float32)
        b = np.zeros((3, 2, 2, 2), np.float32)
        a[0, 0, 0, 0] = 0.4
        b[0, 0, 0, 0] = 0.8
        fused, labels = average_fusion([RegionProbVolume(g, a), RegionProbVolume(g, b)])
        assert fused.channels[0, 0, 0, 0] == pytest.approx(0.6)
        assert extract_region(labels, Region.WT).bits[0, 0, 0]

    def test_unanimous_inputs(self, rng):
        g = Geometry((4, 4, 4))
        pv = prob_volume(rng, g)
        _, single = average_fusion([pv])
        _, triple = average_fusion([pv, pv, pv])
        assert single == triple

    def test_order_and_duplication_invariance(self, rng):
        g = Geometry((4, 4, 4))
        a, b = prob_volume(rng, g), prob_volume(rng, g)
        f1, _ = average_fusion([a, b])
        f2, _ = average_fusion([b, a])
        f3, _ = average_fusion([a, b, a, b])
        assert np.allclose(f1.channels, f2.channels)
        assert np.allclose(f1.channels, f3.channels, atol=1e-7)

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            average_fusion([])

    @pytest.mark.parametrize("n_maps", [2, 3, 5])
    def test_bytes_match_mean_of_stacked_float64_copies(self, rng, n_maps):
        g = Geometry((9, 7, 5))
        maps = [prob_volume(rng, g) for _ in range(n_maps)]
        fused, _ = average_fusion(maps)
        expected = np.mean([m.channels.astype(np.float64) for m in maps], axis=0)
        assert fused.channels.tobytes() == expected.astype(np.float32).tobytes()

    @pytest.mark.parametrize("n_maps", [1, 2, 3, 5])
    def test_generator_bytes_match_mean_of_stacked_float64_copies(self, rng, n_maps):
        g = Geometry((9, 7, 5))
        maps = [prob_volume(rng, g) for _ in range(n_maps)]
        fused, labels = average_fusion(m for m in maps)
        expected = np.mean([m.channels.astype(np.float64) for m in maps], axis=0)
        assert fused.channels.tobytes() == expected.astype(np.float32).tobytes()
        assert labels == average_fusion(maps)[1]

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_file_maps_and_any_layout_give_the_same_bytes(self, rng, tmp_path, layout):
        g = Geometry((9, 7, 5), (1.0, 1.5, 2.0))
        maps = [prob_volume(rng, g) for _ in range(3)]
        paths = [tmp_path / f"p{i}.nii" for i in range(3)]
        for m, path in zip(maps, paths):
            write_volume(m, path)
        fused, labels = average_fusion(maps)
        for other in (average_fusion([relaid(m, layout) for m in maps]),
                      average_fusion([open_region_prob(path) for path in paths])):
            assert other[0].channels.tobytes() == fused.channels.tobytes()
            assert other[1] == labels

    def test_result_in_file_order(self, rng):
        fused, labels = average_fusion([prob_volume(rng, Geometry((9, 7, 5)))] * 2)
        assert np.moveaxis(fused.channels, 0, 3).flags.f_contiguous
        assert labels.voxels.flags.f_contiguous

    def test_negative_zero_kept(self, rng):
        # -0.0 lies in [0, 1]; a sum that starts from the first map keeps its sign bit.
        g = Geometry((4, 3, 2))
        a, b = np.zeros((3, *g.dims), np.float32), np.zeros((3, *g.dims), np.float32)
        a[1, 2, 1, 0] = b[1, 2, 1, 0] = -0.0
        fused, _ = average_fusion([RegionProbVolume(g, a), RegionProbVolume(g, b)])
        assert np.signbit(fused.channels[1, 2, 1, 0])
        assert np.signbit(fused.channels).sum() == 1

    def test_empty_generator_rejected(self):
        with pytest.raises(ValidationError):
            average_fusion(m for m in [])

    def test_generator_geometry_mismatch_rejected(self, rng):
        g, other = Geometry((4, 4, 4)), Geometry((4, 4, 5))
        maps = (prob_volume(rng, geom) for geom in (g, g, other, g))
        with pytest.raises(IncompatibleGeometryError):
            average_fusion(maps)


def stacked_mean(maps):
    """The oracle: the float64 copies of the maps summed in input order,
    divided by their number and cast to float32, and the labels of its >= 0.5
    masks. np.mean over the stacked copies gives the same bytes, except that
    it adds the first map to 0.0 and so turns a -0.0 mean into 0.0."""
    stacked = np.stack([np.asarray(m.channels, np.float64) for m in maps])
    mean = (functools.reduce(np.add, stacked) / len(maps)).astype(np.float32)
    g = maps[0].geometry
    return mean, reconstruct_labels(*(BinaryMask(g, mean[c] >= 0.5) for c in range(3)))


def slab_maps(rng, g, n=3):
    """Random maps with, in the last plane, a voxel every map puts at 0.5 (a
    mean of exactly 0.5 is marked) and a voxel every map puts at -0.0."""
    channels = [rng.random((3, *g.dims)).astype(np.float32) for _ in range(n)]
    for c in channels:
        c[:, 0, 0, -1] = 0.5
        c[:, -1, -1, -1] = -0.0
    return [RegionProbVolume(g, c) for c in channels]


def written_maps(maps, directory):
    paths = [directory / f"p{i}.nii" for i in range(len(maps))]
    for m, path in zip(maps, paths):
        write_volume(m, path)
    return paths



def set_voxel(path, dims, c, voxel, value):
    """Overwrite one float32 voxel of channel c of a region-probability file."""
    nx, ny, nz = dims
    at = VOX_OFFSET + 4 * (voxel[0] + nx * (voxel[1] + ny * (voxel[2] + nz * c)))
    raw = bytearray(path.read_bytes())
    raw[at:at + 4] = np.float32(value).tobytes()
    path.write_bytes(bytes(raw))


def boxed_map(rng, dims, i):
    """Map i of a sparse set: random values on a box of columns that differs
    by channel and grows with i, +0.0 elsewhere."""
    channels = np.zeros((3, *dims), np.float32)
    for c in range(3):
        box = (c, slice(2 + c, 4 + i), slice(1, 3 + i + c))
        channels[box] = rng.random(channels[box].shape)
    return channels


def _zero_slabs(rng, dims):
    maps = [boxed_map(rng, dims, i) for i in range(3)]
    for m in maps:
        m[..., :4] = m[..., 8:] = 0.0  # values in planes 4 to 7 alone
    return maps


def _negative_zeros(rng, dims):
    # Each map's own -0.0 in columns every other map leaves +0.0: a mean of +0.0.
    maps = [boxed_map(rng, dims, i) for i in range(3)]
    for i, m in enumerate(maps):
        m[:, 0, -1 - i, i] = m[:, -1 - i, 0, -1] = -0.0
    return maps


def _after_a_zero_first_map(rng, dims):
    # -0.0 where the first map holds +0.0: +0.0 + -0.0 is a mean of +0.0.
    maps = [np.zeros((3, *dims), np.float32)] + [boxed_map(rng, dims, i) for i in (1, 2)]
    for m in maps[1:]:
        m[:, 0, 0] = m[:, 0, -2, -1] = -0.0
    return maps


def _dense(rng, dims):
    # Every voxel's bit pattern is nonzero; each map holds -0.0 alone on the x = nx - 1 columns.
    maps = [rng.random((3, *dims)).astype(np.float32) for _ in range(3)]
    for m in maps:
        m[:, -1] = -0.0
    return maps


# The three maps of each case. Every case also holds a column of -0.0 that
# every map shares and nothing else marks (mean -0.0), which a box that
# drops a -0.0 column would write as +0.0.
BOXED_CASES = {
    "zero columns": lambda rng, dims: [boxed_map(rng, dims, i) for i in range(3)],
    "zero slabs": _zero_slabs,
    "all-zero map": lambda rng, dims: [boxed_map(rng, dims, 0), np.zeros((3, *dims), np.float32),
                                       boxed_map(rng, dims, 2)],
    "-0.0 in zero regions": _negative_zeros,
    "-0.0 after an all-zero first map": _after_a_zero_first_map,
    "dense": _dense,
}


class TestBoxedFusion:
    """Mean fusion does its float64 work on the box of the columns that some
    map marks, and writes +0.0 and label 0 everywhere else. Its bytes are
    still those of the stacked float64 mean."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("slab", [1, 4])
    @pytest.mark.parametrize("case", sorted(BOXED_CASES))
    def test_bytes_equal_the_stacked_mean(self, rng, tmp_path, monkeypatch, case, slab, threads):
        # nz = 11 is no multiple of 4.
        monkeypatch.setattr(bratskit.fusion, "_SLAB_PLANES", slab)
        on_cores(monkeypatch, threads)
        g = Geometry((9, 8, 11), (1.0, 1.5, 2.0))
        channels = BOXED_CASES[case](rng, g.dims)
        if case != "dense":
            for c in channels:
                c[:, -1, -1, -1] = -0.0
        maps = [RegionProbVolume(g, c) for c in channels]
        expected, labels = stacked_mean(maps)
        assert np.signbit(expected[:, -1, -1, -1]).all() and labels.voxels.any()
        write_volume(RegionProbVolume(g, expected), tmp_path / "expected.nii")
        files = [open_region_prob(p) for p in written_maps(maps, tmp_path)]
        for given in (maps, files):
            fused, fused_labels = average_fusion(given)
            assert fused.channels.tobytes() == expected.tobytes()
            assert fused_labels == labels
            streamed_labels = average_fusion(given, tmp_path / "streamed.nii")[1]
            assert ((tmp_path / "streamed.nii").read_bytes()
                    == (tmp_path / "expected.nii").read_bytes())
            assert streamed_labels == labels


class TestAverageFusionSlabs:
    """Mean fusion runs in slabs of z-planes, each a `cores.Tasks` task. Its
    bytes are those of the stacked float64 mean for any slab and thread count."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("slab", [1, 4])
    @pytest.mark.parametrize("dims", [(9, 7, 1), (9, 7, 2), (6, 5, 11), (3, 4, 16)])
    def test_bytes_equal_the_stacked_mean(self, rng, tmp_path, monkeypatch, dims, slab, threads):
        # nz = 1, fewer planes than threads, nz not a multiple of the slab, and one that is.
        monkeypatch.setattr(bratskit.fusion, "_SLAB_PLANES", slab)
        on_cores(monkeypatch, threads)
        maps = slab_maps(rng, Geometry(dims, (1.0, 1.5, 2.0)))
        expected, labels = stacked_mean(maps)
        for given in (maps, [open_region_prob(p) for p in written_maps(maps, tmp_path)]):
            fused, fused_labels = average_fusion(given)
            assert fused.channels.tobytes() == expected.tobytes()
            assert fused_labels == labels
            assert np.signbit(fused.channels[:, -1, -1, -1]).all()
            assert extract_region(fused_labels, Region.ET).bits[0, 0, -1]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("slab", [1, 4])
    @pytest.mark.parametrize("dims", [(9, 7, 1), (9, 7, 2), (6, 5, 11), (3, 4, 16)])
    def test_streamed_map_is_the_written_result(self, rng, tmp_path, monkeypatch, dims, slab,
                                                threads):
        monkeypatch.setattr(bratskit.fusion, "_SLAB_PLANES", slab)
        on_cores(monkeypatch, threads)
        maps = slab_maps(rng, Geometry(dims, (1.0, 1.5, 2.0)))
        fused, labels = average_fusion(maps)
        write_volume(fused, tmp_path / "written.nii")
        expected = (tmp_path / "written.nii").read_bytes()
        files = [open_region_prob(p) for p in written_maps(maps, tmp_path)]
        longer, target = tmp_path / "longer.nii", tmp_path / "target.nii"
        longer.write_bytes(expected * 2)
        target.write_bytes(b"old")
        (tmp_path / "link.nii").symlink_to(target)
        for name in ("fresh.nii", "longer.nii", "link.nii"):
            for given in (maps, files):
                streamed, streamed_labels = average_fusion(given, tmp_path / name)
                assert (tmp_path / name).read_bytes() == expected, name
                assert streamed == open_region_prob(tmp_path / name)
                assert streamed_labels == labels
        assert (tmp_path / "link.nii").is_symlink() and target.read_bytes() == expected

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_in_memory_maps_in_any_layout(self, rng, monkeypatch, layout, threads):
        monkeypatch.setattr(bratskit.fusion, "_SLAB_PLANES", 2)
        on_cores(monkeypatch, threads)
        maps = slab_maps(rng, Geometry((7, 6, 9)))
        expected, labels = stacked_mean(maps)
        fused, fused_labels = average_fusion([relaid(m, layout) for m in maps])
        assert fused.channels.tobytes() == expected.tobytes()
        assert fused_labels == labels
        assert np.signbit(fused.channels).sum() == 3

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, -0.25, 1.5])
    def test_a_bad_value_in_the_last_plane_is_refused(self, rng, tmp_path, monkeypatch,
                                                      threads, bad):
        monkeypatch.setattr(bratskit.fusion, "_SLAB_PLANES", 1)
        on_cores(monkeypatch, threads)
        g = Geometry((5, 4, 6))
        paths = written_maps(slab_maps(rng, g), tmp_path)
        set_voxel(paths[-1], g.dims, 2, (4, 3, 5), bad)  # the last voxel of the last channel
        with pytest.raises(ValidationError, match=r"^region probabilities must lie in \[0, 1\]$"):
            average_fusion([open_region_prob(p) for p in paths])
        out, prob_out = tmp_path / "fused.nii", tmp_path / "fused_prob.nii"
        assert main(["fuse", "--method", "mean", "--inputs", *map(str, paths),
                     "--out", str(out), "--prob-out", str(prob_out)]) == 2
        assert not out.exists() and not prob_out.exists()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("damage", ["bad value", "cut short"])
    def test_a_refused_fusion_leaves_an_existing_map_refused(self, rng, tmp_path, monkeypatch,
                                                             threads, damage):
        # The existing map is one of these maps, on the same grid: a header
        # left over its planes would make a mix of two fusions read as valid.
        monkeypatch.setattr(bratskit.fusion, "_SLAB_PLANES", 1)
        on_cores(monkeypatch, threads)
        g = Geometry((5, 4, 6))
        paths = written_maps(slab_maps(rng, g), tmp_path)
        out, prob_out = tmp_path / "fused.nii", tmp_path / "fused_prob.nii"
        out.write_bytes(b"kept")
        prob_out.write_bytes(paths[0].read_bytes())
        maps = [open_region_prob(p) for p in paths]
        if damage == "bad value":
            set_voxel(paths[-1], g.dims, 2, (4, 3, 5), 1.5)
        else:
            paths[-1].write_bytes(paths[-1].read_bytes()[:-4])
        with pytest.raises((ValidationError, FormatError)):
            average_fusion(maps, prob_out)
        with pytest.raises(FormatError, match="sizeof_hdr is 0"):
            read_volume(prob_out, "region_prob")
        prob_out.write_bytes(paths[0].read_bytes())
        assert main(["fuse", "--method", "mean", "--inputs", *map(str, paths),
                     "--out", str(out), "--prob-out", str(prob_out)]) == 2
        assert out.read_bytes() == b"kept"
        if damage == "cut short":  # refused with its header, before anything is written
            assert prob_out.read_bytes() == paths[0].read_bytes()
            return
        with pytest.raises(FormatError, match="sizeof_hdr is 0"):
            read_volume(prob_out, "region_prob")

    @pytest.mark.parametrize("threads", [1, 2])
    def test_file_cut_short_after_open(self, rng, tmp_path, monkeypatch, threads):
        monkeypatch.setattr(bratskit.fusion, "_SLAB_PLANES", 1)
        on_cores(monkeypatch, threads)
        paths = written_maps(slab_maps(rng, Geometry((5, 4, 6))), tmp_path)
        maps = [open_region_prob(p) for p in paths]
        paths[1].write_bytes(paths[1].read_bytes()[:-4])
        with pytest.raises(FormatError, match="payload truncated"):
            average_fusion(maps)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("bad_plane, cut_plane, error", [(1, 3, ValidationError),
                                                             (4, 2, FormatError),
                                                             (5, 5, ValidationError)])
    def test_the_first_failing_slab_raises(self, rng, tmp_path, monkeypatch, threads,
                                           bad_plane, cut_plane, error):
        # Map 0 holds a bad value in plane `bad_plane` of channel 0; map 2 is
        # cut short after open inside plane `cut_plane` of channel 2. In one
        # slab the channels are read in order, and map 0 before map 2.
        monkeypatch.setattr(bratskit.fusion, "_SLAB_PLANES", 1)
        on_cores(monkeypatch, threads)
        g = Geometry((5, 4, 6))
        paths = written_maps(slab_maps(rng, g), tmp_path)
        set_voxel(paths[0], g.dims, 0, (2, 2, bad_plane), 2.0)
        maps = [open_region_prob(p) for p in paths]
        paths[2].write_bytes(paths[2].read_bytes()[:VOX_OFFSET + 4 * 20 * (12 + cut_plane) + 8])
        with pytest.raises(error):
            average_fusion(maps)

    def test_more_threads_than_cores_switching_often(self, rng, tmp_path, monkeypatch):
        # Every task writes its own slab of the shared result; a slab
        # written twice or not at all changes the bytes.
        monkeypatch.setattr(bratskit.fusion, "_SLAB_PLANES", 1)
        on_cores(monkeypatch, 8)
        maps = slab_maps(rng, Geometry((6, 5, 33)))
        expected, labels = stacked_mean(maps)
        files = [open_region_prob(p) for p in written_maps(maps, tmp_path)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                for given in (maps, files):
                    fused, fused_labels = average_fusion(given)
                    assert fused.channels.tobytes() == expected.tobytes()
                    assert fused_labels == labels
        finally:
            sys.setswitchinterval(interval)

    def test_runs_one_thread_per_usable_core(self, rng, monkeypatch):
        monkeypatch.setattr(bratskit.fusion, "_SLAB_PLANES", 1)
        core, seen = bratskit.fusion._fuse_slab, []

        def spy(*args):
            seen.append((args[-1], threading.get_ident(), threading.active_count()))
            return core(*args)

        monkeypatch.setattr(bratskit.fusion, "_fuse_slab", spy)
        maps = slab_maps(rng, Geometry((4, 3, 7)))
        before = threading.active_count()
        for cores in (1, 3, 16):
            seen.clear()
            on_cores(monkeypatch, cores)
            average_fusion(maps)
            # Each slab runs once; 16 cores start no more threads than the 7 slabs.
            assert sorted(z0 for z0, _, _ in seen) == list(range(7))
            idents = {ident for _, ident, _ in seen}
            if cores == 1:  # on the caller's thread, and no thread starts
                assert idents == {threading.get_ident()}
                assert {alive for _, _, alive in seen} == {before}
            else:
                assert len(idents) <= cores and threading.get_ident() not in idents

    def test_no_thread_outlives_the_call(self, rng, tmp_path, monkeypatch):
        monkeypatch.setattr(bratskit.fusion, "_SLAB_PLANES", 1)
        on_cores(monkeypatch, 3)
        g = Geometry((5, 4, 6))
        paths = written_maps(slab_maps(rng, g), tmp_path)
        before = threading.active_count()
        average_fusion([open_region_prob(p) for p in paths])
        assert threading.active_count() == before
        args = ["fuse", "--method", "mean", "--inputs", *map(str, paths),
                "--out", str(tmp_path / "fused.nii")]
        assert main(args) == 0
        assert threading.active_count() == before
        set_voxel(paths[1], g.dims, 1, (0, 0, 3), np.nan)
        with pytest.raises(ValidationError):
            average_fusion([open_region_prob(p) for p in paths])
        assert threading.active_count() == before
        assert main(args) == 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_every_descriptor_is_closed(self, rng, tmp_path, monkeypatch, threads):
        monkeypatch.setattr(bratskit.fusion, "_SLAB_PLANES", 1)
        on_cores(monkeypatch, threads)
        g = Geometry((5, 4, 6))
        paths = written_maps(slab_maps(rng, g), tmp_path)
        opened, held = [], set()
        os_open, os_close = os.open, os.close

        def opening(path, *args):
            fd = os_open(path, *args)
            opened.append(os.fspath(path))
            held.add(fd)
            return fd

        def closing(fd):
            held.discard(fd)  # before the close, which frees fd for the next open
            os_close(fd)

        monkeypatch.setattr(os, "open", opening)
        monkeypatch.setattr(os, "close", closing)
        out = tmp_path / "fused.nii"
        args = ["fuse", "--method", "mean", "--inputs", *map(str, paths), "--out", str(out)]
        average_fusion([open_region_prob(p) for p in paths])
        assert opened and held == set()
        assert main(args) == 0
        assert held == set() and str(out) in opened
        # The map is opened once, by its writer, and its slabs share that descriptor.
        prob_out = tmp_path / "fused_prob.nii"
        with_prob = [*args, "--prob-out", str(prob_out)]
        for _ in range(2):  # created, then rewritten in place
            before = len(opened)
            assert main(with_prob) == 0
            assert held == set() and opened[before:].count(str(prob_out)) == 1
        # A write that fails after the zeroed header
        os_pwrite = os.pwrite

        def payload_fails(fd, data, offset):
            if offset:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return os_pwrite(fd, data, offset)

        with monkeypatch.context() as failing:
            failing.setattr(os, "pwrite", payload_fails)
            assert main(args) == 2
        assert held == set() and opened[-1] == str(out)
        with pytest.raises(FormatError, match="sizeof_hdr is 0"):
            read_volume(out, "label")
        assert held == set()
        set_voxel(paths[1], g.dims, 1, (0, 0, 3), np.nan)
        with pytest.raises(ValidationError):
            average_fusion([open_region_prob(p) for p in paths])
        assert held == set()
        before = len(opened)
        assert main(args) == 2
        assert held == set() and str(out) not in opened[before:]
        before = len(opened)
        assert main(with_prob) == 2
        assert held == set() and str(out) not in opened[before:]
        assert opened[before:].count(str(prob_out)) == 1
        maps = [open_region_prob(p) for p in (paths[0], paths[2])]
        paths[2].write_bytes(paths[2].read_bytes()[:-4])
        with pytest.raises(FormatError, match="payload truncated"):
            average_fusion(maps)
        assert held == set()
        assert set(opened) == {*map(str, paths), str(out), str(prob_out)}
        # read_volume reads through the same range read
        label = tmp_path / "label.nii"
        write_volume(LabelVolume(g, np.zeros(g.dims, np.uint8)), label)
        read_volume(label, "label"), read_volume(paths[0], "region_prob")
        assert held == set() and str(label) in opened
        label.write_bytes(label.read_bytes()[:-1] + b"\x05")
        with pytest.raises(ValidationError, match="label value 5"):
            read_volume(label, "label")
        assert held == set()
        os_fstat = os.fstat

        def cut_after_fstat(fd):  # the header check sees the whole file
            stat = os_fstat(fd)
            os.truncate(label, stat.st_size - 1)
            return stat

        monkeypatch.setattr(os, "fstat", cut_after_fstat)
        with pytest.raises(FormatError, match="payload truncated"):
            read_volume(label, "label")
        assert held == set()

    @pytest.mark.parametrize("on_file", [False, True])
    def test_peak_memory_is_the_result_and_the_slabs(self, rng, tmp_path, monkeypatch, on_file):
        # Three 64x64x40 maps: the result takes 13 bytes a voxel (2.1 MB).
        # Each slab in flight on the two threads holds a few planes of buffers
        # (under 0.4 MB with numpy's own); one channel of the grid in float64
        # takes 1.3 MB.
        on_cores(monkeypatch, 2)
        g = Geometry((64, 64, 40))
        maps = [RegionProbVolume(g, rng.random((3, *g.dims), np.float32)) for _ in range(3)]
        if on_file:
            maps = [open_region_prob(p) for p in written_maps(maps, tmp_path)]
        tracemalloc.start()
        try:
            fused, labels = average_fusion(maps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = fused.channels.nbytes + labels.voxels.nbytes
        assert peak < result + 2 * 512 * 1024

    @pytest.mark.parametrize("on_file", [False, True])
    def test_a_streamed_map_peaks_at_the_labels_and_the_slabs(self, rng, tmp_path, monkeypatch,
                                                               on_file):
        # As above, with the mean written slab by slab: no full-size mean is held.
        on_cores(monkeypatch, 2)
        g = Geometry((64, 64, 40))
        maps = [RegionProbVolume(g, rng.random((3, *g.dims), np.float32)) for _ in range(3)]
        if on_file:
            maps = [open_region_prob(p) for p in written_maps(maps, tmp_path)]
        tracemalloc.start()
        try:
            labels = average_fusion(maps, tmp_path / "fused_prob.nii")[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < labels.voxels.nbytes + 2 * 512 * 1024


def block_mask(g, lo, hi):
    bits = np.zeros(g.dims, bool)
    bits[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    return BinaryMask(g, bits)


def staple_and_oracle(masks):
    """staple_binary's result and the per-voxel oracle's, under the same prior."""
    d = np.stack([m.bits.ravel() for m in masks]).astype(float)
    return staple_binary(masks), staple_em_oracle(d, d.mean(axis=0))


class TestStapleBinary:
    def test_needs_two_masks(self):
        g = Geometry((3, 3, 3))
        with pytest.raises(ValidationError):
            staple_binary([block_mask(g, (0, 0, 0), (1, 1, 1))])

    def test_rater_bound(self, rng):
        g = Geometry((4, 4, 3))
        masks = [BinaryMask(g, rng.random(g.dims) < 0.5) for _ in range(MAX_RATERS + 1)]
        with pytest.raises(ValidationError, match=str(MAX_RATERS)):
            staple_binary(masks)
        res = staple_binary(masks[:MAX_RATERS])
        assert res.weights.shape == g.dims
        assert np.isfinite(res.weights).all()

    def test_max_iters_must_be_positive(self):
        g = Geometry((3, 3, 3))
        m = block_mask(g, (0, 0, 0), (1, 1, 1))
        with pytest.raises(ValidationError, match="max_iters"):
            staple_binary([m, m], max_iters=0)

    @pytest.mark.parametrize("max_iters", [2.5, float("nan"), float("inf")])
    def test_max_iters_must_be_an_integer(self, max_iters):
        g = Geometry((3, 3, 3))
        m = block_mask(g, (0, 0, 0), (1, 1, 1))
        with pytest.raises(ValidationError, match="max_iters"):
            staple_binary([m, m], max_iters=max_iters)

    def test_integral_max_iters_accepted(self, rng):
        g = Geometry((6, 5, 4))
        masks = [BinaryMask(g, rng.random(g.dims) < 0.4) for _ in range(3)]
        res = staple_binary(masks, max_iters=3.0)
        assert type(res.iterations_run) is int
        assert res.iterations_run <= 3

    def test_unanimous_raters(self):
        g = Geometry((6, 6, 6))
        m = block_mask(g, (1, 1, 1), (4, 4, 4))
        res = staple_binary([m, m, m])
        assert res.consensus == m
        assert res.converged
        for sens, spec in res.rater_performance:
            assert sens == pytest.approx(1.0, abs=1e-3)
            assert spec == pytest.approx(1.0, abs=1e-3)

    def test_majority_two_vs_one(self):
        g = Geometry((4, 4, 4))
        m = block_mask(g, (1, 1, 1), (3, 3, 3))
        empty = block_mask(g, (0, 0, 0), (0, 0, 0))
        res = staple_binary([m, m, empty])
        assert res.consensus == m

    def test_all_empty_short_circuit(self):
        g = Geometry((4, 4, 4))
        empty = block_mask(g, (0, 0, 0), (0, 0, 0))
        res = staple_binary([empty, empty])
        assert res.consensus == empty
        assert res.converged
        assert res.iterations_run == 0

    def test_matches_independent_em_oracle(self, rng):
        g = Geometry((6, 6, 6))
        for _ in range(8):
            # raters are noisy observations of a common latent mask
            truth = rng.random(g.dims) < 0.4
            masks = [BinaryMask(g, truth ^ (rng.random(g.dims) < 0.1))
                     for _ in range(3)]
            if not any(m.any() for m in masks):
                continue
            res = staple_binary(masks)
            d = np.stack([m.bits.ravel() for m in masks]).astype(float)
            prior = d.mean(axis=0)
            w, p, q, _ = staple_em_oracle(d, prior)
            assert res.converged
            assert res.iterations_run <= 100
            assert np.allclose(res.weights.ravel(), w, atol=1e-6)

    def test_oracle_agreement_without_shared_truth(self, rng):
        # fully independent raters may not converge, but the EM trajectory
        # must still track the oracle step for step
        g = Geometry((6, 6, 6))
        masks = [BinaryMask(g, rng.random(g.dims) < 0.4) for _ in range(3)]
        res = staple_binary(masks)
        d = np.stack([m.bits.ravel() for m in masks]).astype(float)
        w, _, _, _ = staple_em_oracle(d, d.mean(axis=0))
        assert np.allclose(res.weights.ravel(), w, atol=1e-6)

    @pytest.mark.parametrize("n_raters", [2, 3, 4, 5, 6])
    def test_pattern_histogram_matches_per_voxel_oracle(self, rng, n_raters):
        g = Geometry((9, 8, 7))
        for _ in range(4):
            truth = rng.random(g.dims) < rng.uniform(0.1, 0.6)
            masks = [BinaryMask(g, truth ^ (rng.random(g.dims) < rng.uniform(0.0, 0.2)))
                     for _ in range(n_raters)]
            res, (w, p, q, iterations) = staple_and_oracle(masks)
            assert res.iterations_run == iterations
            assert np.allclose(res.weights.ravel(), w, rtol=0, atol=1e-6)
            assert np.allclose(np.array(res.rater_performance), np.stack([p, q], axis=1),
                               rtol=0, atol=1e-6)

    @pytest.mark.parametrize("decisions", [(1, 1), (1, 1, 1), (1, 0), (0, 1, 1)])
    def test_single_pattern_matches_oracle(self, decisions):
        # every voxel carries the same decision pattern
        g = Geometry((4, 3, 2))
        masks = [BinaryMask(g, np.full(g.dims, bool(v))) for v in decisions]
        res, (w, _, _, iterations) = staple_and_oracle(masks)
        assert res.iterations_run == iterations
        assert np.allclose(res.weights.ravel(), w, rtol=0, atol=1e-6)
        assert np.ptp(res.weights) == 0.0

    def test_rater_order_invariance(self, rng):
        g = Geometry((5, 5, 5))
        masks = [BinaryMask(g, rng.random(g.dims) < 0.4) for _ in range(3)]
        res = staple_binary(masks)
        res_rev = staple_binary(masks[::-1])
        assert res.consensus == res_rev.consensus
        assert np.allclose(
            np.array(res.rater_performance)[::-1], np.array(res_rev.rater_performance),
            atol=1e-9)

    def test_posterior_in_unit_interval(self, rng):
        g = Geometry((5, 5, 5))
        masks = [BinaryMask(g, rng.random(g.dims) < 0.3) for _ in range(4)]
        res = staple_binary(masks)
        assert np.isfinite(res.weights).all()
        assert res.weights.min() >= 0.0 and res.weights.max() <= 1.0

    def test_raters_box_is_the_whole_grid(self, rng):
        # Opposite corners are marked, so no voxel lies outside the raters' box.
        g = Geometry((9, 8, 7))
        truth = rng.random(g.dims) < 0.3
        bits = [truth ^ (rng.random(g.dims) < 0.1) for _ in range(3)]
        bits[0][0, 0, 0] = bits[0][-1, -1, -1] = True
        masks = [BinaryMask(g, b) for b in bits]
        assert tumour_box(masks) == tuple(slice(0, n) for n in g.dims)
        res, (w, p, q, iterations) = staple_and_oracle(masks)
        assert res.iterations_run == iterations
        assert np.allclose(res.weights.ravel(), w, rtol=0, atol=1e-6)
        assert np.allclose(np.array(res.rater_performance), np.stack([p, q], axis=1),
                           rtol=0, atol=1e-6)

    @pytest.mark.parametrize("corners", [False, True])
    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("seed", range(3))
    def test_l_shaped_clusters_match_the_oracle(self, monkeypatch, seed, layout, mirrored,
                                                corners):
        # The WT of TestStapleFusionPaste's L raters, with 16 empty x-planes on
        # each side so that voxels marked at opposite grid corners form
        # clusters of their own. The L and the lesion in its bend merge into
        # one cluster, whose box is their hull.
        rng = np.random.default_rng(seed)
        bits = [LAYOUTS[layout](np.pad(v[::-1] if mirrored else v, ((16, 16), (0, 0), (0, 0)))
                                != 0) for v in TestStapleFusionPaste.l_raters(rng)]
        l_box = tumour_box([BinaryMask(Geometry(b.shape), b.copy()) for b in bits])
        if corners:
            bits[0][0, 0, 0] = bits[-1][-1, -1, -1] = True
        masks = [BinaryMask(Geometry(b.shape), b) for b in bits]
        clusters = lesion_clusters(masks, 0)
        assert len(clusters) == 1 + 2 * corners
        assert corners or clusters == [l_box]
        fits = []
        core = bratskit.fusion._staple_em
        monkeypatch.setattr(bratskit.fusion, "_staple_em",
                            lambda *args: fits.append(core(*args)) or fits[-1])
        res, (w, p, q, iterations) = staple_and_oracle(masks)
        assert res.iterations_run == iterations
        assert np.allclose(res.weights.ravel(), w, rtol=0, atol=1e-6)
        assert np.allclose(np.array(res.rater_performance), np.stack([p, q], axis=1),
                           rtol=0, atol=1e-6)
        outside = np.ones(masks[0].geometry.dims, bool)
        for box in clusters:
            outside[box] = False
        assert outside.any() and (res.weights[outside] == fits[0].posterior[0]).all()

    @pytest.mark.parametrize("n_raters", [3, 5, 8])
    def test_all_raters_mark_every_voxel(self, n_raters):
        # The posterior is exactly 1 everywhere, so no voxel weighs on the
        # specificity update; it must keep its value instead of becoming 0/0.
        g = Geometry((4, 4, 4))
        full = BinaryMask(g, np.ones(g.dims, bool))
        res = staple_binary([full] * n_raters)
        assert res.converged
        assert res.consensus == full
        assert np.allclose(res.weights, 1.0)
        assert all(np.isfinite(pq).all() for pq in res.rater_performance)


class TestStapleFusion:
    @pytest.mark.parametrize("n", [0, 1, MAX_RATERS + 1])
    def test_refuses_rater_count_outside_2_to_16(self, n):
        labels = [labels_from_array(np.zeros((3, 3, 3), np.uint8))] * n
        with pytest.raises(ValidationError, match=f"STAPLE needs 2 to {MAX_RATERS} raters, got {n}"):
            staple_fusion(labels)

    @pytest.mark.parametrize("shape, spacing", [((6, 6, 7), (1.0, 1.0, 1.0)),
                                                ((6, 6, 6), (1.0, 1.0, 3.0))],
                             ids=["dims", "spacing"])
    def test_refuses_mismatched_geometry(self, rng, shape, spacing):
        # The geometry check lives in staple_binary; each extracted region
        # keeps its volume's geometry, so the mismatch still surfaces here.
        vox = rng.integers(0, 4, (6, 6, 6)).astype(np.uint8)
        other = labels_from_array(rng.integers(0, 4, shape).astype(np.uint8), spacing)
        with pytest.raises(IncompatibleGeometryError):
            staple_fusion([labels_from_array(vox), labels_from_array(vox), other])

    @pytest.mark.parametrize("max_iters", [0, 2.5])
    def test_max_iters_checked_when_every_region_is_empty(self, max_iters):
        labels = [labels_from_array(np.zeros((3, 3, 3), np.uint8))] * 2
        with pytest.raises(ValidationError, match="max_iters"):
            staple_fusion(labels, max_iters=max_iters)

    def test_identical_inputs(self, rng):
        vox = rng.integers(0, 4, (6, 6, 6)).astype(np.uint8)
        labels = labels_from_array(vox)
        assert staple_fusion([labels, labels, labels]) == labels

    def test_majority(self, rng):
        vox = rng.integers(0, 4, (6, 6, 6)).astype(np.uint8)
        a = labels_from_array(vox)
        other = labels_from_array(np.zeros((6, 6, 6), np.uint8))
        fused = staple_fusion([a, a, other])
        assert fused == a

    def test_output_nested(self, rng):
        inputs = [labels_from_array(rng.integers(0, 4, (6, 6, 6)).astype(np.uint8))
                  for _ in range(3)]
        fused = staple_fusion(inputs)
        wt = extract_region(fused, Region.WT).bits
        tc = extract_region(fused, Region.TC).bits
        et = extract_region(fused, Region.ET).bits
        assert not (et & ~tc).any()
        assert not (tc & ~wt).any()


def region_consensus(labels, max_iters=100):
    """reconstruct_labels of each region's staple_binary consensus on the full grid."""
    results = [staple_binary([extract_region(lv, r) for lv in labels], max_iters) for r in REGIONS]
    return reconstruct_labels(*(res.consensus for res in results)), results


def noisy_raters(rng, dims, n_raters, box):
    """Label volumes that mark only `box`: a shared truth with per-rater flips."""
    truth = rng.integers(0, 4, dims).astype(np.uint8)
    raters = []
    for _ in range(n_raters):
        vox = np.where(rng.random(dims) < 0.15, rng.integers(0, 4, dims), truth).astype(np.uint8)
        out = np.zeros(vox.shape, np.uint8)
        out[box] = vox[box]
        raters.append(out)
    return raters


class TestStapleFusionPaste:
    """staple_fusion runs on the labels' box and fills the rest of the grid;
    it must give the labels of the full-grid per-region STAPLE."""

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_full_grid_region_consensus(self, seed, layout):
        rng = np.random.default_rng(seed)
        dims = tuple(int(n) for n in rng.integers(5, 11, 3))
        lo = [int(rng.integers(0, n - 2)) for n in dims]
        box = tuple(slice(a, int(rng.integers(a + 1, n + 1))) for a, n in zip(lo, dims))
        raters = noisy_raters(rng, dims, int(rng.integers(2, 6)), box)
        labels = [labels_from_array(LAYOUTS[layout](v)) for v in raters]
        expected, _ = region_consensus(labels)
        assert staple_fusion(labels) == expected

    def test_all_empty_raters(self):
        labels = [labels_from_array(np.zeros((4, 5, 6), np.uint8))] * 3
        fits = []
        fused = staple_fusion(labels, on_region=lambda region, fit: fits.append(fit))
        assert fused == labels[0]
        assert [(f.iterations_run, f.converged) for f in fits] == [(0, True)] * 3

    def test_box_is_the_whole_grid(self, rng):
        dims = (7, 6, 5)
        raters = noisy_raters(rng, dims, 3, tuple(slice(0, n) for n in dims))
        raters[0][0, 0, 0] = raters[0][-1, -1, -1] = 2
        labels = [labels_from_array(v) for v in raters]
        assert tumour_box(labels) == tuple(slice(0, n) for n in dims)
        assert staple_fusion(labels) == region_consensus(labels)[0]

    def test_on_region_reports_the_full_grid_fit(self, rng):
        raters = noisy_raters(rng, (8, 7, 6), 3, (slice(1, 6), slice(2, 5), slice(0, 4)))
        labels = [labels_from_array(v) for v in raters]
        fits = {}
        staple_fusion(labels, max_iters=3, on_region=fits.__setitem__)
        _, results = region_consensus(labels, max_iters=3)
        assert list(fits) == list(REGIONS)
        for fit, res in zip(fits.values(), results):
            assert isinstance(fit, StapleFit)
            assert fit.rater_performance == res.rater_performance
            assert (fit.iterations_run, fit.converged) == (res.iterations_run, res.converged)

    @staticmethod
    def l_raters(rng, n_raters=3):
        """Noisy raters of an L of 8-voxel blocks, with a lesion in its bend:
        the L's box holds the lesion's block, so the two are one cluster."""
        dims = (32, 32, 9)
        raters = []
        for _ in range(n_raters):
            vox = np.zeros(dims, np.uint8)
            vox[0:8, 0:24, 1:8] = rng.integers(0, 4, (8, 24, 7))
            vox[0:24, 16:24, 1:8] = rng.integers(0, 4, (24, 8, 7))
            vox[17:23, 1:6, 2:7] = rng.integers(1, 4, (6, 5, 5))
            raters.append(vox)
        return raters

    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("seed", range(3))
    def test_l_shaped_clusters(self, seed, layout, mirrored):
        # Mirrored in x or not, the L and the lesion in its bend merge into
        # one cluster, whose box is their hull.
        rng = np.random.default_rng(seed)
        labels = [labels_from_array(LAYOUTS[layout](v[::-1] if mirrored else v))
                  for v in self.l_raters(rng)]
        assert lesion_clusters(labels, 0) == [tumour_box(labels)]
        fits = {}
        fused = staple_fusion(labels, max_iters=4, on_region=fits.__setitem__)
        expected, results = region_consensus(labels, max_iters=4)
        assert fused == expected
        for fit, res in zip(fits.values(), results):
            assert fit.rater_performance == res.rater_performance
            assert (fit.iterations_run, fit.converged) == (res.iterations_run, res.converged)

    @pytest.mark.parametrize("seed", range(3))
    def test_raters_that_mark_every_voxel(self, seed):
        # WT has no voxel of pattern 0, and a voxel of TC's or ET's pattern 0
        # is rebuilt as ED or NCR, not as background.
        rng = np.random.default_rng(seed)
        dims = (9, 8, 7)
        truth = rng.integers(1, 4, dims)
        labels = [labels_from_array(np.where(rng.random(dims) < 0.2, rng.integers(1, 4, dims),
                                             truth)) for _ in range(3)]
        fits = {}
        fused = staple_fusion(labels, on_region=fits.__setitem__)
        assert fused == region_consensus(labels)[0]
        assert (fused.voxels != 0).all() and (fused.voxels != 3).any()
        assert fits[Region.WT].posterior[0] == 0.0  # pattern 0 never occurs

    @pytest.mark.parametrize("max_iters", [-1, 0, 1.5, float("inf"), True])
    def test_bad_max_iters_refused_with_no_cluster(self, max_iters):
        labels = [labels_from_array(np.zeros((5, 4, 3), np.uint8))] * 3
        assert lesion_clusters(labels, 0) == []
        with pytest.raises(ValidationError, match="max_iters"):
            staple_fusion(labels, max_iters=max_iters)

    @pytest.mark.parametrize("marks_outside, fill", [
        ((True, False, False), 2), ((True, True, False), 1),
        ((True, True, True), 3), ((False, False, True), 3), ((False, True, False), 1)])
    def test_outside_takes_the_reconstructed_fill(self, rng, monkeypatch, marks_outside, fill):
        # EM keeps pattern 0's posterior far below 0.5 on real raters, but no
        # bound holds it there: a core whose pattern-0 posterior is raised to
        # 0.9 for the chosen regions must fill every voxel outside the box.
        core = bratskit.fusion._staple_em
        calls = iter(marks_outside * 2)

        def raised(*args):
            fit = core(*args)
            posterior = fit.posterior.copy()
            if next(calls):
                posterior[0] = 0.9
            return fit._replace(posterior=posterior)

        monkeypatch.setattr(bratskit.fusion, "_staple_em", raised)
        box = (slice(2, 5), slice(1, 4), slice(3, 6))
        labels = [labels_from_array(v) for v in noisy_raters(rng, (8, 7, 9), 3, box)]
        fused = staple_fusion(labels)
        outside = np.ones(fused.geometry.dims, bool)
        outside[tumour_box(labels)] = False
        assert outside.any() and (fused.voxels[outside] == fill).all()
        assert fused == region_consensus(labels)[0]
