import numpy as np
import pytest
from scipy import ndimage

from bratskit.morphology import (
    Connectivity,
    connected_components,
    dilate,
    surface_voxels,
)
from bratskit.errors import ValidationError
from bratskit.volume import BinaryMask, Geometry

from conftest import mask_from_coords
from oracles import NEIGHBOURS_6, NEIGHBOURS_26, flood_fill_components


class TestConnectivity:
    @pytest.mark.parametrize("conn", list(Connectivity))
    def test_structure_built_once_and_read_only(self, conn):
        structure = conn.structure
        assert conn.structure is structure
        assert not structure.flags.writeable
        with pytest.raises(ValueError):
            structure[1, 1, 1] = False

    def test_structure_neighbourhoods(self):
        assert Connectivity.Face6.structure.sum() == 7
        assert Connectivity.Full26.structure.sum() == 27


def random_mask(rng, dims, density=0.3, spacing=(1.0, 1.0, 1.0)):
    return BinaryMask(Geometry(dims, spacing), rng.random(dims) < density)


class TestConnectedComponents:
    def test_empty_mask(self):
        cm = connected_components(mask_from_coords((4, 4, 4), []))
        assert cm.count == 0
        assert cm.sizes[1:].size == 0

    def test_diagonal_pair_connectivity(self):
        mask = mask_from_coords((3, 3, 3), [(0, 0, 0), (1, 1, 1)])
        assert connected_components(mask, Connectivity.Full26).count == 1
        assert connected_components(mask, Connectivity.Face6).count == 2

    @pytest.mark.parametrize("conn,neigh", [
        (Connectivity.Face6, NEIGHBOURS_6),
        (Connectivity.Full26, NEIGHBOURS_26),
    ])
    def test_matches_flood_fill_oracle(self, rng, conn, neigh):
        for _ in range(5):
            mask = random_mask(rng, (10, 10, 10), 0.25)
            cm = connected_components(mask, conn)
            oracle_ids, oracle_count = flood_fill_components(mask.bits, neigh)
            assert cm.count == oracle_count
            # same partition AND same first-encounter id order
            assert np.array_equal(cm.ids, oracle_ids)

    def test_partition_and_size_invariants(self, rng):
        mask = random_mask(rng, (8, 8, 8), 0.4)
        cm = connected_components(mask)
        assert cm.sizes[1:].sum() == mask.count()
        # sizes[i] counts the voxels of id i; id 0 is the background
        assert cm.sizes.tolist() == [int((cm.ids == i).sum()) for i in range(cm.count + 1)]
        assert set(np.unique(cm.ids)) - {0} == set(range(1, cm.count + 1))
        again = connected_components(mask)
        assert np.array_equal(cm.ids, again.ids)


class TestSurface:
    def test_single_voxel(self):
        mask = mask_from_coords((3, 3, 3), [(1, 1, 1)])
        assert surface_voxels(mask) == mask

    def test_solid_cube_count(self):
        bits = np.zeros((7, 7, 7), bool)
        bits[1:6, 1:6, 1:6] = True
        surf = surface_voxels(BinaryMask(Geometry((7, 7, 7)), bits))
        assert surf.count() == 5**3 - 3**3

    def test_grid_boundary_counts_as_outside(self):
        # a full 3x3x3 grid: every voxel except the centre touches the grid
        # boundary, and the centre's 6 neighbours are all true, so 26 voxels
        # are surface
        full = BinaryMask(Geometry((3, 3, 3)), np.ones((3, 3, 3), bool))
        surf = surface_voxels(full)
        assert not surf.bits[1, 1, 1]
        assert surf.count() == 26
        # a 1-thick slab at the grid edge is all surface
        slab = np.zeros((3, 3, 3), bool)
        slab[0] = True
        surf = surface_voxels(BinaryMask(Geometry((3, 3, 3)), slab))
        assert surf.count() == 9

    def test_subset_of_mask(self, rng):
        mask = random_mask(rng, (9, 9, 9), 0.5)
        surf = surface_voxels(mask)
        assert not (surf.bits & ~mask.bits).any()


class TestDilate:
    def test_empty_stays_empty(self):
        mask = mask_from_coords((4, 4, 4), [])
        assert dilate(mask, 3) == mask

    def test_single_voxel_full26(self):
        mask = mask_from_coords((5, 5, 5), [(2, 2, 2)])
        assert dilate(mask, 1, Connectivity.Full26).count() == 27
        assert dilate(mask, 1, Connectivity.Face6).count() == 7

    def test_clipped_at_grid_edge(self):
        mask = mask_from_coords((3, 3, 3), [(0, 0, 0)])
        assert dilate(mask, 1, Connectivity.Full26).count() == 8

    def test_composition(self, rng):
        mask = random_mask(rng, (8, 8, 8), 0.05)
        assert dilate(dilate(mask, 1), 2) == dilate(mask, 3)

    def test_monotone(self, rng):
        mask = random_mask(rng, (8, 8, 8), 0.1)
        grown = dilate(mask, 2)
        assert not (mask.bits & ~grown.bits).any()

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValidationError):
            dilate(mask_from_coords((3, 3, 3), [(1, 1, 1)]), -1)

    @pytest.mark.parametrize("bad", [2.5, True, np.nan, "2"])
    def test_non_integral_iterations_rejected(self, bad):
        with pytest.raises(ValidationError, match="iterations"):
            dilate(mask_from_coords((3, 3, 3), [(1, 1, 1)]), bad)

    @pytest.mark.parametrize("conn", list(Connectivity))
    def test_any_count_equals_scipy(self, rng, conn):
        # A non-empty mask fills its grid within sum(dims) - 3 steps, so a
        # count past that, however large, gives the full grid as scipy would.
        # scipy cannot take 10**20; 64 steps exceed every sum(dims) here.
        for _ in range(10):
            dims = tuple(int(n) for n in rng.integers(1, 6, 3))
            mask = random_mask(rng, dims, rng.uniform(0.0, 0.1))
            for n in [*range(sum(dims) + 2), 10**20]:
                expected = (ndimage.binary_dilation(mask.bits, conn.structure, min(n, 64))
                            if n and mask.any() else mask.bits)
                assert np.array_equal(dilate(mask, n, conn).bits, expected)
