import numpy as np
import pytest

import bratskit.cores
from bratskit.volume import BinaryMask, Geometry, LabelVolume


def mask_from_coords(dims, coords, spacing=(1.0, 1.0, 1.0)):
    bits = np.zeros(dims, dtype=bool)
    for c in coords:
        bits[c] = True
    return BinaryMask(Geometry(dims, spacing), bits)


def labels_from_array(array, spacing=(1.0, 1.0, 1.0)):
    array = np.asarray(array, dtype=np.uint8)
    return LabelVolume(Geometry(array.shape, spacing), array)


def on_cores(monkeypatch, n):
    """The package sees `n` usable cores, so a `cores.Tasks` call runs up to `n` threads."""
    monkeypatch.setattr(bratskit.cores, "usable_cores", lambda: n)


# Memory layouts a caller may hand a volume type: C order, F order, the first
# axis slowest and the rest in F order (for region_prob, the file order) and a
# strided view that is contiguous in neither order.
LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "first-axis-slowest": lambda a: np.moveaxis(np.asfortranarray(np.moveaxis(a, 0, -1)), -1, 0),
    "strided": lambda a: np.stack([a, a], axis=-1)[..., 0],
}


def relaid(volume, layout):
    """The volume with a copy of its payload in the given layout of LAYOUTS."""
    return type(volume)(volume.geometry, LAYOUTS[layout](np.array(volume.payload)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
