"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here deliberately avoids the package's own fast paths: surfaces are
found by explicit neighbour checks, distances by all-pairs scans or scipy's
exact EDT, components by BFS flood fill, STAPLE by a straight linear-domain EM,
rankings by sorting each key independently.
"""

import numpy as np
from scipy import ndimage

NEIGHBOURS_6 = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
NEIGHBOURS_26 = [
    (dx, dy, dz)
    for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


def brute_dice(a, b):
    na, nb = int(a.sum()), int(b.sum())
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    return 2.0 * int((a & b).sum()) / (na + nb)


def brute_surface(bits):
    out = np.zeros_like(bits)
    for x, y, z in zip(*np.nonzero(bits)):
        for dx, dy, dz in NEIGHBOURS_6:
            nx, ny, nz = x + dx, y + dy, z + dz
            inside = (0 <= nx < bits.shape[0] and 0 <= ny < bits.shape[1]
                      and 0 <= nz < bits.shape[2])
            if not inside or not bits[nx, ny, nz]:
                out[x, y, z] = True
                break
    return out


def _coords_mm(bits, spacing):
    return np.argwhere(bits).astype(np.float64) * np.asarray(spacing)


def brute_hd95(a, b, spacing=(1.0, 1.0, 1.0)):
    if not a.any() and not b.any():
        return 0.0
    if not a.any() or not b.any():
        return 374.0
    sa = _coords_mm(brute_surface(a), spacing)
    sb = _coords_mm(brute_surface(b), spacing)
    d = np.sqrt(((sa[:, None, :] - sb[None, :, :]) ** 2).sum(axis=2))
    d_ab = np.percentile(d.min(axis=1), 95, method="linear")
    d_ba = np.percentile(d.min(axis=0), 95, method="linear")
    return float(max(d_ab, d_ba))


def edt_hd95(a, b, spacing=(1.0, 1.0, 1.0)):
    """HD95 from exact Euclidean distance transforms, over the joint bounding
    box: each surface's EDT read at the other surface, then the linear 95th
    percentile. HD95 by nearest surface points must equal it bit for bit."""
    if not a.any() and not b.any():
        return 0.0
    if not a.any() or not b.any():
        return 374.0
    box = ndimage.find_objects((a | b).view(np.uint8))[0]
    sa, sb = brute_surface(a[box]), brute_surface(b[box])
    d_ab = ndimage.distance_transform_edt(~sb, sampling=spacing)[sa]
    d_ba = ndimage.distance_transform_edt(~sa, sampling=spacing)[sb]
    return float(max(np.percentile(d_ab, 95, method="linear"),
                     np.percentile(d_ba, 95, method="linear")))


def flood_fill_components(bits, neighbours):
    """BFS flood fill; returns (ids array, count) with ids in first-encounter
    x-fastest order."""
    ids = np.zeros(bits.shape, dtype=np.int32)
    count = 0
    nx_, ny_, nz_ = bits.shape
    # x-fastest scan order
    order = [(x, y, z) for z in range(nz_) for y in range(ny_) for x in range(nx_)]
    for x, y, z in order:
        if bits[x, y, z] and ids[x, y, z] == 0:
            count += 1
            stack = [(x, y, z)]
            ids[x, y, z] = count
            while stack:
                cx, cy, cz = stack.pop()
                for dx, dy, dz in neighbours:
                    px, py, pz = cx + dx, cy + dy, cz + dz
                    if (0 <= px < nx_ and 0 <= py < ny_ and 0 <= pz < nz_
                            and bits[px, py, pz] and ids[px, py, pz] == 0):
                        ids[px, py, pz] = count
                        stack.append((px, py, pz))
    return ids, count


def brute_lesion_match(gt, pred, neighbours, k, min_gt_lesion_size=0,
                       spacing=(1.0, 1.0, 1.0)):
    """Lesion matching from its definition, over explicit voxel distances.

    A pred voxel lies in the k-dilation of gt lesion g when its Chebyshev
    (26 neighbours) or L1 (6 neighbours) distance to a voxel of g is at most k.
    Each pred lesion goes to the kept gt lesion whose dilation holds most of
    its voxels; a tie goes to the lower gt id. Returns (matched, false_positives,
    false_negatives), matched as [(gt id, frozenset of pred ids, (dsc, hd95))].
    """
    gids, n_gt = flood_fill_components(gt, neighbours)
    pids, n_pred = flood_fill_components(pred, neighbours)
    norm = 1 if len(neighbours) == 6 else np.inf
    pred_coords = np.argwhere(pids > 0)
    owner = {}  # pred id -> (overlap, gt id)
    kept = [g for g in range(1, n_gt + 1) if (gids == g).sum() >= min_gt_lesion_size]
    for g in kept:
        offsets = pred_coords[:, None, :] - np.argwhere(gids == g)[None, :, :]
        near = np.linalg.norm(offsets, ord=norm, axis=2).min(axis=1) <= k
        for p in range(1, n_pred + 1):
            n = int((pids[tuple(pred_coords[near].T)] == p).sum())
            if n > owner.get(p, (0, 0))[0]:
                owner[p] = (n, g)
    matched, false_negatives = [], []
    for g in kept:
        mine = [p for p in range(1, n_pred + 1) if p in owner and owner[p][1] == g]
        if not mine:
            false_negatives.append(g)
            continue
        a, b = gids == g, np.isin(pids, mine)
        matched.append((g, frozenset(mine), (brute_dice(a, b), brute_hd95(a, b, spacing))))
    false_positives = [p for p in range(1, n_pred + 1) if p not in owner]
    return matched, false_positives, false_negatives


def staple_em_oracle(decisions, prior, p0=0.99, q0=0.99, max_iters=100, tol=1e-6):
    """Linear-domain EM over a (raters, voxels) 0/1 decision matrix.

    Mirrors the published update equations directly; returns (posterior,
    sensitivities, specificities, iterations).
    """
    d = np.asarray(decisions, dtype=np.float64)
    n_raters, n_vox = d.shape
    prior = np.clip(np.asarray(prior, dtype=np.float64), 1e-7, 1 - 1e-7)
    p = np.full(n_raters, p0)
    q = np.full(n_raters, q0)
    w = None
    for it in range(1, max_iters + 1):
        a = prior.copy()
        b = 1.0 - prior
        for j in range(n_raters):
            a = a * np.where(d[j] == 1, p[j], 1 - p[j])
            b = b * np.where(d[j] == 1, 1 - q[j], q[j])
        w = a / (a + b)
        new_p = np.array([(w * d[j]).sum() / w.sum() for j in range(n_raters)])
        new_q = np.array([((1 - w) * (1 - d[j])).sum() / (1 - w).sum()
                          for j in range(n_raters)])
        new_p = np.clip(new_p, 1e-7, 1 - 1e-7)
        new_q = np.clip(new_q, 1e-7, 1 - 1e-7)
        delta = max(np.abs(new_p - p).max(), np.abs(new_q - q).max())
        p, q = new_p, new_q
        if delta < tol:
            break
    return w, p, q, it


def brute_labels(wt, tc, et):
    """Labels rebuilt from three region masks by ordered scatters: background,
    then WT -> 2 (ED), TC -> 1 (NCR), ET -> 3 (ET), later regions winning."""
    out = np.zeros(np.shape(wt), np.uint8)
    out[np.asarray(wt, bool)] = 2
    out[np.asarray(tc, bool)] = 1
    out[np.asarray(et, bool)] = 3
    return out


def brute_rank(table):
    """Per-key sort oracle for rank-then-aggregate; returns solution -> score."""
    solutions = table.solutions
    p = len(solutions)
    totals = {s: 0.0 for s in solutions}
    n_keys = 0
    for case, region, metric in table.keys():
        values = {s: table.entries[(s, case, region, metric)] for s in solutions}
        reverse = metric == "DSC"
        ordered = sorted(values.values(), reverse=reverse)
        n_keys += 1
        for s in solutions:
            v = values[s]
            positions = [i + 1 for i, ov in enumerate(ordered) if ov == v]
            rank = sum(positions) / len(positions)
            totals[s] += 0.0 if p == 1 else (rank - 1) / (p - 1)
    return {s: totals[s] / n_keys for s in solutions}


def brute_thresholds(labels, thresholds, whole_region, neighbours):
    """Post-processing from its definition, on a plain label array.

    Regions WT {1,2,3}, TC {1,3}, ET {3} are visited in that order on the
    labels as the earlier regions left them. With thresholds (wt, tc, et), a
    region's component (or the whole region) of fewer voxels than its threshold
    is relabelled: WT voxels to 0, TC voxels to 2 (ED), ET voxels to 1 (NCR).
    A threshold of 0 leaves its region alone."""
    out = np.array(labels, dtype=np.uint8)
    for members, thr, becomes in zip(([1, 2, 3], [1, 3], [3]), thresholds, (0, 2, 1)):
        if thr <= 0:
            continue
        bits = np.isin(out, members)
        if whole_region:
            if bits.sum() < thr:
                out[bits] = becomes
            continue
        ids, count = flood_fill_components(bits, neighbours)
        for c in range(1, count + 1):
            lesion = ids == c
            if lesion.sum() < thr:
                out[lesion] = becomes
    return out


def brute_corrupt(image, labels, probs, seed):
    """The noisy generator input of a crop as one serial formulation: the
    float32 output and the replaced mask.

    The image is min-max normalised to [-1, 1], a normal draw is added and the
    sum normalised again; then a uniform draw below `probs`, or a nonzero
    label, replaces a voxel by a second normal draw. The three draws come from
    one seeded stream, each into a fresh array, in that order."""
    rng = np.random.default_rng(seed)

    def unit(values):
        lo, hi = values.min(), values.max()
        return 2.0 * (values - lo) / (hi - lo) - 1.0

    base = unit(np.asarray(image, dtype=np.float64))
    base = unit(base + rng.standard_normal(base.shape))
    uniforms = rng.random(base.shape)
    noise = rng.standard_normal(base.shape)
    replaced = (uniforms < probs) | (np.asarray(labels) != 0)
    return np.where(replaced, noise, base).astype(np.float32), replaced
