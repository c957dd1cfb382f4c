"""Articulatory-space measurement: tongue contours as (n, 2) point arrays,
isolation-forest pruning, convex hulls, and per-speaker/mode hull areas.

Every stage is exact: a seed fixes every tree, score, pruned set and hull
bit for bit.

- Ridge tracking smooths each column with a fixed 13-tap Gaussian, summing
  the taps in kernel order, and takes the first row of each column's
  maximum.
- Isolation trees are grown from per-dimension sorted point orders; a
  child that will be a leaf is written at once and never stacked. Trees
  are stored in heap order (node ``i`` has children ``2i + 1`` and
  ``2i + 2``), and a leaf above the bottom level passes every point down
  its left spine, so scoring walks every point through a tree in the same
  fixed number of steps.
- Scoring walks each distinct row once; the distinct rows come from one
  lexicographic sort and a compare of adjacent rows.
- The hull is Andrew's monotone chain on integer-scaled coordinates, fed
  only the lowest and highest point of each x from one stable
  lexicographic sort, which also gives each vertex its first input row.
"""

from __future__ import annotations

import bisect
import csv
import logging
import math
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, UsageError, _array, _count, _real
from . import svgfig

logger = logging.getLogger(__name__)

_EULER_GAMMA = 0.5772156649015329
_N_TREES = 100  # isolation trees per forest (Liu, Ting & Zhou 2008)
_PSI = 256  # subsample size per tree; clouds of fewer points use them all
_ORIENT_SCALE = 1 << 16
_ORIENT_LIMIT = float(1 << 47)  # |x| * _ORIENT_SCALE stays below 2^63
_RIDGE_SIGMA = 2.0  # Gaussian sigma, in rows, of the smoothing ridge_track applies
_RIDGE_THRESHOLD = 0.5  # smoothed intensity a column's peak needs to join the contour
_RIDGE_RADIUS = max(1, int(math.ceil(3 * _RIDGE_SIGMA)))
_RIDGE_KERNEL = np.exp(-0.5 * (np.arange(-_RIDGE_RADIUS, _RIDGE_RADIUS + 1) / _RIDGE_SIGMA) ** 2)
_RIDGE_KERNEL /= _RIDGE_KERNEL.sum()


# ---------------------------------------------------------------------------
# Contours


@dataclass
class ContourCloud:
    speaker_id: str
    mode: str
    points: np.ndarray  # (n, 2) pooled over all contours of speaker x mode

    def __post_init__(self) -> None:
        self.points = _array(self.points, f"{self.speaker_id}/{self.mode} points", np.float64)
        if self.points.size == 0:
            raise DataError(f"{self.speaker_id}/{self.mode}: empty contour cloud")
        if not np.isfinite(self.points).all():
            raise DataError(
                f"{self.speaker_id}/{self.mode}: contour cloud has NaN or inf points")


@dataclass
class HullResult:
    speaker_id: str
    mode: str
    vertices: np.ndarray  # counter-clockwise hull vertices
    area: float
    n_points: int
    n_pruned: int


# ---------------------------------------------------------------------------
# Ridge tracking (stand-in contour extractor for synthetic frames)


def _smooth_columns(frame: np.ndarray) -> np.ndarray:
    """Gaussian smoothing along rows (per column), edge-replicated. The
    taps are added onto zeros in kernel order, which fixes every bit of the
    result; each product goes into one reused buffer."""
    h = frame.shape[0]
    padded = frame[np.clip(np.arange(-_RIDGE_RADIUS, h + _RIDGE_RADIUS), 0, h - 1)]
    out = np.zeros_like(frame, dtype=np.float64)
    tap = np.empty_like(out)
    for k, w in enumerate(_RIDGE_KERNEL):
        np.multiply(padded[k:k + h], w, out=tap)
        out += tap
    return out


def ridge_track(frame: np.ndarray, utt_id: str = "", frame_index: int = 0) -> np.ndarray:
    """Track the brightest ridge: per column, the row of maximum smoothed
    intensity; columns whose smoothed maximum stays below
    ``_RIDGE_THRESHOLD`` are omitted. Returns the (n, 2) float64 (x, y)
    points; ``utt_id`` and ``frame_index`` label its "no ridge" error."""
    frame = _array(frame, "ridge_track frame", np.float64)
    if frame.ndim != 2 or frame.size == 0:
        raise DataError(f"expected non-empty 2-D frame, got shape {frame.shape}")
    smoothed = _smooth_columns(frame)
    rows = smoothed.argmax(axis=0)
    peak = smoothed.max(axis=0)
    cols = np.nonzero(peak >= _RIDGE_THRESHOLD)[0]
    if cols.size < 2:
        raise DataError(f"{utt_id}[{frame_index}]: no ridge found: "
                        "fewer than 2 columns exceed the threshold")
    return np.stack([cols.astype(np.float64), rows[cols].astype(np.float64)], axis=1)


# ---------------------------------------------------------------------------
# Isolation forest


def _finite_2d(points: np.ndarray, what: str) -> np.ndarray:
    """``points`` as a 2-D float64 array (one row for a single point);
    DataError for more than two dimensions or on NaN or inf."""
    points = np.atleast_2d(_array(points, what, np.float64))
    if points.ndim != 2:
        raise DataError(f"{what}: need an (n, d) array of points, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise DataError(f"{what}: points contain NaN or inf")
    return points


def average_path_length(n: int | np.ndarray) -> np.ndarray | float:
    """Expected isolation path length c(n) = 2 H(n-1) - 2 (n-1)/n with
    H(i) = ln(i) + Euler-Mascheroni; 0 for n <= 1."""
    n_arr = _array(n, "average_path_length n", np.float64)
    out = np.zeros_like(n_arr)
    mask = n_arr >= 2
    nm = n_arr[mask]
    out[mask] = 2.0 * (np.log(nm - 1.0) + _EULER_GAMMA) - 2.0 * (nm - 1.0) / nm
    return float(out) if np.isscalar(n) else out


@dataclass
class _Tree:
    """One isolation tree of height h in heap order: node ``i`` has children
    ``2i + 1`` (points below the threshold) and ``2i + 2``.

    ``feature`` and ``threshold`` hold the 2^h - 1 internal slots and
    ``path`` the 2^h bottom slots, so every walk from the root takes exactly
    h steps. A leaf above the bottom level has feature -1 and threshold
    +inf, as have the slots down its left spine, so a walk always goes left
    through it; its depth + c(point count) sits in the bottom slot that
    spine ends in. Slots under a leaf that no walk reaches hold -1, +inf and
    0.0.
    """
    feature: np.ndarray    # split dim per internal slot; -1 for leaves
    threshold: np.ndarray  # +inf for leaves
    path: np.ndarray       # depth + c(point count) per bottom slot


@dataclass
class IsolationForest:
    psi: int            # effective subsample size
    n_dims: int         # width of the points the forest was fit on
    trees: list[_Tree] = field(repr=False, default_factory=list)

    def path_lengths(self, points: np.ndarray) -> np.ndarray:
        """Mean isolation depth E[h(x)] per point, leaf-adjusted.

        Equal rows take the same path through every tree, so the trees are
        walked once per distinct row and the result is mapped back to every
        row; the output is bit-identical to scoring each row on its own.
        Points must have the width of the fit data (DataError otherwise).
        Each tree is walked in h steps of ``node = 2 node + 1 + right``,
        where ``right`` ORs ``x_k >= t_k[node]`` over the dimensions k and
        ``t_k`` holds a node's threshold where it splits on k and +inf
        elsewhere; leaves thus send every point left.
        """
        points = _finite_2d(points, "isolation forest scoring")
        if points.shape[1] != self.n_dims:
            raise DataError(f"isolation forest was fit on {self.n_dims}-D points, "
                            f"cannot score {points.shape[1]}-D points")
        # distinct rows: sort lexicographically, then compare adjacent rows
        order = np.lexsort(points.T[::-1])
        ranked = points[order]
        new_row = np.ones(order.size, dtype=bool)
        new_row[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        inverse = np.empty(order.size, dtype=np.intp)
        inverse[order] = np.cumsum(new_row) - 1
        cols = np.ascontiguousarray(ranked[new_row].T)
        dims = np.arange(self.n_dims)[:, None]
        total = np.zeros(cols.shape[1])
        for tree in self.trees:
            tables = np.where(tree.feature == dims, tree.threshold, np.inf)
            height = tree.feature.size.bit_length()
            node = np.zeros(cols.shape[1], dtype=np.int64)
            for _ in range(height):
                right = cols[0] >= tables[0][node]
                for col, table in zip(cols[1:], tables[1:]):
                    right |= col >= table[node]
                node *= 2
                node += 1
                node += right
            node -= tree.feature.size
            total += tree.path[node]
        return (total / len(self.trees))[inverse]


def _build_tree(data: np.ndarray, height_limit: int, rng: np.random.Generator,
                leaf_c: list[float]) -> _Tree:
    """Grow one isolation tree of height ``height_limit`` in heap order.

    Nodes come off an explicit stack with the left child pushed last, so
    each internal node draws its split dimension, then its split value, in
    pre-order. A node holds, per dimension, its point indices sorted by
    that coordinate, so a dimension's range is its first and last point and
    the split dimension divides at one bisection; the other dimensions keep
    their order and split by comparing the split coordinate with the
    threshold. A child that will be a leaf (at the height limit, or with at
    most one point) draws nothing, so its path is written at once instead
    of going through the stack. ``leaf_c[n]`` is c(n) for a leaf holding n
    points.
    """
    n_internal = (1 << height_limit) - 1
    feature = [-1] * n_internal
    threshold = [math.inf] * n_internal
    path = [0.0] * (n_internal + 1)

    def leaf(n: int, d: int, node: int) -> None:
        # the walk follows a leaf's left spine down to the bottom slot
        path[((node + 1) << (height_limit - d)) - 1 - n_internal] = d + leaf_c[n]

    coords = data.T.tolist()
    # (per-dimension sorted point indices, depth, heap slot); the root has
    # >= 2 points and height_limit >= 1, and so has every node pushed
    stack = [(np.argsort(data, axis=0, kind="stable").T.tolist(), 0, 0)]
    while stack:
        orders, d, node = stack.pop()
        splittable = [k for k, (o, c) in enumerate(zip(orders, coords))
                      if c[o[-1]] > c[o[0]]]
        if not splittable:
            leaf(len(orders[0]), d, node)
            continue
        dim = splittable[0]
        if len(splittable) > 1:  # numpy draws nothing for a one-value range
            dim = splittable[rng.integers(0, len(splittable))]
        order, coord = orders[dim], coords[dim]
        a, b = coord[order[0]], coord[order[-1]]
        val = a + (b - a) * rng.random()
        feature[node] = dim
        threshold[node] = val
        n_left = bisect.bisect_left(order, val, key=coord.__getitem__)
        n_right = len(order) - n_left
        d += 1
        if d < height_limit and n_right > 1:
            stack.append(([order[n_left:] if k == dim else
                           [i for i in o if coord[i] >= val] for k, o in enumerate(orders)],
                          d, 2 * node + 2))
        else:
            leaf(n_right, d, 2 * node + 2)
        if d < height_limit and n_left > 1:
            stack.append(([order[:n_left] if k == dim else
                           [i for i in o if coord[i] < val] for k, o in enumerate(orders)],
                          d, 2 * node + 1))
        else:
            leaf(n_left, d, 2 * node + 1)
    return _Tree(np.array(feature), np.array(threshold), np.array(path))


def fit_iforest(points: np.ndarray, seed: int = 0) -> IsolationForest:
    """Standard isolation forest of ``_N_TREES`` trees, each on a subsample
    of psi = min(``_PSI``, n) points with uniform random split dimension and
    uniform split value, grown to height limit ceil(log2 psi). The forest
    needs n >= 2 points, so psi >= 2 and every tree has height >= 1.

    Random numbers are drawn in a fixed order: per tree, the subsample,
    then one split dimension and one split value per internal node in
    pre-order. A given seed therefore always yields the same trees, and
    tree i draws all its numbers before tree i + 1.
    """
    seed = _count(seed, "seed", 0)
    points = _finite_2d(points, "isolation forest fit")
    n = points.shape[0]
    if n < 2:
        raise DataError(f"isolation forest needs >= 2 points, got {n}")
    with np.errstate(over="ignore"):
        span = points.max(axis=0) - points.min(axis=0)
    if not np.isfinite(span).all():
        raise DataError("isolation forest fit: coordinate range overflows float64")
    psi = min(_PSI, n)
    height_limit = int(math.ceil(math.log2(psi)))
    leaf_c = average_path_length(np.arange(psi + 1)).tolist()
    rng = np.random.default_rng(seed)
    forest = IsolationForest(psi=psi, n_dims=points.shape[1])
    for _ in range(_N_TREES):
        idx = rng.choice(n, size=psi, replace=False)
        forest.trees.append(_build_tree(points[idx], height_limit, rng, leaf_c))
    return forest


def anomaly_score(forest: IsolationForest, points: np.ndarray) -> np.ndarray:
    """Score s = 2^(-E[h(x)] / c(psi)) in (0, 1); higher is more anomalous."""
    return 2.0 ** (-forest.path_lengths(points) / average_path_length(forest.psi))


def prune_outliers(cloud: ContourCloud, contamination: float = 0.02,
                   seed: int = 0) -> ContourCloud:
    """Drop the ceil(contamination * N) highest-scoring points of the
    :func:`fit_iforest` forest of ``seed``; ties broken by stable input
    order."""
    contamination, seed = _real(contamination, "contamination"), _count(seed, "seed", 0)
    if not 0.0 <= contamination < 0.5:
        raise UsageError(f"contamination must be in [0, 0.5), got {contamination}")
    n = cloud.points.shape[0]
    k = int(math.ceil(contamination * n))
    if k == 0:
        return ContourCloud(cloud.speaker_id, cloud.mode, cloud.points.copy())
    if k >= n:
        raise DataError("pruning would remove every point")
    forest = fit_iforest(cloud.points, seed=seed)
    scores = anomaly_score(forest, cloud.points)
    drop = np.argsort(-scores, kind="stable")[:k]
    keep = np.ones(n, dtype=bool)
    keep[drop] = False
    return ContourCloud(cloud.speaker_id, cloud.mode, cloud.points[keep])


# ---------------------------------------------------------------------------
# Convex hull (exact orientation on integer-scaled coordinates)


def _cross(o, a, b) -> int:
    """z of (a - o) x (b - o) for points whose first two entries are x, y."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew monotone-chain hull, counter-clockwise, collinear boundary
    points excluded; each vertex is the first input row at its scaled
    position.

    Orientation tests run on exact integers after scaling coordinates by
    2^16, so hull membership never depends on floating-point rounding.
    Coordinates must be finite and below 2^47 in magnitude, so that the
    scaled values fit in int64. Only the lowest and highest point of each
    scaled x reach the chain: a point strictly between them lies on a
    vertical segment, so it is never a strict vertex.
    """
    points = _finite_2d(points, "convex_hull")
    if points.shape[0] < 1 or points.shape[1] != 2:
        raise DataError(f"convex_hull expects (n, 2) points, got {points.shape}")
    if np.abs(points).max() >= _ORIENT_LIMIT:
        raise DataError("convex_hull: coordinates must be below 2^47 in magnitude")
    scaled = np.rint(points * _ORIENT_SCALE).astype(np.int64)
    # stable, so each distinct point's run starts at its first input row
    order = np.lexsort((scaled[:, 1], scaled[:, 0]))
    x, y = scaled[order, 0], scaled[order, 1]
    new_x = np.ones(order.size, dtype=bool)
    new_x[1:] = x[1:] != x[:-1]
    new_point = new_x.copy()
    new_point[1:] |= y[1:] != y[:-1]
    starts = np.flatnonzero(new_point)  # first row of each distinct point
    if starts.size == 1:
        return points[[order[0]]]
    # the lowest and the highest distinct point of each x, as (x, y, input row)
    first_x = new_x[starts]
    last_x = np.append(first_x[1:], True)
    rows = starts[first_x | last_x]
    extremes = list(zip(x[rows].tolist(), y[rows].tolist(), order[rows].tolist()))

    def chain(pts):
        out = []
        for p in pts:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(extremes)
    upper = chain(extremes[::-1])
    return points[[p[2] for p in lower[:-1] + upper[:-1]]]


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area of a simple polygon of finite (n, 2) vertices; fewer
    than 3 vertices -> 0."""
    vertices = _finite_2d(vertices, "polygon_area")
    if vertices.shape[1] != 2:
        raise DataError(f"polygon_area expects (n, 2) vertices, got {vertices.shape}")
    if vertices.shape[0] < 3:
        return 0.0
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


# ---------------------------------------------------------------------------
# Per-speaker x mode analysis


def pool_clouds(contours_by_utt: dict[str, list[np.ndarray]],
                utt_meta: dict[str, tuple[str, str]]) -> list[ContourCloud]:
    """Pool contour points per (speaker, mode).

    ``utt_meta`` maps utt_id -> (speaker_id, mode), a tuple of two strings.
    Each contour must be an (n, 2) array with n >= 2, as :func:`ridge_track`
    returns; DataError names the ``utt_id[i]`` of any other, and the
    ``utt_id`` of any other metadata.
    """
    pooled: dict[tuple[str, str], list[np.ndarray]] = {}
    for utt_id, contours in contours_by_utt.items():
        if utt_id not in utt_meta:
            raise DataError(f"contours reference unknown utterance {utt_id!r}")
        meta = utt_meta[utt_id]
        if not (isinstance(meta, tuple) and len(meta) == 2
                and all(isinstance(v, str) for v in meta)):
            raise DataError(f"{utt_id}: need a (speaker, mode) pair of strings, got {meta!r}")
        for i, c in enumerate(contours):
            # a type test, as np.ndim raises a bare ValueError for a ragged list
            if not isinstance(c, np.ndarray) or c.ndim != 2 or c.shape[1] != 2 or len(c) < 2:
                raise DataError(f"{utt_id}[{i}]: contour needs an (n, 2) array "
                                "of n >= 2 (x, y) points")
        pooled.setdefault(meta, []).extend(contours)
    # a (speaker, mode) without points gets an empty cloud, which ContourCloud rejects
    return [ContourCloud(spk, mode, np.concatenate(pts or [np.empty((0, 2))]))
            for (spk, mode), pts in sorted(pooled.items())]


def articulatory_space(clouds: list[ContourCloud],
                       contamination: float = 0.02) -> list[HullResult]:
    """Prune each speaker x mode cloud, then compute its hull and its area
    in pixels squared. A cloud's forest seed is the CRC-32 of its speaker id
    followed by its mode, so no cloud's result depends on the others."""
    results = []
    for cloud in clouds:
        cloud_seed = zlib.crc32(f"{cloud.speaker_id}{cloud.mode}".encode())
        pruned = prune_outliers(cloud, contamination, seed=cloud_seed)
        hull = convex_hull(pruned.points)
        results.append(HullResult(
            speaker_id=cloud.speaker_id, mode=cloud.mode, vertices=hull,
            area=polygon_area(hull), n_points=cloud.points.shape[0],
            n_pruned=cloud.points.shape[0] - pruned.points.shape[0]))
    return results


def paired_areas(results: list[HullResult], mode_a: str,
                 mode_b: str) -> dict[str, tuple[float, float]]:
    """Per-speaker (area_a, area_b); speakers missing a mode are excluded
    with a warning."""
    by_speaker: dict[str, dict[str, float]] = {}
    for r in results:
        by_speaker.setdefault(r.speaker_id, {})[r.mode] = r.area
    paired = {}
    for spk, areas in sorted(by_speaker.items()):
        if mode_a in areas and mode_b in areas:
            paired[spk] = (areas[mode_a], areas[mode_b])
        else:
            logger.warning("speaker %s missing mode %s; excluded from paired areas",
                           spk, mode_a if mode_a not in areas else mode_b)
    return paired


def write_hull_report(results: list[HullResult], clouds: list[ContourCloud],
                      outdir: str | Path) -> Path:
    """hulls.csv plus one SVG per speaker overlaying clouds and hulls.

    Every result needs the cloud of its speaker and mode, and no speaker id
    may hold a path separator or a NUL byte; both are checked before any
    file is written.
    """
    cloud_map = {(c.speaker_id, c.mode): c.points for c in clouds}
    figures: dict[str, tuple[dict[str, np.ndarray], dict[str, np.ndarray]]] = {}
    for r in results:
        if (r.speaker_id, r.mode) not in cloud_map:
            raise DataError(f"{r.speaker_id}/{r.mode}: hull result has no contour cloud")
        if any(c in r.speaker_id for c in ("/", os.sep, "\0")):
            raise DataError(f"speaker id {r.speaker_id!r} contains a path separator "
                            "or a NUL byte")
        pts, hulls = figures.setdefault(r.speaker_id, ({}, {}))
        pts[r.mode] = cloud_map[(r.speaker_id, r.mode)]
        hulls[r.mode] = r.vertices

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "hulls.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["speaker", "mode", "n_points", "n_pruned", "area"])
        for r in results:
            w.writerow([r.speaker_id, r.mode, r.n_points, r.n_pruned, f"{r.area:.10g}"])
    for spk, (pts, hulls) in sorted(figures.items()):
        svgfig.contour_hull_svg(outdir / f"hull_{spk}.svg", pts, hulls,
                                f"articulatory space: {spk}")
    return csv_path
