import math
import zlib
from xml.dom import minidom

import numpy as np
import pytest

from silentspeech import articspace as arts
from silentspeech import svgfig
from silentspeech.errors import DataError


def brute_force_hull_vertices(points):
    """O(n^3) hull-vertex oracle on integer-scaled coordinates.

    A directed edge (i, j) lies on the hull iff every other point is
    strictly left of it or collinear and strictly between its endpoints.
    Hull vertices are the endpoints of hull edges. For each i, the edges to
    every j are tested at once: ``cross[j, k]`` and ``t[j, k]`` are the
    cross and dot products of edge (i, j) with the offset of point k.
    """
    scaled = np.rint(np.asarray(points, dtype=np.float64) * (1 << 16)).astype(np.int64)
    uniq = np.unique(scaled, axis=0)
    n = uniq.shape[0]
    if n <= 2:
        return {tuple(p) for p in uniq}
    verts = set()
    for i in range(n):
        rel = uniq - uniq[i]  # edge (i, j) is rel[j]; point k sits at rel[k]
        cross = np.outer(rel[:, 0], rel[:, 1]) - np.outer(rel[:, 1], rel[:, 0])
        t = rel @ rel.T
        # collinear points must be strictly between i and j
        between = (t >= 0) & (t <= np.diagonal(t)[:, None])
        ok = (cross >= 0).all(axis=1) & ((cross != 0) | between).all(axis=1)
        ok[i] = False
        for j in np.nonzero(ok)[0]:
            verts.add(tuple(uniq[i]))
            verts.add(tuple(uniq[j]))
    return verts


def reference_build_tree(data, height_limit, rng):
    """Recursive isolation-tree builder the iterative one must reproduce:
    nodes in pre-order, ``rng.choice`` for the split dimension and
    ``rng.uniform`` for the split value."""
    feature, threshold, left, right, depth, adjust = [], [], [], [], [], []

    def add_node(d):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        depth.append(d)
        adjust.append(0.0)
        return len(feature) - 1

    def grow(idx, d):
        node = add_node(d)
        sub = data[idx]
        lo, hi = sub.min(axis=0), sub.max(axis=0)
        splittable = np.nonzero(hi > lo)[0]
        if d >= height_limit or idx.size <= 1 or splittable.size == 0:
            adjust[node] = float(arts.average_path_length(int(idx.size)))
            return node
        dim = int(rng.choice(splittable))
        val = float(rng.uniform(lo[dim], hi[dim]))
        mask = sub[:, dim] < val
        feature[node] = dim
        threshold[node] = val
        left[node] = grow(idx[mask], d + 1)
        right[node] = grow(idx[~mask], d + 1)
        return node

    grow(np.arange(data.shape[0]), 0)
    return (np.array(feature), np.array(threshold), np.array(left),
            np.array(right), np.array(depth, dtype=np.float64), np.array(adjust))


def reference_fit_trees(points, n_trees, psi, seed):
    n = points.shape[0]
    psi_eff = min(psi, n)
    height_limit = int(math.ceil(math.log2(psi_eff))) if psi_eff > 1 else 0
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_trees):
        idx = rng.choice(n, size=psi_eff, replace=False)
        trees.append(reference_build_tree(points[idx], height_limit, rng))
    return trees


def reference_path(tree, x):
    """Scalar walk of a heap-ordered tree: h steps from the root, left
    through leaves, then the path stored in the bottom slot reached."""
    n_internal = tree.feature.size
    node = 0
    while node < n_internal:
        dim = tree.feature[node]
        node = 2 * node + (1 if dim < 0 or x[dim] < tree.threshold[node] else 2)
    return tree.path[node - n_internal]


def reference_tree_paths(ref, pts):
    """depth + c(n) of the leaf each point reaches in a recursive-builder
    tree, walked through its left and right child arrays."""
    feature, threshold, left, right, depth, adjust = ref
    node = np.zeros(pts.shape[0], dtype=np.int64)
    rows = np.arange(pts.shape[0])
    while (feature[node] >= 0).any():
        dim = feature[node]
        inner = dim >= 0
        go_left = pts[rows, np.maximum(dim, 0)] < threshold[node]
        node = np.where(inner, np.where(go_left, left[node], right[node]), node)
    return (depth + adjust)[node]


def assert_heap_tree_equals(tree, ref, height):
    """Walk the recursive builder's pre-order arrays alongside the heap
    slots: exact split per internal node, feature -1 and threshold +inf
    down each leaf's left spine, and the leaf's depth + c(n) in the bottom
    slot that spine ends in."""
    feature, threshold, left, right, depth, adjust = ref
    n_internal = (1 << height) - 1
    assert tree.feature.shape == tree.threshold.shape == (n_internal,)
    assert tree.path.shape == (n_internal + 1,)
    assert tree.feature.dtype == feature.dtype
    assert tree.threshold.dtype == threshold.dtype
    assert tree.path.dtype == depth.dtype
    stack = [(0, 0)]  # (reference node, heap slot)
    visited = 0
    while stack:
        r, slot = stack.pop()
        visited += 1
        assert (slot + 1).bit_length() - 1 == depth[r]
        if feature[r] >= 0:
            assert slot < n_internal
            assert tree.feature[slot] == feature[r]
            assert tree.threshold[slot] == threshold[r]
            stack += [(left[r], 2 * slot + 1), (right[r], 2 * slot + 2)]
            continue
        while slot < n_internal:
            assert tree.feature[slot] == -1
            assert tree.threshold[slot] == np.inf
            slot = 2 * slot + 1
        assert tree.path[slot - n_internal] == depth[r] + adjust[r]
    assert visited == feature.size


def hull_vertex_set(hull):
    scaled = np.rint(np.asarray(hull) * (1 << 16)).astype(np.int64)
    return {tuple(p) for p in scaled}


class TestConvexHull:
    def test_square_with_center(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
        hull = arts.convex_hull(pts)
        assert hull.shape == (4, 2)
        assert hull_vertex_set(hull) == hull_vertex_set(pts[:4])

    def test_counter_clockwise_orientation(self):
        rng = np.random.default_rng(0)
        pts = rng.random((30, 2))
        hull = arts.convex_hull(pts)
        x, y = hull[:, 0], hull[:, 1]
        signed = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert signed > 0

    def test_collinear_returns_endpoints(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
        hull = arts.convex_hull(pts)
        assert hull.shape == (2, 2)
        assert hull_vertex_set(hull) == {(0, 0), (2 << 16, 2 << 16)}

    def test_single_and_duplicate_points(self):
        assert arts.convex_hull(np.array([[1.5, 2.5]])).shape == (1, 2)
        hull = arts.convex_hull(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert hull.shape == (1, 2)

    def test_collinear_boundary_points_excluded(self):
        pts = np.array([[0, 0], [2, 0], [1, 0], [2, 2], [0, 2], [1, 2]], dtype=float)
        hull = arts.convex_hull(pts)
        assert hull.shape == (4, 2)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            pts = rng.random((50, 2)) * rng.uniform(0.5, 100)
            hull = arts.convex_hull(pts)
            assert hull_vertex_set(hull) == brute_force_hull_vertices(pts)
        # integer grids: duplicates and collinear boundary points
        grid_rng = np.random.default_rng(19)
        for _ in range(50):
            pts = grid_rng.integers(0, 6, size=(30, 2)).astype(np.float64)
            hull = arts.convex_hull(pts)
            assert hull_vertex_set(hull) == brute_force_hull_vertices(pts)

    def test_returns_first_input_row(self):
        """Rows that coincide after the 2^16 scaling share one hull vertex,
        and the vertex returned is the first of them in input order."""
        a, b = [1.0, 1.0], [1.0 + 2**-20, 1.0]
        others = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        for first, second in ((a, b), (b, a)):
            for pts in (np.array([first, second] + others),
                        np.array(others + [first, second]),
                        np.array([first] + others + [second])):
                hull = arts.convex_hull(pts)
                assert hull.shape == (4, 2)
                at_corner = [v for v in hull.tolist() if v[0] > 0.5 and v[1] > 0.5]
                assert at_corner == [first]

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        pts = rng.random((40, 2))
        h1 = hull_vertex_set(arts.convex_hull(pts))
        h2 = hull_vertex_set(arts.convex_hull(pts[rng.permutation(40)]))
        assert h1 == h2

    def test_coordinates_beyond_integer_scaling_rejected(self):
        # scaled by 2^16 these overflow int64; the hull used to drop (0, 0)
        # and keep the interior point (1, 1)
        pts = np.array([[0, 0], [1e15, 0], [0, 1e15], [1, 1]])
        with pytest.raises(DataError, match="2\\^47"):
            arts.convex_hull(pts)

    def test_large_coordinates_below_limit(self):
        big = float(1 << 46)
        pts = np.array([[0, 0], [big, 0], [0, big], [1, 1]])
        hull = arts.convex_hull(pts)
        assert hull_vertex_set(hull) == hull_vertex_set(pts[:3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        pts = np.array([[0, 0], [1, 0], [0, 1], [bad, 0.5]])
        with pytest.raises(DataError, match="NaN or inf"):
            arts.convex_hull(pts)

    @pytest.mark.parametrize("shape", [(5, 2, 1), (50, 2, 1)])
    def test_three_dimensional_array_rejected(self, shape):
        with pytest.raises(DataError, match=r"convex_hull: need an \(n, d\) array"):
            arts.convex_hull(np.zeros(shape))

    def test_area_monotone_under_point_addition(self):
        rng = np.random.default_rng(3)
        pts = rng.random((25, 2))
        base = arts.polygon_area(arts.convex_hull(pts))
        for _ in range(20):
            extra = np.vstack([pts, rng.random((1, 2)) * 2])
            assert arts.polygon_area(arts.convex_hull(extra)) >= base - 1e-12


class TestPolygonArea:
    def test_unit_square(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert arts.polygon_area(sq) == 1.0

    def test_triangle(self):
        tri = np.array([[0, 0], [2, 0], [0, 2]], dtype=float)
        assert arts.polygon_area(tri) == 2.0

    def test_degenerate(self):
        assert arts.polygon_area(np.array([[0.0, 0.0], [1.0, 1.0]])) == 0.0

    def test_matches_fan_triangulation_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            hull = arts.convex_hull(rng.random((20, 2)) * 10)
            if hull.shape[0] < 3:
                continue
            fan = 0.0
            for k in range(1, hull.shape[0] - 1):
                a = hull[k] - hull[0]
                b = hull[k + 1] - hull[0]
                fan += 0.5 * (a[0] * b[1] - a[1] * b[0])
            assert abs(arts.polygon_area(hull) - abs(fan)) < 1e-9


class TestAveragePathLength:
    def test_small_values(self):
        assert arts.average_path_length(0) == 0.0
        assert arts.average_path_length(1) == 0.0
        expected = 2 * (math.log(1) + 0.5772156649015329) - 2 * 1 / 2
        assert abs(arts.average_path_length(2) - expected) < 1e-12

    def test_score_identities(self):
        psi = 256
        c = arts.average_path_length(psi)

        def score(path):
            """Score of a point in a forest whose one tree is a single leaf
            with mean path ``path``."""
            leaf = arts._Tree(np.array([-1]), np.array([math.inf]), np.array([path, 0.0]))
            forest = arts.IsolationForest(psi=psi, n_dims=2, trees=[leaf])
            return arts.anomaly_score(forest, np.zeros((1, 2)))[0]

        assert score(c) == pytest.approx(0.5)
        assert score(0.0) == 1.0
        assert score(50 * c) < 1e-3


class TestIsolationForest:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((100, 2))
        s1 = arts.anomaly_score(arts.fit_iforest(pts, seed=7), pts)
        s2 = arts.anomaly_score(arts.fit_iforest(pts, seed=7), pts)
        assert np.array_equal(s1, s2)
        s3 = arts.anomaly_score(arts.fit_iforest(pts, seed=8), pts)
        assert not np.array_equal(s1, s3)

    def test_identical_points_equal_scores(self):
        pts = np.ones((50, 2))
        forest = arts.fit_iforest(pts, seed=0)
        scores = arts.anomaly_score(forest, pts)
        assert np.allclose(scores, scores[0])
        assert scores[0] == pytest.approx(0.5)

    def test_planted_outliers_score_higher(self):
        rng = np.random.default_rng(6)
        inliers = rng.standard_normal((200, 2))
        outliers = rng.standard_normal((10, 2)) + 10.0
        pts = np.vstack([inliers, outliers])
        forest = arts.fit_iforest(pts, seed=1)
        scores = arts.anomaly_score(forest, pts)
        assert scores[200:].mean() > scores[:200].mean()

    def test_matches_reference_scorer(self):
        """Vectorized scoring equals an independent traversal of the same
        trees, on distinct points and on an integer grid full of repeats."""
        rng = np.random.default_rng(7)
        inputs = [rng.standard_normal((50, 3)),
                  rng.integers(0, 4, size=(50, 3)).astype(np.float64)]
        for pts in inputs:
            forest = arts.fit_iforest(pts, seed=2)
            c_psi = arts.average_path_length(forest.psi)
            scores = arts.anomaly_score(forest, pts)
            for i in range(50):
                mean_h = np.mean([reference_path(t, pts[i]) for t in forest.trees])
                ref_score = 2.0 ** (-mean_h / c_psi)
                assert abs(arts.anomaly_score(forest, pts[i])[0] - ref_score) < 1e-6
                assert abs(scores[i] - ref_score) < 1e-6

    def test_path_lengths_bit_equal_to_per_point_walk(self):
        """Scoring each distinct row once changes no bit: the result equals
        the per-point walk summed over trees in the same order."""
        rng = np.random.default_rng(15)
        pts = rng.integers(0, 6, size=(400, 2)).astype(np.float64)
        pts[::7] = -0.0  # -0.0 and 0.0 compare equal and share a path
        forest = arts.fit_iforest(pts, seed=4)
        got = forest.path_lengths(pts)
        for i in range(pts.shape[0]):
            total = 0.0
            for t in forest.trees:
                total += reference_path(t, pts[i])
            assert got[i] == total / len(forest.trees)

    @pytest.mark.parametrize("dims", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["normal", "int_grid", "constant"])
    def test_trees_identical_to_recursive_builder(self, dims, kind):
        """The heap-order builder draws the same numbers in the same order
        as the recursive reference, so every tree holds the reference's
        splits and leaf paths in the heap slots they map to, and every
        point takes the same path through both. Clouds of 4, 16, 64 and
        300 points give trees of height 2, 4, 6 and 8. Tree i draws all its
        numbers before tree i + 1, so a forest's first 20 trees are the
        reference's 20-tree forest."""
        rng = np.random.default_rng(100 * dims + len(kind))
        if kind == "normal":
            cloud = rng.standard_normal((300, dims))
        elif kind == "int_grid":
            cloud = rng.integers(0, 5, size=(300, dims)).astype(np.float64)
        else:
            cloud = np.full((300, dims), 3.0)
        queries = np.vstack([cloud, rng.uniform(-6.0, 6.0, size=(100, dims))])
        for n, height in ((4, 2), (16, 4), (64, 6), (300, 8)):
            pts = cloud[:n]
            seed = n + dims
            forest = arts.fit_iforest(pts, seed=seed)
            ref = reference_fit_trees(pts, n_trees=20, psi=256, seed=seed)
            assert len(forest.trees) >= len(ref) == 20
            for tree, want in zip(forest.trees[:20], ref):
                assert_heap_tree_equals(tree, want, height)
                one_tree = arts.IsolationForest(psi=forest.psi, n_dims=dims, trees=[tree])
                assert np.array_equal(one_tree.path_lengths(queries),
                                      reference_tree_paths(want, queries))

    def test_non_finite_rejected(self):
        pts = np.random.default_rng(16).standard_normal((20, 2))
        forest = arts.fit_iforest(pts, seed=0)
        for bad in (np.nan, np.inf):
            broken = pts.copy()
            broken[3, 1] = bad
            with pytest.raises(DataError, match="NaN or inf"):
                arts.fit_iforest(broken, seed=0)
            with pytest.raises(DataError, match="NaN or inf"):
                forest.path_lengths(broken)

    @pytest.mark.parametrize("width", [2, 4])
    def test_wrong_width_rejected(self, width):
        """A forest fit on 3-D points names both widths for 2-D or 4-D
        points instead of scoring them wrongly or ignoring a column."""
        rng = np.random.default_rng(20)
        forest = arts.fit_iforest(rng.standard_normal((40, 3)), seed=0)
        assert forest.n_dims == 3
        with pytest.raises(DataError, match=f"fit on 3-D points, cannot score {width}-D"):
            arts.anomaly_score(forest, rng.standard_normal((10, width)))

    @pytest.mark.parametrize("n", [40, 300])
    def test_forest_size(self, n):
        """Every forest has ``_N_TREES`` trees on subsamples of
        min(``_PSI``, n) points."""
        forest = arts.fit_iforest(np.random.default_rng(18).random((n, 2)), seed=0)
        assert len(forest.trees) == arts._N_TREES == 100
        assert forest.psi == min(arts._PSI, n) == min(256, n)
        height = math.ceil(math.log2(forest.psi))
        assert all(t.path.size == 1 << height for t in forest.trees)

    def test_overflowing_range_rejected(self):
        pts = np.array([[-1e308, 0.0], [1e308, 1.0], [0.0, 2.0]])
        with pytest.raises(DataError, match="range"):
            arts.fit_iforest(pts, seed=0)

    def test_score_invariant_to_tree_order(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((60, 2))
        forest = arts.fit_iforest(pts, seed=3)
        before = arts.anomaly_score(forest, pts)
        forest.trees = forest.trees[::-1]
        assert np.allclose(before, arts.anomaly_score(forest, pts))

    def test_too_few_points_rejected(self):
        with pytest.raises(DataError):
            arts.fit_iforest(np.ones((1, 2)))

    def test_fit_three_dimensional_array_rejected(self):
        cloud = np.random.default_rng(21).standard_normal((50, 2, 1))
        with pytest.raises(DataError, match=r"fit: need an \(n, d\) array.*\(50, 2, 1\)"):
            arts.fit_iforest(cloud, seed=0)

    def test_score_three_dimensional_array_rejected(self):
        rng = np.random.default_rng(22)
        forest = arts.fit_iforest(rng.standard_normal((50, 2)), seed=0)
        for shape in ((5, 2, 1), (50, 2, 1)):
            with pytest.raises(DataError, match=r"scoring: need an \(n, d\) array"):
                arts.anomaly_score(forest, np.zeros(shape))


class TestPruneOutliers:
    def test_zero_contamination_identity(self):
        pts = np.random.default_rng(9).random((30, 2))
        cloud = arts.ContourCloud("s", "modal", pts)
        out = arts.prune_outliers(cloud, 0.0)
        assert np.array_equal(out.points, pts)

    def test_count_contract(self):
        rng = np.random.default_rng(10)
        for n in (10, 37, 100):
            cloud = arts.ContourCloud("s", "modal", rng.random((n, 2)))
            for c in (0.02, 0.1, 0.33):
                out = arts.prune_outliers(cloud, c, seed=0)
                assert out.points.shape[0] == n - math.ceil(c * n)

    def test_planted_outliers_removed(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            inliers = rng.standard_normal((95, 2))
            outliers = rng.standard_normal((5, 2)) + rng.choice([-10, 10], size=(5, 2))
            cloud = arts.ContourCloud("s", "modal", np.vstack([inliers, outliers]))
            out = arts.prune_outliers(cloud, 0.05, seed=seed)
            # all five planted points gone?
            if out.points.shape[0] == 95 and np.all(np.abs(out.points) < 8):
                hits += 1
        assert hits >= 95

    def test_pruning_never_increases_hull_area(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((80, 2))
        cloud = arts.ContourCloud("s", "modal", pts)
        full = arts.polygon_area(arts.convex_hull(pts))
        out = arts.prune_outliers(cloud, 0.1, seed=0)
        assert arts.polygon_area(arts.convex_hull(out.points)) <= full + 1e-12

    def test_non_finite_cloud_rejected(self):
        pts = np.random.default_rng(17).random((10, 2))
        pts[4, 0] = np.nan
        with pytest.raises(DataError, match="spk3/silent"):
            arts.ContourCloud("spk3", "silent", pts)

    def test_pruning_everything_rejected(self):
        cloud = arts.ContourCloud("s", "modal", np.ones((1, 2)))
        with pytest.raises(DataError):
            arts.prune_outliers(cloud, 0.4, seed=0)


def render_ridge(contour_y, h, w, sigma=2.0):
    rows = np.arange(h)[:, None]
    return np.exp(-0.5 * ((rows - contour_y[None, :]) / sigma) ** 2)


class TestRidgeTrack:
    def test_recovers_rendered_contour(self):
        rng = np.random.default_rng(12)
        h, w = 48, 40
        truth = 24 + 10 * np.sin(np.linspace(0, 2.5, w)) + rng.normal(0, 0.5, w)
        truth = np.clip(truth, 4, h - 5)
        frame = render_ridge(truth, h, w)
        contour = arts.ridge_track(frame)
        assert contour.shape == (w, 2) and contour.dtype == np.float64
        rms = np.sqrt(np.mean((contour[:, 1] - truth) ** 2))
        assert rms <= 1.0

    def test_black_frame_rejected(self):
        with pytest.raises(DataError):
            arts.ridge_track(np.zeros((20, 20)))

    def test_no_ridge_names_utterance_and_frame(self):
        with pytest.raises(DataError, match=r"^s01_modal_003\[17\]: no ridge found"):
            arts.ridge_track(np.zeros((20, 20)), utt_id="s01_modal_003", frame_index=17)

    @staticmethod
    def reference_ridge(frame):
        """The smoothing and ridge as first written: np.pad edge
        replication, a fresh product per tap added onto zeros in kernel
        order, and the first row of each column's maximum."""
        sigma = 2.0
        offsets = np.arange(-6, 7)
        kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
        kernel /= kernel.sum()
        h = frame.shape[0]
        padded = np.pad(frame, ((6, 6), (0, 0)), mode="edge")
        smoothed = np.zeros_like(frame)
        for k, w in enumerate(kernel):
            smoothed += w * padded[k:k + h, :]
        rows = smoothed.argmax(axis=0)
        cols = np.nonzero(smoothed.max(axis=0) >= 0.5)[0]
        points = np.stack([cols.astype(np.float64), rows[cols].astype(np.float64)], axis=1)
        return smoothed, points

    def test_bit_identical_to_reference(self):
        """Random u8/255 frames, and frames with saturated blocks taller
        than the 13-tap kernel (some at the top or bottom edge), whose
        smoothed columns tie exactly at their maximum."""
        rng = np.random.default_rng(21)
        frames = [rng.integers(0, 256, size=(64, 128)).astype(np.float64) / 255.0
                  for _ in range(20)]
        for top in (0, 5, 17, 30):
            frame = rng.integers(0, 256, size=(48, 40)).astype(np.float64) / 255.0
            left = int(rng.integers(0, 20))
            frame[top:top + 18, left:left + 20] = 1.0
            frames.append(frame)
        ties = 0
        for frame in frames:
            smoothed, points = self.reference_ridge(frame)
            assert np.array_equal(arts._smooth_columns(frame), smoothed)
            assert np.array_equal(arts.ridge_track(frame), points)
            ties += int(((smoothed == smoothed.max(axis=0)).sum(axis=0) > 1).sum())
        assert ties > 0  # the blocks do produce exact ties for argmax to break

    def test_single_bright_row(self):
        frame = np.zeros((20, 15))
        frame[5:10, :] = 1.0  # one bright row smooths to a peak below the threshold
        contour = arts.ridge_track(frame)
        assert contour.shape == (15, 2)
        assert np.all(contour[:, 1] == 7)


class TestArticulatorySpace:
    def _clouds(self, contraction=0.9, n_speakers=4, seed=13, jitter=0.0):
        rng = np.random.default_rng(seed)
        clouds = []
        for s in range(n_speakers):
            base = rng.random((400, 2)) * 50 + 10
            center = base.mean(axis=0)
            for mode, factor in (("modal", 1.0), ("silent", contraction)):
                pts = center + factor * (base - center)
                if jitter:
                    pts = pts + rng.normal(0, jitter, pts.shape)
                clouds.append(arts.ContourCloud(f"spk{s}", mode, pts))
        return clouds

    def test_contraction_shrinks_hulls(self):
        results = arts.articulatory_space(self._clouds(), contamination=0.02)
        paired = arts.paired_areas(results, "modal", "silent")
        assert len(paired) == 4
        shrunk = sum(1 for a, b in paired.values() if b < a)
        assert shrunk == 4

    def test_similarity_scaling_exact_ratio(self):
        results = arts.articulatory_space(self._clouds(contraction=0.9),
                                          contamination=0.0)
        for a, b in arts.paired_areas(results, "modal", "silent").values():
            assert abs(b / a - 0.81) < 1e-6

    def test_identical_clouds_equal_areas(self):
        results = arts.articulatory_space(self._clouds(contraction=1.0),
                                          contamination=0.0)
        for a, b in arts.paired_areas(results, "modal", "silent").values():
            assert a == b

    def test_missing_mode_excluded_with_warning(self, caplog):
        clouds = self._clouds(n_speakers=2)[:-1]  # drop spk1/silent
        results = arts.articulatory_space(clouds, contamination=0.0)
        with caplog.at_level("WARNING"):
            paired = arts.paired_areas(results, "modal", "silent")
        assert set(paired) == {"spk0"}
        assert any("spk1" in r.message for r in caplog.records)

    def test_hull_report_files(self, tmp_path):
        clouds = self._clouds(n_speakers=2)
        results = arts.articulatory_space(clouds, contamination=0.02)
        csv_path = arts.write_hull_report(results, clouds, tmp_path)
        assert csv_path.exists()
        assert (tmp_path / "hull_spk0.svg").exists()
        text = csv_path.read_text()
        assert text.startswith("speaker,mode,n_points,n_pruned,area")

    def test_hull_svg_content(self, tmp_path):
        """One closed outline per hull, one dot per subsampled point, and the
        title and mode labels as text."""
        clouds = [arts.ContourCloud("spk0", "modal", np.random.default_rng(1).random((3001, 2))),
                  arts.ContourCloud("spk0", "silent", np.random.default_rng(2).random((40, 2)))]
        results = arts.articulatory_space(clouds, contamination=0.0)
        arts.write_hull_report(results, clouds, tmp_path)
        doc = minidom.parse(str(tmp_path / "hull_spk0.svg"))
        lines = doc.getElementsByTagName("polyline")
        assert [len(p.getAttribute("points").split()) for p in lines] == \
            [len(r.vertices) + 1 for r in results]
        # every 2nd of 3001 points (1501 dots), then all 40
        assert len(doc.getElementsByTagName("circle")) == 1501 + 40
        texts = [t.firstChild.data for t in doc.getElementsByTagName("text")]
        assert {"articulatory space: spk0", "modal", "silent"} <= set(texts)
        xy = [(float(c.getAttribute("cx")), float(c.getAttribute("cy")))
              for c in doc.getElementsByTagName("circle")]
        xy += [tuple(map(float, pt.split(","))) for p in lines
               for pt in p.getAttribute("points").split()]
        for x, y in xy:
            assert svgfig._X0 <= x <= svgfig._X1 and svgfig._Y1 <= y <= svgfig._Y0

    def test_hull_svg_single_x_value(self, tmp_path):
        """A cloud whose points share one x gets an x axis widened to
        x +- 0.5, which puts every dot on the plot's middle column."""
        pts = np.column_stack([np.full(20, 3.0), np.arange(20.0)])
        clouds = [arts.ContourCloud("spk0", "modal", pts)]
        results = arts.articulatory_space(clouds, contamination=0.0)
        arts.write_hull_report(results, clouds, tmp_path)
        doc = minidom.parse(str(tmp_path / "hull_spk0.svg"))
        xs = {float(c.getAttribute("cx")) for c in doc.getElementsByTagName("circle")}
        assert xs == {round((svgfig._X0 + svgfig._X1) / 2, 2)}

    def test_hull_report_missing_cloud_rejected(self, tmp_path):
        clouds = self._clouds(n_speakers=2)
        results = arts.articulatory_space(clouds, contamination=0.0)
        with pytest.raises(DataError, match="spk1/silent"):
            arts.write_hull_report(results, clouds[:-1], tmp_path)

    def test_hull_report_escapes_svg_text(self, tmp_path):
        clouds = [arts.ContourCloud("a&b<c", "modal", self._clouds(1)[0].points)]
        results = arts.articulatory_space(clouds, contamination=0.0)
        arts.write_hull_report(results, clouds, tmp_path)
        doc = minidom.parse(str(tmp_path / "hull_a&b<c.svg"))
        texts = [t.firstChild.data for t in doc.getElementsByTagName("text")]
        assert "articulatory space: a&b<c" in texts

    def test_hull_report_nul_byte_rejected(self, tmp_path):
        clouds = [arts.ContourCloud("x\0y", "modal", self._clouds(1)[0].points)]
        results = arts.articulatory_space(clouds, contamination=0.0)
        with pytest.raises(DataError, match="NUL byte"):
            arts.write_hull_report(results, clouds, tmp_path)
        assert not (tmp_path / "hulls.csv").exists()

    def test_cloud_result_independent_of_other_clouds(self):
        """A cloud's forest is seeded from its own speaker id and mode, so
        its result is the same alone, among other clouds and in any order."""
        clouds = self._clouds(n_speakers=2)
        alone = arts.articulatory_space(clouds[:1])[0]
        pruned = arts.prune_outliers(clouds[0], 0.02, seed=zlib.crc32(b"spk0modal"))
        hull = arts.convex_hull(pruned.points)
        assert alone.n_pruned == 8
        assert np.array_equal(alone.vertices, hull)
        assert alone.area == arts.polygon_area(hull)
        for other in (arts.articulatory_space(clouds)[0],
                      arts.articulatory_space(clouds[::-1])[-1]):
            assert (other.speaker_id, other.mode) == ("spk0", "modal")
            assert np.array_equal(other.vertices, alone.vertices)
            assert (other.area, other.n_points, other.n_pruned) == \
                (alone.area, alone.n_points, alone.n_pruned)

    def test_hull_report_path_separator_rejected(self, tmp_path):
        clouds = [arts.ContourCloud("../escaped", "modal", self._clouds(1)[0].points)]
        results = arts.articulatory_space(clouds, contamination=0.0)
        with pytest.raises(DataError, match="'../escaped'"):
            arts.write_hull_report(results, clouds, tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestContourIO:
    def test_pool_clouds(self):
        contours = {
            "u1": [np.array([[0.0, 0.0], [1.0, 1.0]])],
            "u2": [np.array([[2.0, 2.0], [3.0, 3.0]])],
        }
        meta = {"u1": ("s1", "modal"), "u2": ("s1", "modal")}
        clouds = arts.pool_clouds(contours, meta)
        assert len(clouds) == 1
        assert clouds[0].points.shape == (4, 2)

    def test_pool_clouds_without_points_rejected(self):
        """A speaker and mode whose utterances hold no contour raise
        DataError naming both, not numpy's bare "need at least one array"."""
        with pytest.raises(DataError, match="s1/silent: empty contour cloud"):
            arts.pool_clouds({"u1": []}, {"u1": ("s1", "silent")})
