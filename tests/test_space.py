"""Cloud construction, ball queries, and doubling diagnostics."""

import numpy as np
import pytest

from kslab import space
from kslab.space import (
    MeasuredPointCloud,
    build_cloud,
    carpet,
    estimate_doubling,
    gasket,
    interval_grid,
    read_cloud_file,
    square_grid,
)

import oracles


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------


def test_interval_grid_basics():
    cloud = interval_grid(5)
    assert cloud.n == 5
    assert cloud.mesh == pytest.approx(0.25)
    assert cloud.total_mass == pytest.approx(1.0)
    assert cloud.diameter == pytest.approx(1.0)
    np.testing.assert_allclose(cloud.coords[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])


def test_square_grid_basics():
    cloud = square_grid(11)
    assert cloud.n == 121
    assert cloud.mesh == pytest.approx(0.1)
    assert cloud.total_mass == pytest.approx(1.0)
    assert cloud.diameter == pytest.approx(np.sqrt(2.0))


def test_gasket_vertex_counts_match_recursion():
    # The closed form 3(3^m + 1)/2 follows from N_{m+1} = 3 N_m - 3.
    for level in range(5):
        cloud = gasket(level)
        assert cloud.n == oracles.gasket_vertex_count(level)
        assert cloud.n == 3 * (3**level + 1) // 2
        assert cloud.mesh == pytest.approx(0.5**level)


def test_gasket_level1_frozen_coordinates():
    cloud = gasket(1)
    expected = np.array(
        [
            [0.0, 0.0],
            [0.5, 0.0],
            [1.0, 0.0],
            [0.25, np.sqrt(3) / 4],
            [0.75, np.sqrt(3) / 4],
            [0.5, np.sqrt(3) / 2],
        ]
    )
    np.testing.assert_allclose(cloud.coords, expected, atol=1e-15)
    assert cloud.weights == pytest.approx(np.full(6, 1 / 6))
    assert cloud.diameter == pytest.approx(1.0)


def test_gasket_edge_count():
    for level in range(4):
        _, tri, edges = space.gasket_graph(level)
        assert tri.shape[0] == 3**level
        assert edges.shape[0] == 3 ** (level + 1)


def test_carpet_counts():
    for level in range(3):
        cloud = carpet(level)
        assert cloud.n == 8**level
        assert cloud.total_mass == pytest.approx(1.0)
    assert carpet(2).mesh == pytest.approx(1 / 9)


def test_weights_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        MeasuredPointCloud([1.0, 0.0], coords=[[0.0], [1.0]])
    with pytest.raises(ValueError, match="positive"):
        MeasuredPointCloud([1.0, -2.0], coords=[[0.0], [1.0]])


def test_duplicate_points_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        MeasuredPointCloud([1.0, 1.0], coords=[[0.5], [0.5]])


def test_lattice_refuses_two_points_in_one_cell():
    # The cells decide, not the coordinates: a lattice cloud builds no tree.
    coords = [[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]]
    index = np.array([[0, 0], [0, 1], [0, 1]])
    with pytest.raises(ValueError, match="duplicate points"):
        MeasuredPointCloud(np.ones(3), coords=coords, mesh=1.0, lattice=(index, 1.0))


@pytest.mark.parametrize("kind", ["gasket", "file"])
def test_tree_refuses_duplicates(kind, tmp_path, built_trees):
    # Sorted rows refuse equal coordinates before any KD-tree is built,
    # whether or not the cloud is given its mesh.
    coords = gasket(2).coords
    coords = np.vstack([coords, coords[4:5]])
    with pytest.raises(ValueError, match="duplicate points: two share their coordinates"):
        if kind == "gasket":
            MeasuredPointCloud(np.ones(len(coords)), coords=coords, meta={"kind": "gasket"})
        else:
            lines = [f"{len(coords)} euclidean"] + [f"{x!r} {y!r} 1.0" for x, y in coords.tolist()]
            (tmp_path / "dup.txt").write_text("\n".join(lines) + "\n")
            read_cloud_file(tmp_path / "dup.txt")
    assert built_trees == []


@pytest.mark.parametrize("n_far", [0, 1])
def test_distinct_points_at_distance_zero_are_refused(n_far):
    # Rows 1e-200 apart differ, but their squared difference underflows:
    # the measured mesh refuses them, with or without a far point beside.
    coords = [[0.0, 0.0], [1e-200, 0.0], [1.0, 0.0]][: 2 + n_far]
    with pytest.raises(ValueError, match="duplicate points: two lie at distance zero"):
        MeasuredPointCloud(np.ones(len(coords)), coords=coords)


def test_coordinates_whose_distances_overflow_are_refused():
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="distances overflow"):
            MeasuredPointCloud(np.ones(2), coords=[[0.0, -1e300], [1e300, 1e300]])
    MeasuredPointCloud(np.ones(2), coords=[[0.0, 0.0], [1e150, 1e150]])


@pytest.mark.parametrize("repeat", ["plain", "signed_zero"])
def test_meshed_cloud_refuses_duplicates_without_a_tree(repeat, built_trees):
    # A cloud given its mesh finds equal coordinate rows by sorting; -0.0
    # equals 0.0 there, as it does in the tree.
    coords = gasket(2).coords
    extra = coords[4:5] if repeat == "plain" else -coords[0:1]
    assert repeat == "plain" or np.signbit(extra).all()
    coords = np.vstack([coords, extra])
    with pytest.raises(ValueError, match="duplicate points"):
        MeasuredPointCloud(np.ones(len(coords)), coords=coords, mesh=0.25)
    assert built_trees == []


@pytest.mark.parametrize("level", [5, 7])
def test_gasket_builds_its_tree_on_the_first_ball_query(level, built_trees):
    # A single ball masks its centre's canonical row and builds no tree.
    # The first ball-engine pass builds the cloud's one tree, which every
    # later pass reads; a pass also builds a small tree of its centres.
    cloud = gasket(level)
    x, r = cloud.n // 3, 5.5 * cloud.mesh
    row = cloud.distances_from(x)
    for radius in (r, 2.0 * r):
        np.testing.assert_array_equal(cloud.ball_ids(x, radius), np.flatnonzero(row < radius))
    assert built_trees == []
    for radius in (r, 2.0 * r):
        [(_, flat, _, _)] = cloud.ball_chunks(radius, np.array([x]))
        np.testing.assert_array_equal(flat, np.flatnonzero(row < radius))
        whole = [tree for tree in built_trees if tree.n == cloud.n]
        assert len(whole) == 1 and whole[0] is cloud._tree


def test_gasket_graph_is_built_once_and_read_only():
    graph = space.gasket_graph(7)
    assert space.gasket_graph(7) is graph
    for a in graph:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


@pytest.mark.parametrize(
    "build, size", [*((carpet, k) for k in range(1, 6)), *((square_grid, n) for n in (9, 41, 101))],
    ids=[*(f"carpet:{k}" for k in range(1, 6)), *(f"square_grid:{n}" for n in (9, 41, 101))],
)
def test_lattice_diameter_equals_the_hull_oracle(build, size):
    # A lattice cloud measures its diameter on the ends of its rows and
    # columns, without a hull; the value must be the hull's, bit for bit.
    cloud = build(size)
    assert cloud.diameter == oracles.hull_diameter(cloud.coords)


@pytest.mark.parametrize("dim", [2, 3], ids=["line-2d", "flat-3d"])
def test_degenerate_cloud_diameter_equals_pdist(dim):
    # Above 2048 points the diameter is read off the convex hull's vertices;
    # points in a lower-dimensional affine subspace (a line in the plane, a
    # plane in space) must give the all-pairs maximum all the same.
    from scipy.spatial.distance import pdist

    k = np.arange(2100)
    if dim == 2:
        coords = np.column_stack([np.zeros(k.size), k / 2099])
    else:
        coords = np.column_stack([k % 42 / 41, k // 42 / 49, np.full(k.size, 0.5)])
    cloud = MeasuredPointCloud(np.full(k.size, 1.0 / k.size), coords=coords)
    assert cloud.diameter == pdist(coords).max()


def test_abstract_cloud_builds_one_off_diagonal_matrix():
    # The constructor's checks and mesh share one copy of the matrix with
    # an infinite diagonal: besides the input, the peak is one n x n matrix
    # and some masks.
    import tracemalloc

    d = oracles.dist_matrix(np.random.default_rng(0).uniform(size=(400, 2)))
    tracemalloc.start()
    try:
        cloud = MeasuredPointCloud(np.ones(400), dist_matrix=d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * d.nbytes, peak / d.nbytes
    off = d + np.diag(np.full(400, np.inf))
    assert cloud.mesh == off.min(axis=1).max()


def test_distance_matrix_validation():
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    cloud = MeasuredPointCloud([1.0, 1.0], dist_matrix=good)
    assert cloud.is_abstract
    with pytest.raises(ValueError, match="symmetric"):
        MeasuredPointCloud([1.0, 1.0], dist_matrix=[[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="diagonal"):
        MeasuredPointCloud([1.0, 1.0], dist_matrix=[[0.5, 1.0], [1.0, 0.0]])


def test_triangle_inequality_spot_check():
    # d(0,2) = 10 > d(0,1) + d(1,2) = 2 violates the triangle inequality.
    bad = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="triangle"):
        MeasuredPointCloud([1.0, 1.0, 1.0], dist_matrix=bad)


# ----------------------------------------------------------------------
# balls
# ----------------------------------------------------------------------


def test_ball_membership_frozen_interval():
    cloud = interval_grid(5)
    ids = cloud.ball_ids(2, 0.3)
    np.testing.assert_array_equal(ids, [1, 2, 3])
    assert cloud.weights[ids].sum() == pytest.approx(0.6)


def test_ball_is_open():
    cloud = interval_grid(5)
    ids = cloud.ball_ids(0, 0.25)  # point at exactly r is excluded
    np.testing.assert_array_equal(ids, [0])


@pytest.mark.parametrize("abstract", [False, True])
@pytest.mark.parametrize("bad", [-1, 5])
def test_out_of_range_centre_ids_are_refused(abstract, bad):
    grid = interval_grid(5)
    if abstract:
        cloud = MeasuredPointCloud(grid.weights, dist_matrix=oracles.dist_matrix(grid.coords))
    else:
        cloud = grid
    queries = [
        lambda: cloud.ball_ids(bad, 0.3),
        lambda: cloud.distances_from(bad),
        lambda: cloud.pair_distances([bad], [0]),
        lambda: cloud.pair_distances([0], [bad]),
        lambda: next(cloud.ball_chunks(0.3, centers=[0, bad])),
    ]
    for query in queries:
        with pytest.raises(ValueError, match=f"id {bad} out of range"):
            query()


@pytest.mark.parametrize("abstract", [False, True])
def test_pair_distances_refuse_unequal_lengths(abstract):
    grid = interval_grid(11)
    if abstract:
        cloud = MeasuredPointCloud(grid.weights, dist_matrix=oracles.dist_matrix(grid.coords))
    else:
        cloud = grid
    with pytest.raises(ValueError, match="unequal shapes"):
        cloud.pair_distances([0, 1], [2])
    np.testing.assert_array_equal(cloud.pair_distances([0, 1], [2, 2]), [0.2, 0.1])


@pytest.mark.parametrize("abstract", [False, True])
@pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan"), float("inf")])
def test_radii_that_are_not_finite_and_positive_are_refused(abstract, bad):
    grid = interval_grid(11)
    if abstract:
        cloud = MeasuredPointCloud(grid.weights, dist_matrix=oracles.dist_matrix(grid.coords))
    else:
        cloud = grid
    queries = [
        lambda: cloud.ball_ids(3, bad),
        lambda: next(cloud.ball_chunks(bad)),
        lambda: next(cloud.nested_ball_chunks([0.3, bad])),
    ]
    for query in queries:
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            query()


def test_ball_matches_brute_force_scan():
    rng = np.random.default_rng(5)
    coords = rng.uniform(size=(180, 2))
    cloud = MeasuredPointCloud(rng.uniform(0.5, 1.5, size=180), coords=coords)
    for x in [0, 17, 99, 179]:
        for r in [0.05, 0.21, 0.6, 1.4]:
            got = cloud.ball_ids(x, r)
            np.testing.assert_array_equal(got, oracles.brute_ball_ids(coords, x, r))


def test_ball_chunks_agree_with_single_queries(monkeypatch):
    monkeypatch.setattr(space, "FLAT_BUDGET", 400)
    rng = np.random.default_rng(11)
    coords = rng.uniform(size=(150, 2))
    cloud = MeasuredPointCloud(np.full(150, 1.0), coords=coords)
    r = 0.3
    seen = {}
    for sub, flat, counts, d in cloud.ball_chunks(r):
        pos = 0
        for c, k in zip(sub, counts):
            ids = seen[int(c)] = flat[pos : pos + k]
            # Each member comes with its canonical distance to the centre.
            np.testing.assert_array_equal(d[pos : pos + k], cloud.distances_from(c)[ids])
            pos += k
    assert len(seen) == 150
    for x in range(150):
        np.testing.assert_array_equal(np.sort(seen[x]), cloud.ball_ids(x, r))
        # Members come in ascending id order, not just as the same set.
        assert np.all(np.diff(seen[x]) > 0)


def _balls_by_center(chunks):
    """Map each centre to its member ids from a ball pass."""
    out = {}
    for sub, flat, counts, *_ in chunks:
        ends = np.cumsum(counts)
        for c, lo, hi in zip(sub.tolist(), ends - counts, ends):
            out[c] = flat[lo:hi]
    return out


def test_ball_chunks_blocks_respect_budget(monkeypatch):
    # The corner cell's ball is about a quarter of an interior ball, so
    # sizing every block from the first centre overshoots the budget.
    cloud = carpet(3)
    budget = 5_000
    monkeypatch.setattr(space, "FLAT_BUDGET", budget)
    sizes = []
    for sub, flat, counts, d in cloud.ball_chunks(0.3):
        assert flat.size <= budget or sub.size == 1
        assert d.size == flat.size
        sizes.append(sub.size)
    assert sum(sizes) == cloud.n
    # A ball larger than the budget gets a block of its own.
    monkeypatch.setattr(space, "FLAT_BUDGET", 10)
    for sub, flat, counts, d in cloud.ball_chunks(0.3):
        assert sub.size == 1


@pytest.mark.parametrize(
    "k",
    [2, 3, 5, pytest.param(np.sqrt(50.0), id="sqrt50"), pytest.param(np.sqrt(65.0), id="sqrt65")],
)
def test_ball_filter_is_canonical_on_lattice_distances(k, monkeypatch):
    # Radii equal to lattice distances put many points on the sphere, where
    # only the canonical formula decides membership: in the ball engine and
    # in the lattice stencil of the increment sums alike.
    from kslab.energy import _increment_table

    cloud = square_grid(15)
    r = k * cloud.mesh
    want = {x: np.flatnonzero(cloud.distances_from(x) < r) for x in range(cloud.n)}
    monkeypatch.setattr(space, "FLAT_BUDGET", 300)
    single = _balls_by_center(cloud.ball_chunks(r))
    nested = {}
    for sub, members in cloud.nested_ball_chunks([1.5 * r, r]):
        nested.update(_balls_by_center([(sub, *members[1])]))
    for x, ids in want.items():
        np.testing.assert_array_equal(single[x], ids)
        np.testing.assert_array_equal(nested[x], ids)
    v = np.sin(5.0 * cloud.coords[:, 0]) + cloud.coords[:, 1]
    for p in (1, 2):
        got = _increment_table(cloud, v[None, :], [r], [p])[0, 0]
        oracle = oracles.fsum_increment_rows(cloud.coords, cloud.weights, v, r, p, range(cloud.n))
        np.testing.assert_allclose(got, oracle, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "interval_grid", "n": 41},
        {"kind": "square_grid", "n": 9},
        {"kind": "carpet", "level": 2},
    ],
    ids=["interval_grid:41", "square_grid:9", "carpet:2"],
)
def test_grid_builders_record_their_lattice(spec):
    cloud = space.build_cloud(spec)
    lat = cloud.lattice
    assert lat.step == pytest.approx(cloud.mesh)
    index = lat.index[:, -cloud.dim :]  # an interval uses row 0 only
    offsets = (index - index[0]) * lat.step
    np.testing.assert_allclose(cloud.coords - cloud.coords[0], offsets, atol=1e-15)
    # Ids run in row-major lattice order.
    assert np.all(np.diff(lat.index[:, 0] * lat.shape[1] + lat.index[:, 1]) > 0)


@pytest.mark.parametrize("kind", ["interval", "square", "carpet"])
def test_lattice_balls_equal_a_canonical_scan(kind, tiny_blocks):
    # Grid clouds take their ball candidates from lattice offsets, not from
    # the tree: ids, counts and distances must still be those of a scan of
    # every point by the canonical distance, byte for byte.
    cloud = {"interval": interval_grid(301), "square": square_grid(31), "carpet": carpet(3)}[kind]
    h = cloud.lattice.step
    centers = np.random.default_rng(4).permutation(cloud.n)[:60]
    centers = np.concatenate([centers, centers[:3]])  # repeats, out of order
    # 5 h = |(3, 4)| h and sqrt(50) h = |(5, 5)| h = |(1, 7)| h put whole
    # rings of points on the sphere.
    for r in [3.5 * h, 5.0 * h, np.sqrt(50.0) * h, 0.3]:
        rows = [cloud.distances_from(int(c)) for c in centers]
        want_ids = [np.flatnonzero(d < r) for d in rows]
        want = (
            np.concatenate(want_ids),
            np.array([ids.size for ids in want_ids]),
            np.concatenate([d[ids] for d, ids in zip(rows, want_ids)]),
        )
        chunks = list(cloud.ball_chunks(r, centers))
        assert len(chunks) > 1  # the tiny blocks split the centres
        assert np.concatenate([sub for sub, *_ in chunks]).tolist() == centers.tolist()
        for got, expected in zip(zip(*[rest for _, *rest in chunks]), want):
            got = np.concatenate(got)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), r
        for c, ids in zip(centers, want_ids):
            got = cloud.ball_ids(int(c), r)
            assert got.dtype == ids.dtype and got.tobytes() == ids.tobytes(), (c, r)


def test_other_clouds_have_no_lattice():
    assert space.gasket(3).lattice is None
    coords = np.random.default_rng(0).uniform(size=(20, 2))
    assert MeasuredPointCloud(np.ones(20), coords=coords).lattice is None


def test_ball_chunks_repeated_and_unordered_centers(monkeypatch):
    monkeypatch.setattr(space, "FLAT_BUDGET", 60)
    cloud = square_grid(15)
    centers = np.array([40, 3, 40, 200, 3])
    got = list(cloud.ball_chunks(0.2, centers=centers))
    assert np.concatenate([sub for sub, *_ in got]).tolist() == centers.tolist()
    flat = np.concatenate([f for _, f, _, _ in got])
    counts = np.concatenate([c for _, _, c, _ in got])
    want = [cloud.ball_ids(int(c), 0.2) for c in centers]
    assert counts.tolist() == [w.size for w in want]
    np.testing.assert_array_equal(flat, np.concatenate(want))


@pytest.mark.parametrize("abstract", [False, True])
def test_nested_pass_equals_separate_passes(abstract, tiny_blocks):
    rng = np.random.default_rng(8)
    coords = rng.uniform(size=(160, 2))
    if abstract:
        cloud = MeasuredPointCloud(np.ones(160), dist_matrix=oracles.dist_matrix(coords))
    else:
        cloud = MeasuredPointCloud(np.ones(160), coords=coords)
    radii = [0.2, 0.45, 0.1, 0.45]
    nested = {}
    for sub, members in cloud.nested_ball_chunks(radii):
        for k, (flat, counts) in enumerate(members):
            nested.setdefault(k, []).append((sub, flat, counts))
    for k, r in enumerate(radii):
        single = _balls_by_center(cloud.ball_chunks(r))
        multi = _balls_by_center(nested[k])
        assert multi.keys() == single.keys()
        for c in single:
            np.testing.assert_array_equal(multi[c], single[c])


def test_segment_sums_zero_length_segments():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    counts = np.array([0, 2, 0, 0, 2, 0])
    np.testing.assert_array_equal(space.segment_sums(values, counts), [0, 3, 0, 0, 7, 0])
    np.testing.assert_array_equal(space.segment_sums(np.empty(0), np.zeros(3, int)), [0, 0, 0])
    np.testing.assert_array_equal(
        space.segment_max(values, counts), [-np.inf, 2, -np.inf, -np.inf, 4, -np.inf]
    )


def test_segment_sums_match_fsum_and_ignore_neighbours():
    import math

    rng = np.random.default_rng(4)
    counts = rng.integers(0, 400, size=60)
    values = rng.uniform(size=counts.sum()) * 10.0 ** rng.uniform(-6, 6, size=counts.sum())
    got = space.segment_sums(values, counts)
    ends = np.cumsum(counts)
    for k, (lo, hi) in enumerate(zip(ends - counts, ends)):
        want = math.fsum(values[lo:hi])
        assert abs(got[k] - want) <= 1e-14 * abs(want)
        # The same segment alone gives the same bits.
        assert space.segment_sums(values[lo:hi], counts[k : k + 1])[0] == got[k]


def test_ball_monotone_in_radius():
    cloud = square_grid(21)
    rng = np.random.default_rng(3)
    for x in rng.integers(0, cloud.n, size=10):
        small = set(cloud.ball_ids(int(x), 0.1).tolist())
        big = set(cloud.ball_ids(int(x), 0.25).tolist())
        assert small <= big


def test_abstract_mode_matches_euclidean():
    rng = np.random.default_rng(7)
    coords = rng.uniform(size=(60, 2))
    w = rng.uniform(0.5, 2.0, size=60)
    dmat = oracles.dist_matrix(coords)
    eu = MeasuredPointCloud(w, coords=coords)
    ab = MeasuredPointCloud(w, dist_matrix=dmat)
    assert ab.mesh == pytest.approx(eu.mesh, rel=1e-12)
    for x in [0, 30, 59]:
        for r in [0.2, 0.5]:
            np.testing.assert_array_equal(eu.ball_ids(x, r), ab.ball_ids(x, r))


def test_admissibility_floor():
    cloud = interval_grid(101)  # h = 0.01
    with pytest.raises(ValueError, match="admissibility"):
        cloud.require_admissible(0.02)
    cloud.require_admissible(0.03)


# ----------------------------------------------------------------------
# doubling
# ----------------------------------------------------------------------


def test_doubling_ratio_against_oracle():
    cloud = interval_grid(201)
    dmat = oracles.dist_matrix(cloud.coords)
    prof = estimate_doubling(cloud, n_samples=20, scales=[0.05, 0.1], seed=0)
    for c, r, ratio in zip(prof.centers, prof.radii, prof.ratios):
        assert ratio == pytest.approx(
            oracles.brute_doubling_ratio(dmat, cloud.weights, int(c), float(r))
        )


def test_interval_doubling_constant():
    # 1D Lebesgue: the doubling constant is 2 up to lattice wobble.  Scales
    # sit mid-lattice (fractional r/h) so no ball boundary can float-tie onto
    # a grid point; the counting ratio is then provably below 2.
    cloud = interval_grid(2001)
    prof = estimate_doubling(
        cloud, n_samples=60, scales=[0.0052, 0.0107, 0.0212, 0.0521, 0.1042], seed=1
    )
    assert prof.c_d <= 2.1
    assert np.all(prof.ratios >= 1.0)


def test_interval_doubling_exponent():
    cloud = interval_grid(1001)
    prof = estimate_doubling(cloud, n_samples=40, scales=[0.01, 0.02, 0.05, 0.1], seed=2)
    assert 0.9 <= prof.q_fit <= 1.1
    assert prof.c_low > 0


def test_square_doubling_exponent_and_constant():
    cloud = square_grid(101)  # h = 0.01, n = 10201
    prof = estimate_doubling(
        cloud, n_samples=40, scales=[0.1, 0.2], seed=3, interior_only=True
    )
    assert 1.8 <= prof.q_fit <= 2.2
    assert prof.c_d <= 4.4


def test_inadmissible_scales_raise():
    cloud = interval_grid(11)  # h = 0.1, floor = 0.3
    with pytest.raises(ValueError, match="admissible"):
        estimate_doubling(cloud, n_samples=5, scales=[0.01, 0.05], seed=0)


def test_scales_beyond_half_diameter_dropped():
    cloud = interval_grid(101)
    prof = estimate_doubling(cloud, n_samples=10, scales=[0.1, 0.4, 0.9], seed=4)
    assert prof.radii.max() <= cloud.diameter / 2
    assert sorted(set(prof.radii.tolist())) == [0.1, 0.4]


def test_mass_bounds_report():
    cloud = interval_grid(501)
    prof = estimate_doubling(cloud, n_samples=30, scales=[0.05, 0.1, 0.2], seed=5)
    # c_low is the largest constant with mu(B(x, r)) >= c_low r^q_fit on
    # the samples.
    assert prof.c_low > 0.0
    assert prof.c_low == float(np.min(prof.mass_r / prof.radii**prof.q_fit))
    assert np.all(prof.mass_r >= prof.c_low * prof.radii**prof.q_fit)


def test_doubling_deterministic_under_seed():
    cloud = interval_grid(301)
    a = estimate_doubling(cloud, n_samples=15, scales=[0.05, 0.1], seed=9)
    b = estimate_doubling(cloud, n_samples=15, scales=[0.05, 0.1], seed=9)
    np.testing.assert_array_equal(a.centers, b.centers)
    np.testing.assert_array_equal(a.ratios, b.ratios)
    assert a.c_d == b.c_d


# ----------------------------------------------------------------------
# import / export
# ----------------------------------------------------------------------


def test_cloud_file_roundtrip_euclidean(tmp_path):
    path = tmp_path / "cloud.txt"
    path.write_text(
        "3 euclidean\n"
        "0.0 0.0 1.0\n"
        "1.0 0.0 1.0\n"
        "0.0 1.0 2.0\n"
    )
    cloud = read_cloud_file(path)
    assert cloud.n == 3
    assert cloud.weights[2] == pytest.approx(2.0)
    assert cloud.pair_distances([0], [1])[0] == pytest.approx(1.0)


def test_cloud_file_abstract(tmp_path):
    path = tmp_path / "cloud.txt"
    path.write_text(
        "3 abstract\n"
        "0.0 1.0 2.0 1.0\n"
        "1.0 0.0 1.0 1.0\n"
        "2.0 1.0 0.0 1.0\n"
    )
    cloud = read_cloud_file(path)
    assert cloud.is_abstract
    assert cloud.pair_distances([0], [2])[0] == pytest.approx(2.0)


def test_cloud_file_rejects_asymmetry(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "2 abstract\n"
        "0.0 1.0 1.0\n"
        "2.0 0.0 1.0\n"
    )
    with pytest.raises(ValueError, match="symmetric"):
        read_cloud_file(path)


def test_cloud_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 sideways\n0 1\n1 1\n")
    with pytest.raises(ValueError, match="mode"):
        read_cloud_file(path)
    with pytest.raises(ValueError, match="read"):
        read_cloud_file(tmp_path / "missing.txt")


def test_build_cloud_descriptors():
    assert build_cloud({"kind": "interval_grid", "n": 11}).n == 11
    assert build_cloud({"kind": "gasket", "level": 2}).n == 15
    with pytest.raises(ValueError, match="kind"):
        build_cloud({"kind": "klein_bottle"})
    with pytest.raises(ValueError, match="space kind 'gasket' needs key 'level'"):
        build_cloud({"kind": "gasket"})
