"""Partitions of unity and their nets, mollifier bounds, cutoff energies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab.energy import ScalarField, _increment_table, make_scale_grid
from kslab.smoothing import (
    check_controlled_cutoff,
    discrete_lip,
    mollifier_ladder,
    mollify,
    partition_of_unity,
)
from kslab.space import MeasuredPointCloud, gasket, interval_grid, segment_sums, square_grid

import oracles


# ----------------------------------------------------------------------
# nets
# ----------------------------------------------------------------------


def test_net_single_center_when_epsilon_exceeds_diameter():
    cloud = interval_grid(51)
    pou = partition_of_unity(cloud, 1.5)
    assert pou.n_centers == 1
    assert pou.center_ids[0] == 0


def test_net_interval_hand_count():
    # Greedy from id 0 on h=0.01 lands centers every 0.1 (open balls leave
    # the point at exactly 0.1 uncovered), giving 11 centers.
    cloud = interval_grid(101)
    pou = partition_of_unity(cloud, 0.1)
    assert 10 <= pou.n_centers <= 11
    # Centers march in steps of ~0.1; ties at exactly 0.1 fall either way
    # depending on float rounding, so only the spacing is pinned.
    gaps = np.diff(cloud.coords[pou.center_ids, 0])
    assert gaps.min() >= 0.1
    assert gaps.max() <= 0.11 + 1e-12


def test_net_matches_brute_force_greedy():
    rng = np.random.default_rng(7)
    coords = rng.uniform(size=(150, 2))
    cloud = MeasuredPointCloud(np.full(150, 1 / 150), coords=coords)
    dmat = oracles.dist_matrix(coords)
    eps = 0.25
    centers = partition_of_unity(cloud, eps).center_ids
    assert centers.tolist() == oracles.brute_greedy_net(dmat, eps)
    # Pairwise separation and covering, from the raw distance matrix.
    sub = dmat[np.ix_(centers, centers)]
    off = sub[~np.eye(centers.size, dtype=bool)]
    assert off.min() >= eps
    assert (dmat[centers] < eps).any(axis=0).all()


def test_net_refuses_unresolvable_epsilon():
    cloud = interval_grid(101)
    with pytest.raises(ValueError, match="covering floor"):
        partition_of_unity(cloud, 0.015)
    for eps in (0.0, -0.1, np.inf, np.nan):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            partition_of_unity(cloud, eps)


def test_partition_refuses_a_scan_that_does_not_cover(monkeypatch):
    # The cover is re-checked, not trusted: a scan whose balls come back
    # empty covers nothing.
    cloud = interval_grid(101)
    monkeypatch.setattr(MeasuredPointCloud, "ball_ids", lambda self, x, r: np.empty(0, np.intp))
    with pytest.raises(RuntimeError, match="do not cover"):
        partition_of_unity(cloud, 0.1)


# ----------------------------------------------------------------------
# partitions of unity
# ----------------------------------------------------------------------


def test_partition_sums_to_one_and_stays_in_range():
    cloud = interval_grid(201)
    pou = partition_of_unity(cloud, 0.07)
    phi = oracles.dense_partition(pou)
    col = phi.sum(axis=0)
    np.testing.assert_allclose(col, 1.0, atol=1e-12)
    assert phi.min() >= 0.0
    assert phi.max() <= 1.0


def test_partition_supported_in_dilated_balls():
    cloud = interval_grid(201)
    pou = partition_of_unity(cloud, 0.07)
    phi = oracles.dense_partition(pou)
    for i, c in enumerate(pou.center_ids):
        d = cloud.distances_from(int(c))
        assert np.all(phi[i][d >= 2 * pou.epsilon] == 0.0)
        assert np.all(phi[i][d < pou.epsilon * 1e-9] > 0.0)


def test_partition_single_center_is_constant_one():
    cloud = interval_grid(51)
    pou = partition_of_unity(cloud, 2.0)
    np.testing.assert_allclose(oracles.dense_partition(pou), 1.0)


def test_partition_slope_bounded_interval():
    # Tent kernels slope at 1/eps; normalization against at most a handful
    # of overlapping bumps keeps the quotient under 4/eps in 1D.
    cloud = interval_grid(101)
    eps = 0.1
    pou = partition_of_unity(cloud, eps)
    worst = max(lip.values.max() for lip in discrete_lip(pou.fields(), eps))
    assert worst * eps <= 4.0 + 1e-12


def _line_matrix_cloud(n):
    """The interval grid as a distance-matrix cloud."""
    x = np.linspace(0.0, 1.0, n)
    return MeasuredPointCloud(np.full(n, 1.0 / n), dist_matrix=np.abs(np.subtract.outer(x, x)))


@pytest.mark.parametrize(
    "cloud, eps",
    [(interval_grid(801), 0.1), (gasket(5), 0.125), (_line_matrix_cloud(60), 0.1)],
)
def test_partition_ball_masses_equal_an_epsilon_pass(cloud, eps):
    # The eps-balls and their masses come from the partition's 2 eps pass,
    # not a pass of their own, and still equal a pass at eps bit for bit.
    pou = partition_of_unity(cloud, eps)
    chunks = list(cloud.ball_chunks(eps, centers=pou.center_ids))
    masses = np.concatenate([segment_sums(cloud.weights[flat], counts) for _, flat, counts, _ in chunks])
    assert np.array_equal(pou.ball_masses, masses)
    assert np.array_equal(pou.ball_members, np.concatenate([flat for _, flat, _, _ in chunks]))
    assert np.array_equal(pou.ball_counts, np.concatenate([counts for _, _, counts, _ in chunks]))


def test_partition_matches_brute_force():
    rng = np.random.default_rng(11)
    coords = rng.uniform(size=(80, 1))
    cloud = MeasuredPointCloud(rng.uniform(0.5, 1.5, size=80), coords=coords)
    eps = max(0.2, 2.5 * cloud.mesh)
    pou = partition_of_unity(cloud, eps)
    dmat = oracles.dist_matrix(coords)
    want = oracles.brute_partition(dmat, pou.center_ids.tolist(), eps)
    np.testing.assert_allclose(oracles.dense_partition(pou), want, atol=1e-13)


# ----------------------------------------------------------------------
# mollifier
# ----------------------------------------------------------------------


def test_mollify_fixes_constants():
    cloud = interval_grid(301)
    pou = partition_of_unity(cloud, 0.05)
    f = ScalarField.constant(cloud, -2.25)
    out = mollify(f, pou)
    np.testing.assert_allclose(out.values, -2.25, atol=1e-13)


def test_mollify_identity_error_small():
    cloud = interval_grid(2001)
    pou = partition_of_unity(cloud, 0.05)
    f = ScalarField.coordinate(cloud)
    err = mollify(f, pou).values - f.values
    l2 = np.sqrt(np.sum(cloud.weights * err**2))
    assert l2 <= 0.05


def _tree_cloud():
    rng = np.random.default_rng(3)
    return MeasuredPointCloud(rng.uniform(0.5, 2.0, size=90), coords=rng.uniform(size=(90, 2)))


@pytest.mark.parametrize("blocks", ["default", "tiny"])
@pytest.mark.parametrize(
    "make, eps",
    [(lambda: square_grid(13), 0.2), (_tree_cloud, 0.3), (lambda: _line_matrix_cloud(60), 0.1)],
    ids=["lattice", "tree", "matrix"],
)
def test_mollify_matches_brute_force(make, eps, blocks, request):
    # Tiny blocks spread the stored eps-balls over many engine blocks.
    if blocks == "tiny":
        request.getfixturevalue("tiny_blocks")
    cloud = make()
    pou = partition_of_unity(cloud, eps)
    vals = np.random.default_rng(5).normal(size=cloud.n)
    got = mollify(ScalarField(cloud, vals), pou).values
    if cloud.coords is None:
        dmat = np.stack([cloud.distances_from(i) for i in range(cloud.n)])
    else:
        dmat = oracles.dist_matrix(cloud.coords)
    want = oracles.brute_mollify(dmat, cloud.weights, vals, pou.center_ids.tolist(), eps)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_partition_makes_one_pass_and_mollify_none(pass_radii):
    # The partition's one pass is at 2 eps; mollify reads the eps-balls it
    # kept.
    cloud = interval_grid(401)
    pou = partition_of_unity(cloud, 0.1)
    assert pass_radii == [0.2]
    mollify(ScalarField.coordinate(cloud), pou)
    assert pass_radii == [0.2]


def test_mollify_flattens_spike():
    cloud = interval_grid(101)
    eps = 0.1
    pou = partition_of_unity(cloud, eps)
    vals = np.zeros(cloud.n)
    vals[50] = 1.0
    out = mollify(ScalarField(cloud, vals), pou)
    # The spike carries mass 1/101; any ball average dilutes it by the ball
    # mass, so the smoothed sup-norm cannot exceed the worst mass fraction.
    masses = np.array(
        [cloud.weights[cloud.ball_ids(int(c), eps)].sum() for c in pou.center_ids]
    )
    assert out.values.max() <= (1.0 / 101.0) / masses.min() + 1e-15
    assert out.values.max() < 1.0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    scale=st.floats(0.1, 50.0),
    shift=st.floats(-5.0, 5.0),
)
def test_mollify_contracts_range_and_is_affine(seed, scale, shift):
    cloud = interval_grid(101)
    pou = partition_of_unity(cloud, 0.08)
    vals = np.random.default_rng(seed).normal(size=cloud.n)
    f = ScalarField(cloud, vals)
    out = mollify(f, pou)
    assert out.values.min() >= vals.min() - 1e-12
    assert out.values.max() <= vals.max() + 1e-12
    # Affine equivariance pins down linearity plus the constant fixed point.
    g = ScalarField(cloud, scale * vals + shift)
    np.testing.assert_allclose(
        mollify(g, pou).values, scale * out.values + shift, atol=1e-10
    )


def test_mollify_error_decreases_with_epsilon():
    cloud = interval_grid(2001)
    f = ScalarField.from_function(cloud, lambda c: np.abs(c[:, 0] - 0.4))
    errs = []
    for eps in [0.08, 0.04, 0.02]:
        pou = partition_of_unity(cloud, eps)
        diff = mollify(f, pou).values - f.values
        errs.append(np.sqrt(np.sum(cloud.weights * diff**2)))
    assert errs[1] <= errs[0] * 1.05
    assert errs[2] <= errs[1] * 1.05


# ----------------------------------------------------------------------
# discrete Lipschitz slope
# ----------------------------------------------------------------------


def test_lip_constant_vanishes():
    cloud = interval_grid(101)
    lip = discrete_lip(ScalarField.constant(cloud, 5.0), 0.05)
    assert np.all(lip.values == 0.0)


def test_lip_identity_is_one():
    cloud = interval_grid(101)
    lip = discrete_lip(ScalarField.coordinate(cloud), 0.05)
    np.testing.assert_allclose(lip.values, 1.0, atol=1e-12)


def test_lip_quadratic_tracks_derivative():
    cloud = interval_grid(2001)
    f = ScalarField.from_function(cloud, lambda c: c[:, 0] ** 2)
    lip = discrete_lip(f, 0.01)
    x = cloud.coords[:, 0]
    interior = (x > 0.05) & (x < 0.95)
    # max_y |x^2-y^2|/|x-y| = max |x+y| <= 2x + r_loc on the interior.
    np.testing.assert_allclose(
        lip.values[interior], 2 * x[interior], atol=1.01e-2
    )


@pytest.mark.parametrize("make", [lambda: interval_grid(301), lambda: gasket(4)])
def test_lip_of_many_fields_shares_one_pass(make, pass_radii):
    cloud = make()
    fields = [
        ScalarField.coordinate(cloud),
        ScalarField.from_function(cloud, lambda c: np.sin(7.0 * c[:, 0])),
        ScalarField.constant(cloud, 2.0),
    ]
    r = 2.0 * cloud.floor
    slopes = discrete_lip(fields, r)
    assert pass_radii == [r]
    assert isinstance(slopes, list) and len(slopes) == len(fields)
    for f, lip in zip(fields, slopes):
        np.testing.assert_array_equal(lip.values, discrete_lip(f, r).values)


def test_slope_constant_is_the_largest_bump_slope(pass_radii):
    # The partition's slope constant: the largest bump slope, in units of
    # 1/eps, with every bump read from one ball pass at eps.
    cloud = interval_grid(401)
    pou = partition_of_unity(cloud, 0.1)
    before = len(pass_radii)
    got = max(lip.values.max() for lip in discrete_lip(pou.fields(), 0.1))
    assert pass_radii[before:] == [0.1]
    worst = max(discrete_lip(f, 0.1).values.max() for f in pou.fields())
    assert got == worst


def test_lip_refuses_lonely_balls():
    coords = np.array([[0.0], [1.0], [50.0]])
    cloud = MeasuredPointCloud(np.ones(3) / 3, coords=coords, mesh=0.5)
    with pytest.raises(ValueError, match="no neighbours"):
        discrete_lip(ScalarField.coordinate(cloud), 2.0)


# ----------------------------------------------------------------------
# mollifier estimates
# ----------------------------------------------------------------------


def _one_rung(f, eps, d_w=2.0):
    """The mollifier report of ``f`` on a one-rung ladder at ``eps``."""
    return mollifier_ladder(f, [partition_of_unity(f.cloud, eps)], d_w=d_w)[0]


def _first_moment(f, r):
    """Per-point avg_{B(x,r)} |f(x) - f(y)| dmu(y): the p = 1 row the ladder reads."""
    return _increment_table(f.cloud, f.values[None], [r], [1])[0, 0] / f.cloud.weights


def test_estimates_zero_for_constants():
    cloud = interval_grid(501)
    rep = _one_rung(ScalarField.constant(cloud, 1.0), 0.05)
    assert rep.lip_bound_ratio == 0.0
    assert rep.l2_bound_ratio == 0.0


@pytest.mark.parametrize(
    "make_field", [lambda c: ScalarField.constant(c, 1.0), ScalarField.coordinate],
    ids=["constant", "varying"],
)
@pytest.mark.parametrize(
    "foreign, d_w, match",
    [(True, 2.0, "partition's cloud"), (False, 1.0, "at least 2")],
    ids=["foreign_partition", "d_w_1"],
)
def test_mollifier_ladder_checks_constant_fields_too(make_field, foreign, d_w, match):
    # A constant field has all-zero reports, but only after the checks that
    # a varying field meets.
    cloud = interval_grid(401)
    pou = partition_of_unity(interval_grid(201) if foreign else cloud, 0.05)
    with pytest.raises(ValueError, match=match):
        mollifier_ladder(make_field(cloud), [pou], d_w=d_w)


def test_estimates_identity_stable_across_epsilon():
    cloud = interval_grid(2001)
    f = ScalarField.coordinate(cloud)
    r1, r2 = mollifier_ladder(f, [partition_of_unity(cloud, e) for e in (0.05, 0.025)])
    assert r1.lip_bound_ratio > 0.0
    ratio = r1.lip_bound_ratio / r2.lip_bound_ratio
    assert 0.5 <= ratio <= 2.0


def test_estimates_sine_l2_bounded():
    cloud = interval_grid(2001)
    f = ScalarField.from_function(cloud, lambda c: np.sin(np.pi * c[:, 0]))
    pous = [partition_of_unity(cloud, eps) for eps in [0.05, 0.025]]
    for rep in mollifier_ladder(f, pous):
        assert 0.0 < rep.l2_bound_ratio <= 10.0


def test_ball_mean_deviation_matches_direct():
    cloud = interval_grid(101)
    f = ScalarField.from_function(cloud, lambda c: np.cos(3 * c[:, 0]))
    r = 0.1
    dev = _first_moment(f, r)
    dmat = oracles.dist_matrix(cloud.coords)
    x = 47
    members = np.flatnonzero(dmat[x] < r)
    w = cloud.weights[members]
    want = np.dot(w, np.abs(f.values[x] - f.values[members])) / w.sum()
    assert dev[x] == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------------
# controlled cutoff
# ----------------------------------------------------------------------


def test_cutoff_single_center_is_zero():
    cloud = interval_grid(101)
    pou = partition_of_unity(cloud, 2.0)
    rep = check_controlled_cutoff(pou, d_w=2.0)
    assert rep.worst == 0.0


def test_cutoff_stable_across_epsilon_interval():
    cloud = interval_grid(2001)
    worsts = []
    for eps in [0.1, 0.05]:
        pou = partition_of_unity(cloud, eps)
        worsts.append(check_controlled_cutoff(pou, d_w=2.0).worst)
    assert all(w > 0 for w in worsts)
    big, small = max(worsts), min(worsts)
    assert big <= 4.0 * small


def test_cutoff_stable_across_epsilon_gasket():
    cloud = gasket(6)
    d_w = np.log(5) / np.log(2)  # nominal walk exponent for this geometry
    worsts = []
    for eps in [2.0**-3, 2.0**-4]:
        pou = partition_of_unity(cloud, eps)
        worsts.append(check_controlled_cutoff(pou, d_w=d_w).worst)
    assert all(np.isfinite(w) and w > 0 for w in worsts)
    assert max(worsts) <= 4.0 * min(worsts)


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------


def test_net_and_partition_exports():
    cloud = interval_grid(101)
    pou = partition_of_unity(cloud, 0.1)
    assert pou.n_centers == pou.center_ids.size > 0
    assert oracles.dense_partition(pou).shape == (pou.n_centers, cloud.n)
    assert pou.bump_counts.shape == pou.ball_counts.shape == pou.ball_masses.shape == (pou.n_centers,)
    assert pou.bump_members.size == pou.bump_values.size == pou.bump_counts.sum()
    assert np.all(pou.bump_values >= 0.0) and np.any(pou.bump_values > 0.0)


# ----------------------------------------------------------------------
# shared ball passes
# ----------------------------------------------------------------------


def _cutoff_reference(pou, d_w):
    """Per-centre cutoff quotients from one pass per scale over the whole grid."""
    from kslab.energy import ks_energies
    from kslab.space import segment_sums

    cloud = pou.cloud
    eps = pou.epsilon
    grid = make_scale_grid(cloud)
    energies = np.stack(
        [ks_energies(pou.fields(), [float(r)], d_w=d_w)[0] for r in grid.scales]
    )
    limsups = energies[np.isin(grid.scales, grid.window())].max(axis=0)
    masses = np.concatenate(
        [
            segment_sums(cloud.weights[flat], counts)
            for _, flat, counts, _ in cloud.ball_chunks(eps, centers=pou.center_ids)
        ]
    )
    return limsups * eps**d_w / masses


def test_cutoff_reads_only_the_window(pass_radii):
    cloud = interval_grid(801)
    pou = partition_of_unity(cloud, 0.1)
    rep = check_controlled_cutoff(pou, d_w=2.0)
    grid = make_scale_grid(cloud)
    # The partition's 2 eps pass (which also sums the bump masses), then
    # one pass at the largest window scale.
    assert pass_radii == [2.0 * 0.1, float(grid.window().max())]
    np.testing.assert_array_equal(rep.scales, grid.scales)
    np.testing.assert_array_equal(rep.per_center, _cutoff_reference(pou, 2.0))


def _smoothing_results():
    cloud = gasket(5)
    d_w = np.log(5) / np.log(2)
    pou = partition_of_unity(cloud, 0.125)
    f = ScalarField.from_function(cloud, lambda c: np.sin(3.0 * c[:, 0]) + c[:, 1])
    return (
        check_controlled_cutoff(pou, d_w=d_w).per_center,
        _one_rung(f, 0.125, d_w=d_w),
        _first_moment(f, 0.2),
        mollify(f, pou).values,
    )


@pytest.fixture(scope="module")
def smoothing_defaults():
    return _smoothing_results()


def test_cutoff_and_mollifier_do_not_depend_on_block_size(smoothing_defaults, tiny_blocks):
    cutoff, moll, dev, smoothed = _smoothing_results()
    np.testing.assert_array_equal(cutoff, smoothing_defaults[0])
    assert moll == smoothing_defaults[1]
    np.testing.assert_array_equal(dev, smoothing_defaults[2])
    np.testing.assert_array_equal(smoothed, smoothing_defaults[3])


def test_mollifier_ladder_equals_single_epsilon_calls(pass_radii):
    cloud = interval_grid(1001)
    f = ScalarField.from_function(cloud, lambda c: np.sin(np.pi * c[:, 0]))
    ladder = [0.2, 0.1, 0.05]
    pous = [partition_of_unity(cloud, eps) for eps in ladder]
    reports = mollifier_ladder(f, pous)
    # The 2 eps partition pass of every rung (mollify reads its balls), then
    # 2 eps and 6 eps of every rung share a single stencil sweep, except
    # 6 * 0.2, which exceeds the diameter and takes the whole-cloud route;
    # then one slope pass at kappa * h serves every rung.
    lip_r = 3.0 * cloud.mesh
    nets = [2.0 * eps for eps in ladder]
    assert pass_radii == nets + [6.0 * 0.1] + [lip_r]
    for eps, rep in zip(ladder, reports):
        assert rep == _one_rung(f, eps)
