"""Ball-increment energies, sweeps, comparability, walk-dimension fits."""

import numpy as np
import pytest

from kslab.energy import (
    ScalarField,
    comparability_ratio,
    energy_sweep,
    fit_walk_dimension,
    ks_energies,
    ks_energy,
    ks_energy_density,
    liminf_window_scales,
    make_scale_grid,
)
from kslab.energy import _raw_sums
from kslab.space import MeasuredPointCloud, carpet, gasket, interval_grid, square_grid

import oracles


def random_cloud(n, dim, seed, weighted=True):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(size=(n, dim))
    w = rng.uniform(0.5, 2.0, size=n) if weighted else np.full(n, 1.0 / n)
    return MeasuredPointCloud(w, coords=coords)


# ----------------------------------------------------------------------
# brute-force equivalence
# ----------------------------------------------------------------------


def test_ks_energy_matches_brute_force():
    for seed in [0, 1, 2]:
        cloud = random_cloud(140, 2, seed)
        dmat = oracles.dist_matrix(cloud.coords)
        rng = np.random.default_rng(100 + seed)
        vals = rng.normal(size=cloud.n)
        f = ScalarField(cloud, vals)
        # Sparse random clouds have a coarse mesh; stay above the floor.
        for r in [3.1 * cloud.mesh, 5.7 * cloud.mesh]:
            got = ks_energy(f, r, d_w=2.0)
            want = oracles.brute_ks_energy(dmat, cloud.weights, vals, r, 2.0)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_ks_energy_region_matches_brute_force():
    cloud = random_cloud(120, 1, 3)
    dmat = oracles.dist_matrix(cloud.coords)
    vals = np.sin(3 * cloud.coords[:, 0])
    f = ScalarField(cloud, vals)
    region = np.arange(20, 70)
    got = ks_energy_density(f, [0.4], d_w=2.0)[0][region].sum()
    want = oracles.brute_ks_energy(dmat, cloud.weights, vals, 0.4, 2.0, region=region)
    assert got == pytest.approx(want, rel=1e-12)


def test_ks_energies_consistent_with_single():
    cloud = random_cloud(90, 2, 4)
    rng = np.random.default_rng(42)
    fields = [ScalarField(cloud, rng.normal(size=cloud.n)) for _ in range(4)]
    r = 3.2 * cloud.mesh
    batch = ks_energies(fields, [r], d_w=2.0)[0]
    singles = [ks_energy(f, r, d_w=2.0) for f in fields]
    np.testing.assert_allclose(batch, singles, rtol=1e-13)


def test_density_sums_to_regional_energy():
    cloud = random_cloud(100, 2, 5)
    f = ScalarField(cloud, np.cos(4 * cloud.coords[:, 1]))
    r = 3.2 * cloud.mesh
    dens = ks_energy_density(f, [r], d_w=2.0)[0]
    assert dens.sum() == pytest.approx(ks_energy(f, r, d_w=2.0), rel=1e-12)
    region = np.arange(10, 55)
    regional = dens[region].sum()
    dmat = oracles.dist_matrix(cloud.coords)
    assert regional == pytest.approx(
        oracles.brute_ks_energy(dmat, cloud.weights, f.values, r, 2.0, region=region), rel=1e-12
    )


# ----------------------------------------------------------------------
# closed-form calibration
# ----------------------------------------------------------------------


def test_identity_energy_matches_continuum_1d():
    # E(x -> x, r) = 1/3 - r/9 exactly in the continuum; the grid tracks it
    # to O(h/r).
    cloud = interval_grid(2001)
    f = ScalarField.coordinate(cloud)
    for r in [0.05, 0.1]:
        got = ks_energy(f, r, d_w=2.0)
        assert got == pytest.approx(oracles.interval_identity_energy(r), rel=0.01)


def test_identity_energy_matches_continuum_2d():
    # Planar disc average of the first squared coordinate increment is
    # r^2/4, with or without boundary clipping.
    cloud = square_grid(201)
    f = ScalarField.coordinate(cloud, axis=0)
    got = ks_energy(f, 0.05, d_w=2.0)
    assert got == pytest.approx(0.25, rel=0.1)


def test_energy_zero_iff_locally_constant():
    cloud = interval_grid(101)
    const = ScalarField.constant(cloud, 3.7)
    assert ks_energy(const, 0.1) == 0.0
    bump = np.zeros(cloud.n)
    bump[50] = 1.0
    assert ks_energy(ScalarField(cloud, bump), 0.1) > 0.0


def test_energy_scaling_quadratic_in_field():
    cloud = random_cloud(80, 1, 8)
    vals = np.random.default_rng(0).normal(size=cloud.n)
    f = ScalarField(cloud, vals)
    g = ScalarField(cloud, 2.5 * vals)
    r = 0.4
    assert ks_energy(g, r) == pytest.approx(6.25 * ks_energy(f, r), rel=1e-12)


def test_energy_translation_invariant():
    cloud = random_cloud(80, 2, 9)
    vals = np.random.default_rng(1).normal(size=cloud.n)
    r = 0.45
    a = ks_energy(ScalarField(cloud, vals), r)
    b = ks_energy(ScalarField(cloud, vals + 11.0), r)
    assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


def test_markov_contraction():
    # Unit truncation never raises the energy.
    for seed in range(6):
        cloud = random_cloud(70, 2, 20 + seed)
        vals = np.random.default_rng(seed).normal(scale=2.0, size=cloud.n)
        f = ScalarField(cloud, vals)
        clipped = ScalarField(cloud, np.clip(vals, 0.0, 1.0))
        r = 3.3 * cloud.mesh
        assert ks_energy(clipped, r) <= ks_energy(f, r) * (1 + 1e-12)


def test_inadmissible_radius_refused():
    cloud = interval_grid(101)
    f = ScalarField.coordinate(cloud)
    with pytest.raises(ValueError, match="admissibility"):
        ks_energy(f, 0.02)
    with pytest.raises(ValueError, match="d_w"):
        ks_energy(f, 0.1, d_w=1.5)


def test_field_validation():
    cloud = interval_grid(11)
    other = interval_grid(21)
    f = ScalarField.coordinate(other)
    with pytest.raises(ValueError, match="different cloud"):
        ks_energies([ScalarField.coordinate(cloud), f], [0.4])
    with pytest.raises(ValueError, match="finite"):
        ScalarField(cloud, np.full(11, np.nan))
    with pytest.raises(ValueError, match="length"):
        ScalarField(cloud, np.zeros(5))


def test_no_function_takes_a_cloud_beside_its_fields():
    # A field carries its cloud, so every function that takes fields reads
    # the cloud off them; a second cloud argument could only disagree.
    import inspect

    both = [
        qualname
        for qualname, fn in _package_callables()
        if "cloud" in (params := inspect.signature(fn).parameters)
        and {"f", "fields"} & set(params)
    ]
    assert both == []


def _family_calls():
    from kslab.convergence import compactness_probe, liminf_proxy, sobolev_check
    from kslab.smoothing import discrete_lip

    return {
        "ks_energies": lambda fields: ks_energies(fields, [0.1]),
        "energy_sweep": lambda fields: energy_sweep(fields, label=[""] * len(fields)),
        "discrete_lip": lambda fields: discrete_lip(fields, 0.1),
        "fit_walk_dimension": fit_walk_dimension,
        "liminf_proxy": liminf_proxy,
        "sobolev_check": lambda fields: sobolev_check(fields, d_w=2.0, Q=3.0),
        "compactness_probe": compactness_probe,
    }


@pytest.mark.parametrize("family", ["empty", "mixed"])
@pytest.mark.parametrize("call", list(_family_calls()))
def test_field_families_live_on_one_cloud(call, family):
    # The cloud comes from the fields: an empty family has none, and a
    # mixed one has two.  Both are a ValueError, never an IndexError.
    if family == "empty":
        fields, message = [], "empty family"
    else:
        fields = [ScalarField.coordinate(c) for c in (interval_grid(101), interval_grid(81))]
        message = "field 1 lives on a different cloud"
    with pytest.raises(ValueError, match=message):
        _family_calls()[call](fields)


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


def test_scale_grid_geometry():
    cloud = interval_grid(2001)
    grid = make_scale_grid(cloud)
    h = cloud.mesh
    # Scales sit mid-mesh, within h/2 of the requested geometric targets.
    targets = 0.25 * 2 ** (-0.5 * np.arange(12))
    np.testing.assert_allclose(grid.scales, targets, atol=0.5 * h)
    frac = grid.scales / h - np.floor(grid.scales / h)
    np.testing.assert_allclose(frac, 0.5, atol=1e-9)
    assert grid.scales[-1] >= 3.0 * h
    assert grid.scales.size == 12  # all twelve admissible on this mesh


def test_scale_grid_drops_unresolved_scales():
    cloud = interval_grid(101)  # floor 0.03
    grid = make_scale_grid(cloud)
    assert grid.scales.size < 12
    assert grid.scales.min() >= 0.03
    with pytest.raises(ValueError, match="empty admissible"):
        make_scale_grid(cloud, r_max=0.01)


def _package_callables():
    """Every function and hand-written method of the kslab modules, by name.

    Covers everything ``kslab.__all__`` exports and the private helpers
    around it; dataclass ``__init__`` methods only take record fields.
    """
    import dataclasses
    import inspect

    from kslab import cli, convergence, energy, graphform, poincare, smoothing, space, suites

    for mod in (cli, convergence, energy, graphform, poincare, smoothing, space, suites):
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    generated = dataclasses.is_dataclass(obj) and attr == "__init__"
                    if inspect.isfunction(member) and not generated:
                        yield f"{mod.__name__}.{name}.{attr}", member


def test_package_reexports_each_layer_all():
    import inspect

    import kslab
    from kslab import convergence, energy, graphform, poincare, smoothing, space, suites

    layers = (space, energy, smoothing, poincare, graphform, convergence, suites)
    names = [name for layer in layers for name in layer.__all__]
    assert kslab.__all__ == names and len(set(names)) == len(names)
    for layer in layers:
        for name in layer.__all__:
            assert getattr(kslab, name) is getattr(layer, name), (layer.__name__, name)
    for layer in (space, energy):
        defined = {
            name
            for name, obj in vars(layer).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == layer.__name__
        }
        assert defined <= set(layer.__all__), sorted(defined - set(layer.__all__))
    constants = {name for name in names if not callable(getattr(kslab, name))}
    assert constants == {"DEFAULT_KAPPA", "DEFAULT_TOLERANCES", "SUITES"}
    # A setting a test patches lives on its layer alone.
    for setting in ("FLAT_BUDGET", "TIE_BAND", "DENSE_EIGEN_LIMIT", "PARTIAL_EIGEN_COUNT", "KINDS"):
        assert not hasattr(kslab, setting), setting


def test_scale_geometry_takes_no_knobs():
    import dataclasses
    import inspect

    import kslab
    from kslab.energy import EnergySweep, ScaleGrid

    takers: dict[str, list[str]] = {}
    for qualname, fn in _package_callables():
        for param in inspect.signature(fn).parameters:
            takers.setdefault(param, []).append(qualname)
    assert "kslab.suites.SuiteContext.__init__" in takers["cloud"]
    assert "kslab.space.MeasuredPointCloud.require_admissible" in takers["r"]
    knobs = (
        "kappa", "ratio", "count", "window", "region", "n_centers", "radii_per_decade",
        "n_times", "tol", "triangle_budget", "triangle_seed", "rho_grid", "dw_info",
    )
    for knob in knobs:
        assert takers.get(knob) is None, (knob, takers.get(knob))
    assert takers["r_max"] == ["kslab.energy.make_scale_grid"]
    # Values with one legal setting, or one the code reads off another
    # argument, are not parameters.
    for gone in ("pairs", "oracle", "amplitude", "cap", "t_window", "c_min"):
        assert takers.get(gone) is None, (gone, takers.get(gone))
    from kslab import convergence, graphform

    for builder in (graphform.grid_form, graphform.gasket_form):
        assert list(inspect.signature(builder).parameters) == ["cloud"], builder.__name__
    for fn in (
        graphform.fit_subgaussian,
        graphform.gamma_vs_lip_check,
        convergence.weak_liminf_probe,
        convergence.recovery_check,
    ):
        assert "cloud" not in inspect.signature(fn).parameters, fn.__name__
    for gone in ("check_mass_bounds", "MassBoundReport", "EnergyMeasure", "build_net", "CoveringNet"):
        assert not hasattr(kslab, gone) and gone not in kslab.__all__, gone
        assert not hasattr(kslab.space, gone) and not hasattr(graphform, gone), gone
        assert not hasattr(kslab.smoothing, gone), gone
    for gone in ("_oracle_energy", "_default_recovery_pairs"):
        assert not hasattr(convergence, gone), gone
    assert not hasattr(kslab.suites, "FORM_KINDS")
    for gone in ("FORM_KINDS", "build_form"):
        assert not hasattr(graphform, gone) and gone not in kslab.__all__, gone
    with pytest.raises(ValueError, match="cannot interpret"):
        kslab.build_cloud("gasket:5")
    assert takers["r_loc"] == ["kslab.smoothing.discrete_lip"]
    # A restricted energy is the sum of a density row's entries at U; only
    # the ball engine takes centres.
    assert takers["centers"] == ["kslab.space.MeasuredPointCloud.ball_chunks"]
    assert not hasattr(kslab, "Ball") and "Ball" not in kslab.__all__
    assert not hasattr(kslab.MeasuredPointCloud, "ball")
    for gone in ("l2_norm", "lq_norm", "sup_norm"):
        assert not hasattr(ScalarField, gone), gone
    assert [f.name for f in dataclasses.fields(ScaleGrid)] == ["cloud", "r_max", "scales"]
    sweep_fields = {f.name for f in dataclasses.fields(EnergySweep)}
    assert not sweep_fields & {"region_size", "seed"}


def test_sweep_identity_fitted_limit():
    cloud = interval_grid(2001)
    sweep = energy_sweep(ScalarField.coordinate(cloud), d_w=2.0)
    # Window values follow 1/3 - r/9, so the fitted endpoint sits within a
    # fraction of a percent of 1/3.
    assert sweep.fitted_limit == pytest.approx(1 / 3, rel=0.02)
    assert sweep.liminf_proxy <= sweep.limsup_proxy <= sweep.sup_all
    assert sweep.window_scales[0] == sweep.scales.min()


def test_sweep_csv_and_json():
    cloud = interval_grid(501)
    sweep = energy_sweep(ScalarField.coordinate(cloud), label="identity")
    header, rows = sweep.table()
    assert header == ("r", "energy")
    assert len(rows) == sweep.scales.size
    summary = sweep.summary()
    assert summary["label"] == "identity"
    assert summary["liminf_proxy"] == sweep.liminf_proxy


@pytest.mark.parametrize(
    "make",
    [lambda: interval_grid(201), lambda: square_grid(21), lambda: gasket(4)],
    ids=["interval", "square", "gasket"],
)
def test_sweeps_of_many_fields_share_one_pass(make, pass_radii):
    cloud = make()
    fields = [
        ScalarField.coordinate(cloud, 0),
        ScalarField.from_function(cloud, lambda c: np.cos(5.0 * c[:, -1])),
        ScalarField.constant(cloud, 2.0),
    ]
    labels = ("x", "cos", "flat")
    sweeps = energy_sweep(fields, d_w=2.3, label=labels)
    assert len(pass_radii) == 1
    assert [s.label for s in sweeps] == list(labels)
    for sweep, f, label in zip(sweeps, fields, labels):
        single = energy_sweep(f, d_w=2.3, label=label)
        np.testing.assert_array_equal(sweep.values, single.values)
        assert sweep.summary() == single.summary()
    with pytest.raises(ValueError, match="one label per field"):
        energy_sweep(fields, label="x")
    with pytest.raises(ValueError, match="one label per field"):
        energy_sweep(fields, label=labels[:2])


def test_comparability_ratio_smooth_field_near_one():
    cloud = interval_grid(2001)
    sweep = energy_sweep(ScalarField.coordinate(cloud))
    ratio = comparability_ratio(sweep)
    assert 1.0 <= ratio <= 1.05


def test_comparability_ratio_constant_convention():
    cloud = interval_grid(101)
    sweep = energy_sweep(ScalarField.constant(cloud, 4.0))
    assert comparability_ratio(sweep) == 1.0


def test_comparability_detects_spike():
    # A single-point spike concentrates increments at small scales: the
    # sweep grows like r**-2 toward the floor, so the small-scale window
    # dominates the large-scale values by far more than 10x.
    cloud = interval_grid(101)
    vals = np.zeros(cloud.n)
    vals[50] = 1.0
    sweep = energy_sweep(ScalarField(cloud, vals))
    assert sweep.limsup_proxy > 10.0 * sweep.values[0]
    assert comparability_ratio(sweep) > 1.0


def test_region_restriction_additive():
    cloud = interval_grid(301)
    f = ScalarField.from_function(cloud, lambda c: np.sin(2 * np.pi * c[:, 0]))
    r = 0.05
    left = np.arange(0, 150)
    right = np.arange(150, 301)
    total = ks_energy(f, r)
    row = ks_energy_density(f, [r])[0]
    parts = [row[half].sum() for half in (left, right)]
    assert parts[0] + parts[1] == pytest.approx(total, rel=1e-12)


# ----------------------------------------------------------------------
# walk dimension
# ----------------------------------------------------------------------


def test_raw_sum_is_energy_times_power():
    cloud = interval_grid(401)
    f = ScalarField.coordinate(cloud)
    r = 0.1
    assert _raw_sums([f], [r])[0, 0] == pytest.approx(
        ks_energy(f, r, d_w=2.0) * r**2, rel=1e-12
    )


def test_walk_dimension_euclidean_grid():
    cloud = interval_grid(1001)
    fields = [
        ScalarField.coordinate(cloud),
        ScalarField.from_function(cloud, lambda c: np.sin(np.pi * c[:, 0])),
        ScalarField.from_function(cloud, lambda c: c[:, 0] ** 2),
    ]
    fit = fit_walk_dimension(fields)
    assert fit.d_w_hat == pytest.approx(2.0, abs=0.1)
    assert fit.method == "ks_scaling"


def test_walk_dimension_needs_signal():
    cloud = interval_grid(201)
    with pytest.raises(ValueError, match="constant"):
        fit_walk_dimension([ScalarField.constant(cloud, 1.0)])


def test_liminf_window_scales_ascending():
    cloud = interval_grid(501)
    win = liminf_window_scales(cloud)
    assert win.size == 3
    assert np.all(np.diff(win) > 0)
    assert win[0] >= 3.0 * cloud.mesh


# ----------------------------------------------------------------------
# exact reductions and the shared ball pass
# ----------------------------------------------------------------------


def _fsum_balls(cloud, r):
    """Per-centre member ids, ball masses and weights, with fsum masses."""
    import math

    for x in range(cloud.n):
        ids = oracles.brute_ball_ids(cloud.coords, x, r)
        w = cloud.weights[ids]
        yield x, ids, w, math.fsum(w)


def _max_rel_error(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


def test_energy_density_matches_fsum_oracle():
    import math

    cloud = square_grid(61)
    f = ScalarField.from_function(
        cloud, lambda c: np.sin(3.0 * c[:, 0]) * np.cos(2.0 * c[:, 1]) + c[:, 0]
    )
    r = 0.2
    want = np.empty(cloud.n)
    v = f.values
    for x, ids, w, mass in _fsum_balls(cloud, r):
        inner = math.fsum(w * (v[x] - v[ids]) ** 2)
        want[x] = cloud.weights[x] * inner / mass / r**2
    got = ks_energy_density(f, [r], d_w=2.0)[0]
    assert _max_rel_error(got, want) <= 1e-13


def test_ball_mean_deviation_matches_fsum_oracle():
    # The p = 1 row of the increment table, which the mollifier ladder reads
    # as the ball mean deviation avg_{B(x,r)} |f(x) - f(y)| dmu(y).
    import math

    from kslab.energy import _increment_table

    cloud = square_grid(61)
    f = ScalarField.from_function(cloud, lambda c: np.exp(c[:, 0] - 2.0 * c[:, 1]))
    r = 0.2
    want = np.empty(cloud.n)
    v = f.values
    for x, ids, w, mass in _fsum_balls(cloud, r):
        want[x] = math.fsum(w * np.abs(v[x] - v[ids])) / mass
    got = _increment_table(cloud, f.values[None], [r], [1])[0, 0] / cloud.weights
    assert _max_rel_error(got, want) <= 1e-13


def _engine_results(cloud, fields):
    f = fields[0]
    grid = make_scale_grid(cloud)
    sweep = energy_sweep(f, d_w=2.0)
    region = np.arange(0, cloud.n, 7)
    return {
        "energy": ks_energy(f, float(grid.scales[2])),
        "region": ks_energy_density(f, grid.scales[:1])[0][region].sum(),
        "many": ks_energies(fields, [float(grid.scales[-1])])[0],
        "density": ks_energy_density(f, grid.scales[1:3]),
        "sweep": sweep.values,
        "raw": _raw_sums([f], [float(grid.scales[3])])[0, 0],
    }


@pytest.fixture(scope="module")
def engine_cloud():
    grid = square_grid(30)
    weights = np.random.default_rng(12).uniform(0.5, 2.0, size=grid.n)
    cloud = MeasuredPointCloud(weights, coords=grid.coords, mesh=grid.mesh)
    fields = [
        ScalarField.from_function(cloud, lambda c: np.sin(4.0 * c[:, 0]) + c[:, 1] ** 2),
        ScalarField.coordinate(cloud, 1),
    ]
    return cloud, fields, _engine_results(cloud, fields)


def test_energies_do_not_depend_on_block_size(engine_cloud, tiny_blocks):
    cloud, fields, default = engine_cloud
    small = _engine_results(cloud, fields)
    for key, value in default.items():
        np.testing.assert_array_equal(small[key], value, err_msg=key)


def test_energy_sweep_matches_single_scale_passes(engine_cloud):
    cloud, fields, default = engine_cloud
    f = fields[0]
    grid = make_scale_grid(cloud)
    singles = [ks_energy(f, float(r), d_w=2.0) for r in grid.scales]
    np.testing.assert_array_equal(default["sweep"], singles)


def test_ks_energies_one_pass_equals_separate_passes(pass_radii):
    cloud = gasket(5)
    fields = [
        ScalarField.coordinate(cloud, 0),
        ScalarField.from_function(cloud, lambda c: np.cos(5.0 * c[:, 1])),
    ]
    radii = [0.3, 0.11, 0.2]
    table = ks_energies(fields, radii, d_w=2.3)
    assert pass_radii == [0.3]
    for k, r in enumerate(radii):
        np.testing.assert_array_equal(table[k], ks_energies(fields, [r], d_w=2.3)[0])


def test_energy_density_rows_equal_single_radius_rows(pass_radii):
    from kslab.energy import _increment_table

    cloud = gasket(5)
    f = ScalarField.from_function(cloud, lambda c: np.cos(5.0 * c[:, 1]) + c[:, 0] ** 2)
    radii = [0.11, 0.3, 0.2]
    rows = ks_energy_density(f, radii, d_w=2.3)
    assert pass_radii == [0.3]
    assert rows.shape == (3, cloud.n)
    for k, r in enumerate(radii):
        # The single-radius definition: one pass at r alone.
        want = _increment_table(cloud, f.values[None, :], [r])[0, 0] / r**2.3
        np.testing.assert_array_equal(rows[k], want)


def test_fit_walk_dimension_makes_one_pass(pass_radii):
    cloud = interval_grid(401)
    fields = [ScalarField.coordinate(cloud), ScalarField.constant(cloud, 2.0)]
    fit = fit_walk_dimension(fields)
    assert pass_radii == [float(fit.scales.max())]


def test_fit_walk_dimension_refuses_foreign_grid():
    # Interval 201's scales on interval 401 fields once gave d_w 1.948
    # instead of 1.975.
    fine = interval_grid(401)
    fields = [ScalarField.coordinate(fine)]
    with pytest.raises(ValueError, match="another cloud"):
        fit_walk_dimension(fields, grid=make_scale_grid(interval_grid(201)))
    assert make_scale_grid(fine).cloud is fine
    fit_walk_dimension(fields, grid=make_scale_grid(fine))


# ----------------------------------------------------------------------
# lattice stencil and whole-cloud routes of _increment_table
# ----------------------------------------------------------------------


def _lattice_case(kind):
    """A grid cloud, radii that hit lattice distances, and two fields."""
    cloud = {"interval": interval_grid(301), "square": square_grid(31), "carpet": carpet(3)}[kind]
    h = cloud.lattice.step
    c = cloud.coords
    wave = np.sin(3.0 * c[:, 0]) + c[:, -1] ** 2
    # 5 h = |(3, 4)| h and sqrt(50) h = |(5, 5)| h = |(1, 7)| h put whole
    # rings of points on the sphere; 1.01 diam puts every point inside.
    radii = [3.5 * h, 5.0 * h, np.sqrt(50.0) * h, 0.3, 1.01 * cloud.diameter]
    return cloud, radii, [wave, wave + 1000.0]


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kind", ["interval", "square", "carpet"])
def test_lattice_routes_match_fsum_oracle_and_engine(kind, p):
    from kslab.energy import _engine_table, _increment_table

    cloud, radii, fields = _lattice_case(kind)
    centers = np.arange(0, cloud.n, 5)
    table = _increment_table(cloud, np.stack(fields), radii, [p] * len(radii))
    engine = _engine_table(cloud, np.stack(fields), radii, [p] * len(radii))
    for k, r in enumerate(radii):
        for i, v in enumerate(fields):
            want = oracles.fsum_increment_rows(cloud.coords, cloud.weights, v, r, p, centers)
            assert _max_rel_error(table[k, i, centers], want) <= 1e-15, (k, i)
            assert _max_rel_error(table[k, i], engine[k, i]) <= 1e-13, (k, i)


@pytest.mark.parametrize("kind", ["interval", "carpet"])
def test_lattice_routes_ignore_other_radii_centres_and_blocks(kind, monkeypatch):
    import kslab.space
    from kslab.energy import _increment_table

    cloud, radii, fields = _lattice_case(kind)
    mat = np.stack(fields)
    powers = [2, 1, 2, 1, 1]
    full = _increment_table(cloud, mat, radii, powers)
    for k, r in enumerate(radii):
        alone = _increment_table(cloud, mat, [r], [powers[k]])[0]
        np.testing.assert_array_equal(alone, full[k])
    # Blocks of a few centres, several at a time on the worker threads.
    monkeypatch.setattr(kslab.space, "FLAT_BUDGET", 5_000)
    np.testing.assert_array_equal(_increment_table(cloud, mat, radii, powers), full)


@pytest.mark.parametrize("abstract", [False, True])
def test_whole_cloud_route_on_any_cloud(abstract, pass_radii):
    from kslab.energy import _engine_table, _increment_table

    rng = np.random.default_rng(21)
    coords = rng.uniform(size=(150, 2))
    weights = rng.uniform(0.5, 2.0, size=150)
    if abstract:
        cloud = MeasuredPointCloud(weights, dist_matrix=oracles.dist_matrix(coords))
    else:
        cloud = MeasuredPointCloud(weights, coords=coords)
    r = 1.5 * cloud.diameter
    wave = np.cos(4.0 * coords[:, 0]) * coords[:, 1]
    mat = np.stack([wave, wave + 1000.0, np.zeros(150)])
    table = _increment_table(cloud, mat, [r], [1])[0]
    assert pass_radii == []  # no ball pass: every ball is the whole cloud
    engine = _engine_table(cloud, mat, [r], [1])[0]
    for i in range(2):
        want = oracles.fsum_increment_rows(coords, weights, mat[i], 10.0, 1, range(150))
        assert _max_rel_error(table[i], want) <= 1e-15
        assert _max_rel_error(table[i], engine[i]) <= 1e-13
    assert np.all(table[2] == 0.0)


def test_stencil_splits_a_one_row_lattice_over_every_core(monkeypatch):
    # Blocks split lattice columns too, so the one row of an interval grid
    # runs on two cores, and its entries do not depend on the worker count.
    import os

    import kslab.energy
    from kslab.energy import _stencil_table

    cloud = interval_grid(2001)
    wave = np.sin(3.0 * cloud.coords[:, 0])
    mat = np.stack([wave, wave + 1000.0])
    radii = [float(r) for r in make_scale_grid(cloud).scales]
    pools = []

    class RecordingPool(kslab.energy.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(kslab.energy, "ThreadPoolExecutor", RecordingPool)
    tables = []
    for cores in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cores: set(range(c)), raising=False)
        tables.append(_stencil_table(cloud, mat, radii, [2] * len(radii)))
    assert len(radii) == 12 and pools == [1, 2]
    assert tables[0].tobytes() == tables[1].tobytes()


def test_stencil_stays_within_its_memory_budget():
    # The 50 partition bumps of the cutoff check on carpet 4: besides its
    # output, the stencil holds at most FLAT_BUDGET float64 elements, so its
    # per-worker workspaces are all the block memory it has.
    import tracemalloc

    import kslab.space
    from kslab.energy import _stencil_table
    from kslab.smoothing import partition_of_unity

    cloud = carpet(4)
    pou = partition_of_unity(cloud, cloud.diameter / 10.0)
    mat = np.stack([f.values for f in pou.fields()])
    assert mat.shape[0] == 50
    radii = [float(r) for r in make_scale_grid(cloud).window()]
    tracemalloc.start()
    try:
        table = _stencil_table(cloud, mat, radii, [2] * len(radii))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * kslab.space.FLAT_BUDGET + table.nbytes, peak
