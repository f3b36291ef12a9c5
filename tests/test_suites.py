"""Suite registry behaviour: kind table, applicability, skipped rows, thresholds, d_w resolution."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from kslab import convergence as cv
from kslab import graphform as gf
from kslab import poincare as pc
from kslab import suites
from kslab.energy import ScalarField, fit_walk_dimension, make_scale_grid
from kslab.space import (
    CLOUD_KINDS,
    Inapplicable,
    MeasuredPointCloud,
    build_cloud,
    estimate_doubling,
    gasket,
    interval_grid,
    square_grid,
)
from kslab.suites import (
    DEFAULT_TOLERANCES,
    KINDS,
    SUITES,
    CheckResult,
    Kind,
    SuiteContext,
    applicable_suites,
    run_suite,
)

LOG5_LOG2 = math.log(5) / math.log(2)


@pytest.fixture(scope="module")
def grid401():
    return interval_grid(401)


@pytest.fixture(scope="module")
def gasket5():
    return gasket(5)


def _ctx(cloud, d_w=2.0):
    return SuiteContext(cloud, d_w, seed=0)


def abstract_cloud(n=40, seed=3):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    dmat = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    mesh = float(np.sort(dmat + np.eye(n) * 10, axis=1)[:, 0].max())
    return MeasuredPointCloud(np.full(n, 1.0 / n), dist_matrix=dmat, mesh=mesh)


class TestKinds:
    def test_one_row_per_cloud_kind(self):
        assert set(KINDS) == set(CLOUD_KINDS)

    @pytest.mark.parametrize("kind", sorted(CLOUD_KINDS))
    def test_standard_fields_vary_at_the_smallest_accepted_size(self, kind, tmp_path):
        _, keys = CLOUD_KINDS[kind]
        if kind == "file":
            # Two points on the line x = 0: the first coordinate is constant.
            path = tmp_path / "pair.cloud"
            path.write_text("2 euclidean\n0.0 0.0 0.5\n0.0 1.0 0.5\n")
            spec = {"kind": kind, "path": str(path)}
        else:
            spec = {"kind": kind, **{key: lo for key, (_, lo, _) in keys.items()}}
        fields = _ctx(build_cloud(spec)).standard_fields()
        assert fields and not any(f.is_constant() for _, f in fields)

    def test_cloud_without_kind_reads_the_defaults(self):
        assert [label for label, _ in _ctx(abstract_cloud()).standard_fields()] == ["dist_from_0"]

    def test_suites_name_no_kind_outside_the_table(self):
        source = Path(suites.__file__).read_text()
        (table,) = [
            node for node in ast.parse(source).body
            if isinstance(node, ast.AnnAssign) and node.target.id == "KINDS"
        ]
        lines = source.splitlines()
        rest = "\n".join(lines[: table.lineno - 1] + lines[table.end_lineno :])
        strings = {n.value for n in ast.walk(ast.parse(rest)) if isinstance(n, ast.Constant)}
        assert not strings & set(CLOUD_KINDS)
        assert not re.search(r"\.kind ==|kind in \(", rest)
        assert not hasattr(SuiteContext, "kind") and not hasattr(SuiteContext, "has_form")

    def test_graphform_names_no_kind_outside_the_gasket_builders(self):
        tree = ast.parse(Path(gf.__file__).read_text())
        gasket_only = {"gasket_form", "gasket_harmonic_field"}
        tree.body = [
            node for node in tree.body
            if not (isinstance(node, ast.FunctionDef) and node.name in gasket_only)
        ]
        strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
        assert not strings & set(CLOUD_KINDS)

    def test_a_toy_kind_is_one_row_and_one_builder(self, monkeypatch):
        # A lattice cloud of a kind no module names runs the form suites off
        # its row alone.
        monkeypatch.setitem(KINDS, "toy", Kind(form=gf.grid_form))
        cloud = interval_grid(33)
        cloud.meta["kind"] = "toy"
        assert applicable_suites(cloud)[-2:] == ["graphform", "convergence"]
        rows = run_suite("graphform", _ctx(cloud))
        assert [r.name for r in rows] == [
            "energy_calibration", "spectrum_residual", "heat_kernel_mass", "gamma_vs_lip",
            "intrinsic_metric",
        ]
        assert all(r.passed for r in rows)


class TestResolveWalkDimension:
    def test_explicit_passthrough(self, grid401):
        ctx = _ctx(grid401, 2.5)
        value, info = ctx.d_w, ctx.dw_info
        assert value == 2.5
        assert info == {"source": "explicit", "value": 2.5}

    def test_context_resolves_through_the_module_name(self, grid401, monkeypatch):
        # Tracers rebind the module attribute; the constructor must see it.
        from kslab import suites

        seen = []
        resolve = suites.resolve_walk_dimension
        monkeypatch.setattr(
            suites, "resolve_walk_dimension", lambda ctx, d_w: seen.append(d_w) or resolve(ctx, d_w)
        )
        assert _ctx(grid401, 2.5).d_w == 2.5
        assert seen == [2.5]

    def test_fit_on_gasket_prefers_eigen(self, gasket5):
        ctx = _ctx(gasket5, "fit")
        value, info = ctx.d_w, ctx.dw_info
        assert info["source"] == "fit"
        assert value == info["eigen_d_w"]
        assert abs(value - LOG5_LOG2) <= 0.05
        assert abs(info["fit_d_w"] - value) <= 0.15
        assert info["agreement"] is True

    def test_fit_agreement_reads_the_context_tolerance(self, monkeypatch):
        # Gasket 4's regression and eigenvalue estimates differ by about
        # 0.026: inside the default bound, outside a bound of 1e-9.
        cloud = gasket(4)
        info = _ctx(cloud, "fit").dw_info
        assert info["agreement"] is True
        monkeypatch.setitem(DEFAULT_TOLERANCES, "walk_dim_agreement", 1e-9)
        info = _ctx(cloud, "fit").dw_info
        assert abs(info["eigen_d_w"] - info["fit_d_w"]) > 1e-9
        assert info["agreement"] is False

    def test_fit_on_gasket_solves_each_level_once(self, eigh_sizes):
        _ctx(gasket(5), "fit")
        assert sorted(eigh_sizes) == [gasket(4).n, gasket(5).n]

    def test_fit_on_interval_agrees_with_two(self, grid401):
        ctx = _ctx(grid401, "fit")
        value, info = ctx.d_w, ctx.dw_info
        assert abs(value - 2.0) <= 0.05
        assert info["eigen_d_w"] is not None
        assert info["agreement"] is True

    def test_fit_without_hierarchy_uses_regression(self):
        # Dense enough that the admissibility floor leaves a usable ladder.
        cloud = abstract_cloud(n=400)
        ctx = _ctx(cloud, "fit")
        value, info = ctx.d_w, ctx.dw_info
        assert info["eigen_d_w"] is None
        # The raw regression lies below 2 here; the value is raised to 2.
        assert value == max(2.0, info["fit_d_w"])
        assert math.isfinite(value)


class TestWalkDimensionFitRow:
    @staticmethod
    def _row(ctx):
        (row,) = [r for r in run_suite("energy", ctx) if r.name == "walk_dimension_fit"]
        return row

    def test_judges_the_raw_estimate(self):
        # Interval 257's eigenvalue estimate lies just below 2; d_w is
        # raised to 2, the row reports and judges the estimate itself.
        ctx = _ctx(interval_grid(257), "fit")
        row = self._row(ctx)
        assert ctx.d_w == 2.0
        assert row.constant == ctx.dw_info["eigen_d_w"] < 2.0
        assert row.passed

    @pytest.mark.parametrize(
        "eigen, fit, constant",
        [(0.9, 2.0, 0.9), (None, 0.5, 0.5), (None, 2.5, 2.5), (4.5, 2.0, 4.5)],
    )
    def test_eigen_estimate_first_then_regression(self, eigen, fit, constant):
        ctx = _ctx(interval_grid(257), "fit")
        ctx.dw_info = {**ctx.dw_info, "eigen_d_w": eigen, "fit_d_w": fit}
        row = self._row(ctx)
        assert row.constant == constant
        assert row.passed is (1.0 <= constant <= 4.0)


class TestRegistry:
    def test_applicable_suites_by_kind(self, grid401):
        assert applicable_suites(grid401) == [
            "doubling", "energy", "smoothing", "poincare", "graphform", "convergence",
        ]
        assert applicable_suites(abstract_cloud()) == [
            "doubling", "energy", "smoothing", "poincare",
        ]

    def test_unknown_suite_rejected(self, grid401):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope", _ctx(grid401))

    def test_graphform_needs_graph_cloud(self):
        with pytest.raises(ValueError, match="no reference form for cloud kind"):
            run_suite("graphform", _ctx(abstract_cloud()))

    def test_every_registered_suite_runs_on_interval(self, grid401):
        ctx = _ctx(grid401)
        for name in SUITES:
            results = run_suite(name, ctx)
            assert results, name
            assert all(isinstance(r, CheckResult) for r in results)

    def test_row_maps_nonfinite_constant_to_none(self):
        row = CheckResult("a", "b", True, float("inf")).row()
        assert row["constant"] is None


class TestSuiteVerdicts:
    def test_interval_doubling_within_bound(self, grid401):
        results = run_suite("doubling", _ctx(grid401))
        by_name = {r.name: r for r in results}
        assert by_name["doubling"].passed
        assert by_name["doubling"].constant <= 2.1

    def test_square_interior_doubling(self):
        results = run_suite("doubling", _ctx(square_grid(41)))
        by_name = {r.name: r for r in results}
        assert by_name["doubling"].passed
        assert by_name["doubling"].constant <= 4.4
        assert by_name["doubling"].details["interior_only"] is True

    def test_energy_calibration_on_fine_grid(self):
        results = run_suite("energy", _ctx(interval_grid(1001)))
        by_name = {r.name: r for r in results}
        assert by_name["ks_limit_calibration"].passed
        assert by_name["comparability"].passed
        assert by_name["comparability"].constant <= 1.05

    def test_tolerance_override_can_fail_a_check(self, grid401, monkeypatch):
        monkeypatch.setitem(DEFAULT_TOLERANCES, "doubling_c_d_interval", 1.0)
        results = run_suite("doubling", _ctx(grid401))
        doubling = next(r for r in results if r.name == "doubling")
        assert not doubling.passed

    def test_gasket_convergence_rows(self, gasket5):
        results = run_suite("convergence", _ctx(gasket5, "fit"))
        by_name = {r.name: r for r in results}
        assert by_name["mosco_recovery"].passed
        assert by_name["mosco_liminf"].passed
        assert by_name["rellich_kondrachov_net"].passed
        assert by_name["rellich_kondrachov_net"].constant <= 25
        assert by_name["sobolev_embedding"].passed

    def test_gasket_graphform_rows(self, gasket5):
        ctx = _ctx(gasket5, d_w=LOG5_LOG2)
        results = run_suite("graphform", ctx)
        by_name = {r.name: r for r in results}
        assert by_name["energy_calibration"].passed
        assert by_name["subgaussian_fit"].passed
        assert abs(by_name["eigen_walk_dimension"].constant - LOG5_LOG2) <= 0.05
        assert "intrinsic_metric" not in by_name

    def test_gasket_graphform_fits_above_dense_limit(self, gasket5, monkeypatch):
        # Above the dense limit the spectrum is a Lanczos band; the fit row
        # is real and agrees with the fit over the full dense spectrum.
        full = gf.fit_subgaussian(gf.spectrum(gf.gasket_form(gasket5)), seed=0)
        monkeypatch.setattr(gf, "DENSE_EIGEN_LIMIT", gasket5.n - 1)
        results = run_suite("graphform", _ctx(gasket5, d_w=LOG5_LOG2))
        by_name = {r.name: r for r in results}
        assert "subgaussian_fit_skipped" not in by_name
        fit = by_name["subgaussian_fit"]
        assert fit.passed and fit.details["d_w_fit"] == full.d_w_fit
        assert fit.constant == pytest.approx(full.residual, rel=1e-9)
        assert by_name["spectrum_residual"].passed
        assert abs(by_name["eigen_walk_dimension"].constant - LOG5_LOG2) <= 0.05

    def test_each_form_is_solved_once(self, monkeypatch):
        # Gasket 6 (1095 vertices) takes the Lanczos route, which caches
        # nothing, so a second solve of a form would be counted.  The fitted
        # d_w and the graphform rows read the same two spectra.
        solves = []
        solve = gf.spectrum

        def counted(form, k_max=None):
            solves.append((form.kind, form.n))
            return solve(form, k_max)

        monkeypatch.setattr(gf, "spectrum", counted)
        run_suite("graphform", _ctx(gasket(6), "fit"))
        assert sorted(solves) == [("gasket", 366), ("gasket", 1095)]

    def test_band_lambda_max_is_solved_once(self, monkeypatch):
        # On gasket 7 the five heat_kernel_mass rows and the sub-Gaussian fit
        # all read the band's lambda_max; the spectrum keeps the one solve.
        import scipy.sparse.linalg

        top_solves, kernels = [], []
        eigsh, heat_kernel = scipy.sparse.linalg.eigsh, gf.heat_kernel

        def counted_eigsh(*args, **kwargs):
            if kwargs.get("which") == "LA":
                top_solves.append(args[0].shape[0])
            return eigsh(*args, **kwargs)

        def counted_kernel(*args):
            kernels.append(args[1])
            return heat_kernel(*args)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted_eigsh)
        monkeypatch.setattr(gf, "heat_kernel", counted_kernel)
        cloud = gasket(7)
        run_suite("graphform", _ctx(cloud, d_w=LOG5_LOG2))
        assert len(kernels) == 6
        assert top_solves == [cloud.n]

    def test_form_holds_only_its_matrices(self, gasket5):
        # A spectrum holds its solves, eigenpairs and lambda_max alike; the
        # form keeps its record fields and the matrices built from them.
        import dataclasses

        ctx = _ctx(gasket5, d_w=LOG5_LOG2)
        run_suite("graphform", ctx)
        form = ctx.form
        kept = set(vars(form)) - {f.name for f in dataclasses.fields(form)}
        assert kept <= {"adjacency", "degrees", "generator"}, kept
        assert not any(
            isinstance(v, np.ndarray) and v.ndim == 2 for v in vars(form).values()
        )
        for gone in ("lambda_max", "_dense_eigen"):
            assert not hasattr(gf.GraphDirichletForm, gone), gone
        assert "lambda_max" in vars(ctx.spectrum)

    def test_poincare_identity_pinned_on_interval(self, grid401):
        results = run_suite("poincare", _ctx(grid401))
        by_name = {r.name: r for r in results}
        assert by_name["poincare_identity_third"].passed
        assert by_name["poincare_identity_third"].details["worst_rel"] <= 0.3

    @pytest.mark.parametrize("n, passed, worst", [(61, False, 1.0 / 3.0), (65, True, 0.1719)])
    def test_poincare_identity_verdicts_by_size(self, n, passed, worst):
        # worst_rel is |3 ratio - 1| against its table entry 0.30.  On
        # interval 61 the radius 0.05 = 3h puts the ball's edge on lattice
        # points.
        results = run_suite("poincare", _ctx(interval_grid(n)))
        (row,) = [r for r in results if r.name == "poincare_identity_third"]
        assert row.passed is passed
        assert row.details["worst_rel"] == pytest.approx(worst, abs=1e-4)

    def test_no_literal_scales_a_tolerance(self):
        # Every bound is its DEFAULT_TOLERANCES entry as written.
        def lookup(node):
            name = getattr(getattr(node, "value", None), "id", None)
            return isinstance(node, ast.Subscript) and name == "DEFAULT_TOLERANCES"

        def literal(node):
            return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))

        scaled = [
            node.lineno
            for node in ast.walk(ast.parse(Path(suites.__file__).read_text()))
            if isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.Mult, ast.Div))
            and (lookup(node.left) and literal(node.right) or literal(node.left) and lookup(node.right))
        ]
        assert scaled == []

    @pytest.mark.parametrize("n, floor", [(33, "0.09375"), (41, "0.075")])
    def test_poincare_identity_skipped_under_the_floor(self, n, floor):
        # The identity check's fixed radius 0.05 lies under kappa h when
        # n <= 60; the row says so instead of the suite raising.
        results = run_suite("poincare", _ctx(interval_grid(n)))
        by_name = {r.name: r for r in results}
        assert "poincare_identity_third" not in by_name
        skipped = by_name["poincare_identity_third_skipped"]
        assert skipped.passed and skipped.constant is None
        assert skipped.details["reason"] == f"radius 0.05 lies under the floor kappa h = {floor}"

    def test_poincare_suite_makes_six_ball_passes(self, grid401, pass_radii):
        # lip slopes and ks window rows, once for the sampled check and once
        # for the interval identity check; the maximal window rows and
        # ladder.  The telescoping chain reads the maximal field's rows.
        run_suite("poincare", _ctx(grid401))
        assert len(pass_radii) == 6

    def test_smoothing_rows_have_tables(self, grid401):
        results = run_suite("smoothing", _ctx(grid401))
        moll = next(r for r in results if r.name == "mollifier_estimates")
        assert moll.passed
        header, rows = moll.table
        assert header[0] == "eps"
        assert len(rows) == len(moll.details["epsilons"])


def _coordinate(cloud):
    return ScalarField.coordinate(cloud, 0)


def _recovery(cloud):
    return cv.recovery_check(_coordinate(cloud), KINDS[cloud.kind].form(cloud), n_steps=4)


def _liminf(cloud, k_max):
    spec = gf.spectrum(KINDS[cloud.kind].form(cloud), k_max=k_max)
    return cv.weak_liminf_probe(_coordinate(cloud), spec)


class TestInapplicable:
    @pytest.mark.parametrize(
        "compute, match",
        [
            (lambda: estimate_doubling(interval_grid(401), 5, [10.0], 0), "no admissible scale"),
            (
                lambda: estimate_doubling(square_grid(13), 5, [0.4], 0, interior_only=True),
                "interior restriction removed every sample",
            ),
            (lambda: make_scale_grid(interval_grid(9)), "empty admissible grid"),
            (
                lambda: fit_walk_dimension([_coordinate(interval_grid(17))]),
                "at least three scales",
            ),
            (lambda: pc.poincare_check(_coordinate(interval_grid(9))), "no admissible radii"),
            (
                lambda: pc._maximal_rho_grid(interval_grid(401), interval_grid(401).floor),
                "at or under the floor",
            ),
            (
                lambda: pc._maximal_rho_grid(interval_grid(401), 3.2 * interval_grid(401).mesh),
                "empty radius ladder below",
            ),
            (lambda: _liminf(interval_grid(401), 5), "spectrum too small"),
            (lambda: _liminf(interval_grid(17), 16), "scale grid too short"),
            (lambda: _recovery(gasket(3)), "fewer than three admissible scales on this cloud"),
        ],
        ids=[
            "doubling-scale",
            "doubling-interior",
            "scale-grid",
            "walk-fit",
            "poincare-radii",
            "rho-floor",
            "rho-ladder",
            "liminf-spectrum",
            "liminf-grid",
            "recovery-grid",
        ],
    )
    def test_too_coarse_raises_inapplicable(self, compute, match):
        with pytest.raises(Inapplicable, match=match):
            compute()

    def test_suite_skip_is_one_row_with_the_reason(self):
        results = run_suite("doubling", _ctx(interval_grid(9)))
        assert [r.row() for r in results] == [
            {
                "name": "doubling_skipped",
                "claim": "volume-doubling-bound",
                "passed": True,
                "constant": None,
                "details": {"reason": "empty admissible grid: r_max=0.25, floor=0.375"},
            }
        ]

    def test_poincare_skip_says_the_floor_is_not_below_the_top(self):
        # On interval 13 the floor and diam / (2 lambda) are both 0.25.
        (row,) = [r.row() for r in run_suite("poincare", _ctx(interval_grid(13)))]
        assert row["name"] == "poincare_skipped"
        assert row["details"] == {
            "reason": "no admissible radii: floor 0.25 is not below diam/(2*lambda) = 0.25"
        }

    def test_liminf_skip_keeps_the_recovery_row(self):
        by_name = {r.name: r for r in run_suite("convergence", _ctx(interval_grid(17)))}
        assert "mosco_recovery" in by_name and "sobolev_embedding" in by_name
        skipped = by_name["mosco_liminf_skipped"]
        assert skipped.passed and skipped.constant is None
        assert skipped.details == {"reason": "scale grid too short for the probe count"}
