"""Tests for recovery sequences, weak liminf probes, compactness nets, and
embedding quotients."""

import json
import math

import numpy as np
import pytest

from kslab import graphform
from kslab.convergence import (
    SobolevReport,
    compactness_probe,
    liminf_proxy,
    recovery_check,
    sobolev_check,
    weak_liminf_probe,
)
from kslab.energy import ScalarField, ks_energy, liminf_window_scales, make_scale_grid
from kslab.export import write_json
from kslab.graphform import form_energy, gasket_form, grid_form, spectrum
from kslab.space import Inapplicable, gasket, interval_grid, square_grid

from oracles import brute_ks_energy, dist_matrix

D_W_GASKET = math.log(5.0) / math.log(2.0)


@pytest.fixture(scope="module")
def grid401():
    cloud = interval_grid(401)
    form = grid_form(cloud)
    return cloud, form


@pytest.fixture(scope="module")
def gasket6():
    cloud = gasket(6)
    form = gasket_form(cloud)
    return cloud, form, spectrum(form)


@pytest.fixture(scope="module")
def gasket5_family():
    """Fifty random unit-energy mixtures of the first twenty eigenfields."""
    cloud = gasket(5)
    form = gasket_form(cloud)
    spec = spectrum(form, k_max=25)
    rng = np.random.default_rng(0)
    fields = []
    for _ in range(50):
        coef = rng.standard_normal(20)
        v = sum(c * spec.field(k + 1).values for k, c in enumerate(coef))
        f = ScalarField(cloud, v)
        fields.append(ScalarField(cloud, v / math.sqrt(form_energy(form, f))))
    return cloud, fields


class TestRecoveryCheck:
    def test_constant_trivial(self, grid401):
        cloud, form = grid401
        c = ScalarField.constant(cloud, 2.0)
        rep = recovery_check(c, form)
        assert rep.recovery_margin == 0.0
        assert rep.recovery_ok

    def test_sine_margin_bounded(self, grid401):
        cloud, form = grid401
        f = ScalarField.from_function(cloud, lambda c: np.sin(np.pi * c[:, 0]))
        rep = recovery_check(f, form)
        assert rep.recovery_ok
        assert 0.0 < rep.recovery_margin <= 3.0
        errors = [row[2] for row in rep.rows]
        assert all(b <= a * 1.05 for a, b in zip(errors, errors[1:]))

    def test_energies_match_brute_force(self, grid401):
        # The mollified-field energies feeding the margin must agree with
        # the O(n^2) double sum at the first three ladder steps.
        from kslab.smoothing import mollify, partition_of_unity

        cloud, form = grid401
        f = ScalarField.from_function(cloud, lambda c: np.sin(np.pi * c[:, 0]))
        rep = recovery_check(f, form)
        dmat = dist_matrix(cloud.coords)
        for eps, r, _, energy in rep.rows[:3]:
            f_eps = mollify(f, partition_of_unity(cloud, eps))
            brute = brute_ks_energy(dmat, cloud.weights, f_eps.values, r, 2.0)
            assert energy == pytest.approx(brute, rel=1e-12)

    def test_gasket_margins_stable(self, gasket6):
        cloud, form, spec = gasket6
        u1 = spec.field(1)
        rep = recovery_check(u1, form, d_w=D_W_GASKET, n_steps=4)
        assert rep.recovery_ok
        margins = [row[3] / rep.oracle for row in rep.rows]
        assert all(math.isfinite(m) for m in margins)
        assert max(margins) / min(margins) <= 2.0

    def test_margin_scale_invariant(self, grid401):
        cloud, form = grid401
        f = ScalarField.from_function(cloud, lambda c: np.sin(np.pi * c[:, 0]))
        g = ScalarField(cloud, 2.0 * f.values)
        m1 = recovery_check(f, form).recovery_margin
        m2 = recovery_check(g, form).recovery_margin
        assert m2 == pytest.approx(m1, rel=1e-12)

    def test_ladder_is_the_wide_grid_tail(self, grid401):
        # eps runs over the smallest scales of the grid that reaches diam/2,
        # each paired with r = eps kappa / 2.
        cloud, form = grid401
        f = ScalarField.from_function(cloud, lambda c: np.sin(np.pi * c[:, 0]))
        wide = make_scale_grid(cloud, r_max=cloud.diameter / 2.0).scales
        rep = recovery_check(f, form, n_steps=4)
        assert [row[0] for row in rep.rows] == [float(e) for e in wide[-4:]]
        assert [row[1] for row in rep.rows] == [float(e) * 1.5 for e in wide[-4:]]
        assert rep.scales.tolist() == [row[1] for row in rep.rows]

    def test_short_ladder_rejected(self, grid401):
        cloud, form = grid401
        f = ScalarField.coordinate(cloud, 0)
        for n_steps in (2, 0):
            # A bad argument, not a cloud too coarse for the check.
            with pytest.raises(ValueError, match="at least 3") as info:
                recovery_check(f, form, n_steps=n_steps)
            assert not isinstance(info.value, Inapplicable)

    def test_field_off_the_form_rejected(self, grid401):
        _, form = grid401
        f = ScalarField.coordinate(interval_grid(401), 0)
        with pytest.raises(ValueError, match="form's cloud"):
            recovery_check(f, form)

    def test_report_exports(self, grid401):
        cloud, form = grid401
        f = ScalarField.from_function(cloud, lambda c: np.sin(np.pi * c[:, 0]))
        rep = recovery_check(f, form)
        header, rows = rep.table()
        assert header == ("eps", "r", "l2_error", "energy")
        assert rows == rep.rows and len(rows) == 5
        assert math.isfinite(rep.recovery_margin)
        assert rep.liminf_margin is None
        assert rep.recovery_ok is True


class TestWeakLiminfProbe:
    def test_margin_equals_perturbed_energies(self, grid401):
        # The margin is the plain energy ratio of f + u_k at the probe
        # scales, tying this module to the sweep code.
        cloud, form = grid401
        spec = spectrum(form, k_max=60)
        u1 = spec.field(1)
        rep = weak_liminf_probe(u1, spec)
        grid = make_scale_grid(cloud).scales
        direct = min(
            ks_energy(ScalarField(cloud, u1.values + spec.field(k).values), float(r))
            for k, r in zip(range(21, 26), grid[-5:])
        ) / form_energy(form, u1)
        assert rep.liminf_margin == pytest.approx(direct, rel=1e-12)

    def test_grid_margin_above_half(self, grid401):
        cloud, form = grid401
        spec = spectrum(form, k_max=60)
        u1 = spec.field(1)
        rep = weak_liminf_probe(u1, spec)
        assert rep.liminf_ok
        assert rep.liminf_margin >= 0.5
        assert rep.nullity <= 0.05

    def test_probe_indices_start_high(self, grid401):
        cloud, form = grid401
        spec = spectrum(form, k_max=60)
        u1 = spec.field(1)
        rep = weak_liminf_probe(u1, spec)
        ks = [row[0] for row in rep.rows]
        assert ks == [21, 22, 23, 24, 25]

    def test_constant_target_vacuous(self, grid401):
        cloud, form = grid401
        spec = spectrum(form, k_max=60)
        c = ScalarField.constant(cloud, 1.0)
        rep = weak_liminf_probe(c, spec)
        assert rep.liminf_ok
        assert math.isinf(rep.liminf_margin)

    def test_gasket_margins_stable(self, gasket6):
        cloud, form, spec = gasket6
        u1 = spec.field(1)
        rep = weak_liminf_probe(u1, spec, d_w=D_W_GASKET, n_probes=3, offset=9)
        assert rep.liminf_ok
        assert rep.liminf_margin >= 1.0
        assert rep.nullity <= 0.05
        per = [row[2] / rep.oracle for row in rep.rows]
        assert max(per) / min(per) <= 2.0

    def test_small_spectrum_rejected(self, grid401):
        cloud, form = grid401
        spec = spectrum(form, k_max=12)
        u1 = spec.field(1)
        with pytest.raises(ValueError, match="spectrum too small"):
            weak_liminf_probe(u1, spec, n_probes=5)

    def test_offset_validated(self, grid401):
        cloud, form = grid401
        spec = spectrum(form, k_max=30)
        u1 = spec.field(1)
        with pytest.raises(ValueError, match="offset"):
            weak_liminf_probe(u1, spec, offset=0)
        with pytest.raises(ValueError, match="offset"):
            weak_liminf_probe(u1, spec, offset=28)

    def test_gasket_ladder_is_wide_grid_tail(self, monkeypatch):
        # The gasket probes read the last three scales of the grid that
        # reaches diam/2; on gasket 4 the default grid is too short and the
        # probe falls back to that grid.  The ladder does not depend on the
        # solver, so the sparse one keeps gasket 7 cheap.
        monkeypatch.setattr(graphform, "DENSE_EIGEN_LIMIT", 0)
        for level in (4, 5, 6, 7):
            cloud = gasket(level)
            spec = spectrum(gasket_form(cloud), k_max=13)
            rep = weak_liminf_probe(spec.field(1), spec, n_probes=3, offset=9)
            wide = make_scale_grid(cloud, r_max=cloud.diameter / 2.0).scales
            assert rep.scales.tolist() == wide[-3:].tolist()
        assert make_scale_grid(gasket(4)).scales.size < 3

    def test_short_grid_rejected(self):
        cloud = interval_grid(17)
        spec = spectrum(grid_form(cloud), k_max=15)
        with pytest.raises(ValueError, match="too short"):
            weak_liminf_probe(spec.field(1), spec)

    def test_csv_export(self, grid401):
        cloud, form = grid401
        spec = spectrum(form, k_max=60)
        rep = weak_liminf_probe(spec.field(1), spec)
        header, rows = rep.table()
        assert header == ("k", "r", "energy", "nullity")
        assert len(rows) == 5


def test_liminf_proxy_equals_per_field_window_minimum(pass_radii):
    cloud = gasket(5)
    fields = [
        ScalarField.coordinate(cloud, 0),
        ScalarField.from_function(cloud, lambda c: np.cos(4.0 * c[:, 1])),
        ScalarField.constant(cloud, 3.0),
    ]
    proxies = liminf_proxy(fields, d_w=D_W_GASKET)
    scales = liminf_window_scales(cloud)
    assert pass_radii == [max(scales)]
    for f, got in zip(fields, proxies):
        want = min(ks_energy(f, float(r), d_w=D_W_GASKET) for r in scales)
        assert got == want


class TestCompactnessProbe:
    def test_one_ball_pass_for_the_family(self, gasket5_family, pass_radii):
        cloud, fields = gasket5_family
        compactness_probe(fields, d_w=D_W_GASKET, delta=0.1)
        assert pass_radii == [max(liminf_window_scales(cloud))]

    def test_copies_collapse_to_one(self, grid401):
        cloud, _ = grid401
        f = ScalarField.coordinate(cloud, 0)
        unit = ScalarField(cloud, f.values / math.sqrt(f.l2sq() + liminf_proxy([f])[0]))
        probe = compactness_probe([unit] * 10, delta=0.1)
        assert probe.net_size == 1
        assert probe.n_fields == 10

    def test_gasket_family_small_net(self, gasket5_family):
        cloud, fields = gasket5_family
        probe = compactness_probe(fields, d_w=D_W_GASKET, delta=0.1)
        assert probe.net_size <= 25
        assert probe.max_gap <= 0.1

    def test_net_covers_family(self, gasket5_family):
        # Exhaustive check of the net property against plain pairwise
        # distances computed from scratch.
        cloud, fields = gasket5_family
        delta = 0.05
        probe = compactness_probe(fields, d_w=D_W_GASKET, delta=delta)
        mu = cloud.weights
        for f in fields:
            best = min(
                math.sqrt(float(mu @ (f.values - fields[c].values) ** 2))
                for c in probe.net_ids
            )
            assert best <= delta + 1e-12

    def test_net_size_monotone_in_delta(self, gasket5_family):
        cloud, fields = gasket5_family
        sizes = [
            compactness_probe(fields, d_w=D_W_GASKET, delta=d).net_size
            for d in (0.02, 0.05, 0.1, 0.2)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_cap_violation_rejected(self, gasket5_family):
        cloud, fields = gasket5_family
        spike = ScalarField(cloud, 1000.0 * fields[0].values)
        with pytest.raises(ValueError, match="violates the energy cap"):
            compactness_probe([fields[0], spike], d_w=D_W_GASKET, delta=0.1)

    def test_mixed_clouds_rejected(self, gasket5_family, grid401):
        cloud, fields = gasket5_family
        other, _ = grid401
        with pytest.raises(ValueError, match="different cloud"):
            compactness_probe(
                [fields[0], ScalarField.constant(other, 0.0)], delta=0.1
            )

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="empty family"):
            compactness_probe([], delta=0.1)

    def test_bad_delta_rejected(self, gasket5_family):
        cloud, fields = gasket5_family
        with pytest.raises(ValueError, match="delta"):
            compactness_probe(fields[:2], d_w=D_W_GASKET, delta=0.0)

    def test_json_deterministic(self, gasket5_family):
        cloud, fields = gasket5_family
        p1 = compactness_probe(fields, d_w=D_W_GASKET, delta=0.1)
        p2 = compactness_probe(fields, d_w=D_W_GASKET, delta=0.1)
        assert p1 == p2
        assert p1.net_size == len(p1.net_ids)


class TestSobolevCheck:
    def test_lq_branch_exponent(self):
        cloud = interval_grid(101)
        f = ScalarField.coordinate(cloud, 0)
        rep = sobolev_check([f], d_w=2.0, Q=3.0)
        assert rep.branch == "lq"
        assert rep.exponent == pytest.approx(6.0)
        assert 0.0 < rep.max_quotient < 10.0

    def test_sup_branch_stable_2d(self):
        quots = []
        for n in (101, 201):
            cloud = square_grid(n)
            f = ScalarField.coordinate(cloud, 0)
            rep = sobolev_check([f], d_w=2.0, Q=2.0)
            assert rep.branch == "sup"
            assert rep.exponent == pytest.approx(1.0)
            quots.append(rep.max_quotient)
        assert max(quots) / min(quots) <= 2.0

    def test_gasket_interpolation_exponent(self):
        # Q = log3/log2 and d_w = log5/log2 make theta = log3/log5.
        quots = []
        for level in (4, 5):
            cloud = gasket(level)
            form = gasket_form(cloud)
            spec = spectrum(form, k_max=10)
            fields = [spec.field(k) for k in range(1, 6)]
            rep = sobolev_check(
                fields, d_w=D_W_GASKET, Q=math.log(3.0) / math.log(2.0)
            )
            assert rep.branch == "sup"
            assert rep.exponent == pytest.approx(math.log(3.0) / math.log(5.0), abs=1e-12)
            assert np.all(rep.quotients > 0.0)
            quots.append(rep.max_quotient)
        assert max(quots) / min(quots) <= 2.0

    def test_one_ball_pass_for_the_family(self, pass_radii):
        cloud = interval_grid(101)
        fields = [ScalarField.coordinate(cloud, 0), ScalarField.from_function(cloud, np.exp)]
        sobolev_check(fields, d_w=2.0, Q=3.0)
        assert pass_radii == [max(liminf_window_scales(cloud))]

    def test_bad_growth_exponent(self):
        cloud = interval_grid(101)
        f = ScalarField.coordinate(cloud, 0)
        with pytest.raises(ValueError, match="must be positive"):
            sobolev_check([f], d_w=2.0, Q=0.0)

    def test_constant_field_rejected(self):
        cloud = interval_grid(101)
        c = ScalarField.constant(cloud, 1.0)
        with pytest.raises(ValueError, match="constant"):
            sobolev_check([c], d_w=2.0, Q=3.0)

    def test_empty_family_rejected(self):
        cloud = interval_grid(101)
        with pytest.raises(ValueError, match="empty family"):
            sobolev_check([], d_w=2.0, Q=3.0)

    def test_json_export(self):
        cloud = interval_grid(101)
        fields = [ScalarField.coordinate(cloud, 0), ScalarField.from_function(cloud, np.exp)]
        rep = sobolev_check(fields, d_w=2.0, Q=3.0)
        assert rep.quotients.shape == (2,)
        assert rep.max_quotient == rep.quotients.max()

    def test_non_finite_quotient_written_as_null(self, tmp_path):
        rep = SobolevReport(d_w=2.0, branch="lq", exponent=6.0, quotients=np.array([0.5, np.inf]))
        path = tmp_path / "sobolev.json"
        write_json(path, {"quotients": rep.quotients, "max_quotient": rep.max_quotient})

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        data = json.loads(path.read_text(), parse_constant=reject)
        assert data["quotients"] == [0.5, None]
        assert data["max_quotient"] is None
