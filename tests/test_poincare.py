"""Tests for sampled Poincaré inequalities, the maximal function, and the
telescoping estimate."""

import dataclasses
import math

import numpy as np
import pytest

from kslab.energy import ScalarField, ks_energy_density, liminf_window_scales, make_scale_grid
from kslab.graphform import gasket_form, grid_form, intrinsic_metric, spectrum
from kslab.poincare import (
    DEFAULT_LAMBDA,
    POINCARE_MODES,
    _maximal_rho_grid,
    maximal_function,
    poincare_check,
    telescoping_bound,
    weak_l2_check,
)
from kslab.space import DEFAULT_KAPPA, carpet, gasket, interval_grid, segment_sums
from kslab.suites import KINDS

from oracles import chain_ball_average, dist_matrix

LOG5_LOG2 = math.log(5.0) / math.log(2.0)


@pytest.fixture(scope="module")
def grid401():
    cloud = interval_grid(401)
    return cloud, ScalarField.coordinate(cloud, 0)


@pytest.fixture(scope="module")
def grid2001():
    cloud = interval_grid(2001)
    return cloud, ScalarField.coordinate(cloud, 0)


def interior_samples():
    return [(c, r) for c in (120, 200, 280) for r in (0.05, 0.1)]


def chain(cloud, f, x, rho, d_w=2.0):
    """The telescoping bound at x on the maximal field of f with R = rho."""
    return telescoping_bound(maximal_function(f, rho, d_w=d_w), x)


class TestPoincareCheck:
    def test_lip_identity_interior_third(self, grid2001):
        # For f = x on a ball B(x, R) well inside [0, 1], the variance is
        # R^2/3 times the mass while the slope rhs is R^2 times the mass,
        # so every interior ratio should sit at 1/3.
        cloud, f = grid2001
        samples = [(c, r) for c in (600, 1000, 1400) for r in (0.05, 0.1)]
        rep = poincare_check(f, lam=1.0, samples=samples)["lip"]
        for s in rep.samples:
            assert s.ratio == pytest.approx(1.0 / 3.0, rel=0.01)
        assert rep.c_best == pytest.approx(1.0 / 3.0, rel=0.01)
        assert rep.mode == "lip"
        assert rep.seed is None

    def test_constant_field_vacuous(self, grid401):
        cloud, _ = grid401
        c = ScalarField.constant(cloud, 3.0)
        for rep in poincare_check(c, samples=interior_samples()).values():
            assert rep.c_best == 0.0
            assert rep.n_used == 0
            assert all(math.isnan(s.ratio) for s in rep.samples)

    def test_ks_close_to_lip(self, grid401):
        cloud, f = grid401
        reps = poincare_check(f, d_w=2.0, lam=1.0, samples=interior_samples())
        rl, rk = reps["lip"], reps["ks"]
        assert rl.c_best > 0.0
        assert rk.c_best / rl.c_best < 4.0
        assert rl.c_best / rk.c_best < 4.0

    def test_lhs_shift_invariant(self, grid401):
        cloud, f = grid401
        g = ScalarField(cloud, f.values + 5.0)
        r1 = poincare_check(f, samples=interior_samples())["ks"]
        r2 = poincare_check(g, samples=interior_samples())["ks"]
        for a, b in zip(r1.samples, r2.samples):
            assert b.lhs == pytest.approx(a.lhs, abs=1e-15)

    def test_ratio_scale_invariant(self, grid401):
        cloud, f = grid401
        g = ScalarField(cloud, 2.0 * f.values)
        r1 = poincare_check(f, samples=interior_samples())["ks"]
        r2 = poincare_check(g, samples=interior_samples())["ks"]
        for a, b in zip(r1.samples, r2.samples):
            assert b.ratio == pytest.approx(a.ratio, rel=1e-12)

    def test_inflation_never_hurts(self, grid401):
        # Enlarging the rhs ball can only grow the rhs, so each sampled
        # ratio at lam = 2 is at most its lam = 1 counterpart.
        cloud, f = grid401
        ra = poincare_check(f, lam=1.0, samples=interior_samples())["ks"]
        rb = poincare_check(f, lam=2.0, samples=interior_samples())["ks"]
        for a, b in zip(ra.samples, rb.samples):
            assert b.ratio <= a.ratio + 1e-12

    def test_energy_measure_on_gasket(self):
        cloud = gasket(4)
        form = gasket_form(cloud)
        u = spectrum(form).field(2)
        rep = poincare_check(u, d_w=LOG5_LOG2, form=form)["energy_measure"]
        assert rep.n_used == len(rep.samples)
        assert 0.0 < rep.c_best < 10.0

    def test_default_sampling_deterministic(self, grid401):
        cloud, f = grid401
        r1 = poincare_check(f, seed=7)["lip"]
        r2 = poincare_check(f, seed=7)["lip"]
        assert r1.seed == 7
        assert [s.center for s in r1.samples] == [s.center for s in r2.samples]
        assert r1.c_best == r2.c_best
        assert len({s.center for s in r1.samples}) == 50

    def test_lambda_rejected(self, grid401):
        cloud, f = grid401
        with pytest.raises(ValueError, match="at least 1"):
            poincare_check(f, lam=0.5)

    def test_energy_measure_needs_form(self, grid401):
        cloud, f = grid401
        samples = interior_samples()
        assert list(poincare_check(f, samples=samples)) == ["lip", "ks"]
        reps = poincare_check(f, samples=samples, form=grid_form(cloud))
        assert list(reps) == list(POINCARE_MODES)
        assert [rep.mode for rep in reps.values()] == list(POINCARE_MODES)

    def test_form_cloud_mismatch(self, grid401):
        cloud, f = grid401
        other = interval_grid(101)
        form = grid_form(other)
        with pytest.raises(ValueError, match="form does not live"):
            poincare_check(f, form=form)

    def test_radius_bounds_enforced(self, grid401):
        cloud, f = grid401
        with pytest.raises(ValueError, match="outside the admissible range"):
            poincare_check(f, samples=[(10, 0.001)])
        with pytest.raises(ValueError, match="outside the admissible range"):
            poincare_check(f, samples=[(10, 0.6)])

    def test_center_bounds_enforced(self, grid401):
        cloud, f = grid401
        with pytest.raises(ValueError, match="out of range"):
            poincare_check(f, samples=[(4000, 0.05)])

    def test_csv_roundtrip(self, grid401):
        cloud, f = grid401
        rep = poincare_check(f, samples=interior_samples())["ks"]
        header, rows = rep.table()
        assert header == ("center", "R", "lhs", "rhs", "ratio")
        assert len(rows) == len(rep.samples)
        assert rows[0][0] == rep.samples[0].center
        assert rows[0][4] == rep.samples[0].ratio

    def test_json_summary(self, grid401):
        cloud, f = grid401
        rep = poincare_check(f, samples=interior_samples())["lip"]
        assert rep.mode == "lip"
        assert rep.lam == 2.0
        assert rep.c_best > 0.0
        assert rep.seed is None


def _written_out_ladder(cloud, top, count, below_top):
    # The reference ladder written out in full: ratio 2^(-1/2) from the
    # top, mid-mesh snapping, the kappa h floor, distinct radii, descending.
    h = cloud.mesh
    snapped = (np.round(top * (2.0**-0.5) ** np.arange(count) / h - 0.5) + 0.5) * h
    keep = snapped >= cloud.floor
    if below_top:
        keep &= snapped < top
    return np.unique(snapped[keep])[::-1]


@pytest.mark.parametrize("build", [lambda: interval_grid(2001), lambda: carpet(4), lambda: gasket(6)])
def test_radius_ladders_keep_their_written_out_radii(build):
    cloud = build()
    R = max(4.0 * DEFAULT_KAPPA * cloud.mesh, cloud.diameter / 8.0)
    for top in (R, DEFAULT_LAMBDA * R):  # the maximal function's and the chain's
        count = max(1, math.ceil(math.log(top / cloud.floor) / math.log(1.0 / 2.0**-0.5)) + 2)
        expected = _written_out_ladder(cloud, top, count, below_top=True)
        assert _maximal_rho_grid(cloud, top).tobytes() == expected.tobytes()
    for r_max in (cloud.diameter / 4.0, cloud.diameter / 2.0):
        expected = _written_out_ladder(cloud, r_max, 12, below_top=False)
        assert make_scale_grid(cloud, r_max).scales.tobytes() == expected.tobytes()


class TestMaximalFunction:
    def test_constant_is_zero(self, grid401):
        cloud, _ = grid401
        c = ScalarField.constant(cloud, 2.0)
        m = maximal_function(c, R=0.1)
        assert np.all(m.values == 0.0)

    def test_identity_interior_level(self, grid401):
        # The normalized energy of f = x over any interior ball tends to
        # 1/3, so the maximal field should sit near sqrt(1/3) there.
        cloud, f = grid401
        m = maximal_function(f, R=0.1)
        interior = m.values[120:281]
        target = math.sqrt(1.0 / 3.0)
        assert np.all(np.abs(interior - target) < 0.2 * target)

    def test_monotone_in_radius(self, grid401):
        cloud, f = grid401
        m_small = maximal_function(f, R=0.05)
        m_big = maximal_function(f, R=0.1)
        assert np.all(m_small.values <= m_big.values + 1e-15)

    def test_dominates_top_scale(self, grid401):
        cloud, f = grid401
        m = maximal_function(f, R=0.1)
        rho = float(m.rho_grid[0])
        for x in range(cloud.n):
            ids = cloud.ball_ids(x, rho)
            top = m.window_rows[:, ids].sum(axis=1).min() / cloud.weights[ids].sum()
            assert m.values[x] ** 2 >= top - 1e-12

    @pytest.mark.parametrize("make", [lambda: interval_grid(401), lambda: carpet(3)])
    def test_equals_per_radius_formula(self, make, pass_radii):
        # One ball pass per ladder radius, as the maximal function was once
        # computed: per centre, the window minimum of the ball's energy over
        # its mass, maximized over the ladder.
        cloud = make()
        f = ScalarField.from_function(cloud, lambda c: np.sin(3.0 * c[:, 0]) + c[:, -1] ** 2)
        R = cloud.diameter / 8.0
        m = maximal_function(f, R)
        assert pass_radii == [max(m.window_scales), m.rho_grid[0]]
        rows = np.stack([ks_energy_density(f, [r])[0] for r in m.window_scales])
        np.testing.assert_array_equal(m.window_rows, rows)
        best = np.zeros(cloud.n)
        for rho in m.rho_grid:
            cand = np.empty(cloud.n)
            pos = 0
            for sub, flat, counts, _ in cloud.ball_chunks(float(rho)):
                mass = segment_sums(cloud.weights[flat], counts)
                sums = np.stack([segment_sums(row[flat], counts) for row in rows])
                cand[pos : pos + sub.size] = sums.min(axis=0) / mass
                pos += sub.size
            np.maximum(best, cand, out=best)
        np.testing.assert_array_equal(m.values, np.sqrt(best))

    def test_radius_under_floor_rejected(self, grid401):
        cloud, f = grid401
        with pytest.raises(ValueError, match="radius ladder"):
            maximal_function(f, R=0.001)


class TestWeakL2:
    def test_constant_gives_zero_quotients(self, grid401):
        cloud, _ = grid401
        c = ScalarField.constant(cloud, 1.0)
        m = maximal_function(c, R=0.1)
        rep = weak_l2_check(m)
        assert rep.e_proxy == 0.0
        assert np.all(rep.quotients == 0.0)

    def test_quotients_bounded(self, grid401):
        cloud, f = grid401
        m = maximal_function(f, R=0.1)
        rep = weak_l2_check(m)
        assert rep.max_quotient < 10.0
        assert np.all(rep.quotients >= 0.0)

    def test_stable_across_resolutions(self):
        # The default ladders on two refinements of the unit interval: a
        # quotient is positive on one exactly when it is on the other, and
        # the positive ones agree within a factor 2.
        quots = []
        for n in (401, 801):
            cloud = interval_grid(n)
            f = ScalarField.coordinate(cloud, 0)
            m = maximal_function(f, R=0.1)
            quots.append(weak_l2_check(m).quotients)
        positive = quots[0] > 0.0
        assert positive.sum() >= 2
        np.testing.assert_array_equal(quots[1] > 0.0, positive)
        for a, b in zip(quots[0][positive], quots[1][positive]):
            assert max(a, b) / min(a, b) < 2.0

    def test_inconsistent_inputs_rejected(self, grid401):
        # The maximal field of f paired with the (zero) window energies of
        # a constant field.
        cloud, f = grid401
        c = ScalarField.constant(cloud, 1.0)
        m = maximal_function(f, R=0.1)
        flat_rows = maximal_function(c, R=0.1).window_rows
        fake = dataclasses.replace(m, window_rows=flat_rows)
        with pytest.raises(RuntimeError, match="zero global energy"):
            weak_l2_check(fake)

    def test_energy_proxy_is_window_minimum(self, grid401):
        cloud, f = grid401
        m = maximal_function(f, R=0.1)
        rows = [ks_energy_density(f, [r])[0] for r in m.window_scales]
        assert weak_l2_check(m).e_proxy == min(float(row.sum()) for row in rows)

    def test_csv_export(self, grid401):
        cloud, f = grid401
        m = maximal_function(f, R=0.1)
        assert m.values.shape == (cloud.n,)
        assert np.all(m.values >= 0.0)


class TestTelescopingBound:
    def test_constant_trivial(self, grid2001):
        cloud, _ = grid2001
        c = ScalarField.constant(cloud, 4.0)
        rep = chain(cloud, c, 1000, 0.2)
        assert rep.lhs <= 1e-12
        assert rep.c_report == 0.0
        assert rep.ok

    def test_identity_interior_symmetric(self, grid2001):
        # Interior balls around the same center share their mean for
        # f = x, so the whole dyadic chain telescopes to zero.
        cloud, f = grid2001
        rep = chain(cloud, f, 1000, 0.2)
        assert rep.lhs <= 1e-12
        assert rep.ok

    def test_quadratic_matches_brute_chain(self, grid2001):
        cloud, f0 = grid2001
        f = ScalarField.from_function(cloud, lambda c: c[:, 0] ** 2)
        rep = chain(cloud, f, 500, 0.2)
        dmat = dist_matrix(cloud.coords)
        brute = abs(
            chain_ball_average(dmat, cloud.weights, f.values, 500, 0.2)
            - chain_ball_average(dmat, cloud.weights, f.values, 500, rep.rho_min)
        )
        assert rep.lhs == pytest.approx(brute, rel=1e-12)
        assert rep.ok
        assert rep.c_report <= 4.0

    def test_chain_levels_halve_to_floor(self, grid2001):
        cloud, f = grid2001
        rep = chain(cloud, f, 500, 0.2)
        floor = 3.0 * cloud.mesh
        assert rep.levels[0] == pytest.approx(0.2)
        assert np.allclose(rep.levels[:-1] / rep.levels[1:], 2.0)
        assert rep.rho_min >= floor
        assert rep.rho_min / 2.0 < floor

    def test_stable_across_radii(self, grid2001):
        cloud, _ = grid2001
        f = ScalarField.from_function(cloud, lambda c: c[:, 0] ** 2)
        for rho in (0.1, 0.2):
            rep = chain(cloud, f, 500, rho)
            assert rep.ok
            assert rep.c_report <= 4.0

    def test_small_rho_rejected(self, grid2001):
        cloud, f = grid2001
        with pytest.raises(ValueError, match="dyadic chain"):
            chain(cloud, f, 500, 0.005)

    @pytest.mark.parametrize("x", [0, 500, 1000])
    def test_rhs_equals_full_cloud_formula(self, grid2001, x, pass_radii):
        cloud, _ = grid2001
        f = ScalarField.from_function(cloud, lambda c: c[:, 0] ** 2)
        rho, lam, d_w = 0.2, DEFAULT_LAMBDA, 2.0
        maximal = maximal_function(f, rho, d_w=d_w)
        pass_radii.clear()
        rep = telescoping_bound(maximal, x)
        # The chain reads the maximal field's window rows: no pass of its own.
        assert pass_radii == []
        w_scales = liminf_window_scales(cloud)
        rows = np.stack([ks_energy_density(f, [r], d_w=d_w)[0] for r in w_scales])
        m_val = 0.0
        for r in _maximal_rho_grid(cloud, lam * rho):
            ids = cloud.ball_ids(x, float(r))
            m_val = max(m_val, float(rows[:, ids].sum(axis=1).min()) / float(cloud.weights[ids].sum()))
        assert rep.rhs == rho ** (d_w / 2.0) * math.sqrt(m_val)

    def test_center_validated(self, grid2001):
        cloud, f = grid2001
        with pytest.raises(ValueError, match="out of range"):
            chain(cloud, f, 5000, 0.2)


@pytest.mark.parametrize("end", ["low", "high"])
def test_one_id_check_for_samples_chains_and_endpoints(grid401, end):
    # Poincare samples, the telescoping centre and the intrinsic metric's
    # endpoints go through the cloud's one id check.
    cloud, f = grid401
    bad = -1 if end == "low" else cloud.n
    form = grid_form(cloud)
    queries = [
        lambda: poincare_check(f, samples=[(bad, 0.05)]),
        lambda: chain(cloud, f, bad, 0.2),
        lambda: intrinsic_metric(form, bad, 0),
        lambda: intrinsic_metric(form, 0, bad),
    ]
    for query in queries:
        with pytest.raises(ValueError, match=f"^id {bad} out of range$"):
            query()


# Values of the one-mode-per-call Poincaré checks and of the chain with its
# own region-restricted densities, which the shared computations replace:
# per mode (c_best, n_used), and the chain's (x, lhs, rhs, c_report) at the
# suite's R.
PINNED = {
    "interval401": (
        {
            "lip": (0.3180730832411158, 350),
            "ks": (0.9859554213529281, 350),
            "energy_measure": (0.32176601409981065, 350),
        },
        (341, 0.007437768618967278, 0.05695646299716463, 0.1305869119600622),
    ),
    "gasket5": (
        {
            "lip": (0.14564617519352968, 100),
            "ks": (1.2388713338975292, 100),
            "energy_measure": (0.07170976362314702, 100),
        },
        (311, 0.07249842842702447, 0.31354774449185174, 0.23121974149269797),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_shared_samples_and_chain_keep_their_values(name):
    from kslab.space import DEFAULT_KAPPA

    cloud, d_w = {"interval401": (interval_grid(401), 2.0), "gasket5": (gasket(5), LOG5_LOG2)}[name]
    f = ScalarField.from_function(cloud, lambda c: np.sin(3.0 * c[:, 0]) + c[:, -1] ** 2)
    modes, (x, lhs, rhs, c_report) = PINNED[name]
    reps = poincare_check(f, d_w=d_w, seed=0, form=KINDS[cloud.kind].form(cloud))
    assert {mode: (rep.c_best, rep.n_used) for mode, rep in reps.items()} == modes
    R = max(4.0 * DEFAULT_KAPPA * cloud.mesh, cloud.diameter / 8.0)
    maximal = maximal_function(f, R, d_w=d_w)
    assert maximal.field is f and maximal.cloud is cloud
    assert int(np.random.default_rng(0).integers(0, cloud.n)) == x
    tele = telescoping_bound(maximal, x)
    assert (tele.rho, tele.d_w) == (R, d_w)
    assert (tele.lhs, tele.rhs, tele.c_report) == (lhs, rhs, c_report)


@pytest.mark.parametrize("lam", [1.0, DEFAULT_LAMBDA])
@pytest.mark.parametrize("with_form", [False, True])
def test_one_ball_query_per_sample_and_radius_whatever_the_modes(grid401, monkeypatch, lam, with_form):
    # Both balls of every sample mask its centre's canonical distance row,
    # which is read once per distinct centre; no sample calls ball_ids.
    from kslab.space import MeasuredPointCloud

    cloud, f = grid401
    form = grid_form(cloud) if with_form else None
    rows, balls = [], []
    real_row, real_ball = MeasuredPointCloud.distances_from, MeasuredPointCloud.ball_ids

    def counting_row(self, x):
        rows.append(x)
        return real_row(self, x)

    def counting_ball(self, x, r):
        balls.append((x, r))
        return real_ball(self, x, r)

    monkeypatch.setattr(MeasuredPointCloud, "distances_from", counting_row)
    monkeypatch.setattr(MeasuredPointCloud, "ball_ids", counting_ball)
    samples = interior_samples()
    reps = poincare_check(f, lam=lam, samples=samples, form=form)
    assert len(reps) == (3 if with_form else 2)
    assert rows == [120, 200, 280] and balls == []
    # Every mode reads the same lhs on the same balls.
    lhs = [[s.lhs for s in rep.samples] for rep in reps.values()]
    assert all(row == lhs[0] for row in lhs)
