"""Dirichlet form module: calibrations, spectra, kernels, metrics."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab import graphform as gf
from kslab.energy import ScalarField
from kslab.graphform import (
    GraphDirichletForm,
    eigen_walk_dimension,
    energy_measure,
    fit_subgaussian,
    form_energy,
    gamma_vs_lip_check,
    gasket_form,
    gasket_harmonic_field,
    grid_form,
    heat_kernel,
    intrinsic_metric,
    spectrum,
)
from kslab.space import (
    MeasuredPointCloud,
    _gasket_subdivision,
    build_cloud,
    carpet,
    gasket,
    interval_grid,
    square_grid,
)
from kslab.suites import KINDS

from oracles import (
    convex_intrinsic_metric,
    dual_intrinsic_metric,
    edge_bilinear,
    uniformized_heat_kernel,
)

LOG5_LOG2 = np.log(5.0) / np.log(2.0)
LOG3_LOG5 = np.log(3.0) / np.log(5.0)


@pytest.fixture(scope="module")
def gasket6():
    cloud = gasket(6)
    form = gasket_form(cloud)
    return cloud, form, spectrum(form)


def unit_pair_cloud(weights=(1.0, 1.0)):
    return MeasuredPointCloud(
        np.asarray(weights, dtype=float), coords=np.array([[0.0], [1.0]])
    )


def unit_pair_form(weights=(1.0, 1.0)):
    cloud = unit_pair_cloud(weights)
    return cloud, GraphDirichletForm(
        cloud=cloud,
        edge_i=np.array([0], dtype=np.intp),
        edge_j=np.array([1], dtype=np.intp),
        conductances=np.array([1.0]),
        renorm=1.0,
    )


# ----------------------------------------------------------------------
# construction and calibration
# ----------------------------------------------------------------------


def test_form_builders_refuse_mismatched_clouds():
    # The form kind is the cloud kind; each builder refuses a cloud it cannot
    # serve, and a kind without a reference form names no builder.
    assert grid_form(interval_grid(10)).kind == "interval_grid"
    assert grid_form(square_grid(4)).kind == "square_grid"
    assert gasket_form(gasket(2)).kind == "gasket"
    for cloud in (gasket(2), unit_pair_cloud()):
        with pytest.raises(ValueError, match="a grid form needs a cloud with a lattice"):
            grid_form(cloud)
    with pytest.raises(ValueError, match="a gasket form needs a gasket cloud"):
        gasket_form(interval_grid(5))
    assert KINDS["carpet"].form is None and KINDS["file"].form is None


def test_form_kinds_are_cloud_kinds():
    # One vocabulary: a form's kind is its cloud's, the kinds with a form are
    # the rows of KINDS that name a builder, and nothing under src or demos
    # spells the old grid names.
    assert {k for k, row in KINDS.items() if row.form} == {"interval_grid", "square_grid", "gasket"}
    names = [f.name for f in dataclasses.fields(GraphDirichletForm)]
    assert names == ["cloud", "edge_i", "edge_j", "conductances", "renorm"]
    root = Path(__file__).resolve().parents[1]
    for path in [*(root / "src" / "kslab").glob("*.py"), *(root / "demos").glob("*.py")]:
        text = path.read_text()
        assert "grid1d" not in text and "grid2d" not in text, path.name


@pytest.mark.parametrize("n", [2, 9, 2001])
def test_lattice_edges_on_an_interval(n):
    i, j = gf._lattice_edges(interval_grid(n).lattice)
    assert np.array_equal(i, np.arange(n - 1))
    assert np.array_equal(j, np.arange(1, n))


@pytest.mark.parametrize("side", [2, 13, 101])
def test_lattice_edges_on_a_square(side):
    # Horizontal pairs (along rows), then vertical pairs.
    ids = np.arange(side * side).reshape(side, side)
    i, j = gf._lattice_edges(square_grid(side).lattice)
    assert np.array_equal(i, np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()]))
    assert np.array_equal(j, np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()]))


def test_lattice_edges_on_a_carpet():
    # The holes break no pair of neighbouring cells: the edges are exactly
    # the pairs of cell centres one lattice step apart.
    cloud = carpet(2)
    i, j = gf._lattice_edges(cloud.lattice)
    d = np.abs(cloud.coords[:, None, :] - cloud.coords[None, :, :]).sum(axis=2)
    near = np.argwhere(np.triu(np.isclose(d, cloud.lattice.step)))
    assert np.all(i < j)
    assert sorted(zip(i.tolist(), j.tolist())) == sorted(map(tuple, near.tolist()))


def test_form_validation():
    cloud = unit_pair_cloud()
    with pytest.raises(ValueError, match="self-loops"):
        GraphDirichletForm(
            cloud=cloud,
            edge_i=np.array([0], dtype=np.intp),
            edge_j=np.array([0], dtype=np.intp),
            conductances=np.array([1.0]),
            renorm=1.0,
        )
    with pytest.raises(ValueError, match="positive"):
        GraphDirichletForm(
            cloud=cloud,
            edge_i=np.array([0], dtype=np.intp),
            edge_j=np.array([1], dtype=np.intp),
            conductances=np.array([-1.0]),
            renorm=1.0,
        )
    three = MeasuredPointCloud(np.ones(3), coords=np.arange(3.0).reshape(-1, 1))
    with pytest.raises(ValueError, match="connected"):
        GraphDirichletForm(
            cloud=three,
            edge_i=np.array([0], dtype=np.intp),
            edge_j=np.array([1], dtype=np.intp),
            conductances=np.array([1.0]),
            renorm=1.0,
        )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
)
def test_component_count_matches_scipy(n, edges):
    # The form's connectivity check counts components without scipy.
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    pairs = np.array([(a, b) for a, b in edges if a < n and b < n], dtype=np.intp).reshape(-1, 2)
    i, j = pairs.T
    adj = coo_matrix((np.ones(i.size), (i, j)), shape=(n, n))
    assert gf._component_count(n, i, j) == connected_components(adj, directed=False)[0]


def test_grid1d_energy_of_identity():
    cloud = interval_grid(101)
    form = grid_form(cloud)
    f = ScalarField.coordinate(cloud)
    n = cloud.n
    assert form_energy(form, f) == pytest.approx((n - 1) / n, rel=1e-12)
    assert form_energy(form, f) == pytest.approx(1.0, rel=0.02)


def test_grid1d_energy_of_sine():
    cloud = interval_grid(201)
    form = grid_form(cloud)
    f = ScalarField.from_function(cloud, lambda c: np.sin(np.pi * c[:, 0]))
    assert form_energy(form, f) == pytest.approx(np.pi**2 / 2.0, rel=0.02)


def test_grid2d_energy_of_identity():
    cloud = square_grid(21)
    form = grid_form(cloud)
    f = ScalarField.coordinate(cloud, axis=0)
    side = 21
    assert form_energy(form, f) == pytest.approx((side - 1) / side, rel=1e-12)


def test_gasket_harmonic_energy_level_invariant():
    # The 1/5-2/5 extension is the fixed point of the (5/3)^m calibration:
    # its energy must not move across levels.
    energies = []
    for level in range(1, 6):
        cloud = gasket(level)
        form = gasket_form(cloud)
        f = gasket_harmonic_field(cloud)
        energies.append(form_energy(form, f))
    assert energies[0] == pytest.approx(2.0, abs=1e-10)
    assert np.ptp(energies) < 1e-8


def _harmonic_by_subdivision(level, boundary):
    """The 1/5-2/5 extension by splitting cells, as a standalone loop."""
    side = 2**level
    corners = ((0, 0), (side, 0), (0, side))
    values = dict(zip(corners, map(float, boundary)))
    cells = [corners]
    for _ in range(level):
        nxt = []
        for a, b, c in cells:
            ab = ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
            ac = ((a[0] + c[0]) // 2, (a[1] + c[1]) // 2)
            bc = ((b[0] + c[0]) // 2, (b[1] + c[1]) // 2)
            va, vb, vc = values[a], values[b], values[c]
            values[ab] = (2.0 * va + 2.0 * vb + vc) / 5.0
            values[ac] = (2.0 * va + 2.0 * vc + vb) / 5.0
            values[bc] = (2.0 * vb + 2.0 * vc + va) / 5.0
            nxt.extend([(a, ab, ac), (ab, b, bc), (ac, bc, c)])
        cells = nxt
    verts, _, _ = gf.gasket_graph(level)
    return np.array([values[(int(a), int(b))] for a, b in verts])


@pytest.mark.parametrize("level", [3, 6])
@pytest.mark.parametrize("boundary", [(1.0, 0.0, 0.0), (0.3, -1.7, 2.9)])
def test_gasket_harmonic_matches_subdivision_loop(level, boundary):
    # gasket_harmonic_field takes the corners (1, 0, 0); others go through
    # the subdivision it reads.
    want = _harmonic_by_subdivision(level, boundary)
    _, verts, values = _gasket_subdivision(level, boundary)
    assert np.array_equal([values[v] for v in verts], want)
    if boundary == (1.0, 0.0, 0.0):
        assert np.array_equal(gasket_harmonic_field(gasket(level)).values, want)


def test_gasket_harmonic_needs_gasket_cloud():
    with pytest.raises(ValueError, match="gasket"):
        gasket_harmonic_field(interval_grid(5))


# ----------------------------------------------------------------------
# energy measure
# ----------------------------------------------------------------------


def test_constant_field_zero_energy_and_density():
    cloud = interval_grid(31)
    form = grid_form(cloud)
    f = ScalarField.constant(cloud, 3.7)
    assert form_energy(form, f) == 0.0
    assert np.all(energy_measure(form, f) == 0.0)


def test_two_vertex_energy_and_density():
    _, form = unit_pair_form()
    f = ScalarField(form.cloud, np.array([0.0, 1.0]))
    assert form_energy(form, f) == pytest.approx(1.0, abs=1e-15)
    dens = energy_measure(form, f)
    assert dens == pytest.approx([0.5, 0.5], abs=1e-15)


def test_identity_density_matches_measure_in_interior():
    cloud = interval_grid(101)
    form = grid_form(cloud)
    ratio = energy_measure(form, ScalarField.coordinate(cloud)) / cloud.weights
    assert np.allclose(ratio[1:-1], 1.0, rtol=0.05)
    assert ratio[0] == pytest.approx(0.5, rel=1e-9)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_density_sums_to_energy(seed):
    rng = np.random.default_rng(seed)
    cloud = interval_grid(40)
    form = grid_form(cloud)
    f = ScalarField(cloud, rng.normal(size=40))
    density = energy_measure(form, f)
    assert density.sum() == pytest.approx(form_energy(form, f), rel=1e-12, abs=1e-15)


def test_markov_contraction_seeded():
    cloud = interval_grid(60)
    form = grid_form(cloud)
    rng = np.random.default_rng(7)
    for _ in range(30):
        v = rng.normal(scale=2.0, size=60)
        f = ScalarField(cloud, v)
        truncated = ScalarField(cloud, np.clip(v, 0.0, 1.0))
        assert form_energy(form, truncated) <= form_energy(form, f) + 1e-14


def test_strong_locality_seeded():
    cloud = interval_grid(80)
    form = grid_form(cloud)
    rng = np.random.default_rng(11)
    for _ in range(20):
        g_vals = np.zeros(80)
        lo = rng.integers(10, 50)
        hi = lo + rng.integers(3, 15)
        g_vals[lo:hi] = rng.normal(size=hi - lo)
        f_vals = rng.normal(size=80)
        f_vals[max(lo - 2, 0) : min(hi + 2, 80)] = 4.2  # flat around supp(g)
        assert abs(edge_bilinear(form, f_vals, g_vals)) < 1e-12


# ----------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------


def test_spectrum_ground_state():
    cloud = interval_grid(25)
    spec = spectrum(grid_form(cloud))
    assert spec.eigenvalues[0] == 0.0
    u0 = spec.eigenfields[:, 0]
    assert np.ptp(u0) < 1e-9
    assert np.dot(cloud.weights, u0**2) == pytest.approx(1.0, abs=1e-12)


def test_path_spectrum_closed_form():
    # Discrete Neumann line: lambda_k = 4 sin^2(k pi / 2n) / h^2.
    cloud = interval_grid(101)
    spec = spectrum(grid_form(cloud))
    n, h = cloud.n, cloud.mesh
    k = np.arange(n)
    exact = 4.0 * np.sin(k * np.pi / (2 * n)) ** 2 / h**2
    assert np.max(np.abs(spec.eigenvalues - exact)) < 1e-8 * exact.max()


@pytest.mark.parametrize("n", [2001, 3001, 4097, 8193])
def test_path_low_band_closed_form(n):
    # The tridiagonal solve keeps lambda_1 ... lambda_24 of a fine line to
    # near machine precision relative to each eigenvalue, not only to
    # lambda_max: each is the form's Rayleigh quotient of its field, a sum
    # of nonnegative terms, so it stays accurate as the mesh refines.
    cloud = interval_grid(n)
    spec = spectrum(grid_form(cloud), 25)
    k = np.arange(1, 25)
    exact = 4.0 * np.sin(k * np.pi / (2 * n)) ** 2 / cloud.mesh**2
    assert np.max(np.abs(spec.eigenvalues[1:] / exact - 1.0)) < 1e-13


def test_path_ground_state_is_exactly_zero():
    # The null mode's quotient is far below the clamp even in a 4-mode band,
    # whose largest eigenvalue sets the clamp threshold.
    spec = spectrum(grid_form(interval_grid(4097)), 4)
    assert spec.eigenvalues[0] == 0.0 and spec.eigenvalues[1] > 0.0


def test_path_band_memory_is_n_by_k():
    # Bisection and inverse iteration hold n x k_max numbers, not the n x n
    # eigenvector array of a full tridiagonal solve (128 MiB at n = 4097).
    import tracemalloc

    form = grid_form(interval_grid(4097))
    tracemalloc.start()
    try:
        spectrum(form, 25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_path_band_does_not_depend_on_blas_threads():
    # stein's cluster orthogonalisation sums in an order that follows the
    # BLAS thread count from n ~ 10 000 on; the path route keeps its sums
    # in numpy, so both thread counts give the same bytes.
    import os
    import subprocess
    import sys

    script = """
import hashlib
from kslab.graphform import grid_form, spectrum
from kslab.space import interval_grid

spec = spectrum(grid_form(interval_grid(12001)), 25)
print(hashlib.sha256(spec.eigenvalues.tobytes() + spec.eigenfields.tobytes(order="A")).hexdigest())
"""
    src = str(Path(gf.__file__).parent.parent)
    digests = [
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert digests[0] == digests[1] != ""


def test_path_spectrum_by_hand_n4():
    cloud = interval_grid(4)
    spec = spectrum(grid_form(cloud))
    h = cloud.mesh
    exact = 4.0 * np.sin(np.arange(4) * np.pi / 8.0) ** 2 / h**2
    assert spec.eigenvalues == pytest.approx(exact, abs=1e-8)


def test_spectrum_mu_orthonormal():
    cloud = interval_grid(40)
    spec = spectrum(grid_form(cloud))
    gram = spec.eigenfields.T @ (cloud.weights[:, None] * spec.eigenfields)
    assert np.max(np.abs(gram - np.eye(cloud.n))) < 1e-9


def test_parseval():
    cloud = interval_grid(101)
    spec = spectrum(grid_form(cloud))
    rng = np.random.default_rng(3)
    f = rng.normal(size=cloud.n)
    coeffs = spec.eigenfields.T @ (cloud.weights * f)
    l2sq = float(np.dot(cloud.weights, f**2))
    assert np.sum(coeffs**2) == pytest.approx(l2sq, rel=1e-8)


def test_spectrum_k_max_validation():
    form = grid_form(interval_grid(10))
    with pytest.raises(ValueError, match="k_max"):
        spectrum(form, k_max=11)
    assert spectrum(form, k_max=3).eigenvalues.size == 3


def test_path_form_takes_no_dense_solve(eigh_sizes):
    form = grid_form(interval_grid(201))
    coarse = grid_form(interval_grid(101))
    band = spectrum(form, 25)
    low = spectrum(form, 4)
    spectrum(form)
    eigen_walk_dimension(spectrum(coarse, 4), band)
    assert eigh_sizes == []
    # Each k_max is its own solve: the prefixes agree to rounding, not bit for bit.
    np.testing.assert_allclose(low.eigenvalues, band.eigenvalues[:4], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "kind, make_cloud, size", [("gasket", gasket, 5), ("interval_grid", interval_grid, 201)]
)
def test_two_solves_agree_bit_for_bit(kind, make_cloud, size):
    # A form solved before and a fresh form give the same bytes: the form
    # keeps nothing of a solve.  k_max = 1 keeps only the null mode, whose
    # eigenvalue is clamped to zero and whose residual must then be taken
    # against zero.
    cloud = make_cloud(size)
    shared = KINDS[kind].form(cloud)
    assert shared.kind == kind
    spectrum(shared)
    for k_max in (25, None, 4, 1):
        again = spectrum(shared, k_max)
        fresh = spectrum(KINDS[kind].form(cloud), k_max)
        assert np.array_equal(again.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(again.eigenfields, fresh.eigenfields)
        assert again.residual == fresh.residual
        assert again.k_max == fresh.k_max == (k_max or cloud.n)
    if kind == "gasket":  # dense: every k_max keeps the leading pairs of one solve
        low, band = spectrum(shared, 4), spectrum(shared, 25)
        assert np.array_equal(low.eigenvalues, band.eigenvalues[:4])
        assert np.array_equal(low.eigenfields, band.eigenfields[:, :4])


def _mu_projectors(vals, fields, weights, tol):
    """The mu-orthogonal projector onto each cluster of equal eigenvalues."""
    breaks = np.flatnonzero(np.diff(vals) > tol) + 1
    for block in np.split(np.arange(vals.size), breaks):
        u = fields[:, block]
        yield block, u @ (u.T * weights)


@pytest.mark.parametrize(
    "kind, make_cloud, size", [("gasket", gasket, 5), ("interval_grid", interval_grid, 201)]
)
def test_dense_solve_matches_independent_solve(kind, make_cloud, size):
    # Gasket 5 has a doubly degenerate lambda_1: inside a degenerate
    # eigenspace the two solvers may pick different bases, so eigenspaces
    # are compared through their projectors, not vector by vector.  A
    # projector is only determined to about eps * lambda_max / gap, so
    # eigenvalues closer than 1e-6 lambda_max count as one cluster (gasket 5
    # has a simple and a double eigenvalue 1.5e-8 lambda_max apart).
    cloud = make_cloud(size)
    form = KINDS[kind].form(cloud)
    assert form.kind == kind
    sym = form.generator.toarray()
    assert np.array_equal(sym, sym.T)
    ref_vals, ref_vecs = scipy.linalg.eigh(sym, driver="evr")
    ref_fields = ref_vecs / np.sqrt(cloud.weights)[:, None]

    spec = spectrum(form)
    lam_max = float(ref_vals[-1])
    assert np.max(np.abs(spec.eigenvalues - ref_vals)) <= 1e-10 * lam_max
    w = cloud.weights
    tol = 1e-6 * lam_max
    ours = list(_mu_projectors(spec.eigenvalues, spec.eigenfields, w, tol))
    theirs = list(_mu_projectors(ref_vals, ref_fields, w, tol))
    assert [b.tolist() for b, _ in ours] == [b.tolist() for b, _ in theirs]
    if kind == "gasket":
        assert ours[1][0].tolist() == [1, 2]
    for (_, p), (_, q) in zip(ours, theirs):
        assert np.max(np.abs(p - q)) <= 1e-9


def test_column_residuals_match_per_column_formula():
    # Gasket 5 has 366 columns, so the residuals span two column blocks.
    form = gasket_form(gasket(5))
    spec = spectrum(form)
    vals, fields = spec.eigenvalues, spec.eigenfields
    res = gf._column_residuals(form, vals, fields)
    assert fields.shape[1] == 366 and spec.residual == res.max()
    w = form.cloud.weights
    scale = max(1.0, 2.0 * float(np.max(form.degrees / w)))
    per_column = []
    for lam, u in zip(vals, fields.T):
        lu = (form.degrees * u - form.adjacency @ u) / w
        per_column.append(float(np.sqrt(np.sum(w * (lu - lam * u) ** 2))) / scale)
    assert np.array_equal(res, per_column)


@pytest.mark.parametrize("make", [lambda: gasket(5), lambda: square_grid(13)], ids=["gasket5", "square13"])
def test_band_lambda_max_matches_complete_spectrum(make):
    # A band takes lambda_max from one Lanczos solve of the generator's top;
    # a complete spectrum reads its last eigenvalue.
    cloud = make()
    form = KINDS[cloud.kind].form(cloud)
    full, band = spectrum(form), spectrum(form, 25)
    assert full.complete and not band.complete
    assert full.lambda_max == full.eigenvalues[-1]
    assert band.lambda_max == pytest.approx(full.lambda_max, rel=1e-10, abs=0.0)


def test_spectrum_eigenfields_are_read_only():
    spec = spectrum(grid_form(interval_grid(25)), 5)
    with pytest.raises(ValueError):
        spec.eigenfields[0, 0] = 1.0


def test_gasket_relaxation_ratio_near_five(gasket6):
    # Renorm-adjusted lambda_1 ratios approach the resistance factor 5.
    fit = eigen_walk_dimension(spectrum(gasket_form(gasket(4)), 4), spectrum(gasket_form(gasket(5)), 4))
    assert 2.0**fit.d_w_hat == pytest.approx(5.0, abs=0.1)


# ----------------------------------------------------------------------
# heat kernel
# ----------------------------------------------------------------------


def test_two_vertex_heat_kernel_closed_form():
    _, form = unit_pair_form(weights=(1.0, 1.0))
    spec = spectrum(form)
    for t in (0.05, 0.3, 1.0, 4.0):
        expected = 0.5 * (1.0 + np.exp(-2.0 * t))
        assert heat_kernel(spec, t, 1, 1) == pytest.approx(expected, abs=1e-12)
        off = 0.5 * (1.0 - np.exp(-2.0 * t))
        assert heat_kernel(spec, t, 0, 1) == pytest.approx(off, abs=1e-12)


def test_heat_kernel_symmetry_and_row():
    cloud = interval_grid(40)
    spec = spectrum(grid_form(cloud))
    t = 0.01
    assert heat_kernel(spec, t, 3, 17) == pytest.approx(
        heat_kernel(spec, t, 17, 3), rel=1e-12
    )
    row = heat_kernel(spec, t, 3, np.arange(cloud.n))
    assert row[17] == pytest.approx(heat_kernel(spec, t, 3, 17), rel=1e-12)


def test_heat_kernel_over_id_arrays_equals_scalar_calls():
    spec = spectrum(gasket_form(gasket(4)))
    xs = np.array([0, 5, 5, 40, 62])
    ys = np.array([62, 5, 17, 3, 0])
    for t in (1e-3, 0.05):
        pairs = heat_kernel(spec, t, xs, ys)
        assert pairs.shape == xs.shape
        assert pairs.tolist() == [heat_kernel(spec, t, int(x), int(y)) for x, y in zip(xs, ys)]


@pytest.mark.parametrize("bad", [-1, 11])
def test_heat_kernel_refuses_out_of_range_ids(bad):
    spec = spectrum(grid_form(interval_grid(11)))
    queries = [
        lambda: heat_kernel(spec, 0.1, bad, 0),
        lambda: heat_kernel(spec, 0.1, 0, bad),
        lambda: heat_kernel(spec, 0.1, bad, np.arange(11)),
        lambda: heat_kernel(spec, 0.1, np.array([0, bad, 2]), np.array([1, 2, 3])),
        lambda: heat_kernel(spec, 0.1, np.array([0, 1]), np.array([bad, 2])),
    ]
    for query in queries:
        with pytest.raises(ValueError, match=f"id {bad} out of range"):
            query()


def test_heat_kernel_stochastic_completeness_and_semigroup():
    cloud = interval_grid(60)
    spec = spectrum(grid_form(cloud))
    w = cloud.weights
    for t in (2e-4, 1e-3, 1e-2):
        row = heat_kernel(spec, t, 10, np.arange(cloud.n))
        assert np.dot(w, row) == pytest.approx(1.0, abs=1e-8)
    # semigroup: integrate p_t(x,.) against p_s(.,y)
    t, s = 3e-4, 7e-4
    pt = heat_kernel(spec, t, 10, np.arange(cloud.n))
    ps = heat_kernel(spec, s, 44, np.arange(cloud.n))
    lhs = float(np.dot(w, pt * ps))
    assert lhs == pytest.approx(heat_kernel(spec, t + s, 10, 44), abs=1e-8)


def test_heat_kernel_long_time_limit():
    cloud = interval_grid(30)
    spec = spectrum(grid_form(cloud))
    limit = 1.0 / cloud.total_mass
    assert heat_kernel(spec, 50.0, 7, np.arange(30)) == pytest.approx(
        np.full(30, limit), abs=1e-10
    )


def test_heat_kernel_positivity_sampled():
    for cloud in [interval_grid(101), gasket(4)]:
        spec = spectrum(KINDS[cloud.kind].form(cloud))
        lam = spec.eigenvalues
        pos = lam[lam > 0]
        for t in np.geomspace(1.0 / pos.max(), 10.0 / pos.min(), 10):
            row = heat_kernel(spec, float(t), 0, np.arange(cloud.n))
            # tiny negatives are spectral cancellation noise, not mass
            assert row.min() > -1e-12
        for t in np.geomspace(1.0 / pos.min(), 10.0 / pos.min(), 4):
            assert heat_kernel(spec, float(t), 0, np.arange(cloud.n)).min() > 0.0


@pytest.mark.parametrize("make", [lambda: gasket(5), lambda: square_grid(21)], ids=["gasket5", "square21"])
def test_band_heat_kernel_is_exact(make):
    # A 25-mode band once summed only its own modes: on gasket 5, p_t(0, 0)
    # at t = 3/lambda_max read 40.16 against 166.23.  Pairs, diagonal and
    # rows from the band now match an entrywise-accurate oracle wherever the
    # kernel is within 12 e-folds of its diagonal, at the fit's twelve times
    # (Chebyshev) and at two times past the band's damping threshold (sums).
    cloud = make()
    form = KINDS[cloud.kind].form(cloud)
    full, band = spectrum(form), spectrum(form, 25)
    damped = np.array([50.0, 100.0]) / band.eigenvalues[-1]
    times = np.append(np.geomspace(3.0 / full.lambda_max, 0.3 / full.eigenvalues[1], 12), damped)
    assert band.k_max < cloud.n
    assert gf._band_exact(band, times).tolist() == [False] * 12 + [True] * 2
    rows = np.sort(np.random.default_rng(0).choice(cloud.n, size=24, replace=False))
    exact = uniformized_heat_kernel(
        form.edge_i, form.edge_j, form.conductances, cloud.weights, times, rows
    )
    diag = exact[:, np.arange(rows.size), rows]

    def check(got, want, at):
        resolved = want >= np.exp(-12.0) * diag[:, at]
        return np.max(np.abs(got / want - 1.0)[resolved])

    assert check(heat_kernel(band, times, rows, rows), diag, slice(None)) <= 1e-9
    at, ys = np.repeat(np.arange(rows.size), cloud.n), np.tile(np.arange(cloud.n), rows.size)
    pairs = exact[:, at, ys]
    assert check(heat_kernel(band, times, rows[at], ys), pairs, at) <= 1e-9
    for k in range(3):
        own = np.full(cloud.n, k)
        assert check(heat_kernel(band, times, rows[k], np.arange(cloud.n)), exact[:, k], own) <= 1e-9
        # The full spectrum's own sum carries rounding of order eps / mu: up
        # to 4.3e-9 relative at 12 e-folds on gasket 5.
        assert check(heat_kernel(full, times, rows[k], np.arange(cloud.n)), exact[:, k], own) <= 1e-8


def test_heat_kernel_over_times_equals_calls_per_time():
    # The two early times run the Chebyshev recurrence, the last one sums
    # the band; each time's kernel is the same bits alone or with others.
    spec = spectrum(gasket_form(gasket(4)), 10)
    times = np.array([1e-4, 1e-2, 1.0])
    assert gf._band_exact(spec, times).tolist() == [False, False, True]
    xs, ys = np.array([0, 3, 7]), np.array([5, 3, 1])
    table = heat_kernel(spec, times, xs, ys)
    rows = heat_kernel(spec, times, 3, np.arange(spec.n))
    assert table.shape == (3, 3) and rows.shape == (3, spec.n)
    for k, t in enumerate(times):
        assert table[k].tolist() == heat_kernel(spec, float(t), xs, ys).tolist()
        assert rows[k].tolist() == heat_kernel(spec, float(t), 3, np.arange(spec.n)).tolist()


def test_heat_kernel_rejects_bad_time():
    spec = spectrum(grid_form(interval_grid(10)))
    with pytest.raises(ValueError, match="positive"):
        heat_kernel(spec, 0.0, 0, 1)
    with pytest.raises(ValueError, match="positive"):
        heat_kernel(spec, -1.0, 0, np.arange(10))


# ----------------------------------------------------------------------
# sub-Gaussian fit
# ----------------------------------------------------------------------


def test_subgaussian_fit_grid1d():
    cloud = interval_grid(201)
    spec = spectrum(grid_form(cloud))
    fit = fit_subgaussian(spec)
    assert 1.85 <= fit.d_w_fit <= 2.15
    assert 0.9 <= fit.d_s_fit <= 1.1
    assert fit.c1 > 0 and fit.c2 > 0
    assert fit.residual < 1.0


def test_subgaussian_fit_gasket(gasket6):
    cloud, _, spec = gasket6
    fit = fit_subgaussian(spec)
    assert fit.d_w_fit == pytest.approx(LOG5_LOG2, abs=0.15)
    assert fit.d_s_fit / 2.0 == pytest.approx(LOG3_LOG5, abs=0.05)
    assert fit.residual <= 1.0
    tied = fit.d_w_fit / (fit.d_w_fit - 1.0)
    assert fit.exponent_fit == pytest.approx(tied, abs=0.2)


def test_subgaussian_fit_queries_each_radius_vector_once(monkeypatch):
    cloud = gasket(5)
    spec = spectrum(gasket_form(cloud))
    calls = []
    real_ball_ids = cloud.ball_ids

    def counting_ball_ids(x, r):
        calls.append((x, r))
        return real_ball_ids(x, r)

    monkeypatch.setattr(cloud, "ball_ids", counting_ball_ids)
    fit_subgaussian(spec, seed=0)
    # The tied search tries 57 + 21 values of d_w; the free-exponent refit
    # reuses the radii of d_w_fit instead of querying them 101 more times.
    # Each radius vector costs one ball per centre, not one per sample.
    assert 0 < len(calls) <= 8 * (57 + 21 + 1)
    centers = np.random.default_rng(0).choice(cloud.n, size=8, replace=False)
    queried = {x for x, _ in calls}
    assert len(queried) <= 8 and queried <= set(centers.tolist())


# fit_subgaussian as (c1, c2, d_w_fit, exponent_fit, d_s_fit, residual,
# n_samples) from one scalar heat_kernel call per (pair, time) and per
# (centre, time), which the id-array calls replace.  Gasket 6 is fitted on
# the suites' 25-mode band: the Lanczos solve and the Chebyshev kernels.
# Interval 65 is fitted on the path route's complete spectrum, whose
# eigenvalues are the form's Rayleigh quotients of the inverse-iteration
# fields.
PINNED_FITS = {
    ("gasket5", 0): (
        0.5226858376204099, 0.2779524312655161, 2.3699999999999997, 1.719999999999999,
        1.4206286128324186, 0.8396098780252848, 212,
    ),
    ("gasket5", 1): (
        0.3766103873043808, 0.21298538715341192, 2.3049999999999997, 1.6599999999999993,
        1.4145940954748075, 1.0476905813830686, 205,
    ),
    ("gasket6", 0): (
        0.6628471014797616, 0.3245641279345631, 2.4050000000000002, 1.7750000000000001,
        1.403983360413386, 0.5667608553398225, 162,
    ),
    ("interval65", 0): (
        0.5974403817390044, 0.32951795556441427, 2.075, 1.835,
        1.0079291188746065, 0.7028089038366332, 168,
    ),
}
PINNED_CLOUDS = {
    "gasket5": (lambda: gasket(5), None),
    "gasket6": (lambda: gasket(6), 25),
    "interval65": (lambda: interval_grid(65), None),
}


@pytest.mark.parametrize("case", sorted(PINNED_FITS), ids=lambda c: f"{c[0]}-seed{c[1]}")
def test_subgaussian_fit_sums_each_kernel_once(case, monkeypatch):
    name, seed = case
    make_cloud, k_max = PINNED_CLOUDS[name]
    cloud = make_cloud()
    spec = spectrum(KINDS[cloud.kind].form(cloud), k_max)
    calls = []
    real = gf.heat_kernel

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(gf, "heat_kernel", counting)
    fit = fit_subgaussian(spec, seed=seed)
    got = (fit.c1, fit.c2, fit.d_w_fit, fit.exponent_fit, fit.d_s_fit, fit.residual, fit.n_samples)
    assert got == PINNED_FITS[case]
    # One call: all twelve times, the pairs and the centres' diagonal together.
    assert len(calls) == 1 and np.asarray(calls[0]).shape == (12,)


@pytest.mark.parametrize("seed", [0, 1])
def test_subgaussian_fit_on_band_matches_full_spectrum(seed):
    # The 25-mode band takes lambda_max from a Lanczos solve and its small-t
    # kernels from the Chebyshev recurrence; the full spectrum sums every mode.
    form = gasket_form(gasket(5))
    full = fit_subgaussian(spectrum(form), seed=seed)
    band = fit_subgaussian(spectrum(form, 25), seed=seed)
    assert band.d_w_fit == full.d_w_fit
    assert band.n_samples == full.n_samples
    assert band.residual == pytest.approx(full.residual, rel=1e-9)


def test_subgaussian_fit_rejects_bad_window():
    # One positive eigenvalue: 3/lambda_max lies above 0.3/lambda_1.
    _, form = unit_pair_form()
    with pytest.raises(ValueError, match="degenerate time window"):
        fit_subgaussian(spectrum(form))


def test_subgaussian_json_roundtrip():
    import dataclasses

    cloud = interval_grid(201)
    spec = spectrum(grid_form(cloud))
    fit = fit_subgaussian(spec)
    payload = json.loads(json.dumps(dataclasses.asdict(fit), allow_nan=False))
    assert payload["d_w_fit"] == fit.d_w_fit
    assert payload["n_samples"] == fit.n_samples


# ----------------------------------------------------------------------
# eigen walk dimension
# ----------------------------------------------------------------------


def test_eigen_walk_dimension_grid():
    fit = eigen_walk_dimension(
        spectrum(grid_form(interval_grid(101)), 4),
        spectrum(grid_form(interval_grid(201)), 4),
    )
    assert 1.95 <= fit.d_w_hat <= 2.05
    assert fit.method == "eigen_ratio"
    assert fit.residual < 0.05


def test_eigen_walk_dimension_gasket():
    fit = eigen_walk_dimension(
        spectrum(gasket_form(gasket(4)), 4), spectrum(gasket_form(gasket(5)), 4)
    )
    assert fit.d_w_hat == pytest.approx(LOG5_LOG2, abs=0.05)


def test_eigen_walk_dimension_rejects_identical_and_skips():
    s4 = spectrum(gasket_form(gasket(4)), 4)
    with pytest.raises(ValueError, match="consecutive"):
        eigen_walk_dimension(s4, s4)
    with pytest.raises(ValueError, match="consecutive"):
        eigen_walk_dimension(spectrum(gasket_form(gasket(3)), 4), spectrum(gasket_form(gasket(5)), 4))
    with pytest.raises(ValueError, match="hierarchies"):
        eigen_walk_dimension(s4, spectrum(grid_form(interval_grid(101)), 4))
    # A spectrum of the null mode alone has no lambda_1 to compare.
    with pytest.raises(ValueError, match="lambda_1"):
        eigen_walk_dimension(spectrum(gasket_form(gasket(3)), 1), s4)
    with pytest.raises(ValueError, match="lambda_1"):
        eigen_walk_dimension(spectrum(gasket_form(gasket(3)), 4), spectrum(gasket_form(gasket(4)), 1))


# ----------------------------------------------------------------------
# intrinsic metric
# ----------------------------------------------------------------------


def path_form(n_edges: int) -> GraphDirichletForm:
    n = n_edges + 1
    dmat = np.abs(np.subtract.outer(np.arange(float(n)), np.arange(float(n))))
    cloud = MeasuredPointCloud(np.ones(n), dist_matrix=dmat, mesh=1.0)
    idx = np.arange(n_edges, dtype=np.intp)
    return GraphDirichletForm(
        cloud=cloud,
        edge_i=idx,
        edge_j=idx + 1,
        conductances=np.ones(n_edges),
        renorm=1.0,
    )


def test_intrinsic_metric_same_vertex():
    form = path_form(5)
    res = intrinsic_metric(form, 2, 2)
    assert res.lower == 0.0 and res.upper == 0.0


def test_intrinsic_metric_path_exact():
    # Unit path: interior constraint (s_i^2 + s_{i+1}^2)/2 <= 1 caps every
    # slope at 1, so the optimum is the hop count.
    for n_edges in (4, 7):
        form = path_form(n_edges)
        res = intrinsic_metric(form, n_edges, 0)
        assert res.lower == pytest.approx(n_edges, rel=0.01)
        assert res.upper >= res.lower - 1e-12
        assert res.witness[n_edges] - res.witness[0] == pytest.approx(
            res.lower, abs=1e-12
        )


def test_intrinsic_metric_matches_convex_oracle():
    form = path_form(4)
    res = intrinsic_metric(form, 4, 0)
    oracle = convex_intrinsic_metric(
        form.edge_i, form.edge_j, form.conductances,
        form.cloud.weights, 4, 0,
    )
    assert res.lower == pytest.approx(oracle, abs=1e-6)


def test_intrinsic_metric_grid1d_unit_interval():
    cloud = interval_grid(101)
    form = grid_form(cloud)
    res = intrinsic_metric(form, 100, 0)
    assert res.lower == pytest.approx(1.0, rel=1e-9)
    assert res.upper == pytest.approx(np.sqrt(2.0), rel=1e-9)


def test_intrinsic_metric_bilipschitz_across_resolutions():
    ratios = []
    for n in (101, 201):
        cloud = interval_grid(n)
        form = grid_form(cloud)
        res = intrinsic_metric(form, n - 1, 0)
        ratios.append(res.lower / cloud.pair_distances([n - 1], [0])[0])
    assert all(0.5 <= r <= 2.0 for r in ratios)
    assert max(ratios) / min(ratios) <= 2.0


def test_intrinsic_metric_witness_feasible():
    cloud = interval_grid(60)
    form = grid_form(cloud)
    res = intrinsic_metric(form, 59, 0)
    diff = np.diff(res.witness)
    c = form.conductances
    gamma = np.zeros(60)
    half = 0.5 * c * diff**2
    np.add.at(gamma, np.arange(59), half)
    np.add.at(gamma, np.arange(1, 60), half)
    assert np.all(gamma <= cloud.weights * (1.0 + 1e-9))


@pytest.mark.parametrize(
    "spec, most",
    [
        ({"kind": "interval_grid", "n": 2001}, 2),
        ({"kind": "square_grid", "n": 41}, 2),
        ({"kind": "gasket", "level": 5}, 4),
        ({"kind": "gasket", "level": 6}, 4),
        ({"kind": "gasket", "level": 7}, 4),
    ],
    ids=["interval", "square", "gasket5", "gasket6", "gasket7"],
)
def test_colour_classes_partition_without_inner_edges(spec, most):
    cloud = build_cloud(spec)
    form = KINDS[cloud.kind].form(cloud)
    classes = gf._colour_classes(form.adjacency)
    colour = np.full(form.n, -1)
    for c, ids in enumerate(classes):
        assert np.all(colour[ids] == -1)
        colour[ids] = c
    assert np.all(colour >= 0)
    assert np.all(colour[form.edge_i] != colour[form.edge_j])
    assert len(classes) <= most
    if spec["kind"] != "gasket":
        assert len(classes) == 2


@pytest.mark.parametrize(
    "make, x",
    [
        (lambda: grid_form(interval_grid(2001)), 0),
        (lambda: grid_form(square_grid(41)), 0),
        (lambda: gasket_form(gasket(6)), 0),
        (lambda: path_form(7), 7),
    ],
    ids=["interval", "square", "gasket6", "path7"],
)
def test_intrinsic_metric_witness_strictly_feasible(make, x):
    from scipy.sparse.csgraph import dijkstra

    form = make()
    y = form.n - 1 if x == 0 else 0
    res = intrinsic_metric(form, x, y)
    mu = form.cloud.weights
    # No slack: the witness passes the floating-point constraint as is.
    assert np.all(gf._gamma_density(form, res.witness) <= mu)
    assert res.witness[x] - res.witness[y] == res.lower
    assert res.lower <= res.upper
    start = dijkstra(
        gf._edge_matrix(form, gf._edge_lengths_feasible(form)), indices=y, directed=False
    )
    value, certified = gf._certify(form, start, x, y)
    assert np.all(gf._gamma_density(form, certified) <= mu)
    assert value == certified[x] - certified[y]
    assert res.lower >= value


def numpy_sweep_metric(form, x, y):
    """The intrinsic-metric ascent step with per-vertex Gauss-Seidel updates."""
    from scipy.sparse.csgraph import dijkstra

    n = form.n
    mu = form.cloud.weights
    adj = form.adjacency
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    dist_feasible = dijkstra(
        gf._edge_matrix(form, gf._edge_lengths_feasible(form)), indices=y, directed=False
    )
    upper = float(
        dijkstra(
            gf._edge_matrix(form, gf._edge_lengths_upper(form)), indices=y, directed=False
        )[x]
    )

    def certify(values):
        gamma = gf._gamma_density(form, values)
        worst = np.sqrt(np.max(gamma / mu))
        values = values / worst if worst > 1.0 else values.copy()
        return float(values[x] - values[y]), values

    f = dist_feasible.copy()
    best, witness = certify(f)
    f[x] += 0.25 * max(upper - best, 1e-3 * max(upper, 1.0))
    for _ in range(3):
        for z in range(n):
            lo, hi = indptr[z], indptr[z + 1]
            nbr = indices[lo:hi]
            c = data[lo:hi]
            a = c.sum()
            m = float(np.dot(c, f[nbr])) / a
            q = 0.5 * float(np.dot(c, (f[nbr] - m) ** 2))
            cap = np.sqrt(max(0.0, 2.0 * (mu[z] - q)) / a)
            dev = f[z] - m
            if abs(dev) > cap:
                f[z] = m + np.sign(dev) * cap
    value, scaled = certify(f)
    if value > best:
        best, witness = value, scaled
    return best, upper, witness


@pytest.mark.parametrize(
    "kind, cloud",
    [
        ("interval_grid", interval_grid(201)),
        ("square_grid", square_grid(21)),
        ("gasket", gasket(5)),
    ],
)
def test_intrinsic_metric_matches_array_sweep(kind, cloud):
    form = KINDS[kind].form(cloud)
    assert form.kind == kind
    x, y = 0, cloud.n - 1
    res = intrinsic_metric(form, x, y)
    lower, upper, witness = numpy_sweep_metric(form, x, y)
    assert res.lower == pytest.approx(lower, rel=1e-12, abs=0.0)
    assert res.upper == pytest.approx(upper, rel=1e-12, abs=0.0)
    scale = np.max(np.abs(witness))
    assert np.max(np.abs(res.witness - witness)) <= 1e-12 * scale
    # The certificate: the witness attains ``lower`` and is feasible.
    assert res.witness[x] - res.witness[y] == res.lower
    gamma = gf._gamma_density(form, res.witness)
    assert np.all(gamma <= cloud.weights * (1.0 + 1e-12))


# ----------------------------------------------------------------------
# energy measure vs Lipschitz slope
# ----------------------------------------------------------------------


def test_gamma_vs_lip_constant_vacuous():
    cloud = interval_grid(50)
    form = grid_form(cloud)
    rep = gamma_vs_lip_check(form, ScalarField.constant(cloud, 2.0))
    assert rep.c_best == 0.0 and rep.n_active == 0


def test_gamma_vs_lip_identity_near_one():
    cloud = interval_grid(401)
    form = grid_form(cloud)
    rep = gamma_vs_lip_check(form, ScalarField.coordinate(cloud))
    assert rep.c_best == pytest.approx(1.0, rel=0.10)


def test_gamma_vs_lip_sine_stable_across_resolutions():
    values = []
    for n in (401, 801):
        cloud = interval_grid(n)
        form = grid_form(cloud)
        f = ScalarField.from_function(cloud, lambda c: np.sin(np.pi * c[:, 0]))
        values.append(gamma_vs_lip_check(form, f).c_best)
    assert max(values) / min(values) <= 2.0


def test_gamma_vs_lip_refuses_gasket():
    cloud = gasket(3)
    form = gasket_form(cloud)
    with pytest.raises(ValueError, match="grid"):
        gamma_vs_lip_check(form, ScalarField.constant(cloud, 0.0))


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------


def test_edges_csv_export():
    form = grid_form(interval_grid(5))
    assert form.edge_i.tolist() == [0, 1, 2, 3]
    assert form.edge_j.tolist() == [1, 2, 3, 4]
    assert form.conductances.shape == (4,)


def test_spectrum_csv_export():
    spec = spectrum(grid_form(interval_grid(6)))
    header, rows = spec.table()
    assert header == ("k", "lambda")
    assert [k for k, _ in rows] == list(range(6))
    assert rows[0][1] == 0.0


@pytest.mark.parametrize(
    "spec, lower",
    [
        ({"kind": "interval_grid", "n": 2001}, 0.9999999999998875),
        ({"kind": "square_grid", "n": 41}, 1.4242706378369534),
        ({"kind": "square_grid", "n": 101}, 1.4182363925585961),
    ],
    ids=["interval2001", "square41", "square101"],
)
def test_intrinsic_metric_pinned_values(spec, lower):
    # Values of the 60-round ascent that the single step replaced; one step
    # reproduces them bit for bit.
    cloud = build_cloud(spec)
    res = intrinsic_metric(KINDS[cloud.kind].form(cloud), 0, cloud.n - 1)
    assert res.lower == lower


def _dual_gap(form):
    x, y = 0, form.n - 1
    res = intrinsic_metric(form, x, y)
    dual = dual_intrinsic_metric(
        form.edge_i, form.edge_j, form.conductances, form.cloud.weights, x, y
    )
    # Weak duality, up to the rounding of the dual's own evaluation.
    assert res.lower <= dual * (1.0 + 1e-12)
    assert dual <= res.upper
    return (dual - res.lower) / dual


@pytest.mark.parametrize(
    "make",
    [lambda: gasket(2), lambda: interval_grid(21), lambda: square_grid(5), lambda: square_grid(7)],
    ids=["gasket2", "interval21", "square5", "square7"],
)
def test_primal_oracle_meets_dual_oracle(make):
    # The primal program from its feasible start and the dual bound pin the
    # same optimum; the certified lower bound stays under both.
    cloud = make()
    form = KINDS[cloud.kind].form(cloud)
    x, y = 0, form.n - 1
    args = (form.edge_i, form.edge_j, form.conductances, form.cloud.weights, x, y)
    primal = convex_intrinsic_metric(*args)
    dual = dual_intrinsic_metric(*args)
    assert abs(primal - dual) <= 1e-9 * dual
    assert intrinsic_metric(form, x, y).lower <= primal * (1.0 + 1e-12)


def test_intrinsic_metric_exact_on_paths():
    for form in (path_form(4), grid_form(interval_grid(9))):
        assert abs(_dual_gap(form)) <= 1e-9


def test_intrinsic_metric_gap_to_dual_on_squares():
    gaps = [_dual_gap(grid_form(square_grid(n))) for n in (5, 9, 15)]
    assert max(gaps) <= 0.03
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("level", [2, 3, 4])
def test_intrinsic_metric_gap_to_dual_on_gaskets(level):
    # A pin of a known weakness (15-22 % short of the optimum), not a target.
    assert _dual_gap(gasket_form(gasket(level))) <= 0.25
