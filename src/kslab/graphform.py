"""Reference Dirichlet forms on grids and the Sierpinski gasket.

Conductance networks double as the comparison targets for the ball-increment
energies: grid forms are calibrated so that the energy of a smooth field
approaches its Dirichlet integral as the mesh refines, while the gasket form
carries the resistance renormalization (5/3)^m that makes harmonic-extension
energies level-independent.  On top of the forms sit spectra, heat kernels
with sub-Gaussian fits, the eigenvalue walk-dimension oracle, the intrinsic
metric, and the energy-measure versus Lipschitz comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .energy import ScalarField, WalkDimFit
from .export import Table
from .smoothing import discrete_lip
from .space import Lattice, MeasuredPointCloud, _gasket_subdivision, gasket_graph

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "GraphDirichletForm",
    "Spectrum",
    "HeatKernelFit",
    "IntrinsicMetricResult",
    "GammaLipReport",
    "grid_form",
    "gasket_form",
    "form_energy",
    "energy_measure",
    "spectrum",
    "heat_kernel",
    "fit_subgaussian",
    "eigen_walk_dimension",
    "intrinsic_metric",
    "gamma_vs_lip_check",
    "gasket_harmonic_field",
]

# Three solve routes (see ``spectrum``): bisection and inverse iteration
# for a path in id order (interval grids) at any size, one dense solve for
# any other form up to DENSE_EIGEN_LIMIT vertices, and shift-invert Lanczos
# for the low band above it (PARTIAL_EIGEN_COUNT modes unless asked for
# fewer).  Only the dense route returns every mode of a non-path form; the
# tests use those spectra as reference, and Lanczos is faster even below
# the limit (square 31: 0.03 s against 0.13 s).  A form keeps only its
# matrices: a suite run solves each form once (``SuiteContext``).
DENSE_EIGEN_LIMIT = 1000
PARTIAL_EIGEN_COUNT = 200

# A band spectrum sums the heat kernel once t lambda_{k_max-1} reaches this
# many e-folds; below it a Chebyshev-Bessel recurrence on the generator runs.
DAMPED_EFOLDS = 40.0


@dataclass(frozen=True)
class GraphDirichletForm:
    """Symmetric conductance network over a point cloud.

    Edges are stored once with ``edge_i < edge_j``; the quadratic form is
    𝓔(f) = sum over edges of c_e (f_i - f_j)^2, which equals the half of
    the double sum over ordered pairs.  ``renorm`` records the generator
    scale c/mu of the level so hierarchy comparisons can divide it back out.
    """

    cloud: MeasuredPointCloud
    edge_i: np.ndarray
    edge_j: np.ndarray
    conductances: np.ndarray
    renorm: float

    def __post_init__(self) -> None:
        i, j, c = self.edge_i, self.edge_j, self.conductances
        if not (i.size == j.size == c.size):
            raise ValueError("edge arrays must have equal length")
        if np.any(i == j):
            raise ValueError("self-loops are not allowed")
        if np.any(c <= 0) or not np.all(np.isfinite(c)):
            raise ValueError("conductances must be positive and finite")
        if np.any(i > j):
            raise ValueError("edges must be stored with edge_i < edge_j")
        n_comp = _component_count(self.n, i, j)
        if n_comp != 1:
            raise ValueError(f"form must be connected, found {n_comp} components")

    @property
    def n(self) -> int:
        return self.cloud.n

    @property
    def kind(self) -> str | None:
        return self.cloud.kind

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """Symmetric conductance matrix (zero diagonal)."""
        return _edge_matrix(self, self.conductances)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Per-vertex sum of incident conductances."""
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    @cached_property
    def generator(self) -> sp.csr_matrix:
        """S = M^{-1/2} C M^{-1/2}, sparse, with the spectrum of L = (1/mu) C.

        Each edge's value is computed once and stored in both triangles, so
        S equals its transpose bit for bit; the diagonal is deg / mu.  The
        dense, Lanczos and Chebyshev routes all read this one matrix.
        """
        import scipy.sparse as sp

        n = self.n
        w = self.cloud.weights
        inv_sqrt = 1.0 / np.sqrt(w)
        off = -self.conductances * (inv_sqrt[self.edge_i] * inv_sqrt[self.edge_j])
        diag = np.arange(n)
        rows = np.concatenate([self.edge_i, self.edge_j, diag])
        cols = np.concatenate([self.edge_j, self.edge_i, diag])
        vals = np.concatenate([off, off, self.degrees / w])
        return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _component_count(n: int, i: np.ndarray, j: np.ndarray) -> int:
    """Connected components of the graph on n vertices with edges (i, j).

    Each round hooks the larger root of every edge onto the smallest root it
    meets and points every vertex at its root, until no edge joins two trees.
    """
    root = np.arange(n)
    while not np.array_equal(a := root[i], b := root[j]):
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := root[root], root):
            root = up
    return int(np.count_nonzero(root == np.arange(n)))


def _lattice_edges(lattice: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of neighbouring occupied lattice cells: along rows, then columns.

    Ids run in row-major cell order, so each pair comes low id first.
    """
    ids = lattice.ids
    i, j = [], []
    for a, b in ((ids[:, :-1], ids[:, 1:]), (ids[:-1, :], ids[1:, :])):
        both = (a >= 0) & (b >= 0)
        i.append(a[both])
        j.append(b[both])
    return np.concatenate(i), np.concatenate(j)


def grid_form(cloud: MeasuredPointCloud) -> GraphDirichletForm:
    """The edges of the cloud's lattice with conductance 1/(h^2 n).

    So smooth-field energies approach Dirichlet integrals as the mesh refines.
    """
    if cloud.lattice is None:
        raise ValueError("a grid form needs a cloud with a lattice")
    i, j = _lattice_edges(cloud.lattice)
    c = np.full(i.size, 1.0 / (cloud.mesh**2 * cloud.n))
    return GraphDirichletForm(cloud, i, j, c, renorm=1.0 / cloud.mesh**2)


def gasket_form(cloud: MeasuredPointCloud) -> GraphDirichletForm:
    """The level-m gasket graph with uniform conductance (5/3)^m."""
    if cloud.kind != "gasket":
        raise ValueError("a gasket form needs a gasket cloud")
    level = int(cloud.meta["level"])
    i, j = gasket_graph(level)[2].T.copy()
    c = np.full(i.size, (5.0 / 3.0) ** level)
    return GraphDirichletForm(cloud, i, j, c, renorm=float(c[0] * cloud.n))


def _check_form_field(form: GraphDirichletForm, f: ScalarField) -> None:
    if f.cloud is not form.cloud:
        raise ValueError("field does not live on the form's cloud")


def form_energy(form: GraphDirichletForm, f: ScalarField) -> float:
    _check_form_field(form, f)
    diff = f.values[form.edge_i] - f.values[form.edge_j]
    return float(np.sum(form.conductances * diff**2))


def _gamma_density(form: GraphDirichletForm, values: np.ndarray) -> np.ndarray:
    diff = values[form.edge_i] - values[form.edge_j]
    half = 0.5 * form.conductances * diff**2
    density = np.zeros(form.n)
    np.add.at(density, form.edge_i, half)
    np.add.at(density, form.edge_j, half)
    return density


def energy_measure(form: GraphDirichletForm, f: ScalarField) -> np.ndarray:
    """Per-vertex density Gamma(f,f)(x) = 1/2 sum_y c_xy (f_x - f_y)^2.

    The densities sum to the form energy; divided by the weights they give
    the Radon-Nikodym surrogate dGamma/dmu.
    """
    _check_form_field(form, f)
    return _gamma_density(form, f.values)


# ----------------------------------------------------------------------
# spectra and heat kernels
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """mu-orthonormal eigenpairs of the generator L = (1/mu) C.

    Solved as the generalized symmetric problem C u = lambda M u through the
    substitution v = M^{1/2} u, an eigenproblem of M^{-1/2} C M^{-1/2}, a
    matrix that is symmetric bit for bit by construction (the form's
    ``generator``).  ``spectrum`` picks one of three deterministic routes by
    the form's shape and size (see there); the path route's pairs do not
    depend on the BLAS thread count either.  The pairs are complete when
    ``k_max == n`` and a low band otherwise; heat kernels are exact on
    either (``heat_kernel``).  Inside a degenerate eigenspace the
    eigenfields are one orthonormal basis chosen by the solver; sums over
    the eigenspace do not depend on that choice.  ``residual`` is the worst
    mu-norm of L u - lambda u, relative to the generator's Gershgorin scale
    so the 1e-8 gate means the same thing on unit-scale graphs and fine
    lattices.  ``eigenfields`` is read-only.  The spectrum, not its form,
    holds every solve: its pairs and, once read, ``lambda_max``.
    """

    form: GraphDirichletForm
    eigenvalues: np.ndarray
    eigenfields: np.ndarray  # (n, k), column k is u_k
    residual: float

    @property
    def n(self) -> int:
        return self.form.n

    @property
    def k_max(self) -> int:
        return self.eigenvalues.size

    @property
    def complete(self) -> bool:
        return self.k_max == self.n

    @cached_property
    def lambda_max(self) -> float:
        """The top eigenvalue: the last one of a complete spectrum, else one Lanczos solve.

        The Lanczos start is seeded noise: a constant start is the null mode
        itself on uniform weights, an invariant subspace that stops Lanczos.
        """
        if self.complete:
            return float(self.eigenvalues[-1])
        from scipy.sparse.linalg import eigsh

        v0 = np.random.default_rng(0).standard_normal(self.n)
        top = eigsh(self.form.generator, k=1, which="LA", v0=v0, return_eigenvectors=False)
        return float(top[0])

    def field(self, k: int) -> ScalarField:
        return ScalarField(self.form.cloud, self.eigenfields[:, k].copy())

    def table(self) -> Table:
        return ("k", "lambda"), tuple(enumerate(self.eigenvalues.tolist()))


def _mu_normalize(vecs: np.ndarray, inv_sqrt: np.ndarray) -> np.ndarray:
    """Turn v = M^{1/2} u back into mu-orthonormal eigenfields, in place."""
    vecs *= inv_sqrt[:, None]
    # Sign convention: the entry of largest magnitude is positive.
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        lead = np.argmax(np.abs(col))
        if col[lead] < 0:
            vecs[:, k] = -col
    return vecs


def _column_residuals(
    form: GraphDirichletForm, vals: np.ndarray, fields: np.ndarray
) -> np.ndarray:
    """Per column, the mu-norm of L u_k - lambda_k u_k over the Gershgorin scale.

    An absolute gate is unattainable in float64 once ||L|| reaches 1/h^2
    territory, hence the normalization.  Columns go through the generator
    256 at a time; each column's norm is a contiguous sum of its own
    entries, so it does not depend on the block layout.
    """
    block = 256
    w = form.cloud.weights
    scale = max(1.0, 2.0 * float(np.max(form.degrees / w)))
    out = np.empty(len(vals))
    for lo in range(0, len(vals), block):
        u = fields[:, lo : lo + block]
        lu = (form.degrees[:, None] * u - form.adjacency @ u) / w[:, None]
        r = np.asfortranarray(lu - u * vals[lo : lo + block])
        out[lo : lo + block] = np.sqrt(np.sum(w[:, None] * r**2, axis=0)) / scale
    return out


def spectrum(form: GraphDirichletForm, k_max: int | None = None) -> Spectrum:
    """The k_max lowest eigenpairs of the generator, by one of three routes.

    - A path in id order (edges (i, i + 1), as on interval grids), at any
      size: bisection and inverse iteration (LAPACK stebz, stein) on the
      tridiagonal generator for the k_max lowest pairs, in O(n k_max)
      memory.  Each eigenvalue is the form's Rayleigh quotient of its
      field, to about 1e-15 relative.  Different k_max agree on their
      common eigenvalues to about 2 ulp and on their fields to about 1e-11
      of the largest entry (n = 2001), not bit for bit.
    - Any other form at or below DENSE_EIGEN_LIMIT vertices: one full dense
      divide-and-conquer solve, of which the k_max leading columns are
      kept; different k_max agree on their common pairs bit for bit.
    - Any other form above the limit: shift-invert Lanczos on the sparse
      generator for the k_max lowest pairs.

    Each call solves afresh and nothing is kept on the form.  Every route
    ends in one tail: mu-normalized sign-fixed fields, eigenvalues below
    1e-11 of the largest clamped to zero, one residual pass against the
    reported eigenvalues, and the 1e-8 gate.  ``k_max`` defaults to every
    mode at or below the limit and to PARTIAL_EIGEN_COUNT above it.
    """
    n = form.n
    if k_max is None:
        k_max = n if n <= DENSE_EIGEN_LIMIT else PARTIAL_EIGEN_COUNT
    if not (1 <= k_max <= n):
        raise ValueError(f"k_max must lie in [1, {n}], got {k_max}")
    i, j = form.edge_i, form.edge_j
    w = form.cloud.weights
    inv_sqrt = 1.0 / np.sqrt(w)
    path = 1 < n == i.size + 1 and bool(np.all(j - i == 1))
    if path:
        from scipy.linalg.lapack import dstebz, dstein

        diag, off = form.degrees / w, np.empty(n - 1)
        off[i] = -form.conductances * (inv_sqrt[i] * inv_sqrt[j])
        # Bisection for the k_max lowest eigenvalues, inverse iteration
        # for their vectors: n x k_max in all.  stein orthogonalises a
        # cluster (eigenvalues within 1e-3 of the norm) by BLAS sums whose
        # order follows the thread count, so it gets one mode per call and
        # numpy's pairwise sums orthogonalise each cluster here.
        m, vals, block, split, info = dstebz(diag, off, 2, 0.0, 0.0, 1, k_max, 0.0, "E")
        vecs = np.empty((n, k_max), order="F")
        for k in range(min(m, k_max)):
            vecs[:, k : k + 1], fail = dstein(diag, off, vals[k : k + 1], np.roll(block, -k), split)
            info |= fail
            for q in vecs[:, np.flatnonzero(vals[:k] > vals[k] - 2e-3 * diag.max())].T:
                vecs[:, k] -= np.sum(q * vecs[:, k]) * q
            vecs[:, k] /= np.sqrt(np.sum(vecs[:, k] ** 2))
        if info != 0 or m != k_max:
            raise RuntimeError(f"tridiagonal eigensolver failed (info {info})")
    elif n <= DENSE_EIGEN_LIMIT:
        import scipy.linalg

        # Divide and conquer (LAPACK dsyevd) overwrites the Fortran-ordered
        # matrix with its eigenvectors, so no copy of it is made; the
        # default MRRR solver is several times slower on the gasket's
        # clustered, highly degenerate spectrum.  The kept columns are
        # copied in the same Fortran order, so the n x n array is freed.
        vals, vecs = scipy.linalg.eigh(
            form.generator.toarray(order="F"), overwrite_a=True, driver="evd"
        )
        vals, vecs = vals[:k_max], vecs[:, :k_max].copy(order="F")
    else:
        from scipy.sparse.linalg import eigsh

        v0 = np.full(n, 1.0 / np.sqrt(n))  # fixed start for reproducible runs
        # Shift slightly below zero: at sigma = 0 the factorization would
        # hit the Laplacian's own null mode.
        scale = float(np.max(form.degrees / w))
        vals, vecs = eigsh(form.generator.tocsc(), k=k_max, sigma=-1e-3 * scale, v0=v0)
        order = np.argsort(vals, kind="stable")
        vals, vecs = vals[order], vecs[:, order]

    fields = _mu_normalize(vecs, inv_sqrt)
    fields.flags.writeable = False
    if path:  # each eigenvalue as the form's Rayleigh quotient, by pairwise sums
        diff = np.asfortranarray(fields[j] - fields[i])
        energy = np.sum(form.conductances[:, None] * diff**2, axis=0)
        vals = energy / np.sum(w[:, None] * fields**2, axis=0)
    # A clamped eigenvalue is reported as zero, so its residual is taken
    # against zero too.
    vals[np.abs(vals) < 1e-11 * max(1.0, float(np.abs(vals).max()))] = 0.0
    residual = float(_column_residuals(form, vals, fields).max())
    if residual > 1e-8:
        raise RuntimeError(
            f"eigensolver relative residual {residual:.3e} exceeds 1e-8; "
            "spectrum not usable"
        )
    return Spectrum(form=form, eigenvalues=vals, eigenfields=fields, residual=residual)


def _heat_times(t: float | np.ndarray) -> np.ndarray:
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or times.size == 0 or not np.all((times > 0.0) & np.isfinite(times)):
        raise ValueError(f"heat kernel time must be positive, got {t!r}")
    return times


def _band_exact(spec: Spectrum, times: np.ndarray) -> np.ndarray:
    """Per time, whether the spectrum's own modes give the kernel (see ``heat_kernel``)."""
    if spec.complete:
        return np.ones(times.shape, dtype=bool)
    return times * spec.eigenvalues[-1] >= DAMPED_EFOLDS


def _chebyshev_heat(spec: Spectrum, times: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """exp(-tS)_{ys, xs} at each time, S the generator, pair by pair.

    With B = I - (2 / lambda_max) S, whose spectrum lies in [-1, 1],
    exp(-tS) = sum_k c_k T_k(B), c_0 = ive(0, a), c_k = 2 ive(k, a) and
    a = t lambda_max / 2.  The c_k are positive, sum to 1 and fall off like
    exp(-k^2 / 2a), so sqrt(2 a ln 1e20) + 20 terms leave a tail below
    1e-20.  One three-term recurrence T_{k+1} = 2 B T_k - T_{k-1} on the
    distinct columns of ``xs`` serves every time; each time's sum stops at
    its own degree, so it does not depend on the other times asked for.
    """
    from scipy.special import ive

    lam_max = spec.lambda_max
    a = times * (0.5 * lam_max)
    degrees = (np.sqrt(2.0 * a * np.log(1e20)) + 20).astype(int)
    terms = np.arange(degrees.max() + 1)
    coef = np.where(terms <= degrees[:, None], ive(terms, a[:, None]), 0.0)
    coef[:, 1:] *= 2.0
    gen, step = spec.form.generator, 2.0 / lam_max
    cols, col_of = np.unique(xs, return_inverse=True)
    prev = np.zeros((spec.n, cols.size))
    prev[cols, np.arange(cols.size)] = 1.0
    cur = prev - step * (gen @ prev)
    out = np.multiply.outer(coef[:, 0], prev[ys, col_of])
    out += np.multiply.outer(coef[:, 1], cur[ys, col_of])
    for k in terms[2:]:
        prev, cur = cur, 2.0 * (cur - step * (gen @ cur)) - prev
        out += np.multiply.outer(coef[:, k], cur[ys, col_of])
    return out


def heat_kernel(
    spec: Spectrum, t: float | np.ndarray, x: int | np.ndarray, y: int | np.ndarray
) -> float | np.ndarray:
    """p_t(x, y) = sum_k exp(-lambda_k t) u_k(x) u_k(y) over every mode of the form.

    ``x`` and ``y`` are ids or id arrays that broadcast; arrays give the
    kernel pair by pair, each entry equal to the call on that one pair, so
    ``heat_kernel(spec, t, x, np.arange(spec.n))`` is the row p_t(x, .).
    ``t`` is a time or a 1-D array of times, which adds a leading axis.

    The spectrum's modes are summed when they are complete, or when the
    first omitted one is damped, t lambda_{k_max-1} >= DAMPED_EFOLDS: the
    omitted modes then add at most exp(-t lambda_{k_max-1}) / sqrt(mu_x mu_y)
    (Cauchy-Schwarz, with sum_k u_k(x)^2 = 1 / mu_x).  At earlier times the
    kernel is exp(-tS)_{yx} / sqrt(mu_x mu_y), read from one Chebyshev-Bessel
    recurrence on the sparse generator over the distinct ids of ``x``.
    """
    times = _heat_times(t)
    check = spec.form.cloud._checked_ids
    x, y = np.broadcast_arrays(
        check(np.asarray(x, dtype=np.intp)), check(np.asarray(y, dtype=np.intp))
    )
    flat = times.reshape(-1)
    out = np.empty(flat.shape + x.shape)
    summed = _band_exact(spec, flat)
    if summed.any():
        decay = np.exp(-spec.eigenvalues * flat[summed, None])
        decay = decay.reshape(decay.shape[:1] + (1,) * x.ndim + decay.shape[1:])
        out[summed] = np.sum(decay * spec.eigenfields[x] * spec.eigenfields[y], axis=-1)
    if not summed.all():
        xs, ys = x.ravel(), y.ravel()
        heat = _chebyshev_heat(spec, flat[~summed], xs, ys)
        w = spec.form.cloud.weights
        out[~summed] = (heat / np.sqrt(w[xs] * w[ys])).reshape((-1,) + x.shape)
    p = out.reshape(times.shape + x.shape)
    return float(p) if p.ndim == 0 else p


@dataclass(frozen=True)
class HeatKernelFit:
    """Sub-Gaussian fit of off-diagonal decay plus on-diagonal dimension.

    The model is log p_t(x,y) + log mu(B(x, t^{1/d_w})) = log c1
    - c2 (d(x,y)/t^{1/d_w})^{d_w/(d_w-1)}; ``d_w_fit`` ties the exponent to
    the space-time scaling, ``exponent_fit`` refits the exponent freely so
    the tie itself can be checked.  ``d_s_fit`` comes from the on-diagonal
    slope; ``residual`` is the worst absolute log-scale misfit.
    """

    c1: float
    c2: float
    d_w_fit: float
    exponent_fit: float
    d_s_fit: float
    residual: float
    n_samples: int


def _subgaussian_sse(
    d_w: float,
    exponent: float | None,
    log_p: np.ndarray,
    dists: np.ndarray,
    times: np.ndarray,
    ball_mass: "callable",
) -> tuple[float, float, float, float]:
    """Least squares in (log c1, c2) at fixed exponents.

    Returns (sse, log_c1, c2, max_abs_residual).  c2 is clamped nonnegative:
    a negative slope means the model is inverted, and the clamp shows up as
    a large residual instead of a nonsense fit.
    """
    radii = times ** (1.0 / d_w)
    y = log_p + np.log(ball_mass(radii))
    expo = d_w / (d_w - 1.0) if exponent is None else exponent
    xi = (dists / radii) ** expo
    a = np.column_stack([np.ones_like(xi), -xi])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    if coef[1] < 0.0:
        coef[1] = 0.0
        coef[0] = float(np.mean(y))
    pred = a @ coef
    res = y - pred
    return float(np.sum(res**2)), float(coef[0]), float(coef[1]), float(
        np.max(np.abs(res))
    )


def fit_subgaussian(spec: Spectrum, seed: int = 0) -> HeatKernelFit:
    """Fit the sub-Gaussian off-diagonal model over (time, pair) samples.

    Twelve geometric times span the window [3/lambda_max, 0.3/lambda_1]:
    early enough that the kernel is not saturated at the constant mode,
    late enough that single-vertex discreteness has smoothed out.  Any
    spectrum will do, a low band too: ``heat_kernel`` is exact on it, and
    ``spec.lambda_max`` is solved at most once per spectrum, whoever reads
    it first.  Distances in the decay
    variable are network geodesics (shortest paths over the form's edges):
    the kernel propagates through edges, and on ramified geometries the
    straight-line distance understates the travel cost by an uneven factor.
    Only samples that sit 2 to 12 e-folds below the on-diagonal value enter
    the fit: closer in there is no decay signal, farther out the lattice
    tail leaves the sub-Gaussian regime.
    """
    from scipy.sparse.csgraph import dijkstra

    form = spec.form
    cloud = form.cloud
    lam = spec.eigenvalues
    positive = lam[lam > 0]
    if positive.size == 0:
        raise ValueError("spectrum has no positive eigenvalues")
    lam1, lam_max = float(positive.min()), spec.lambda_max
    t_lo, t_hi = 3.0 / lam_max, 0.3 / lam1
    if not (0.0 < t_lo < t_hi):
        raise ValueError(f"degenerate time window ({t_lo:g}, {t_hi:g})")
    times = np.geomspace(t_lo, t_hi, 12)

    rng = np.random.default_rng(seed)
    n = cloud.n
    centers = np.sort(rng.choice(n, size=min(8, n), replace=False))
    center_row = {int(x): k for k, x in enumerate(centers)}
    edge_len = cloud.pair_distances(form.edge_i, form.edge_j)
    geo = dijkstra(
        _edge_matrix(form, edge_len), indices=centers, directed=False
    )
    d_lo = 12.0 * cloud.mesh
    d_hi = 0.5 * float(geo[np.isfinite(geo)].max())
    if d_hi <= d_lo:
        d_hi = float(geo[np.isfinite(geo)].max())
    pairs = []
    for row, x in enumerate(centers):
        for target in np.geomspace(d_lo, d_hi, 5):
            y = int(np.argmin(np.abs(geo[row] - target)))
            if y != x:
                pairs.append((int(x), y))
    pairs = sorted(set(pairs))

    xs, ys = np.array(pairs, dtype=np.intp).T
    # One call: per time, the kernel at every pair and on the diagonal at
    # every centre.
    table = heat_kernel(spec, times, np.concatenate([xs, centers]), np.concatenate([ys, centers]))
    kernel, on_diag = table[:, : xs.size], table[:, xs.size :]
    rows = []
    for t, p_t, diag_t in zip(times, kernel, on_diag):
        for x, y, p in zip(xs.tolist(), ys.tolist(), p_t.tolist()):
            d = float(diag_t[center_row[x]])
            if p <= 0.0 or d <= 0.0:
                continue
            gap = np.log(d / p)
            if 2.0 <= gap <= 12.0:
                rows.append((np.log(p), geo[center_row[x], y], float(t), x))
    if len(rows) < 8:
        raise ValueError("too few kernel samples in the decay band")
    log_p = np.array([r[0] for r in rows])
    dists = np.array([r[1] for r in rows])
    tvals = np.array([r[2] for r in rows])
    x_ids = np.array([r[3] for r in rows], dtype=np.intp)

    # Every free-exponent trial shares d_w_fit and so the same radii: per
    # radius vector, one ball per centre at its largest radius; each smaller
    # radius is a mask on the centre's distance row (ball_ids decides by the
    # same canonical distance, in ascending ids: same arrays, same sums).
    masses: dict[bytes, np.ndarray] = {}
    dist_rows = {x: cloud.distances_from(x) for x in np.unique(x_ids).tolist()}

    def mass_at(radii: np.ndarray) -> np.ndarray:
        key = radii.tobytes()
        if key not in masses:
            out = np.empty(radii.size)
            for x, row in dist_rows.items():
                mine = np.flatnonzero(x_ids == x)
                rs, inv = np.unique(radii[mine], return_inverse=True)
                ids = cloud.ball_ids(x, float(rs[-1]))
                d, w = row[ids], cloud.weights[ids]
                out[mine] = np.array([w[d < r].sum() for r in rs])[inv]
            masses[key] = out
        return masses[key]

    def best_over(grid: np.ndarray, expo_of: "callable") -> tuple:
        found = None
        for g in grid:
            dw, expo = expo_of(g)
            sse, lc1, c2, res = _subgaussian_sse(
                dw, expo, log_p, dists, tvals, mass_at
            )
            if found is None or sse < found[0]:
                found = (sse, g, lc1, c2, res)
        return found

    # Coarse-to-fine search over the tied exponent model.
    coarse = best_over(np.arange(1.2, 4.0001, 0.05), lambda g: (g, None))
    fine = best_over(
        np.arange(coarse[1] - 0.05, coarse[1] + 0.0501, 0.005),
        lambda g: (g, None),
    )
    _, d_w_fit, log_c1, c2, residual = fine

    # Free-exponent refit at the fitted space-time scaling.
    ec = best_over(np.arange(1.05, 5.0001, 0.05), lambda g: (d_w_fit, g))
    ef = best_over(
        np.arange(ec[1] - 0.05, ec[1] + 0.0501, 0.005), lambda g: (d_w_fit, g)
    )
    exponent_fit = float(ef[1])

    # On-diagonal decay over the same window gives the spectral dimension.
    slopes = []
    for pd in on_diag.T:
        keep = pd > 0
        if keep.sum() >= 3:
            slopes.append(np.polyfit(np.log(times[keep]), np.log(pd[keep]), 1)[0])
    if not slopes:
        raise ValueError("no usable on-diagonal samples")
    d_s_fit = -2.0 * float(np.median(slopes))

    return HeatKernelFit(
        c1=float(np.exp(log_c1)),
        c2=float(c2),
        d_w_fit=float(d_w_fit),
        exponent_fit=exponent_fit,
        d_s_fit=d_s_fit,
        residual=float(residual),
        n_samples=int(log_p.size),
    )


# ----------------------------------------------------------------------
# walk dimension from the spectral hierarchy
# ----------------------------------------------------------------------


def eigen_walk_dimension(coarse: Spectrum, fine: Spectrum) -> WalkDimFit:
    """Walk exponent from relaxation times across one mesh halving.

    The generator eigenvalues carry the per-level calibration, so the
    comparison divides it back out: T = renorm / lambda_k is the relaxation
    time in walk units, and d_w_hat = log(T_fine/T_coarse) / log(h_c/h_f).
    lambda_2 and lambda_3 repeat the estimate as a consistency residual.
    Reads lambda_1 .. lambda_{k-1} of both spectra, k = min(4, both k_max);
    it solves nothing, so the caller's spectra are the only solves.
    """
    c_form, f_form = coarse.form, fine.form
    if c_form.kind != f_form.kind:
        raise ValueError(f"forms from different hierarchies: {c_form.kind} vs {f_form.kind}")
    h_c, h_f = c_form.cloud.mesh, f_form.cloud.mesh
    ratio = h_c / h_f
    if not (1.7 <= ratio <= 2.3):
        raise ValueError(
            f"forms are not consecutive levels: mesh ratio {ratio:.3g} "
            "is not a halving"
        )
    k_need = min(4, coarse.k_max, fine.k_max)
    if k_need < 2:
        raise ValueError(f"each spectrum needs lambda_1; k_max {coarse.k_max} and {fine.k_max}")
    estimates = []
    for k in range(1, k_need):
        t_c = c_form.renorm / coarse.eigenvalues[k]
        t_f = f_form.renorm / fine.eigenvalues[k]
        estimates.append(np.log(t_f / t_c) / np.log(ratio))
    estimates = np.array(estimates)
    d_w_hat = float(estimates[0])
    return WalkDimFit(
        d_w_hat=d_w_hat,
        method="eigen_ratio",
        residual=float(np.max(np.abs(estimates - d_w_hat))),
        scales=np.array([h_c, h_f]),
        details={"kind": c_form.kind, "mesh_ratio": float(ratio)},
    )


# ----------------------------------------------------------------------
# intrinsic metric
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IntrinsicMetricResult:
    """Certified bracket around the intrinsic distance.

    ``lower`` is attained by an explicitly feasible field (the constraint
    Gamma(f,f) <= mu holds exactly in floating point); ``upper`` comes from
    the per-edge increment cap along shortest paths.
    """

    lower: float
    upper: float
    witness: np.ndarray


def _edge_lengths_feasible(form: GraphDirichletForm) -> np.ndarray:
    """Per-edge caps that make any 1-Lipschitz field (w.r.t. them) feasible.

    Bounding |df| on each edge by min over its endpoints z of
    sqrt(2 mu_z / (deg_z c_e)) gives Gamma(z) <= mu_z vertex by vertex.
    """
    deg_count = np.bincount(np.concatenate([form.edge_i, form.edge_j]), minlength=form.n)
    mu = form.cloud.weights
    cap_i = 2.0 * mu[form.edge_i] / (deg_count[form.edge_i] * form.conductances)
    cap_j = 2.0 * mu[form.edge_j] / (deg_count[form.edge_j] * form.conductances)
    return np.sqrt(np.minimum(cap_i, cap_j))


def _edge_lengths_upper(form: GraphDirichletForm) -> np.ndarray:
    """Per-edge bound |df| <= sqrt(2 min(mu_u, mu_v) / c_e) for feasible f."""
    mu = form.cloud.weights
    return np.sqrt(
        2.0 * np.minimum(mu[form.edge_i], mu[form.edge_j]) / form.conductances
    )


def _edge_matrix(form: GraphDirichletForm, values: np.ndarray) -> sp.csr_matrix:
    """Symmetric n x n matrix holding ``values[e]`` at both orientations of edge e."""
    import scipy.sparse as sp

    n = form.n
    i = np.concatenate([form.edge_i, form.edge_j])
    j = np.concatenate([form.edge_j, form.edge_i])
    d = np.concatenate([values, values])
    return sp.csr_matrix((d, (i, j)), shape=(n, n))


def _certify(form: GraphDirichletForm, values: np.ndarray, x: int, y: int) -> tuple[float, np.ndarray]:
    """Scale ``values`` into the feasible set: the certified gap and a fresh field.

    The divisor starts at max(1, sqrt(max Gamma/mu)) and grows by 1, 2, 4, ...
    ulps until Gamma <= mu holds exactly in floating point.
    """
    mu = form.cloud.weights
    scale = max(1.0, np.sqrt(np.max(_gamma_density(form, values) / mu)))
    scaled = values / scale
    grow = np.finfo(float).eps
    while np.any(_gamma_density(form, scaled) > mu):
        scale *= 1.0 + grow
        grow *= 2.0
        scaled = values / scale
    return float(scaled[x] - scaled[y]), scaled


def _colour_classes(adj: sp.csr_matrix) -> list[np.ndarray]:
    """Greedy colouring in id order: no class holds both ends of an edge."""
    indptr, indices = adj.indptr.tolist(), adj.indices.tolist()
    colour = [0] * adj.shape[0]
    for z in range(adj.shape[0]):
        taken = {colour[k] for k in indices[indptr[z] : indptr[z + 1]] if k < z}
        colour[z] = min(set(range(len(taken) + 1)) - taken)
    colour = np.array(colour)
    return [np.flatnonzero(colour == c) for c in range(colour.max() + 1)]


def intrinsic_metric(form: GraphDirichletForm, x: int, y: int) -> IntrinsicMetricResult:
    """Certified bounds on sup{f(x) - f(y) : Gamma(f,f) <= mu pointwise}.

    Starts from the distance field of a provably feasible edge metric, then
    takes one ascent step: a push on ``x`` by a quarter of the gap to
    ``upper``, three projection sweeps and a certifying rescale.  The better
    of the certified start and the step is returned.  The sweeps move each
    violating vertex toward the conductance-weighted mean of its neighbours,
    as far as its own quadratic constraint allows, one colour class at a
    time: no two vertices of a class share an edge, so each class is
    updated at once from its rows of the adjacency.

    One step is a measured choice: on interval, square and gasket clouds,
    further rounds of the same rule moved ``lower`` by at most 2 ulps and
    closed none of its gap to the optimum, which the tests bound with a
    Lagrangian dual.
    """
    from scipy.sparse.csgraph import dijkstra

    x, y = form.cloud._checked_ids(x), form.cloud._checked_ids(y)
    if x == y:
        return IntrinsicMetricResult(0.0, 0.0, np.zeros(form.n))

    vals = dijkstra(
        _edge_matrix(form, _edge_lengths_feasible(form)), indices=y, directed=False
    )
    if not np.all(np.isfinite(vals)):
        raise ValueError("vertices are not connected in the form")
    upper = float(
        dijkstra(
            _edge_matrix(form, _edge_lengths_upper(form)), indices=y, directed=False
        )[x]
    )
    best, witness = _certify(form, vals, x, y)

    # Per class: its rows of the adjacency, the start of each row, the row
    # of every stored entry and the total conductances.
    classes = []
    for ids in _colour_classes(form.adjacency):
        rows = form.adjacency[ids]
        starts = rows.indptr[:-1]
        row_of = np.repeat(np.arange(ids.size), np.diff(rows.indptr))
        classes.append((ids, rows, starts, row_of, np.add.reduceat(rows.data, starts)))
    mu = form.cloud.weights
    vals[x] += 0.25 * max(upper - best, 1e-3 * max(upper, 1.0))
    for _ in range(3):
        for ids, rows, starts, row_of, a in classes:
            m = (rows @ vals) / a
            d = vals[rows.indices] - m[row_of]
            q = np.add.reduceat(rows.data * (d * d), starts)
            cap = np.sqrt(np.maximum(0.0, 2.0 * (mu[ids] - 0.5 * q)) / a)
            vals[ids] = np.clip(vals[ids], m - cap, m + cap)
    value, scaled = _certify(form, vals, x, y)
    if value > best:
        best, witness = value, scaled
    return IntrinsicMetricResult(lower=best, upper=upper, witness=witness)


# ----------------------------------------------------------------------
# energy measure vs Lipschitz slope
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GammaLipReport:
    """Best constant in Gamma/mu <= C (Lip_h f)^2 over active vertices."""

    c_best: float
    n_active: int


def gamma_vs_lip_check(form: GraphDirichletForm, f: ScalarField) -> GammaLipReport:
    """Compare the energy-measure density with the squared discrete slope.

    The slope reads neighbours closer than the admissibility floor kappa h.

    Grid forms only (the cloud has a lattice): the comparison is a d_w = 2
    statement and has no analogue for the resistance-scaled gasket form.
    """
    if form.cloud.lattice is None:
        raise ValueError(f"gamma/Lip comparison is limited to grids, got {form.kind}")
    cloud = form.cloud
    ratio_gamma = energy_measure(form, f) / cloud.weights
    lip = discrete_lip(f, cloud.floor).values
    active = lip > 0
    if not np.any(active):
        return GammaLipReport(c_best=0.0, n_active=0)
    c_best = float(np.max(ratio_gamma[active] / lip[active] ** 2))
    return GammaLipReport(c_best=c_best, n_active=int(active.sum()))


# ----------------------------------------------------------------------
# gasket harmonic extension
# ----------------------------------------------------------------------


def gasket_harmonic_field(cloud: MeasuredPointCloud) -> ScalarField:
    """Harmonic extension of the corner values (1, 0, 0) through the 1/5-2/5 rule.

    Each subdivision assigns a side midpoint 2/5 of either endpoint value
    plus 1/5 of the opposite corner; with the (5/3)^m conductances this
    keeps the energy of the extension level-independent.  Other corner
    values go through ``space._gasket_subdivision``.
    """
    if cloud.kind != "gasket":
        raise ValueError("harmonic extension needs a gasket cloud")
    _, verts, values = _gasket_subdivision(int(cloud.meta["level"]), (1.0, 0.0, 0.0))
    return ScalarField(cloud, np.array([values[v] for v in verts]))
