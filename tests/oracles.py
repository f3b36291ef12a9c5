"""Independent brute-force oracles used to pin expected values.

Everything here is written against the raw arrays with plain Python loops or
full distance matrices, deliberately avoiding the library's accelerated code
paths, so the two sides of every comparison are genuinely independent.
"""

from __future__ import annotations

import numpy as np


def dist_matrix(coords: np.ndarray) -> np.ndarray:
    """Full pairwise Euclidean distance matrix, O(n^2)."""
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def hull_diameter(coords: np.ndarray) -> float:
    """Largest pdist distance between the vertices of the convex hull (2-D)."""
    from scipy.spatial import ConvexHull
    from scipy.spatial.distance import pdist

    return float(pdist(coords[ConvexHull(coords).vertices]).max())


def edge_bilinear(form, f_values: np.ndarray, g_values: np.ndarray) -> float:
    """E(f, g) = sum over edges of c_xy (f_x - f_y)(g_x - g_y), by ``math.fsum``."""
    import math

    return math.fsum(
        c * (f_values[i] - f_values[j]) * (g_values[i] - g_values[j])
        for i, j, c in zip(form.edge_i, form.edge_j, form.conductances)
    )


def brute_ball_ids(coords: np.ndarray, x: int, r: float) -> np.ndarray:
    d = np.sqrt(((coords - coords[x]) ** 2).sum(axis=1))
    return np.flatnonzero(d < r)


def fsum_increment_rows(
    coords: np.ndarray,
    weights: np.ndarray,
    values: np.ndarray,
    r: float,
    p: int,
    centers,
) -> np.ndarray:
    """Per centre x, mu_x / mu(B(x, r)) * sum_{y in B(x, r)} mu_y |f_x - f_y|**p.

    Balls come from ``brute_ball_ids`` and both sums from ``math.fsum``,
    so each entry is the exactly summed value of the rounded terms.
    """
    import math

    out = []
    for x in centers:
        ids = brute_ball_ids(coords, x, r)
        w = weights[ids]
        terms = w * np.abs(values[x] - values[ids]) ** p
        out.append(weights[x] * math.fsum(terms) / math.fsum(w))
    return np.array(out)


def brute_ks_energy(
    dmat: np.ndarray,
    weights: np.ndarray,
    values: np.ndarray,
    r: float,
    d_w: float,
    region: np.ndarray | None = None,
) -> float:
    """O(n^2) double sum of the ball-increment energy."""
    n = weights.size
    centers = range(n) if region is None else region
    total = 0.0
    for x in centers:
        members = np.flatnonzero(dmat[x] < r)
        mass = weights[members].sum()
        inner = 0.0
        for y in members:
            inner += weights[y] * (values[x] - values[y]) ** 2
        total += weights[x] * inner / mass
    return total / r**d_w


def brute_doubling_ratio(dmat: np.ndarray, weights: np.ndarray, x: int, r: float) -> float:
    m1 = weights[dmat[x] < r].sum()
    m2 = weights[dmat[x] < 2 * r].sum()
    return m2 / m1


def interval_identity_energy(r: float) -> float:
    """Continuum ball-increment energy of f(x)=x on [0,1] at scale r, d_w=2.

    Interior centres contribute r^2/3 per unit mass before the 1/r^2
    normalization; integrating the one-sided boundary correction exactly
    gives E(r) = 1/3 - r/9.
    """
    return 1.0 / 3.0 - r / 9.0


def gasket_vertex_count(level: int) -> int:
    """Vertex count of the level-m gasket graph by the cell recursion."""
    n = 3
    for _ in range(level):
        n = 3 * n - 3
    return n


def chain_ball_average(
    dmat: np.ndarray, weights: np.ndarray, values: np.ndarray, x: int, r: float
) -> float:
    members = np.flatnonzero(dmat[x] < r)
    w = weights[members]
    return float(np.dot(w, values[members]) / w.sum())


def brute_greedy_net(dmat: np.ndarray, epsilon: float) -> list[int]:
    """Reference greedy net: keep a point iff >= epsilon from all kept ones."""
    centers: list[int] = []
    for p in range(dmat.shape[0]):
        if all(dmat[p, c] >= epsilon for c in centers):
            centers.append(p)
    return centers


def brute_partition(dmat: np.ndarray, centers: list[int], epsilon: float) -> np.ndarray:
    """Dense tent-kernel partition over the given centers."""
    psi = np.clip(2.0 - dmat[centers] / epsilon, 0.0, 1.0)
    return psi / psi.sum(axis=0)


def dense_partition(pou) -> np.ndarray:
    """A partition's bumps as one dense (n_centers, n) array, one row per center."""
    phi = np.zeros((pou.n_centers, pou.cloud.n))
    phi[np.repeat(np.arange(pou.n_centers), pou.bump_counts), pou.bump_members] = pou.bump_values
    return phi


def brute_mollify(
    dmat: np.ndarray,
    weights: np.ndarray,
    values: np.ndarray,
    centers: list[int],
    epsilon: float,
) -> np.ndarray:
    """Ball-average recombination computed with plain loops."""
    phi = brute_partition(dmat, centers, epsilon)
    out = np.zeros_like(values, dtype=float)
    for k, c in enumerate(centers):
        members = np.flatnonzero(dmat[c] < epsilon)
        avg = np.dot(weights[members], values[members]) / weights[members].sum()
        out += avg * phi[k]
    return out


def convex_intrinsic_metric(
    edge_i: np.ndarray,
    edge_j: np.ndarray,
    conduct: np.ndarray,
    mu: np.ndarray,
    x: int,
    y: int,
) -> float:
    """Solve sup f(x) - f(y) s.t. per-vertex energy density <= mu directly.

    SLSQP on the raw nonlinear program; only trustworthy for small graphs,
    which is exactly where it serves as a cross-check.  The start is the
    strictly feasible f = t * (hop count from y), with t = min_z
    sqrt(2 mu_z / (deg_z * max c)): every edge then carries |df| <= t, so
    Gamma(f)_z <= deg_z max(c) t^2 / 2 <= mu_z.
    """
    from scipy.optimize import minimize
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import shortest_path

    n = mu.size
    deg = np.bincount(edge_i, minlength=n) + np.bincount(edge_j, minlength=n)
    t = float(np.min(np.sqrt(2.0 * mu / (np.maximum(deg, 1) * conduct.max()))))
    adj = coo_matrix((np.ones(edge_i.size), (edge_i, edge_j)), shape=(n, n))
    hops = shortest_path(adj, directed=False, unweighted=True, indices=y)

    def gamma(f: np.ndarray) -> np.ndarray:
        d2 = conduct * (f[edge_i] - f[edge_j]) ** 2
        g = np.zeros(n)
        np.add.at(g, edge_i, 0.5 * d2)
        np.add.at(g, edge_j, 0.5 * d2)
        return g

    res = minimize(
        lambda f: -(f[x] - f[y]),
        x0=t * hops,
        jac=lambda f: -(np.eye(n)[x] - np.eye(n)[y]),
        constraints=[{"type": "ineq", "fun": lambda f: mu - gamma(f)}],
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-12},
    )
    if not res.success:
        raise RuntimeError(f"oracle solver failed: {res.message}")
    return float(res.x[x] - res.x[y])


def dual_intrinsic_metric(
    edge_i: np.ndarray,
    edge_j: np.ndarray,
    conduct: np.ndarray,
    mu: np.ndarray,
    x: int,
    y: int,
) -> float:
    """Lagrangian dual bound on sup f(x) - f(y) s.t. Gamma(f) <= mu.

    For multipliers lam > 0, D(lam) = sum_z lam_z mu_z + R_lam(x, y) / 4,
    where R_lam is the effective resistance between x and y of the network
    with conductances c_e (lam_i + lam_j) / 2.  Weak duality gives
    D(lam) >= the intrinsic distance for every lam > 0.  D is minimised over
    s = log lam with L-BFGS-B from s = 0; resistances come from a dense
    solve grounded at y, so this is for graphs of a few hundred vertices.
    """
    from scipy.optimize import minimize

    n = mu.size
    keep = np.arange(n) != y

    def value_and_grad(s: np.ndarray) -> tuple[float, np.ndarray]:
        lam = np.exp(s)
        c_hat = conduct * 0.5 * (lam[edge_i] + lam[edge_j])
        lap = np.zeros((n, n))
        np.add.at(lap, (edge_i, edge_j), -c_hat)
        np.add.at(lap, (edge_j, edge_i), -c_hat)
        np.add.at(lap, (edge_i, edge_i), c_hat)
        np.add.at(lap, (edge_j, edge_j), c_hat)
        rhs = np.zeros(n)
        rhs[x] = 1.0
        v = np.zeros(n)
        v[keep] = np.linalg.solve(lap[np.ix_(keep, keep)], rhs[keep])
        half = 0.5 * conduct * (v[edge_i] - v[edge_j]) ** 2
        load = np.zeros(n)
        np.add.at(load, edge_i, half)
        np.add.at(load, edge_j, half)
        return float(lam @ mu + 0.25 * v[x]), lam * (mu - 0.25 * load)

    res = minimize(
        value_and_grad,
        x0=np.zeros(n),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 20000, "maxfun": 40000, "ftol": 1e-16, "gtol": 1e-14},
    )
    return float(res.fun)


def uniformized_heat_kernel(
    edge_i: np.ndarray,
    edge_j: np.ndarray,
    conductances: np.ndarray,
    weights: np.ndarray,
    times: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """p_t(x, .) for each x in ``rows`` at each time, by uniformizing the chain.

    With L = M^{-1} C, q = max_x deg_x / mu_x and the stochastic matrix
    P = I - L / q, exp(-tL) = sum_k Poisson(k; tq) P^k and
    p_t(x, y) = exp(-tL)_{xy} / mu_y.  Every term is nonnegative, so each
    entry, however small, keeps a relative error of a few hundred ulps; a
    spectral sum instead leaves an absolute error of order eps / mu through
    its cancellations.  Returns shape (times, rows, n).
    """
    import scipy.sparse as sp
    from scipy.special import gammaln

    n = weights.size
    deg = np.bincount(edge_i, conductances, n) + np.bincount(edge_j, conductances, n)
    rate = deg / weights
    q = rate.max()
    step = sp.csr_matrix(
        (
            np.concatenate(
                [conductances / (weights[edge_i] * q), conductances / (weights[edge_j] * q), 1.0 - rate / q]
            ),
            (np.concatenate([edge_i, edge_j, np.arange(n)]), np.concatenate([edge_j, edge_i, np.arange(n)])),
        ),
        shape=(n, n),
    )
    mean = np.asarray(times) * q
    power = np.eye(n)[rows]  # e_x^T P^k, one row per x
    out = np.zeros((mean.size, len(rows), n))
    for k in range(int(mean.max() + 12.0 * np.sqrt(mean.max())) + 40):
        out += np.exp(k * np.log(mean) - mean - gammaln(k + 1))[:, None, None] * power
        power = (step.T @ power.T).T
    return out / weights
