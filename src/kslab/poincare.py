"""Empirical Poincaré inequalities and the localized maximal function.

The checks quantify over sampled balls instead of all balls: a seeded set of
centers crossed with a geometric radius ladder stands in for the sup.  Three
right-hand sides (squared local slope, small-scale ball-increment energies,
graph energy measure) share each sample's left-hand ball variance and rhs
ball, computed once per call.  On top of the same per-point energy
densities sit the maximal function, its weak-L² level-set bound, and the
telescoping estimate that controls ball averages along a dyadic chain of
radii, read off the maximal field.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .energy import (
    DEFAULT_RATIO,
    ScalarField,
    _admissible_scales,
    ks_energy_density,
    liminf_window_scales,
)
from .export import Table
from .graphform import GraphDirichletForm
from .graphform import energy_measure as graph_energy_measure
from .smoothing import discrete_lip
from .space import Inapplicable, MeasuredPointCloud, segment_sums

__all__ = [
    "PoincareSample",
    "PoincareReport",
    "MaximalField",
    "WeakL2Report",
    "TelescopeReport",
    "poincare_check",
    "maximal_function",
    "weak_l2_check",
    "telescoping_bound",
]

DEFAULT_LAMBDA = 2.0
DEFAULT_CENTERS = 50
RADII_PER_DECADE = 4
# Samples whose right-hand side falls under this fraction of ||f||^2 are
# dropped from C_best instead of dividing by numerical dust.
RHS_FLOOR_FACTOR = 1e-14

POINCARE_MODES = ("lip", "ks", "energy_measure")


@dataclass(frozen=True)
class PoincareSample:
    """One (center, radius) evaluation of the inequality."""

    center: int
    radius: float
    lhs: float
    rhs: float
    ratio: float  # NaN when the rhs sits under the floor


@dataclass(frozen=True)
class PoincareReport:
    """Sampled Poincaré quotients for one field and one rhs flavor.

    ``c_best`` is the largest lhs/rhs over samples whose rhs clears the
    floor; it is the empirical stand-in for the inequality constant.
    """

    mode: str
    d_w: float
    lam: float
    seed: int | None
    samples: tuple[PoincareSample, ...]
    c_best: float
    floor: float
    n_used: int

    def table(self) -> Table:
        header = ("center", "R", "lhs", "rhs", "ratio")
        return header, tuple((s.center, s.radius, s.lhs, s.rhs, s.ratio) for s in self.samples)


def _default_samples(
    cloud: MeasuredPointCloud, r_lo: float, r_hi: float, seed: int
) -> list[tuple[int, float]]:
    """``DEFAULT_CENTERS`` seeded centres, in ascending order, each crossed
    with ``RADII_PER_DECADE`` geometric radii per decade from r_lo to r_hi."""
    if r_hi <= r_lo:
        raise Inapplicable(
            f"no admissible radii: floor {r_lo:g} is not below diam/(2*lambda) = {r_hi:g}"
        )
    decades = math.log10(r_hi / r_lo)
    n_radii = max(2, math.ceil(RADII_PER_DECADE * decades))
    radii = np.geomspace(r_lo, r_hi, n_radii)
    rng = np.random.default_rng(seed)
    centers = np.sort(rng.choice(cloud.n, size=min(DEFAULT_CENTERS, cloud.n), replace=False))
    return [(int(c), float(r)) for c in centers for r in radii]


def poincare_check(
    f: ScalarField,
    d_w: float = 2.0,
    lam: float = DEFAULT_LAMBDA,
    samples: Sequence[tuple[int, float]] | None = None,
    form: GraphDirichletForm | None = None,
    seed: int = 0,
) -> dict[str, PoincareReport]:
    """Sample the 2-Poincaré inequality in every rhs flavor at once.

    Returns ``{mode: PoincareReport}`` in ``POINCARE_MODES`` order:
    ``lip`` and ``ks``, and ``energy_measure`` when ``form`` is given.  Each
    sample's lhs and ball B(x, lam R) are computed once and every rhs reads
    them; both balls mask the centre's canonical distance row, read once per
    run of equal centres (default samples come grouped by centre).  lhs is
    the ball variance sum over B(x, R) of mu |f - f_B|^2; rhs by mode:

    - ``lip``: R^2 times the summed squared local slope over B(x, lam R);
    - ``ks``: R^d_w times the small-scale window minimum of the
      ball-increment energy restricted to B(x, lam R);
    - ``energy_measure``: R^d_w times the graph energy measure of
      B(x, lam R), taken from ``form``.
    """
    if lam < 1.0:
        raise ValueError("inflation factor must be at least 1")
    cloud = f.cloud
    if form is not None and form.cloud is not cloud:
        raise ValueError("form does not live on the field's cloud")

    used_seed: int | None = seed
    r_lo, r_hi = cloud.floor, cloud.diameter / (2.0 * lam)
    if samples is None:
        pairs = _default_samples(cloud, r_lo, r_hi, seed)
    else:
        pairs = [(int(c), float(r)) for c, r in samples]
        used_seed = None
    for c, r in pairs:
        cloud._checked_ids(c)
        if not (r_lo <= r <= r_hi * (1.0 + 1e-12)):
            raise ValueError(
                f"radius {r:g} outside the admissible range [{r_lo:g}, {r_hi:g}]"
            )

    mu = cloud.weights
    fv = f.values
    # Per mode: the rhs density rows (the window minimum is taken over
    # rows) and the power of R in front of them.
    slope = discrete_lip(f, cloud.floor).values
    rhs = {
        "lip": ((mu * slope**2)[None, :], 2.0),
        "ks": (ks_energy_density(f, liminf_window_scales(cloud), d_w=d_w), d_w),
    }
    if form is not None:
        rhs["energy_measure"] = (graph_energy_measure(form, f)[None, :], d_w)

    floor = RHS_FLOOR_FACTOR * f.l2sq()
    out: dict[str, list[PoincareSample]] = {mode: [] for mode in rhs}
    for c, run in itertools.groupby(pairs, key=lambda pair: pair[0]):
        d = cloud.distances_from(c)
        for _, r in run:
            ids = np.flatnonzero(d < r)
            w_ball = mu[ids]
            mean = float(np.dot(w_ball, fv[ids]) / w_ball.sum())
            lhs = float(np.dot(w_ball, (fv[ids] - mean) ** 2))
            region = ids if lam == 1.0 else np.flatnonzero(d < lam * r)
            for mode, (rows, power) in rhs.items():
                value = float(r**power * rows[:, region].sum(axis=1).min())
                ratio = lhs / value if value > floor else float("nan")
                out[mode].append(PoincareSample(center=c, radius=r, lhs=lhs, rhs=value, ratio=ratio))

    reports = {}
    for mode, found in out.items():
        finite = [s.ratio for s in found if np.isfinite(s.ratio)]
        reports[mode] = PoincareReport(
            mode=mode,
            d_w=float(d_w),
            lam=float(lam),
            seed=used_seed,
            samples=tuple(found),
            c_best=float(max(finite)) if finite else 0.0,
            floor=float(floor),
            n_used=len(finite),
        )
    return reports


# ----------------------------------------------------------------------
# maximal function
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MaximalField:
    """Localized maximal function M_R f.

    Per point, the value is the square root of the largest normalized
    small-scale energy over the radius ladder: values carry the ^{1/2}.
    ``window_rows`` holds the per-point energy densities of ``field`` at the
    window scales, one row per scale, that the values were built from.
    """

    field: ScalarField
    R: float
    d_w: float
    rho_grid: np.ndarray  # descending radii in [kappa h, R)
    window_scales: np.ndarray
    window_rows: np.ndarray
    values: np.ndarray

    @property
    def cloud(self) -> MeasuredPointCloud:
        return self.field.cloud


def _maximal_rho_grid(cloud: MeasuredPointCloud, R: float) -> np.ndarray:
    """Mid-mesh snapped geometric ladder spanning [kappa h, R)."""
    floor = cloud.floor
    if R <= floor:
        raise Inapplicable(f"empty radius ladder: R = {R:g} is at or under the floor {floor:g}")
    count = max(1, math.ceil(math.log(R / floor) / math.log(1.0 / DEFAULT_RATIO)) + 2)
    grid = _admissible_scales(cloud, R * DEFAULT_RATIO ** np.arange(count))
    grid = grid[grid < R]
    if grid.size == 0:
        raise Inapplicable(f"empty radius ladder below R = {R:g}")
    return grid


def maximal_function(
    f: ScalarField,
    R: float,
    d_w: float = 2.0,
) -> MaximalField:
    """M_R f: sup over rho < R of the normalized local energy, rooted.

    The normalized quantity at radius rho is the window-minimum of the
    ball-restricted increment energy divided by mu(B(x, rho)); the reported
    value is its square root, so the field scales like the local slope.
    The whole ladder is served by one ball pass at its largest radius.
    """
    cloud = f.cloud
    grid = _maximal_rho_grid(cloud, R)
    w_scales = liminf_window_scales(cloud)
    rows = ks_energy_density(f, w_scales, d_w=d_w)
    mu = cloud.weights
    best = np.zeros(cloud.n)
    pos = 0
    for sub, members in cloud.nested_ball_chunks(grid):
        out = best[pos : pos + sub.size]
        for flat, counts in members:
            sums = np.stack([segment_sums(row[flat], counts) for row in rows])
            np.maximum(out, sums.min(axis=0) / segment_sums(mu[flat], counts), out=out)
        pos += sub.size
    return MaximalField(
        field=f,
        R=float(R),
        d_w=float(d_w),
        rho_grid=grid,
        window_scales=w_scales,
        window_rows=rows,
        values=np.sqrt(np.maximum(best, 0.0)),
    )


# ----------------------------------------------------------------------
# weak-L² bound
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WeakL2Report:
    """Level-set quotients mu{M > t} t^2 / E for a ladder of thresholds."""

    R: float
    d_w: float
    e_proxy: float
    thresholds: np.ndarray
    quotients: np.ndarray

    @property
    def max_quotient(self) -> float:
        return float(self.quotients.max()) if self.quotients.size else 0.0


def weak_l2_check(maximal: MaximalField) -> WeakL2Report:
    """Check mu{M_R f > t} <= C t^{-2} E against the global energy proxy.

    E is the window minimum of the global energy of the field ``maximal``
    was built from, read off its window rows.  The thresholds t are eight
    geometric steps from max M / 32 to 2 max M (the single t = 1 when E
    vanishes).  The reported quotient mu{M > t} t^2 / E must stay bounded
    as thresholds and resolutions vary; the theorem's C is its ceiling.
    """
    cloud = maximal.cloud
    d_w = maximal.d_w
    mvals = maximal.values
    e_proxy = float(maximal.window_rows.sum(axis=1).min())
    if e_proxy <= 0.0:
        if np.any(mvals > 0.0):
            raise RuntimeError(
                "zero global energy with a nonzero maximal field; "
                "inputs are inconsistent"
            )
        return WeakL2Report(
            R=maximal.R,
            d_w=float(d_w),
            e_proxy=0.0,
            thresholds=np.ones(1),
            quotients=np.zeros(1),
        )
    top = float(mvals.max())
    ladder = np.geomspace(top / 32.0, top * 2.0, 8)
    mu = cloud.weights
    quotients = np.array(
        [float(mu[mvals > t].sum()) * t**2 / e_proxy for t in ladder]
    )
    return WeakL2Report(
        R=maximal.R,
        d_w=float(d_w),
        e_proxy=e_proxy,
        thresholds=ladder,
        quotients=quotients,
    )


# ----------------------------------------------------------------------
# telescoping estimate
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TelescopeReport:
    """Dyadic-chain control of ball averages by the maximal function."""

    x: int
    rho: float
    rho_min: float
    levels: np.ndarray
    lhs: float
    rhs: float
    c_report: float
    ok: bool
    d_w: float


def telescoping_bound(maximal: MaximalField, x: int) -> TelescopeReport:
    """|f_{B(x,rho)} - f_{B(x,rho_min)}| against rho^{d_w/2} M f(x).

    The field, d_w and rho = ``maximal.R`` come from the maximal field.  The
    chain halves the radius until the admissibility floor; the smallest
    ball average stands in for the pointwise value, which has no Lebesgue
    points at finite resolution.  M f(x) is taken over radii up to
    ``DEFAULT_LAMBDA`` rho, from the maximal field's window rows at each
    ball's members; it already carries its square root, so the right-hand
    side applies no further root.  The chain ends and M's ladder all mask
    x's canonical distance row, read once.
    """
    cloud, f, rho, d_w = maximal.cloud, maximal.field, maximal.R, maximal.d_w
    x = cloud._checked_ids(x)
    floor = cloud.floor
    if rho < 4.0 * floor:
        raise ValueError(
            f"rho = {rho:g} leaves no room for a dyadic chain (need >= {4 * floor:g})"
        )
    levels = [rho]
    while levels[-1] / 2.0 >= floor:
        levels.append(levels[-1] / 2.0)
    levels = np.array(levels)
    rho_min = float(levels[-1])

    fv = f.values
    mu = cloud.weights
    d = cloud.distances_from(x)

    def average(r: float) -> float:
        inside = d < r
        w = mu[inside]
        return float(np.dot(w, fv[inside]) / w.sum())

    lhs = abs(average(rho) - average(rho_min))

    rows = maximal.window_rows
    m_val = 0.0
    for r in _maximal_rho_grid(cloud, DEFAULT_LAMBDA * rho):
        ids = np.flatnonzero(d < r)
        mass = float(mu[ids].sum())
        val = float(rows[:, ids].sum(axis=1).min()) / mass
        m_val = max(m_val, val)
    m_val = math.sqrt(max(m_val, 0.0))

    rhs = rho ** (d_w / 2.0) * m_val
    # Ball averages of a flat field differ by rounding ulps; do not let
    # that noise turn a vacuous bound into an infinite constant.
    noise = 1e-12 * max(1.0, float(np.abs(fv).max()))
    if rhs > 0.0:
        c_report = lhs / rhs
    else:
        c_report = 0.0 if lhs <= noise else float("inf")
    return TelescopeReport(
        x=int(x),
        rho=float(rho),
        rho_min=rho_min,
        levels=levels,
        lhs=float(lhs),
        rhs=float(rhs),
        c_report=float(c_report),
        ok=bool(np.isfinite(c_report)),
        d_w=float(d_w),
    )
