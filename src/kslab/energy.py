"""Multiscale ball-increment (Korevaar-Schoen type) energies.

For a field f on a weighted cloud, a radius r, and a walk-dimension style
exponent d_w, the energy is the double sum

    E(f, r) = sum_{x} mu_x * (1 / mu(B(x, r)))
              * sum_{y in B(x, r)} mu_y * (f(x) - f(y))**2 / r**d_w,

the discrete form of an integral of ball-averaged squared increments.  A
``ScalarField`` carries its cloud, so the entry points take fields alone and
read the cloud off them; a family of fields must share one cloud.  The
energy over a region U keeps only the centres x in U in the outer sum: it is
the sum of a row of ``ks_energy_density`` over the entries at U.  The classical
small-scale limit of such energies recovers a Dirichlet integral; on a
finite cloud the limit is unreachable, so sweeps over a geometric scale grid
report window proxies (liminf / limsup over the smallest resolved scales)
and a fitted endpoint value instead.

Every reduction is per centre: a ball's sums read only that ball's members,
and a total sums the per-centre vector once.  Results therefore do not depend
on how centres are split into blocks or on which other scales share a call.
The increment sums take one of three routes (``_increment_table``): grid
clouds sum offset by offset over shifted lattice arrays; first moments above
the diameter, where every ball is the whole cloud, come from sorted prefix
sums; every other cloud reads the ball engine, one pass at the largest
radius, each ball's members in ascending id order.  All three agree with an
exactly summed (``math.fsum``) reduction to about 1e-15 relative.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import space
from .export import Table
from .space import DEFAULT_KAPPA, TIE_BAND, Inapplicable, MeasuredPointCloud, segment_sums

__all__ = [
    "ScalarField",
    "ks_energies",
    "ks_energy",
    "ks_energy_density",
    "ScaleGrid",
    "snap_mid_mesh",
    "make_scale_grid",
    "EnergySweep",
    "energy_sweep",
    "comparability_ratio",
    "WalkDimFit",
    "fit_walk_dimension",
    "liminf_window_scales",
]

# The one sweep geometry: r_k = r_max * DEFAULT_RATIO**k, k = 0..11, with
# r_max = diam/4 unless a caller widens it, scales under the floor kappa h
# dropped, and proxies taken over the DEFAULT_WINDOW smallest that remain.
DEFAULT_RATIO = 2.0**-0.5
DEFAULT_COUNT = 12
DEFAULT_WINDOW = 3

# Comparability quotients divide by max(liminf proxy, floor); the floor keeps
# near-constant fields from turning roundoff into huge ratios.
COMPARABILITY_FLOOR = 1e-14


@dataclass(frozen=True)
class ScalarField:
    """Real-valued field sampled on a cloud, one value per point.

    The field is the one source of its cloud: functions that take fields
    read the cloud from them and take no cloud of their own.
    """

    cloud: MeasuredPointCloud
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size != self.cloud.n:
            raise ValueError("field length does not match the cloud")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @staticmethod
    def from_function(cloud: MeasuredPointCloud, fn: Callable[[np.ndarray], np.ndarray]) -> "ScalarField":
        if cloud.coords is None:
            raise ValueError("from_function needs coordinates")
        return ScalarField(cloud, np.asarray(fn(cloud.coords), dtype=float))

    @staticmethod
    def coordinate(cloud: MeasuredPointCloud, axis: int = 0) -> "ScalarField":
        if cloud.coords is None:
            raise ValueError("coordinate fields need coordinates")
        return ScalarField(cloud, cloud.coords[:, axis].copy())

    @staticmethod
    def constant(cloud: MeasuredPointCloud, value: float) -> "ScalarField":
        return ScalarField(cloud, np.full(cloud.n, float(value)))

    def l2sq(self) -> float:
        """Squared weighted L2 norm, sum of mu_i * f_i**2."""
        return float(np.dot(self.cloud.weights, self.values**2))

    def is_constant(self) -> bool:
        return bool(np.ptp(self.values) == 0.0)


def _common_cloud(fields: Sequence[ScalarField]) -> MeasuredPointCloud:
    """The one cloud a family of fields lives on; empty or mixed families are refused."""
    if not fields:
        raise ValueError("empty family")
    cloud = fields[0].cloud
    for i, f in enumerate(fields):
        if f.cloud is not cloud:
            raise ValueError(f"field {i} lives on a different cloud")
    return cloud


def _validated(
    fields: Sequence[ScalarField],
    radii: Sequence[float],
    d_w: float | None = None,
) -> tuple[MeasuredPointCloud, np.ndarray]:
    """Checks shared by the energy entry points; returns the fields' cloud and matrix."""
    if d_w is not None and d_w < 2.0:
        raise ValueError("d_w must be at least 2")
    cloud = _common_cloud(fields)
    for r in radii:
        cloud.require_admissible(float(r))
    return cloud, np.stack([f.values for f in fields])


def _increment_table(
    cloud: MeasuredPointCloud,
    matrix: np.ndarray,
    radii: Sequence[float],
    powers: Sequence[int] | None = None,
) -> np.ndarray:
    """Per-centre normalized increment sums for one or more fields and radii.

    ``matrix`` holds one field per row.  Entry ``[k, i, x]`` is, for field
    row i and centre x,

        mu_x / mu(B(x, r_k)) * sum_{y in B(x, r_k)} mu_y |f(x) - f(y)|**p_k,

    with ``p_k = powers[k]`` (1 or 2; default 2).  Each radius takes one of
    three routes, and its entries do not depend on which other radii share
    the call:

    * p = 1 above the diameter (every ball is the whole cloud): sorted
      prefix sums, ``_whole_cloud_table``;
    * grid clouds (``cloud.lattice``): offset by offset over shifted
      arrays, ``_stencil_table``;
    * every other cloud: one ball-engine pass at the largest radius,
      ``_engine_table``.
    """
    powers = [2] * len(radii) if powers is None else list(powers)
    radii = [float(r) for r in radii]
    table = np.zeros((len(radii), matrix.shape[0], cloud.n))
    whole = [
        k for k, r in enumerate(radii) if powers[k] == 1 and r > cloud.diameter * (1.0 + TIE_BAND)
    ]
    if whole:
        table[whole] = _whole_cloud_table(cloud, matrix)
    rest = [k for k in range(len(radii)) if k not in whole]
    if rest:
        route = _engine_table if cloud.lattice is None else _stencil_table
        table[rest] = route(cloud, matrix, [radii[k] for k in rest], [powers[k] for k in rest])
    return table


def _engine_table(
    cloud: MeasuredPointCloud,
    matrix: np.ndarray,
    radii: list[float],
    powers: list[int],
) -> np.ndarray:
    """``_increment_table`` from one ball-engine pass at the largest radius.

    A ball's sums read only its members, in ascending id order, through
    ``segment_sums``.
    """
    mu = cloud.weights
    table = np.zeros((len(radii), matrix.shape[0], cloud.n))
    pos = 0
    for sub, members in cloud.nested_ball_chunks(radii):
        blk = slice(pos, pos + sub.size)
        for k, (flat, counts) in enumerate(members):
            w_flat = mu[flat]
            scale = mu[sub] / segment_sums(w_flat, counts)
            for i, row in enumerate(matrix):
                diff = np.repeat(row[sub], counts) - row[flat]
                term = w_flat * diff * diff if powers[k] == 2 else w_flat * np.abs(diff)
                table[k, i, blk] = segment_sums(term, counts) * scale
        pos += sub.size
    return table


def _stencil_table(
    cloud: MeasuredPointCloud,
    matrix: np.ndarray,
    radii: list[float],
    powers: list[int],
) -> np.ndarray:
    """``_increment_table`` on a grid cloud, offset by offset.

    Weights and fields are laid out on the padded lattice, where holes and
    padding weigh zero.  For each row offset dy, a window view gives every
    centre its row of candidate members, one offset dx per slab; each
    radius sums its slabs by a balanced tree (``_pairwise_sum``), and a
    centre's row sums are then summed the same way over dy.  Ball masses
    come from exact running sums of the weight rows (``_prefix_sums``).
    Offsets whose length lies within ``TIE_BAND`` of a radius are kept or
    dropped pair by pair by the canonical distance, so the balls are exactly
    those of the ball engine.  Centres are computed on the whole lattice,
    in blocks of rows, each worker thread in one workspace it reuses; rows
    wholly in the padding add exact zeros and are skipped.  Besides its
    output the call holds at most ``FLAT_BUDGET`` elements unless one cell
    needs more; no sum depends on the block or on the other radii.
    """
    lat = cloud.lattice
    n0, n1 = lat.shape
    m, nk = matrix.shape[0], len(radii)
    rho = np.asarray(radii) / lat.step
    reach = int(np.floor(rho.max() * (1.0 + TIE_BAND)))
    py, px = min(reach, n0 - 1), min(reach, n1 - 1)
    length = np.hypot(*np.meshgrid(np.arange(py + 1), np.arange(px + 1), indexing="ij"))
    # Per radius and row |dy|: the largest |dx| surely inside the ball (-1
    # for none) and the offsets in its tie band; the largest |dy| it reads.
    inside = [(length < r * (1.0 - TIE_BAND)).sum(axis=1) - 1 for r in rho]
    band = [(length <= r * (1.0 + TIE_BAND)).sum(axis=1) - 1 for r in rho]
    ties = [list(map(_tie_offsets, inside[k].tolist(), band[k].tolist())) for k in range(nk)]
    depth = [int(np.count_nonzero(b >= 0)) - 1 for b in band]
    # Per row |dy|, the half-width of the terms of each power (-1: none).
    half = {
        p: np.max([np.full(py + 1, -1)] + [band[k] for k in range(nk) if powers[k] == p], axis=0)
        for p in (1, 2)
    }
    widest = np.maximum(half[1], half[2])
    hmax = int(widest.max())

    pr, pc = lat.index[:, 0] + py, lat.index[:, 1] + px
    shape = (n0 + 2 * py, n1 + 2 * px)
    weights = np.zeros(shape)
    weights[pr, pc] = cloud.weights
    fields = np.zeros((m,) + shape)
    fields[:, pr, pc] = matrix
    ids = np.pad(lat.ids, ((py, py), (px, px)), constant_values=-1)
    high, low = _prefix_sums(weights)
    # Offset-major window views: [j, ..., row, s] reads column s + j, so a
    # centre in padded column c finds offset dx at [hmax + dx, ..., c - hmax].
    weight_rows = np.moveaxis(sliding_window_view(weights, 2 * hmax + 1, axis=1), -1, 0)
    field_rows = np.moveaxis(sliding_window_view(fields, 2 * hmax + 1, axis=2), -1, 0)

    table = np.zeros((nk, m, cloud.n))

    # Per cell, a workspace holds each radius's row sums and row masses, the
    # weight, difference and term slabs, and the levels of the widest tree
    # (at least one row for the tie terms); a block also copies out m results.
    width = 2 * hmax + 1
    layout = [(2 * d + 1, m) for d in depth] + [(2 * d + 1,) for d in depth]
    layout += [(width, 1), (width, m), (width, m), (max(hmax, *depth, 1) * m,)]
    per_cell = sum(int(np.prod(lead)) for lead in layout)
    # Blocks of centre rows run on a few threads (numpy releases the GIL);
    # their workspaces share what the padded arrays leave of FLAT_BUDGET.
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, workers or 1)
    free = space.FLAT_BUDGET - (m + 4) * weights.size
    cells = max(1, free // ((per_cell + m) * workers))
    bc = min(n1, cells)
    br = min(n0, max(1, cells // bc))

    def fill(buffer: np.ndarray, r0: int, r1: int, c0: int, c1: int) -> None:
        blk = (r1 - r0, c1 - c0)
        cuts = np.cumsum([int(np.prod(lead)) * blk[0] * blk[1] for lead in layout])
        views = [v.reshape(*lead, *blk) for v, lead in zip(np.split(buffer, cuts), layout)]
        sums, mass, (w, diff, term, scratch) = views[:nk], views[nk : 2 * nk], views[2 * nk :]
        scratch = scratch.reshape(-1)
        buffer[: cuts[2 * nk - 1]] = 0.0  # the row sums and masses
        centre = (slice(r0 + py, r1 + py), slice(c0 + px, c1 + px))
        here = ids[centre]
        # Member rows wholly in the padding add exact zeros: their slots stay 0.
        for dy in range(max(-py, 1 - r1), min(py, n0 - 1 - r0) + 1):
            a, hw = abs(dy), int(widest[abs(dy)])
            n_dx = 2 * hw + 1
            rows = slice(r0 + py + dy, r1 + py + dy)
            span = (slice(hmax - hw, hmax + hw + 1), rows, slice(c0 + px - hmax, c1 + px - hmax))
            np.copyto(w[:n_dx, 0], weight_rows[span])
            used = [k for k in range(nk) if depth[k] >= a]
            keep = {}
            for k in used:
                row_mass = mass[k][dy + depth[k]]
                reach_in = int(inside[k][a])
                if reach_in >= 0:
                    lo = slice(c0 + px - reach_in, c1 + px - reach_in)
                    hi = slice(c0 + px + reach_in + 1, c1 + px + reach_in + 1)
                    row_mass += (high[rows, hi] - high[rows, lo]) + (low[rows, hi] - low[rows, lo])
                for dx in ties[k][a]:
                    cols = slice(c0 + px + dx, c1 + px + dx)
                    there = ids[rows, cols]
                    ok = (here >= 0) & (there >= 0)
                    keep[k, dx] = np.zeros(blk, dtype=bool)
                    keep[k, dx][ok] = cloud.pair_distances(here[ok], there[ok]) < radii[k]
                    row_mass += weights[rows, cols] * keep[k, dx]
            span = span[:1] + (slice(None),) + span[1:]
            np.subtract(field_rows[span], fields[(slice(None),) + centre], out=diff[:n_dx])
            # Squares first: the first powers take |diff| in place.
            for p in (2, 1):
                hp = int(half[p][a])
                if hp < 0:
                    continue
                cols = slice(hw - hp, hw + hp + 1)
                t = term[: 2 * hp + 1]
                if p == 2:
                    np.multiply(w[cols], diff[cols], out=t)
                    t *= diff[cols]
                else:
                    np.abs(diff[cols], out=t)
                    t *= w[cols]
                # Each radius: a tree over the offsets surely inside, then its ties.
                for k in (k for k in used if powers[k] == p):
                    row, reach_in = sums[k][dy + depth[k]], int(inside[k][a])
                    if reach_in >= 0:
                        _pairwise_sum(t[hp - reach_in : hp + reach_in + 1], row, scratch)
                    for dx in ties[k][a]:
                        tie = scratch[: row.size].reshape(row.shape)
                        row += np.multiply(t[hp + dx], keep[k, dx], out=tie)
        at, ball_mass = here >= 0, w[0, 0]
        for k in range(nk):
            _pairwise_sum(mass[k], ball_mass, scratch)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(weights[centre], ball_mass, out=ball_mass)
            row = _pairwise_sum(sums[k], term[0], scratch)
            row *= ball_mass
            table[k][:, here[at]] = row[:, at]

    starts = [(r0, c0) for r0 in range(0, n0, br) for c0 in range(0, n1, bc)]
    blocks = [(r0, min(r0 + br, n0), c0, min(c0 + bc, n1)) for r0, c0 in starts]
    workers = min(workers, len(blocks))
    # Pages that worker threads allocate stay resident, so every workspace
    # is made here, and each worker reuses its own for all its blocks.
    buffers = [np.empty(per_cell * br * bc) for _ in range(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # Each block writes its own centres.
        mine = [blocks[i::workers] for i in range(workers)]
        list(pool.map(lambda buffer, part: [fill(buffer, *b) for b in part], buffers, mine))
    return table


def _tie_offsets(inside: int, band: int) -> list[int]:
    """Column offsets dx of a row that lie in a radius's tie band."""
    outer = range(max(inside + 1, 0), band + 1)
    return [-dx for dx in reversed(outer) if dx] + list(outer)


def _pairwise_sum(parts: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Sum over the first axis into ``out`` by a balanced tree, one level per step.

    Part i meets part i + half (an odd last part joins the last pair), so
    the rounding error grows with log2 of the count.  The levels run in
    place in the flat buffer ``scratch``, the last one in ``out``.
    """
    n = parts.shape[0]
    if n == 1:
        np.copyto(out, parts[0])
    while n > 1:
        half = n // 2
        level = out[None] if half == 1 else scratch[: half * out.size].reshape(half, *out.shape)
        np.add(parts[:half], parts[half : 2 * half], out=level)
        if n % 2:
            level[-1] += parts[-1]
        parts, n = level, half
    return out


def _whole_cloud_table(cloud: MeasuredPointCloud, matrix: np.ndarray) -> np.ndarray:
    """p = 1 rows of ``_increment_table`` when every ball is the whole cloud.

    With the field shifted by its weighted median and sorted, a centre's sum
    sum_y mu_y |g_x - g_y| is g_x (2 M - W) + (P_all - 2 P) for the mass M
    and weighted sum P of the values below g_x.  The shift keeps every part
    of that within a small multiple of the result, and the prefix sums are
    exact up to one rounding (``_prefix_sums``), so the sums stay at the
    accuracy of a per-ball reduction in O(n log n).
    """
    mu = cloud.weights
    out = np.empty(matrix.shape)
    for i, row in enumerate(matrix):
        order = np.argsort(row, kind="stable")
        w = mu[order]
        mass = np.add(*_prefix_sums(w))
        total = mass[-1]
        ranked = row[order]
        median = ranked[np.searchsorted(mass[1:], 0.5 * total)]
        moment = np.add(*_prefix_sums(w * (ranked - median)))
        below = np.searchsorted(ranked, row, side="left")
        gx = row - median
        sums = gx * (2.0 * mass[below] - total) + (moment[-1] - 2.0 * moment[below])
        out[i] = sums * (mu / total)
    return out


def _prefix_sums(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exclusive running sums along the last axis, as a high and a low part.

    Every value splits into a high part on the grid of 2**-52 times the
    total magnitude, whose running sums (and their differences) are exact,
    and a remainder below that grid, whose running sums carry negligible
    error; ``high + low`` is within about one rounding of the exact sum.
    """
    shape = values.shape[:-1] + (values.shape[-1] + 1,)
    high, low = np.zeros(shape), np.zeros(shape)
    top = float(np.abs(values).sum())
    if top > 0.0:
        quantum = 2.0 ** (np.ceil(np.log2(top)) - 52)
        rounded = np.round(values / quantum) * quantum
        np.cumsum(rounded, axis=-1, out=high[..., 1:])
        np.cumsum(values - rounded, axis=-1, out=low[..., 1:])
    return high, low


def _raw_sums(
    fields: Sequence[ScalarField],
    radii: Sequence[float],
    d_w: float | None = None,
) -> np.ndarray:
    """Validated raw increment sums, shape (len(radii), len(fields))."""
    cloud, mat = _validated(fields, radii, d_w)
    return _increment_table(cloud, mat, radii).sum(axis=-1)


def ks_energies(
    fields: Sequence[ScalarField],
    radii: Sequence[float],
    d_w: float = 2.0,
) -> np.ndarray:
    """Energies of several fields on one cloud at several scales, sharing one ball pass.

    Returns shape (len(radii), len(fields)); each entry equals the
    corresponding ``ks_energy`` bit for bit.
    """
    raw = _raw_sums(fields, radii, d_w)
    return np.stack([raw[k] / float(r) ** d_w for k, r in enumerate(radii)])


def ks_energy(
    f: ScalarField,
    r: float,
    d_w: float = 2.0,
) -> float:
    """Ball-increment energy of one field at one scale.

    The radius must clear the admissibility floor ``kappa * h``.
    """
    return float(ks_energies([f], [r], d_w)[0, 0])


def ks_energy_density(
    f: ScalarField,
    radii: Sequence[float],
    d_w: float = 2.0,
) -> np.ndarray:
    """Per-centre contributions to the energy at several scales, one pass.

    Returns shape (len(radii), n), one entry per centre in id order.  The
    sum of row k's entries at a centre set U is the energy at ``radii[k]``
    restricted to the region U: the outer sum runs over U, the inner balls
    over the whole cloud.  Localized functionals (maximal fields, Poincaré
    right-hand sides) build on these rows.
    """
    cloud, mat = _validated([f], radii, d_w)
    table = _increment_table(cloud, mat, radii)[:, 0]
    return np.stack([table[k] / float(r) ** d_w for k, r in enumerate(radii)])


@dataclass(frozen=True)
class ScaleGrid:
    """The fixed near-geometric scale grid, mid-mesh snapped and filtered.

    The scales are r_max * 2^{-k/2}, k = 0..11 (``DEFAULT_RATIO``,
    ``DEFAULT_COUNT``), with r_max = diam/4 unless the caller widens it;
    those under the admissibility floor kappa h (``cloud.floor``) are
    dropped.  Each scale is moved to the nearest (j + 1/2) * h before use.
    On near-regular clouds, ball membership jumps wherever a radius crosses
    a lattice distance, and radii that sit close to such a crossing carry an
    O(h/r) bias in the increment sums.  Mid-mesh radii reduce that to
    O((h/r)^2), which is what keeps the small-scale window usable for limit
    fits.  ``cloud`` is the cloud the grid was built for; consumers refuse
    fields on any other.
    """

    cloud: MeasuredPointCloud = field(repr=False, compare=False)
    r_max: float
    scales: np.ndarray  # descending, admissible only

    @property
    def r_min(self) -> float:
        return float(self.scales[-1])

    def window(self) -> np.ndarray:
        """The ``DEFAULT_WINDOW`` smallest admissible scales, ascending."""
        return self.scales[::-1][:DEFAULT_WINDOW]


def snap_mid_mesh(raw: np.ndarray, h: float) -> np.ndarray:
    """Move each radius to the nearest (j + 1/2) * h (see ``ScaleGrid``)."""
    return (np.round(raw / h - 0.5) + 0.5) * h


def _admissible_scales(cloud: MeasuredPointCloud, raw: np.ndarray) -> np.ndarray:
    """A ladder of radii snapped to mid-mesh, those under the floor kappa h
    dropped: the distinct radii, descending."""
    snapped = snap_mid_mesh(raw, cloud.mesh)
    return np.unique(snapped[snapped >= cloud.floor])[::-1]


def make_scale_grid(cloud: MeasuredPointCloud, r_max: float | None = None) -> ScaleGrid:
    """Build the sweep grid for a cloud, from r_max (default diam/4) down.

    Scales below ``kappa * h`` are dropped; an entirely inadmissible grid
    raises ``Inapplicable``.
    """
    if r_max is None:
        r_max = cloud.diameter / 4.0
    if r_max <= 0.0:
        raise ValueError("r_max must be positive")
    scales = _admissible_scales(cloud, r_max * DEFAULT_RATIO ** np.arange(DEFAULT_COUNT))
    if scales.size == 0:
        raise Inapplicable(f"empty admissible grid: r_max={r_max:g}, floor={cloud.floor:g}")
    return ScaleGrid(cloud=cloud, r_max=float(r_max), scales=scales)


@dataclass(frozen=True)
class EnergySweep:
    """Energies of one field across the fixed scale grid.

    ``liminf_proxy`` / ``limsup_proxy`` are the min / max over the window
    (the ``DEFAULT_WINDOW`` smallest resolved scales); ``sup_all`` is the
    max over the whole grid; ``fitted_limit`` evaluates a log-log affine fit
    over the window at the smallest admissible scale, the declared stand-in
    for the r -> 0 endpoint on a finite cloud.
    """

    d_w: float
    scales: np.ndarray
    values: np.ndarray
    window_scales: np.ndarray
    liminf_proxy: float
    limsup_proxy: float
    sup_all: float
    fitted_limit: float
    field_l2sq: float
    grid: ScaleGrid
    label: str = ""

    def table(self) -> Table:
        return ("r", "energy"), tuple(zip(self.scales.tolist(), self.values.tolist()))

    def summary(self) -> dict:
        return {
            "label": self.label,
            "d_w": self.d_w,
            "kappa": DEFAULT_KAPPA,
            "ratio": DEFAULT_RATIO,
            "window": int(self.window_scales.size),
            "r_max": self.grid.r_max,
            "r_min": self.grid.r_min,
            "n_scales": int(self.scales.size),
            "liminf_proxy": self.liminf_proxy,
            "limsup_proxy": self.limsup_proxy,
            "sup_all": self.sup_all,
            "fitted_limit": self.fitted_limit,
            "field_l2sq": self.field_l2sq,
        }


def _fit_window_endpoint(window_scales: np.ndarray, window_values: np.ndarray) -> float:
    """Log-log affine fit over the window, evaluated at its smallest scale."""
    if np.any(window_values <= 0.0):
        return 0.0
    if window_scales.size == 1:
        return float(window_values[0])
    lx = np.log(window_scales)
    ly = np.log(window_values)
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(np.exp(intercept + slope * np.log(window_scales[0])))


def energy_sweep(
    f: ScalarField | Sequence[ScalarField],
    d_w: float = 2.0,
    label: str | Sequence[str] = "",
) -> EnergySweep | list[EnergySweep]:
    """Evaluate the energy of ``f`` across the fixed scale grid.

    ``f`` is one field with one ``label``, or a sequence of fields on one
    cloud with a sequence of labels; their sweeps then come back as a list
    from one shared pass over the grid, each entry equal to the
    single-field call bit for bit.
    """
    single = isinstance(f, ScalarField)
    fields = [f] if single else list(f)
    labels = [label] if single else list(label)
    if isinstance(label, str) != single or len(labels) != len(fields):
        raise ValueError("energy_sweep needs one label per field")
    grid = make_scale_grid(_common_cloud(fields))
    table = ks_energies(fields, grid.scales, d_w=d_w)
    w_scales = grid.window()
    sweeps = []
    for values, g, name in zip(table.T, fields, labels):
        w_values = values[::-1][: w_scales.size]
        sweeps.append(
            EnergySweep(
                d_w=float(d_w),
                scales=grid.scales,
                values=values,
                window_scales=w_scales,
                liminf_proxy=float(w_values.min()),
                limsup_proxy=float(w_values.max()),
                sup_all=float(values.max()),
                fitted_limit=_fit_window_endpoint(w_scales, w_values),
                field_l2sq=g.l2sq(),
                grid=grid,
                label=name,
            )
        )
    return sweeps[0] if single else sweeps


def comparability_ratio(sweep: EnergySweep) -> float:
    """Quotient sup-over-all-scales / liminf-window-proxy.

    Bounded ratios across a family certify that the whole sweep is controlled
    by its small-scale window.  Constant fields (zero energy throughout)
    return 1 by convention; the denominator is floored at
    ``1e-14 * ||f||_L2^2 / r_min**d_w`` so roundoff cannot manufacture blowup.
    """
    if sweep.sup_all == 0.0:
        return 1.0
    floor = COMPARABILITY_FLOOR * sweep.field_l2sq / sweep.grid.r_min**sweep.d_w
    return float(sweep.sup_all / max(sweep.liminf_proxy, floor))


@dataclass(frozen=True)
class WalkDimFit:
    """Walk-dimension estimate with its provenance.

    ``method`` is ``"ks_scaling"`` (slope of raw increment sums against
    scale) or ``"eigen_ratio"`` (spectral rescaling across a mesh-halving
    hierarchy).  ``residual`` is the largest deviation of the individual
    estimates from the reported value.
    """

    d_w_hat: float
    method: str
    residual: float
    scales: np.ndarray
    details: dict = field(default_factory=dict)


def fit_walk_dimension(
    fields: Sequence[ScalarField],
    grid: ScaleGrid | None = None,
) -> WalkDimFit:
    """Estimate d_w from the scaling of raw increment sums.

    Per field, regress log S(f, r) on log r over the admissible grid; report
    the median slope.  Constant fields carry no signal and are skipped; all
    fields constant is an error, and a grid with fewer than three scales
    raises ``Inapplicable``.
    All fields and scales share one ball pass.
    """
    cloud = _common_cloud(fields)
    if grid is None:
        grid = make_scale_grid(cloud)
    elif grid.cloud is not cloud:
        raise ValueError("scale grid was built for another cloud")
    if grid.scales.size < 3:
        raise Inapplicable("walk-dimension fit needs at least three scales")
    varying = [f for f in fields if not f.is_constant()]
    slopes = []
    if varying:
        for s_vals in _raw_sums(varying, grid.scales).T:
            if np.any(s_vals <= 0.0):
                continue
            slope, _ = np.polyfit(np.log(grid.scales), np.log(s_vals), 1)
            slopes.append(float(slope))
    if not slopes:
        raise ValueError("all fields are constant (or energy-free): no scaling signal")
    arr = np.array(slopes)
    med = float(np.median(arr))
    return WalkDimFit(
        d_w_hat=med,
        method="ks_scaling",
        residual=float(np.abs(arr - med).max()),
        scales=grid.scales,
        details={"n_fields": len(slopes)},
    )


def liminf_window_scales(cloud: MeasuredPointCloud) -> np.ndarray:
    """The small-scale window used by liminf proxies, ascending."""
    return make_scale_grid(cloud).window()
