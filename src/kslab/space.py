"""Weighted point clouds standing in for compact metric measure spaces.

A cloud is a finite set of points with strictly positive weights, a metric
(either Euclidean coordinates or an explicit distance matrix), and a recorded
mesh scale ``h`` (the largest nearest-neighbour distance).  Every integral
over the underlying space is discretized as a weighted sum, and every ball is
an open ball ``{y : d(x, y) < r}`` resolved by exact comparison, so results
do not depend on the index used to accelerate the query.

Ball engine.  ``MeasuredPointCloud.ball_chunks`` is the one engine every
multi-centre consumer reads.  It streams the balls of many centres in blocks
sized from per-centre candidate counts, so no block holds more than
``FLAT_BUDGET`` candidate members unless one ball alone does, and it yields
each member's canonical distance to its centre next to its id.  Grid clouds
take their candidates from lattice offsets, other coordinate clouds from the
tree (``sparse_distance_matrix`` slightly beyond r); the canonical filter
then recomputes every candidate's distance with the one formula of
``_point_distances`` and keeps ``d < r``.  Distance-matrix clouds read
matrix rows instead and give the same interface.  Members come in ascending
id order per centre.  A single ball off the lattice (``ball_ids``) masks its
centre's canonical row (``distances_from``) and needs no tree.
``nested_ball_chunks`` serves several radii from one ``ball_chunks`` pass at
the largest by masking the distances, and ``segment_sums`` reduces each ball
on its own members, so no result depends on the block layout or on which
radii share a pass.

Lattices.  ``interval_grid``, ``square_grid`` and ``carpet`` also give the
constructor where each point sits on an integer lattice
(``MeasuredPointCloud.lattice``: the lattice step, each point's (row,
column) index and the grid of ids per cell, ids in row-major order).  So
offsets taken in row-major order give a ball's members in ascending id
order.  A lattice cloud builds no KD-tree and imports no scipy: its cells
refuse duplicates, its builder gives the mesh, and its diameter is read
off the cells that end their row and their column.  The increment sums of
``kslab.energy`` read that layout too, with their own stencil: a ball is a
fixed set of offsets, summed over shifted arrays, with carpet holes as zero
weights, so those sums do not visit members in id order.  Offsets at a
radius's own length are still kept or dropped by the canonical distance.
Gasket, file and distance-matrix clouds have no lattice.

The module also carries the volume-doubling diagnostics: sampled ratios
``mu(B(x, 2r)) / mu(B(x, r))``, a fitted mass-growth exponent ``q_fit``, and
the lower mass bound ``mu(B(x, r)) >= c_low r^q_fit`` on the same samples
(``DoublingProfile.c_low``).

Built-in model spaces:

* ``interval_grid(n)``  - n equispaced points on [0, 1], uniform weights;
* ``square_grid(n)``    - n x n grid on [0, 1]^2, uniform weights;
* ``gasket(level)``     - vertices of the level-m Sierpinski gasket graph;
* ``carpet(level)``     - cell centres of the level-m Sierpinski carpet;
* ``file(path)``        - plain-text import, coordinates or distance matrix.

Scales below the floor ``kappa * h`` (``MeasuredPointCloud.floor``, with the
fixed admissibility factor ``kappa = DEFAULT_KAPPA = 3``) are considered
unresolved: operations that take a radius refuse them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .export import Table

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

__all__ = [
    "DEFAULT_KAPPA",
    "Inapplicable",
    "segment_sums",
    "segment_max",
    "Lattice",
    "MeasuredPointCloud",
    "interval_grid",
    "square_grid",
    "gasket_graph",
    "gasket",
    "carpet",
    "read_cloud_file",
    "build_cloud",
    "DoublingProfile",
    "estimate_doubling",
]

# The one admissibility factor: radii below DEFAULT_KAPPA * mesh are refused.
DEFAULT_KAPPA = 3.0

# Spot-check budget for the triangle inequality on imported distance matrices.
TRIANGLE_BUDGET = 10_000

# Default ball-engine block budget, in candidate members.
FLAT_BUDGET = 4_000_000

# Lattice offsets this close (relative) to a radius are decided pair by pair
# by the canonical distance; a radius above the diameter must clear it too.
TIE_BAND = 1e-9


class Inapplicable(ValueError):
    """The cloud is too coarse for the computation (not a bad argument).

    Raised where the precondition is computed, with the reason as message;
    the suites turn it into a skipped row instead of an error.
    """


def _point_distances(coords: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Canonical Euclidean distance from one point ``x`` to many, or row by row.

    Every ball query funnels through this single formula so that brute-force
    scans and tree-accelerated scans agree bit for bit.
    """
    diff = coords - x
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _segment_reduce(op: np.ufunc, values: np.ndarray, counts: np.ndarray, empty: float) -> np.ndarray:
    """``op.reduceat`` over the non-empty consecutive segments of ``values``.

    Each segment is reduced on its own values only, so a result does not
    depend on what else shares the array (how centres are split into
    blocks); empty segments, which a bare ``reduceat`` mishandles, get
    ``empty``.
    """
    out = np.full(counts.size, empty)
    nonempty = counts > 0
    if values.size and np.any(nonempty):
        starts = np.cumsum(counts) - counts
        out[nonempty] = op.reduceat(values, starts[nonempty])
    return out


def segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum consecutive segments of ``values`` with the given lengths (empty: 0)."""
    return _segment_reduce(np.add, values, counts, 0.0)


def segment_max(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Max over consecutive segments; empty segments give -inf."""
    return _segment_reduce(np.maximum, values, counts, -np.inf)


def _keep_below(
    r: float, flat: np.ndarray, counts: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop the members at distance ``d >= r`` and recount each segment."""
    keep = d < r
    if np.all(keep):
        return flat, counts, d
    run = np.concatenate([[0], np.cumsum(keep, dtype=np.intp)])
    ends = np.cumsum(counts)
    return flat[keep], run[ends] - run[ends - counts], d[keep]


def _budget_blocks(sizes: np.ndarray, budget: int) -> Iterator[slice]:
    """Consecutive slices whose ``sizes`` sum to at most ``budget``.

    A single entry larger than the budget gets a slice of its own.
    """
    ends = np.cumsum(sizes)
    lo = 0
    while lo < sizes.size:
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + budget, side="right")))
        yield slice(lo, hi)
        lo = hi


@dataclass(frozen=True)
class Lattice:
    """Where the points of a grid cloud sit on an integer lattice.

    Point ``i`` is the lattice cell ``index[i]`` = (row, column) of a
    ``shape`` array, at about ``step`` times that index from the first cell;
    one-dimensional grids use a single row.  Ids run in row-major cell
    order, and ``ids`` maps each cell back to its point, with -1 for cells
    that hold none (carpet holes, which weigh zero).
    """

    step: float
    shape: tuple[int, int]
    index: np.ndarray  # (n, 2) int
    ids: np.ndarray  # ``shape`` int

    def disk(self, r: float) -> np.ndarray:
        """The offsets of length at most ``r / step`` (up to ``TIE_BAND``)
        that fit in the lattice, as a mask centred on offset (0, 0)."""
        rho = r / self.step * (1.0 + TIE_BAND)
        return _disk(rho, *(min(int(rho), s - 1) for s in self.shape))

    def window(self, x: int, disk: np.ndarray) -> np.ndarray:
        """The ids at the offsets of ``disk`` from point x, in ascending order."""
        ry, rx = disk.shape[0] // 2, disk.shape[1] // 2
        i, j = self.index[x].tolist()
        y0, x0 = max(i - ry, 0), max(j - rx, 0)
        ids = self.ids[y0 : i + ry + 1, x0 : j + rx + 1]
        near = disk[y0 - i + ry :, x0 - j + rx :][: ids.shape[0], : ids.shape[1]]
        return ids[near & (ids >= 0)]

    def candidates(self, points: np.ndarray, disk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``window`` of each of ``points``, concatenated, and their sizes."""
        ids = np.pad(self.ids, [(s // 2, s // 2) for s in disk.shape], constant_values=-1)
        # Mask entry (dy, dx) of a centre at (row, column) is padded cell (row + dy, column + dx).
        dy, dx = np.nonzero(disk)
        corner = self.index[points, 0] * ids.shape[1] + self.index[points, 1]
        cand = ids.ravel()[corner[:, None] + (dy * ids.shape[1] + dx)]
        hit = cand >= 0
        return cand[hit], hit.sum(axis=1)

    def ends(self) -> np.ndarray:
        """The ids of the cells that are first or last in both their row and their column."""
        taken = self.ids >= 0
        keep = taken
        for axis in (0, 1):
            count = np.cumsum(taken, axis=axis)
            keep = keep & ((count == 1) | (count == count.max(axis=axis, keepdims=True)))
        return self.ids[keep]


@lru_cache(maxsize=64)
def _disk(rho: float, ry: int, rx: int) -> np.ndarray:
    """Offsets (dy, dx) with |dy| <= ry, |dx| <= rx and length at most rho."""
    dy, dx = np.meshgrid(np.arange(-ry, ry + 1), np.arange(-rx, rx + 1), indexing="ij")
    disk = np.hypot(dy, dx) <= rho
    disk.setflags(write=False)
    return disk


class MeasuredPointCloud:
    """Finite weighted metric space.

    Exactly one of ``coords`` / ``dist_matrix`` must be given.  Instances are
    immutable after construction; all queries are read-only and safe to issue
    concurrently.

    Parameters
    ----------
    weights : array_like
        Strictly positive point weights (the measure).
    coords : array_like, optional
        (n, d) coordinates; the metric is Euclidean, and the bounding-box
        diagonal must be finite (no distance overflows).
    dist_matrix : array_like, optional
        (n, n) symmetric distance matrix with zero diagonal.
    mesh : float, optional
        Mesh scale h.  Computed (max nearest-neighbour distance) if omitted,
        on a KD-tree that ``ball_chunks`` then reuses.  Constructors for
        exact model spaces pass the closed-form value.  Every coordinate
        cloud without a lattice refuses duplicate points by sorting its rows.
    meta : dict, optional
        Provenance tags, e.g. ``{"kind": "gasket", "level": 5}``.
    lattice : (index, step), optional
        Coordinate clouds only: the (row, column) cell of each point on an
        integer lattice of the given step, ids in row-major cell order (see
        ``Lattice``).  The grid builders pass it.  Balls then come from
        lattice offsets, two points in one cell are refused as duplicates,
        and no KD-tree is built, so ``mesh`` must be given when n > 1.
    """

    def __init__(
        self,
        weights: Sequence[float] | np.ndarray,
        coords: np.ndarray | None = None,
        dist_matrix: np.ndarray | None = None,
        mesh: float | None = None,
        meta: dict | None = None,
        lattice: tuple[np.ndarray, float] | None = None,
    ):
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.size == 0:
            raise ValueError("cloud must contain at least one point")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        self._weights = w
        self._weights.setflags(write=False)

        if (coords is None) == (dist_matrix is None):
            raise ValueError("give exactly one of coords or dist_matrix")

        self.meta = dict(meta or {})
        self._lattice: Lattice | None = None
        self._tree: cKDTree | None = None
        self._diameter: float | None = None
        # Nearest-neighbour distances, where the mesh is measured (n > 1).
        nn = None
        if coords is not None:
            c = np.asarray(coords, dtype=float)
            if c.ndim == 1:
                c = c.reshape(-1, 1)
            if c.shape[0] != w.size:
                raise ValueError("coords and weights disagree on point count")
            if not np.all(np.isfinite(c)):
                raise ValueError("coordinates must be finite")
            with np.errstate(over="ignore"):
                if not np.isfinite(np.sum(np.ptp(c, axis=0) ** 2)):
                    raise ValueError("coordinates too far apart: their distances overflow")
            self._coords: np.ndarray | None = c
            self._coords.setflags(write=False)
            self._dist: np.ndarray | None = None
            if lattice is not None:
                index = np.asarray(lattice[0], dtype=np.intp).reshape(w.size, 2)
                ids = np.full(tuple(index.max(axis=0) + 1), -1, dtype=np.intp)
                ids[index[:, 0], index[:, 1]] = np.arange(w.size)
                if np.count_nonzero(ids >= 0) < w.size:
                    raise ValueError("duplicate points: two share a lattice cell")
                for a in (index, ids):
                    a.setflags(write=False)
                self._lattice = Lattice(float(lattice[1]), ids.shape, index, ids)
            elif np.unique(c, axis=0).shape[0] < w.size:
                raise ValueError("duplicate points: two share their coordinates")
            elif w.size > 1 and mesh is None:
                nn = self._kdtree().query(c, k=2)[0][:, 1]
                if np.any(nn == 0.0):
                    # Distinct rows whose squared difference underflows.
                    raise ValueError("duplicate points: two lie at distance zero")
        else:
            if lattice is not None:
                raise ValueError("a lattice needs coordinates")
            d = np.asarray(dist_matrix, dtype=float)
            if d.shape != (w.size, w.size):
                raise ValueError("distance matrix must be square, one row per point")
            if not np.all(np.isfinite(d)):
                raise ValueError("distances must be finite")
            if np.any(np.abs(np.diag(d)) > 0.0):
                raise ValueError("distance matrix must have a zero diagonal")
            if not np.array_equal(d, d.T):
                raise ValueError("distance matrix must be symmetric")
            if w.size > 1:
                off = d.copy()
                np.fill_diagonal(off, np.inf)
                if np.any(off <= 0.0):
                    raise ValueError("off-diagonal distances must be positive")
                nn = off.min(axis=1)
                del off
            self._coords = None
            self._dist = d
            self._dist.setflags(write=False)
            self._spot_check_triangles()

        computed_h = 0.0 if nn is None else float(nn.max())
        self._mesh = computed_h if mesh is None else float(mesh)
        if self.n > 1 and self._mesh <= 0.0:
            raise ValueError("mesh must be positive")

    # ------------------------------------------------------------------
    # basic geometry
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._weights.size

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def coords(self) -> np.ndarray | None:
        return self._coords

    @property
    def is_abstract(self) -> bool:
        return self._coords is None

    @property
    def dim(self) -> int | None:
        return None if self._coords is None else self._coords.shape[1]

    @property
    def mesh(self) -> float:
        """Mesh scale h: the largest nearest-neighbour distance."""
        return self._mesh

    @property
    def floor(self) -> float:
        """Admissibility floor kappa * h: the smallest resolved radius."""
        return DEFAULT_KAPPA * self._mesh

    @property
    def kind(self) -> str | None:
        """The ``CLOUD_KINDS`` entry the cloud was built as, else ``None``."""
        return self.meta.get("kind")

    @property
    def lattice(self) -> Lattice | None:
        """Integer lattice layout of a built-in grid cloud, else ``None``."""
        return self._lattice

    @property
    def total_mass(self) -> float:
        return float(self._weights.sum())

    @property
    def diameter(self) -> float:
        if self._diameter is None:
            self._diameter = self._compute_diameter()
        return self._diameter

    def _compute_diameter(self) -> float:
        if self._dist is not None:
            return float(self._dist.max())
        c = self._coords
        assert c is not None
        if c.shape[1] == 1:
            return float(c.max() - c.min())
        if self._lattice is not None:
            # Every hull vertex ends its row and its column of the lattice;
            # each pair's distance is summed as pdist sums it.
            ends = c[self._lattice.ends()]
            diff = ends[:, None] - ends
            return float(np.sqrt((diff * diff).sum(axis=-1)).max())
        from scipy.spatial.distance import pdist

        if c.shape[0] > 2048:
            from scipy.spatial import ConvexHull, QhullError

            # Large Euclidean clouds: the diameter is attained on the hull.
            # Points in a lower-dimensional affine subspace have no full
            # hull; joggled input gives one whose vertices index the points.
            try:
                c = c[ConvexHull(c).vertices]
            except QhullError:
                c = c[ConvexHull(c, qhull_options="QJ").vertices]
        return float(pdist(c).max()) if c.shape[0] > 1 else 0.0

    def _spot_check_triangles(self) -> None:
        """Test the triangle inequality on ``TRIANGLE_BUDGET`` seeded triples."""
        d = self._dist
        assert d is not None
        if self.n < 3:
            return
        rng = np.random.default_rng(0)
        idx = rng.integers(0, self.n, size=(TRIANGLE_BUDGET, 3))
        i, j, k = idx[:, 0], idx[:, 1], idx[:, 2]
        slack = 1e-12 * max(1.0, float(d.max()))
        if np.any(d[i, k] > d[i, j] + d[j, k] + slack):
            raise ValueError("triangle inequality fails on a sampled triple")

    def _kdtree(self) -> cKDTree:
        if self._tree is None:
            from scipy.spatial import cKDTree

            self._tree = cKDTree(self._coords)
        return self._tree

    # ------------------------------------------------------------------
    # distances and balls
    # ------------------------------------------------------------------

    def _checked_ids(self, ids):
        """``ids`` (one id or an array of them), refusing any outside [0, n)."""
        bad = (ids < 0) | (ids >= self.n)
        if bad.any() if isinstance(bad, np.ndarray) else bad:
            raise ValueError(f"id {np.extract(bad, ids)[0]} out of range")
        return ids

    @staticmethod
    def _checked_radius(r: float) -> float:
        """``r``, refusing a radius that is not finite and positive."""
        if not 0.0 < r < np.inf:
            raise ValueError(f"radius must be positive and finite, got {r!r}")
        return r

    def distances_from(self, x: int) -> np.ndarray:
        """Distances from point ``x`` to every point, in id order."""
        x = self._checked_ids(x)
        if self._dist is not None:
            return self._dist[x]
        return _point_distances(self._coords, self._coords[x])

    def pair_distances(self, ids_a: np.ndarray, ids_b: np.ndarray) -> np.ndarray:
        """Elementwise distances d(a_k, b_k) for two equal-length id arrays."""
        ids_a = self._checked_ids(np.asarray(ids_a, dtype=np.intp))
        ids_b = self._checked_ids(np.asarray(ids_b, dtype=np.intp))
        if ids_a.shape != ids_b.shape:
            raise ValueError(f"id arrays of unequal shapes {ids_a.shape} and {ids_b.shape}")
        if self._dist is not None:
            return self._dist[ids_a, ids_b]
        return _point_distances(self._coords[ids_a], self._coords[ids_b])

    def require_admissible(self, r: float) -> None:
        """Refuse radii the mesh cannot resolve (r < kappa * h)."""
        if self._checked_radius(r) < self.floor:
            raise ValueError(
                f"radius {r:g} below admissibility floor {DEFAULT_KAPPA:g} * h = "
                f"{self.floor:g}"
            )

    def ball_ids(self, x: int, r: float) -> np.ndarray:
        """Sorted member ids of the open ball B(x, r).

        Off the lattice, the mask ``d < r`` of x's canonical distance row
        (``distances_from``).  A lattice cloud keeps the points of its window
        around x at canonical distance below r: the same set.
        """
        x = self._checked_ids(x)
        r = self._checked_radius(r)
        if self._lattice is None:
            return np.flatnonzero(self.distances_from(x) < r)
        cand = self._lattice.window(x, self._lattice.disk(r))
        d = _point_distances(self._coords[cand], self._coords[x])
        return cand[d < r]

    def ball_chunks(
        self, r: float, centers: np.ndarray | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """The ball engine: stream the balls of many centres, with distances.

        Yields ``(center_ids, flat_member_ids, counts, distances)`` where the
        members of ``center_ids[i]`` occupy the i-th slice of
        ``flat_member_ids``, in ascending id order, and ``distances`` holds
        each member's canonical distance to its centre.  Centres are
        processed in the given order, in blocks of at most ``FLAT_BUDGET``
        candidate members (a single larger ball gets a block of its own).

        Grid clouds take the points at lattice offsets within ``r`` as
        candidates, other coordinate clouds the tree's pairs within
        ``r * (1 + 1e-12)``; the members are the candidates whose canonical
        distance is below ``r``.  Distance-matrix clouds read matrix rows.
        """
        r = self._checked_radius(r)
        if centers is None:
            centers = np.arange(self.n, dtype=np.intp)
        else:
            centers = self._checked_ids(np.asarray(centers, dtype=np.intp))
        if centers.size == 0:
            return
        if self._dist is not None:
            block = max(1, int(FLAT_BUDGET // self.n))
            for lo in range(0, centers.size, block):
                sub = centers[lo : lo + block]
                rows = self._dist[sub]
                hits = rows < r
                yield sub, np.flatnonzero(hits.ravel()) % self.n, hits.sum(axis=1), rows[hits]
            return

        lat = self._lattice
        if lat is not None:
            disk = lat.disk(r)
            sizes = np.full(centers.size, np.count_nonzero(disk))
        else:
            from scipy.spatial import cKDTree

            tree = self._kdtree()
            r_query = r * (1.0 + 1e-12)
            sizes = tree.query_ball_point(
                self._coords[centers], r_query, return_length=True, workers=-1
            )
        for part in _budget_blocks(sizes, FLAT_BUDGET):
            sub = centers[part]
            if lat is not None:
                flat, counts = lat.candidates(sub, disk)
            else:
                pairs = cKDTree(self._coords[sub]).sparse_distance_matrix(
                    tree, r_query, output_type="ndarray"
                )
                # Sorting (local centre, member) keys puts every centre's
                # members in ascending id order, centre by centre.
                keys = pairs["i"].astype(np.int64) * self.n + pairs["j"]
                del pairs
                keys.sort()
                local, flat = np.divmod(keys, self.n)
                del keys
                counts = np.bincount(local, minlength=sub.size)
                del local
            # Exact filter: candidates may lie at d >= r.
            diff = self._coords.take(flat, axis=0)
            diff -= np.repeat(self._coords[sub], counts, axis=0)
            d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            del diff
            yield sub, *_keep_below(r, flat.astype(np.intp, copy=False), counts, d)

    def nested_ball_chunks(
        self, radii: Sequence[float]
    ) -> Iterator[tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]]:
        """Ball memberships at several radii from one pass at the largest.

        Yields ``(center_ids, members)`` over every centre in id order, with
        ``members[k] = (flat, counts)`` laid out as in ``ball_chunks`` for
        ``radii[k]``.  Each radius keeps
        the members of the pass whose canonical distance is below it, in the
        same order, so every radius sees exactly what a pass of its own
        would yield.  Radii are peeled off largest first, each from the
        previous (smaller) selection.
        """
        radii = [self._checked_radius(float(r)) for r in radii]
        if not radii:
            return
        order = sorted(range(len(radii)), key=lambda k: -radii[k])
        for sub, flat, counts, d in self.ball_chunks(radii[order[0]]):
            members: list = [None] * len(radii)
            for k in order:
                flat, counts, d = _keep_below(radii[k], flat, counts, d)
                members[k] = (flat, counts)
            yield sub, members

    def boundary_margin(self) -> np.ndarray:
        """Per-point distance to the coordinate bounding box (coords mode).

        Used to restrict doubling samples to interior centres; meaningless
        for abstract clouds, which raise.
        """
        if self._coords is None:
            raise ValueError("boundary margin needs coordinates")
        lo = self._coords.min(axis=0)
        hi = self._coords.max(axis=0)
        return np.minimum(self._coords - lo, hi - self._coords).min(axis=1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MeasuredPointCloud(n={self.n}, kind={self.kind!r}, h={self._mesh:.3g}, "
            f"abstract={self.is_abstract})"
        )


# ----------------------------------------------------------------------
# model spaces
# ----------------------------------------------------------------------


def interval_grid(n: int) -> MeasuredPointCloud:
    """n equispaced points on [0, 1] with uniform weights summing to one."""
    if n < 2:
        raise ValueError("interval grid needs at least two points")
    return MeasuredPointCloud(
        np.full(n, 1.0 / n),
        coords=np.linspace(0.0, 1.0, n).reshape(-1, 1),
        mesh=1.0 / (n - 1),
        meta={"kind": "interval_grid", "n": n},
        lattice=(np.column_stack([np.zeros(n, dtype=np.intp), np.arange(n)]), 1.0 / (n - 1)),
    )


def square_grid(n: int) -> MeasuredPointCloud:
    """n x n grid on the unit square with uniform weights summing to one."""
    if n < 2:
        raise ValueError("square grid needs at least two points per side")
    axis = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    coords = np.column_stack([xx.ravel(), yy.ravel()])
    return MeasuredPointCloud(
        np.full(n * n, 1.0 / (n * n)),
        coords=coords,
        mesh=1.0 / (n - 1),
        meta={"kind": "square_grid", "n": n},
        lattice=(np.column_stack(np.divmod(np.arange(n * n), n)), 1.0 / (n - 1)),
    )


def _gasket_subdivision(
    level: int, corner_values: Sequence[float] | None = None
) -> tuple[list, list, dict | None]:
    """Cells and sorted vertices of the level-m gasket, by repeated splitting.

    Vertices are integer lattice pairs (a, b), sorted by (b, a); cells are
    the upward triangles as vertex triples.  With ``corner_values``, each
    split also assigns a side midpoint 2/5 of either endpoint value plus 1/5
    of the opposite corner, and the third result maps every vertex to its
    value (the harmonic extension); otherwise it is ``None``.
    """
    if level < 0:
        raise ValueError("gasket level must be nonnegative")
    side = 2**level
    corners = ((0, 0), (side, 0), (0, side))
    values = None if corner_values is None else dict(zip(corners, map(float, corner_values)))
    cells = [corners]
    for _ in range(level):
        nxt = []
        for a, b, c in cells:
            ab = ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
            ac = ((a[0] + c[0]) // 2, (a[1] + c[1]) // 2)
            bc = ((b[0] + c[0]) // 2, (b[1] + c[1]) // 2)
            if values is not None:
                va, vb, vc = values[a], values[b], values[c]
                values[ab] = (2.0 * va + 2.0 * vb + vc) / 5.0
                values[ac] = (2.0 * va + 2.0 * vc + vb) / 5.0
                values[bc] = (2.0 * vb + 2.0 * vc + va) / 5.0
            nxt.extend([(a, ab, ac), (ab, b, bc), (ac, bc, c)])
        cells = nxt
    verts = sorted({v for cell in cells for v in cell}, key=lambda p: (p[1], p[0]))
    return cells, verts, values


@lru_cache(maxsize=8)
def gasket_graph(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertices, cells, and edges of the level-m Sierpinski gasket graph.

    Vertices are returned as integer lattice pairs (a, b): the embedded point
    is ``(a + b/2, b*sqrt(3)/2) / 2**level``.  Cells are the 3**level upward
    triangles as vertex-id triples, edges the distinct cell sides.  Vertex
    ids follow the lexicographic order of (b, a), which fixes every
    downstream labelling.  Each level is built once; the arrays are shared
    and read-only.
    """
    cells, verts, _ = _gasket_subdivision(level)
    index = {v: i for i, v in enumerate(verts)}
    tri = np.array([[index[a], index[b], index[c]] for a, b, c in cells], dtype=np.intp)
    edge_set = set()
    for a, b, c in tri:
        for u, v in ((a, b), (a, c), (b, c)):
            edge_set.add((min(u, v), max(u, v)))
    edges = np.array(sorted(edge_set), dtype=np.intp)
    graph = np.array(verts, dtype=np.int64), tri, edges
    for a in graph:
        a.setflags(write=False)
    return graph


def gasket(level: int) -> MeasuredPointCloud:
    """Level-m Sierpinski gasket vertex cloud, uniform weights, mesh 2**-m."""
    ints, _, _ = gasket_graph(level)
    # Integer lattice pairs embedded in the plane.
    scale = 1.0 / 2**level
    x = (ints[:, 0] + 0.5 * ints[:, 1]) * scale
    y = ints[:, 1] * (np.sqrt(3.0) / 2.0) * scale
    coords = np.column_stack([x, y])
    n = coords.shape[0]
    return MeasuredPointCloud(
        np.full(n, 1.0 / n),
        coords=coords,
        mesh=0.5**level,
        meta={"kind": "gasket", "level": level},
    )


def carpet(level: int) -> MeasuredPointCloud:
    """Level-m Sierpinski carpet: retained-cell centres, uniform weights."""
    if level < 0:
        raise ValueError("carpet level must be nonnegative")
    cells = [(0, 0)]
    for _ in range(level):
        nxt = []
        for cx, cy in cells:
            for dx in range(3):
                for dy in range(3):
                    if dx == 1 and dy == 1:
                        continue
                    nxt.append((3 * cx + dx, 3 * cy + dy))
        cells = nxt
    cells.sort()
    side = 3**level
    coords = (np.array(cells, dtype=float) + 0.5) / side
    n = coords.shape[0]
    return MeasuredPointCloud(
        np.full(n, 1.0 / n),
        coords=coords,
        mesh=1.0 / side if level > 0 else None,
        meta={"kind": "carpet", "level": level},
        lattice=(np.array(cells), 1.0 / side),
    )


def read_cloud_file(path: str | Path) -> MeasuredPointCloud:
    """Import a cloud from the plain-text exchange format.

    Line 1: ``<n> <mode>`` with mode ``euclidean`` or ``abstract``.  Then one
    line per point: coordinates (euclidean) or the point's distance-matrix
    row (abstract), followed by the point weight.
    """
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read cloud file {path}: {exc}") from exc
    lines = [ln for ln in raw.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"cloud file {path} is empty")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be '<n> <mode>'")
    try:
        n = int(head[0])
    except ValueError as exc:
        raise ValueError(f"bad point count {head[0]!r}") from exc
    mode = head[1].lower()
    if n < 2:
        raise ValueError("a cloud file needs at least two points")
    if mode not in ("euclidean", "abstract"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} point lines, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            rows.append([float(tok) for tok in ln.split()])
        except ValueError as exc:
            raise ValueError(f"non-numeric entry in line {ln!r}") from exc
    width = len(rows[0])
    if any(len(rw) != width for rw in rows):
        raise ValueError("ragged point lines")
    arr = np.array(rows, dtype=float)
    weights = arr[:, -1]
    body = arr[:, :-1]
    meta = {"kind": "file", "path": str(path)}
    if mode == "euclidean":
        if body.shape[1] == 0:
            raise ValueError("euclidean mode needs at least one coordinate")
        return MeasuredPointCloud(weights, coords=body, meta=meta)
    if body.shape != (n, n):
        raise ValueError("abstract mode needs an n x n distance matrix")
    return MeasuredPointCloud(weights, dist_matrix=body, meta=meta)


# The one table of cloud kinds: each kind's builder and its descriptor
# keys, each with its type and the range a config may give it (strings have
# no range).  ``build_cloud`` dispatches through it, and the command line
# validates configs against it.
CLOUD_KINDS = {
    "interval_grid": (interval_grid, {"n": (int, 9, 100_000)}),
    "square_grid": (square_grid, {"n": (int, 9, 1_000)}),
    "gasket": (gasket, {"level": (int, 1, 8)}),
    "carpet": (carpet, {"level": (int, 1, 6)}),
    "file": (read_cloud_file, {"path": (str, None, None)}),
}


def build_cloud(spec: dict) -> MeasuredPointCloud:
    """Build a cloud from a descriptor such as ``{"kind": "gasket", "level": 5}``."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"cannot interpret cloud descriptor {spec!r}")
    kind = spec["kind"]
    if kind not in CLOUD_KINDS:
        raise ValueError(f"unknown cloud kind {kind!r}")
    builder, keys = CLOUD_KINDS[kind]
    for key in keys:
        if key not in spec:
            raise ValueError(f"space kind {kind!r} needs key {key!r}")
    return builder(*(typ(spec[key]) for key, (typ, _, _) in keys.items()))


# ----------------------------------------------------------------------
# doubling diagnostics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DoublingProfile:
    """Sampled volume-doubling behaviour of a cloud.

    ``samples`` has one row per (center, scale) pair with columns
    (center, r, mass_r, mass_2r, ratio).  ``c_d`` is the observed doubling
    constant, ``q_fit`` the mass-growth exponent from a through-origin
    log-log regression of cross-scale mass ratios, ``c_low`` the largest
    constant with ``mu(B(x, r)) >= c_low * r**q_fit`` on the samples.
    """

    centers: np.ndarray
    radii: np.ndarray
    mass_r: np.ndarray
    mass_2r: np.ndarray
    ratios: np.ndarray
    c_d: float
    q_fit: float
    c_low: float

    def table(self) -> Table:
        header = ("center", "r", "mass_r", "mass_2r", "ratio")
        cols = (self.centers, self.radii, self.mass_r, self.mass_2r, self.ratios)
        return header, tuple(zip(*(c.tolist() for c in cols)))


def estimate_doubling(
    cloud: MeasuredPointCloud,
    n_samples: int,
    scales: Sequence[float],
    seed: int,
    interior_only: bool = False,
) -> DoublingProfile:
    """Sample doubling ratios ``mu(B(x, 2r)) / mu(B(x, r))``.

    ``n_samples`` centres are drawn uniformly with replacement; each centre
    is paired with every admissible scale (kappa h <= r <= diam/2).  With
    ``interior_only`` a (centre, r) pair is kept only when the doubled ball
    clears the coordinate bounding box, which removes boundary clipping from
    the ratios.

    Raises ``Inapplicable`` when no scale is admissible or ``interior_only``
    leaves no sample.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    req = np.asarray(sorted(float(s) for s in scales))
    if req.size == 0:
        raise ValueError("no scales given")
    lo, hi = cloud.floor, cloud.diameter / 2.0
    adm = req[(req >= lo) & (req <= hi)]
    if adm.size == 0:
        raise Inapplicable(
            f"no admissible scale in [{lo:g}, {hi:g}] among {req.tolist()}"
        )

    rng = np.random.default_rng(seed)
    centers = rng.integers(0, cloud.n, size=n_samples)
    margin = None
    if interior_only and not cloud.is_abstract:
        margin = cloud.boundary_margin()

    cols_c, cols_r, cols_m, cols_m2 = [], [], [], []
    for x in centers:
        d = cloud.distances_from(int(x))
        for r in adm:
            if margin is not None and margin[x] < 2.0 * r:
                continue
            cols_c.append(int(x))
            cols_r.append(float(r))
            cols_m.append(float(cloud.weights[d < r].sum()))
            cols_m2.append(float(cloud.weights[d < 2.0 * r].sum()))
    if not cols_c:
        raise Inapplicable("interior restriction removed every sample")

    mass_r = np.array(cols_m)
    mass_2r = np.array(cols_m2)
    ratios = mass_2r / mass_r
    radii = np.array(cols_r)
    centers_out = np.array(cols_c, dtype=np.intp)

    # Exponent fit: within each sampled centre, compare the mass at every
    # pair of resolved scales (the 2r masses included) and regress the log
    # ratios through the origin.
    xs, ys = [], []
    for x in np.unique(centers_out):
        sel = centers_out == x
        rr = np.concatenate([radii[sel], 2.0 * radii[sel]])
        mm = np.concatenate([mass_r[sel], mass_2r[sel]])
        order = np.argsort(rr)
        rr, mm = rr[order], mm[order]
        for i in range(rr.size):
            for j in range(i + 1, rr.size):
                if rr[j] > rr[i]:
                    xs.append(np.log(rr[j] / rr[i]))
                    ys.append(np.log(mm[j] / mm[i]))
    xs_a, ys_a = np.array(xs), np.array(ys)
    q_fit = float(np.dot(xs_a, ys_a) / np.dot(xs_a, xs_a)) if xs_a.size else 0.0
    c_low = float(np.min(mass_r / radii**q_fit))

    return DoublingProfile(
        centers=centers_out,
        radii=radii,
        mass_r=mass_r,
        mass_2r=mass_2r,
        ratios=ratios,
        c_d=float(ratios.max()),
        q_fit=q_fit,
        c_low=c_low,
    )
