"""Partitions of unity over covering nets, and the ball-average mollifier.

A maximal epsilon-separated subset of the cloud gives open balls that cover
every point.  Tent kernels on those balls, normalized pointwise, form a
Lipschitz partition of unity, kept on the bumps' supports, whose one ball
pass at 2 epsilon also keeps the epsilon-balls; recombining a field's
averages over those balls against the partition yields the smoothed field
f_eps.  The module also houses the discrete Lipschitz-slope operator and
the diagnostic reports that tie the smoothing error and the cutoff energies
back to the ball-increment functionals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .energy import (
    ScalarField,
    _common_cloud,
    _increment_table,
    _validated,
    ks_energies,
    make_scale_grid,
)
from .space import MeasuredPointCloud, _keep_below, segment_max, segment_sums

__all__ = [
    "PartitionOfUnity",
    "MollifierReport",
    "CutoffReport",
    "partition_of_unity",
    "mollify",
    "discrete_lip",
    "mollifier_ladder",
    "check_controlled_cutoff",
]


@dataclass(frozen=True)
class PartitionOfUnity:
    """Tent-kernel partition subordinate to the 2-epsilon dilated balls of a net.

    ``center_ids`` is a maximal epsilon-separated subset of the cloud.  Each
    center's bump is nonnegative, vanishes outside B(c, 2 eps), and the
    bumps sum to one at every point; they are stored on their supports, laid
    out as in ``ball_chunks``: ``bump_members`` holds each center's 2 eps
    ball, ``bump_counts`` its size and ``bump_values`` the bump there.
    ``ball_members`` and ``ball_counts`` hold each center's eps-ball the
    same way, and ``ball_masses`` its mass, all cut from the one 2 eps pass.
    """

    cloud: MeasuredPointCloud
    epsilon: float
    center_ids: np.ndarray
    bump_members: np.ndarray
    bump_counts: np.ndarray
    bump_values: np.ndarray
    ball_members: np.ndarray
    ball_counts: np.ndarray
    ball_masses: np.ndarray

    @property
    def n_centers(self) -> int:
        return int(self.center_ids.size)

    def fields(self) -> list[ScalarField]:
        """Each bump as a field on the whole cloud, built on demand."""
        ends = np.cumsum(self.bump_counts)
        out = []
        for lo, hi in zip(ends - self.bump_counts, ends):
            row = np.zeros(self.cloud.n)
            row[self.bump_members[lo:hi]] = self.bump_values[lo:hi]
            out.append(ScalarField(self.cloud, row))
        return out


def partition_of_unity(cloud: MeasuredPointCloud, epsilon: float) -> PartitionOfUnity:
    """Normalized tent kernels psi(d/eps) = clamp(2 - d/eps, 0, 1) over a greedy net.

    Scanned in id order, a point becomes a center exactly when no earlier
    center lies within epsilon of it, so the net is reproducible and, being
    maximal, its open epsilon-balls cover the cloud: every point sees a
    kernel at full height and the normalization is safe.  Radii under twice
    the mesh are refused: a net that fine cannot cover a discrete cloud
    with room to spare.
    """
    if not np.isfinite(epsilon) or epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    floor = 2.0 * cloud.mesh
    if epsilon < floor:
        raise ValueError(f"epsilon {epsilon:g} below covering floor 2h = {floor:g}")
    eps = float(epsilon)
    covered = np.zeros(cloud.n, dtype=bool)
    centers: list[int] = []
    for p in range(cloud.n):
        if covered[p]:
            continue
        centers.append(p)
        covered[cloud.ball_ids(p, eps)] = True
    center_ids = np.asarray(centers, dtype=np.intp)
    bumps, balls = [], []
    for _, flat, counts, d in cloud.ball_chunks(2.0 * eps, center_ids):
        bumps.append((flat, counts, np.clip(2.0 - d / eps, 0.0, 1.0)))
        balls.append(_keep_below(eps, flat, counts, d)[:2])
    members, sizes, psi = (np.concatenate(parts) for parts in zip(*bumps))
    # Column totals in centre order, as a dense sum over the centres adds them.
    total = np.bincount(members, weights=psi, minlength=cloud.n)
    # Re-check the cover instead of trusting the scan.
    if not covered.all() or np.any(total <= 0.0):
        raise RuntimeError("the net's epsilon-balls do not cover the cloud")
    flat, counts = (np.concatenate(parts) for parts in zip(*balls))
    masses = segment_sums(cloud.weights[flat], counts)
    return PartitionOfUnity(
        cloud, eps, center_ids, members, sizes, psi / total[members], flat, counts, masses
    )


def mollify(f: ScalarField, pou: PartitionOfUnity) -> ScalarField:
    """Recombine ball averages of ``f`` against the partition.

    f_eps(x) = sum_i avg_{B(c_i, eps)}(f) * phi_i(x), with the eps-balls
    the partition keeps; each point sums its bumps' terms in centre order,
    reading the bumps on their supports only.  Constants are fixed points
    and the output never leaves [min f, max f]: each value is a convex
    combination of ball averages.
    """
    cloud = pou.cloud
    if f.cloud is not cloud:
        raise ValueError("field does not live on the partition's cloud")
    flat = pou.ball_members
    sums = segment_sums(cloud.weights[flat] * f.values[flat], pou.ball_counts)
    terms = np.repeat(sums / pou.ball_masses, pou.bump_counts) * pou.bump_values
    return ScalarField(cloud, np.bincount(pou.bump_members, weights=terms, minlength=cloud.n))


def discrete_lip(
    f: ScalarField | Sequence[ScalarField],
    r_loc: float,
) -> ScalarField | list[ScalarField]:
    """Largest difference quotient against neighbours within ``r_loc``.

    (Lip_h f)(x) = max_{0 < d(x,y) < r_loc} |f(x) - f(y)| / d(x, y).

    ``f`` is one field, or a sequence of fields on one cloud whose slopes
    come back as a list from one shared ball pass; each list entry equals
    the single-field call bit for bit.
    """
    fields = [f] if isinstance(f, ScalarField) else list(f)
    cloud = _common_cloud(fields)
    cloud.require_admissible(r_loc)
    out = np.zeros((len(fields), cloud.n))
    for sub, flat, counts, d in cloud.ball_chunks(r_loc):
        if np.any(counts < 2):
            lonely = sub[counts < 2][0]
            raise ValueError(
                f"ball at r_loc={r_loc:g} around point {int(lonely)} has no "
                "neighbours; increase r_loc"
            )
        keep = d > 0.0  # drops exactly the center itself
        members, centres = flat[keep], np.repeat(sub, counts)[keep]
        for row, g in zip(out, fields):
            quotients = np.abs(g.values[members] - g.values[centres]) / d[keep]
            row[sub] = segment_max(quotients, counts - 1)
    slopes = [ScalarField(cloud, row) for row in out]
    return slopes[0] if isinstance(f, ScalarField) else slopes


@dataclass(frozen=True)
class MollifierReport:
    """Smoothing-error diagnostics at one epsilon.

    ``lip_bound_ratio`` compares the squared L2 norm of the discrete slope
    of f_eps against the averaged squared increments of f at scale 2 eps
    divided by eps^2; ``l2_bound_ratio`` compares ||f_eps - f||^2 against the
    integrated squared first moment over 6 eps balls, and ``l2_numerator``
    keeps ||f_eps - f||^2 itself.  Constants are not
    pinned anywhere, so consumers assert stability across epsilon instead of
    absolute size.
    """

    epsilon: float
    lip_bound_ratio: float
    l2_bound_ratio: float
    l2_numerator: float


def _guarded_ratio(num: float, den: float) -> float:
    if num == 0.0:
        return 0.0
    if den == 0.0:
        return float("inf")
    return num / den


def mollifier_ladder(
    f: ScalarField,
    pous: Sequence[PartitionOfUnity],
    d_w: float = 2.0,
) -> list[MollifierReport]:
    """Both smoothing estimates for one field at every rung of a ladder of partitions.

    The slope of f_eps is measured with the discrete Lipschitz operator at
    the finest admissible radius kappa * h.  The energy side is the raw
    increment sum at 2 eps divided by eps^2, which is what stays flat in
    epsilon for smooth fields; d_w would cancel out of the ratio, so it is
    only validated.  The increment sums at 2 eps and the first moments at
    6 eps of every rung come from one ``_increment_table`` call, and the
    slopes of every smoothed field from one ball pass at kappa * h; each
    report equals a one-rung ladder's bit for bit.
    """
    epsilons = [pou.epsilon for pou in pous]
    if any(pou.cloud is not f.cloud for pou in pous):
        raise ValueError("field does not live on the partition's cloud")
    radii = [2.0 * eps for eps in epsilons] + [6.0 * eps for eps in epsilons]
    cloud, mat = _validated([f], radii, d_w)
    if f.is_constant():
        # Both numerators vanish identically; skip the 0/0 float noise.
        return [
            MollifierReport(epsilon=eps, lip_bound_ratio=0.0, l2_bound_ratio=0.0, l2_numerator=0.0)
            for eps in epsilons
        ]
    smoothed = [mollify(f, pou) for pou in pous]
    m = len(epsilons)
    # Rows 0..m-1: squared increments at 2 eps; rows m..: first moments at 6 eps.
    table = _increment_table(cloud, mat, radii, [2] * m + [1] * m)[:, 0]

    w = cloud.weights
    lips = discrete_lip(smoothed, cloud.floor)
    reports = []
    for k, (eps, f_eps, lip) in enumerate(zip(epsilons, smoothed, lips)):
        lip_num = float(np.sum(w * lip.values**2))
        # Raw increment sum at 2 eps: the energy times (2 eps)^{d_w}.
        lip_den = table[k].sum() / eps**2

        l2_num = float(np.sum(w * (f_eps.values - f.values) ** 2))
        # The table carries the centre weight mu_x: dividing it out leaves
        # the per-point first moment avg_{B(x, 6 eps)} |f(x) - f(y)| dmu(y).
        dev = table[m + k] / w
        l2_den = float(np.sum(w * dev**2))

        reports.append(
            MollifierReport(
                epsilon=eps,
                lip_bound_ratio=_guarded_ratio(lip_num, lip_den),
                l2_bound_ratio=_guarded_ratio(l2_num, l2_den),
                l2_numerator=l2_num,
            )
        )
    return reports


@dataclass(frozen=True)
class CutoffReport:
    """Worst scaled cutoff energy over the bumps of one partition."""

    epsilon: float
    d_w: float
    worst: float
    per_center: np.ndarray
    scales: np.ndarray


def check_controlled_cutoff(pou: PartitionOfUnity, d_w: float = 2.0) -> CutoffReport:
    """Scaled small-scale energies of the partition bumps.

    For each bump the limsup proxy of its energy sweep (the max over the
    window, the ``DEFAULT_WINDOW`` smallest scales of the grid) is
    multiplied by eps^{d_w} / mu(B(c, eps)), with the masses the partition
    already summed; the report keeps the worst center.  All bumps and
    window scales share one increment table: on a grid cloud the stencil
    computes each bump only on its support widened by the largest window
    scale, elsewhere one ball pass serves them all.
    """
    cloud = pou.cloud
    eps = pou.epsilon
    grid = make_scale_grid(cloud)
    # Only the window is read, so only the window is evaluated.
    energies = ks_energies(pou.fields(), grid.window(), d_w=d_w)
    per_center = energies.max(axis=0) * eps**d_w / pou.ball_masses
    return CutoffReport(
        epsilon=float(eps),
        d_w=float(d_w),
        worst=float(per_center.max()),
        per_center=per_center,
        scales=grid.scales.copy(),
    )
