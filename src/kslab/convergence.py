"""Variational-limit diagnostics for the multiscale energies.

Four finite-resolution probes of the limit theory: recovery sequences built
from the ball-average mollifier, weak perturbations by high-index
eigenfields for the liminf half, greedy-net compactness of energy-bounded
families, and the Sobolev / sup-norm embedding quotients.  None of these
construct the limit object: the recovery and liminf halves report margins
against the energy of the cloud's reference graph form (the oracle), which
also carries the cloud, and every probe asserts stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .energy import (
    ScalarField,
    _common_cloud,
    ks_energies,
    ks_energy,
    liminf_window_scales,
    make_scale_grid,
)
from .export import Table
from .graphform import GraphDirichletForm, Spectrum, form_energy
from .smoothing import mollify, partition_of_unity
from .space import DEFAULT_KAPPA, Inapplicable, MeasuredPointCloud

__all__ = [
    "MoscoReport",
    "CompactnessProbe",
    "SobolevReport",
    "recovery_check",
    "weak_liminf_probe",
    "compactness_probe",
    "sobolev_check",
]

DEFAULT_PROBES = 5
# High-index perturbations start this far up the spectrum when room permits.
PROBE_OFFSET = 20
NULLITY_TOL = 0.05
# The mollifier L2 error must not grow by more than this step over step.
TREND_SLACK = 1.05


@dataclass(frozen=True)
class MoscoReport:
    """Margins for the two halves of the variational convergence check.

    ``oracle`` is the form energy of the target f.  ``recovery_margin`` is
    max_n E(f_eps_n, r_n) / oracle; ``liminf_margin`` is
    min_n E(f + u_{k_n}, r_n) / oracle.  Either half may be absent when
    only the other was run.  The oracle vanishes only for a constant f
    (the form is connected); then the liminf margin is infinite and the
    recovery margin is 0 or infinite.
    """

    scales: np.ndarray
    oracle: float
    d_w: float
    recovery_margin: float | None
    liminf_margin: float | None
    recovery_ok: bool | None
    liminf_ok: bool | None
    rows: tuple[tuple, ...]
    row_header: tuple[str, ...]
    nullity: float | None = None

    def table(self) -> Table:
        return self.row_header, self.rows


def recovery_check(
    f: ScalarField,
    form: GraphDirichletForm,
    d_w: float = 2.0,
    n_steps: int = DEFAULT_PROBES,
) -> MoscoReport:
    """Drive the mollifier along a shrinking scale ladder and compare.

    The ladder pairs each eps with r = eps kappa / 2, for eps over the last
    ``n_steps`` scales of the grid that reaches diam/2 (fewer when the grid
    is shorter).  Fewer than 3 pairs cannot judge a trend: ``n_steps < 3``
    is a ``ValueError``, a grid shorter than 3 scales ``Inapplicable``.  Each
    step builds f_eps from ball averages on an eps-net and measures its
    increment energy at r.  The report records the L2 distance to f (which
    must not grow along the ladder, 5% slack) and the worst margin against
    the form energy of f.
    """
    cloud = f.cloud
    oracle_value = form_energy(form, f)  # refuses a field off the form's cloud
    if n_steps < 3:
        raise ValueError("need at least 3 scale pairs to judge the trend")
    # The smallest admissible scales: the limit statements live at eps -> 0.
    wide = make_scale_grid(cloud, r_max=cloud.diameter / 2.0).scales
    if wide.size < 3:
        raise Inapplicable("fewer than three admissible scales on this cloud")
    pairs = [(float(e), float(e) * DEFAULT_KAPPA / 2.0) for e in wide[-n_steps:]]

    mu = cloud.weights
    rows = []
    errors = []
    energies = []
    for e, r in pairs:
        pou = partition_of_unity(cloud, e)
        f_eps = mollify(f, pou)
        err = math.sqrt(float(mu @ (f_eps.values - f.values) ** 2))
        en = ks_energy(f_eps, r, d_w=d_w)
        errors.append(err)
        energies.append(en)
        rows.append((e, r, err, en))

    lin_noise = 1e-12 * max(1.0, float(np.abs(f.values).max()))
    trend_ok = all(
        b <= a * TREND_SLACK + lin_noise for a, b in zip(errors, errors[1:])
    )
    if oracle_value > 0.0:
        margin = max(energies) / oracle_value
    else:
        # Mollifying a flat field leaves ulp-level residue whose energy is
        # far below any meaningful scale; do not let it fail the check.
        noise = 1e-20 * max(1.0, float(np.abs(f.values).max()) ** 2)
        margin = 0.0 if max(energies) <= noise else float("inf")
    ok = trend_ok and math.isfinite(margin) and margin >= 0.0
    return MoscoReport(
        scales=np.array([r for _, r in pairs]),
        oracle=oracle_value,
        d_w=float(d_w),
        recovery_margin=margin,
        liminf_margin=None,
        recovery_ok=ok,
        liminf_ok=None,
        rows=tuple(rows),
        row_header=("eps", "r", "l2_error", "energy"),
    )


def _test_fields(cloud: MeasuredPointCloud, spec: Spectrum) -> list[np.ndarray]:
    """Five fixed unit-norm fields used to witness weak nullity."""
    mu = cloud.weights
    if cloud.is_abstract:
        raw = [spec.field(k).values for k in range(min(5, spec.k_max))]
    else:
        x = cloud.coords[:, 0]
        span = x.max() - x.min()
        t = (x - x.min()) / span if span > 0 else np.zeros_like(x)
        raw = [
            np.ones(cloud.n),
            t,
            t**2,
            np.cos(np.pi * t),
            np.sin(np.pi * t),
        ]
    out = []
    for g in raw:
        norm = math.sqrt(float(mu @ g**2))
        out.append(g / norm if norm > 0 else g)
    return out


def weak_liminf_probe(
    f: ScalarField,
    spec: Spectrum,
    d_w: float = 2.0,
    n_probes: int = DEFAULT_PROBES,
    offset: int | None = None,
) -> MoscoReport:
    """Perturb f by high-index eigenfields and bound the energy from below.

    The perturbations are unit-norm and weakly null (their inner products
    against five fixed test fields stay under ``NULLITY_TOL``), so the probe
    sequence converges weakly to f while the measured energies must not
    drop below a fixed fraction of the form energy of f.  Probe i is
    measured at the i-th of the last ``n_probes`` scales of the default
    grid, or of the grid that reaches diam/2 when the default grid is
    shorter.  The probe raises ``Inapplicable`` when both are too short, when
    the default grid is empty, or when the spectrum has fewer than
    ``n_probes + 10`` modes.
    """
    cloud = f.cloud
    if spec.form.cloud is not cloud:
        raise ValueError("spectrum does not live on the field's cloud")
    if n_probes < 1:
        raise ValueError("need at least one probe")
    if spec.k_max < n_probes + 10:
        raise Inapplicable(
            f"spectrum too small: k_max = {spec.k_max} < {n_probes + 10}"
        )
    # The highest stored mode is k_max - 1 (index 0 is the constant).
    if offset is None:
        offset = min(PROBE_OFFSET, spec.k_max - 1 - n_probes)
    elif offset < 1 or n_probes + offset > spec.k_max - 1:
        raise ValueError("probe offset leaves the available spectrum")
    grid = make_scale_grid(cloud).scales
    if grid.size < n_probes:
        grid = make_scale_grid(cloud, r_max=cloud.diameter / 2.0).scales
    if grid.size < n_probes:
        raise Inapplicable("scale grid too short for the probe count")
    ladder = [float(r) for r in grid[-n_probes:]]

    oracle_value = form_energy(spec.form, f)
    mu = cloud.weights
    tests = _test_fields(cloud, spec)

    rows = []
    energies = []
    worst_nullity = 0.0
    for i, r in enumerate(ladder):
        k = i + 1 + offset
        u = spec.field(k).values
        nullity = max(abs(float(mu @ (u * g))) for g in tests)
        worst_nullity = max(worst_nullity, nullity)
        probe = ScalarField(cloud, f.values + u)
        en = ks_energy(probe, r, d_w=d_w)
        energies.append(en)
        rows.append((k, r, en, nullity))

    nullity_ok = worst_nullity <= NULLITY_TOL
    if oracle_value > 0.0:
        margin = min(energies) / oracle_value
        ok = nullity_ok and margin > 0.0 and math.isfinite(margin)
    else:
        # Constant target: the weak lower bound is vacuous.
        margin = float("inf")
        ok = nullity_ok
    return MoscoReport(
        scales=np.array(ladder),
        oracle=oracle_value,
        d_w=float(d_w),
        recovery_margin=None,
        liminf_margin=margin,
        recovery_ok=None,
        liminf_ok=ok,
        rows=tuple(rows),
        row_header=("k", "r", "energy", "nullity"),
        nullity=worst_nullity,
    )


# ----------------------------------------------------------------------
# compactness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CompactnessProbe:
    """Greedy-net summary of an energy-bounded family in L2(mu)."""

    n_fields: int
    delta: float
    net_size: int
    net_ids: tuple[int, ...]
    max_gap: float


def liminf_proxy(fields: Sequence[ScalarField], d_w: float = 2.0) -> np.ndarray:
    """Small-scale window minimum of the global increment energy, per field.

    The fields share one cloud, and all fields and window scales share one
    ball pass.
    """
    window = liminf_window_scales(_common_cloud(fields))
    return ks_energies(fields, window, d_w=d_w).min(axis=0)


def compactness_probe(
    fields: Sequence[ScalarField],
    d_w: float = 2.0,
    delta: float = 0.1,
) -> CompactnessProbe:
    """Totally-bounded-in-L2 check for a family under the unit energy cap.

    Every field must satisfy ||f||^2 + liminf-proxy <= 1; the probe then
    covers the family greedily with delta-balls in L2(mu) and reports how
    many centers that takes.  Small nets certify the compactness the
    embedding theorems predict.
    """
    cloud = _common_cloud(fields)
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    proxies = liminf_proxy(fields, d_w=d_w)
    for i, (f, proxy) in enumerate(zip(fields, proxies)):
        score = f.l2sq() + float(proxy)
        if score > 1.0 + 1e-9:
            raise ValueError(f"field {i} violates the energy cap: {score:g} > 1")

    mu = cloud.weights
    vals = np.stack([f.values for f in fields])
    gram = vals @ (vals * mu).T
    sq = np.diag(gram)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)
    dist = np.sqrt(d2)

    # Farthest-point selection; ties resolve to the lowest index, so the
    # net is a pure function of the field order.
    net = [0]
    gaps = dist[0].copy()
    while True:
        far = int(np.argmax(gaps))
        if gaps[far] <= delta:
            break
        net.append(far)
        np.minimum(gaps, dist[far], out=gaps)
    return CompactnessProbe(
        n_fields=len(fields),
        delta=float(delta),
        net_size=len(net),
        net_ids=tuple(net),
        max_gap=float(gaps.max()),
    )


# ----------------------------------------------------------------------
# embedding quotients
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SobolevReport:
    """Per-field embedding quotients in the regime the exponents select.

    branch "lq": ||f||_{L^q} over ||f||_{L^2} + proxy^{1/2} with
    q = 2Q/(Q - d_w).  branch "sup": ||f||_inf over the interpolation
    (||f||_{L^2} + proxy^{1/2})^theta ||f||_{L^2}^{1-theta}, theta = Q/d_w.
    """

    d_w: float
    branch: str
    exponent: float
    quotients: np.ndarray

    @property
    def max_quotient(self) -> float:
        return float(self.quotients.max())


def sobolev_check(
    fields: Sequence[ScalarField],
    d_w: float,
    Q: float,
) -> SobolevReport:
    """Embedding quotients for nonconstant fields at volume growth Q."""
    if Q <= 0.0:
        raise ValueError("volume growth exponent must be positive")
    cloud = _common_cloud(fields)
    for i, f in enumerate(fields):
        if f.is_constant():
            raise ValueError(f"field {i} is constant; the quotient is vacuous")
    mu = cloud.weights
    quotients = []
    for f, proxy in zip(fields, liminf_proxy(fields, d_w=d_w)):
        l2 = math.sqrt(f.l2sq())
        denom_core = l2 + math.sqrt(proxy)
        if Q > d_w:
            q = 2.0 * Q / (Q - d_w)
            lq = float(mu @ np.abs(f.values) ** q) ** (1.0 / q)
            quotients.append(lq / denom_core)
        else:
            theta = Q / d_w
            sup = float(np.abs(f.values).max())
            quotients.append(sup / (denom_core**theta * l2 ** (1.0 - theta)))
    if Q > d_w:
        branch, exponent = "lq", 2.0 * Q / (Q - d_w)
    else:
        branch, exponent = "sup", Q / d_w
    return SobolevReport(
        d_w=float(d_w),
        branch=branch,
        exponent=float(exponent),
        quotients=np.array(quotients),
    )
