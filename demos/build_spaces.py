"""
Building measured point clouds and checking their geometry
===========================================================

Every computation in kslab starts from a MeasuredPointCloud: points with
weights plus either coordinates or a full distance matrix.  This script
builds one cloud of each flavour and runs the two basic geometric health
checks, volume doubling and the lower mass bound.
"""

import tempfile
from pathlib import Path

import numpy as np

from kslab import (
    SuiteContext,
    gasket,
    interval_grid,
    read_cloud_file,
    square_grid,
)

# The stock constructions: a unit interval grid, a unit square grid, and
# the level-4 Sierpinski gasket graph with uniform vertex weights.
clouds = {
    "interval(401)": interval_grid(401),
    "square(41x41)": square_grid(41),
    "gasket(4)": gasket(4),
}

for name, cloud in clouds.items():
    print(f"{name}: n={cloud.n} mesh={cloud.mesh:.5f} diameter={cloud.diameter:.4f}"
          f" total_mass={cloud.total_mass:.4f}")

# Doubling: sample centers, measure mu(B(x,2r)) / mu(B(x,r)) across the
# suites' geometric ladder of radii.  The radii are pulled slightly off the
# lattice mid-points so that the doubled radius never lands exactly on a
# sphere.
print("\nempirical doubling constants")
for name, cloud in clouds.items():
    profile = SuiteContext(cloud, 2.0, seed=0).doubling_profile()
    # The lower mass bound mu(B(x,r)) >= c_low r^Q on the same samples.
    print(f"  {name}: C_D={profile.c_d:.3f}  growth exponent Q={profile.q_fit:.3f}"
          f"  lower mass bound holds={profile.c_low > 0} (c={profile.c_low:.3f})")

# Clouds can also round-trip through a plain text exchange format: header
# '<n> <mode>', then one line per point with coordinates (or a distance
# matrix row) followed by the weight.
rng = np.random.default_rng(5)
pts = rng.uniform(0, 1, size=(50, 2))
w = np.full(50, 1 / 50)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "random.cloud"
    lines = ["50 euclidean"]
    for (x, y), wi in zip(pts, w):
        lines.append(f"{float(x)!r} {float(y)!r} {float(wi)!r}")
    path.write_text("\n".join(lines) + "\n")
    loaded = read_cloud_file(path)
    print(f"\nfile round trip: n={loaded.n} diameter={loaded.diameter:.4f}"
          f" kind={loaded.kind}")
