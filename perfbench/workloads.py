"""The benchmark's workloads: fixed `kslab run` configs, seeded by the caller.

Each workload stresses a different layer, so that an optimization of one
layer has a workload that exercises it and one that bypasses it (see
NOTES.md for the reasons and the baseline numbers).
"""

from __future__ import annotations

import json
from pathlib import Path

# log 5 / log 2, the gasket's walk dimension, written out so the config is
# the same bytes on every machine.
GASKET_D_W = 2.321928094887362

WORKLOADS: dict[str, dict] = {
    # Large balls (about 436 members per centre): ball membership and
    # increment reductions; no graph form, so the spectral layer does nothing.
    "carpet4": {"space": {"kind": "carpet", "level": 4}, "d_w": 2.0, "suite": "all"},
    # Small balls (about 222 members per centre), all six suites; the only
    # workload that runs the intrinsic metric and the interval calibrations.
    "interval2001": {"space": {"kind": "interval_grid", "n": 2001}, "d_w": 2.0, "suite": "all"},
    # Dense eigensolves on 3282 vertices; ball queries are about 2% of it.
    "gasket7_graphform": {
        "space": {"kind": "gasket", "level": 7},
        "d_w": GASKET_D_W,
        "suite": "graphform",
    },
}

# Configs small enough for the harness self-test to run in seconds.
SELFTEST_WORKLOADS: dict[str, dict] = {
    "interval257": {"space": {"kind": "interval_grid", "n": 257}, "d_w": 2.0, "suite": "all"},
    "gasket5_graphform": {
        "space": {"kind": "gasket", "level": 5},
        "d_w": GASKET_D_W,
        "suite": "graphform",
    },
}

ALL_WORKLOADS = {**WORKLOADS, **SELFTEST_WORKLOADS}


def write_config(workload: dict, seed: int, out_dir: Path, path: Path) -> Path:
    """Write the `kslab run` config for ``workload`` with the given seed."""
    config = dict(workload, seed=int(seed), out=str(out_dir))
    path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
    return path
