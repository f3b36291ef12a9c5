"""Write the output gate's references from the current sources.

Usage (from the root of a checkout):

    python3 perfbench/make_reference.py --seeds 0 1 [--workloads carpet4 ...]

For each workload and seed it makes one untraced `kslab run` and stores the
check names, verdicts and constants in ``reference/<workload>.json``,
keeping entries for other seeds.  Run it only at a commit whose outputs are
to become the reference; a change that claims a gain must not rewrite them.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse
import json
import shutil
import tempfile
from pathlib import Path

from gate import REFERENCE_DIR, checks_of
from run import ROOT, launch, stage_sources
from workloads import ALL_WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=sorted(ALL_WORKLOADS), default=sorted(ALL_WORKLOADS))
    args = parser.parse_args(argv)

    REFERENCE_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        stage_sources(scratch)
        for name in args.workloads:
            path = REFERENCE_DIR / f"{name}.json"
            stored = json.loads(path.read_text())["seeds"] if path.is_file() else {}
            for seed in args.seeds:
                inv = launch("run", ALL_WORKLOADS[name], seed, scratch)
                if inv.exit_code not in (0, 1) or inv.summary is None:
                    print(inv.stderr, file=sys.stderr)
                    print(f"error: {name} seed {seed} exited {inv.exit_code}", file=sys.stderr)
                    return 1
                stored[str(seed)] = dict(sorted(checks_of(inv.summary).items()))
                failed = sorted(n for n, c in stored[str(seed)].items() if not c["passed"])
                print(f"{name} seed {seed}: exit {inv.exit_code}, {inv.wall_s:.2f} s, failed {failed}")
            ordered = dict(sorted(stored.items(), key=lambda kv: int(kv[0])))
            path.write_text(json.dumps({"workload": name, "seeds": ordered}, indent=1) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
