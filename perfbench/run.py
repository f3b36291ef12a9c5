"""Benchmark for kslab: times real `kslab run` invocations, one process each.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload carpet4 --seed 0 --seconds 10 --trace 0

Load model: closed loop, one client.  Invocations run strictly one after
another, each in a fresh process, so every run pays imports and set-up.

With ``--trace 0`` the benchmark first times set-up alone (``SETUP_PROBES``
processes that stop at the first suite, after one untimed process that
warms the file cache), then repeats full runs until ``--seconds`` have
passed (at least one), and reports end-to-end metrics as medians:

- ``run_s``: launch to exit of a full run;
- ``setup_s``: launch to the first ``kslab.suites.run_suite`` call;
- ``peak_rss_mb``: peak resident memory of a full run's process.

With ``--trace 1`` it makes one untraced and one traced full run and
reports the per-layer metrics of ``tracer.PER_LAYER_METRICS``.

Every full run passes through the output gate (``gate.py``); a run that
crashes, exits 2 or fails the gate counts in ``failed``.  Lines before the
last describe the run for a reader, including ``checks_failed`` (rows of
``summary.json`` with ``passed: false``), ``failed_runs`` and provenance;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Bundles and scratch files go to a temporary
directory in the checkout, removed before exit.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse
import compileall
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from gate import gate, load_reference
from tracer import PER_LAYER_METRICS, summarize
from workloads import ALL_WORKLOADS, WORKLOADS, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

END_TO_END_METRICS = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

SETUP_PROBES = 5
# A run that has not exited by then is killed and counts as failed.
INVOCATION_TIMEOUT_S = 170.0
# No further full run is started once this much of a benchmark run is gone.
RUN_BUDGET_S = 150.0


@dataclass
class Invocation:
    exit_code: int
    wall_s: float
    setup_s: float | None  # None when the process never reached a suite
    peak_rss_mb: float
    result: dict | None  # what child.py wrote
    summary: dict | None  # the bundle's summary.json
    stderr: str


def _read_json(path: Path) -> dict | None:
    """The JSON object at ``path``, or None if a crash left none."""
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def launch(mode: str, workload: dict, seed: int, scratch: Path) -> Invocation:
    """Run one kslab process in ``mode`` and wait for it to end."""
    work = Path(tempfile.mkdtemp(dir=scratch))
    bundle = work / "bundle"
    config = write_config(workload, seed, bundle, work / "config.json")
    result_path = work / "result.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with open(work / "stderr.txt", "w+") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, str(scratch / "src"), str(config), str(result_path)],
            stdout=subprocess.DEVNULL,
            stderr=err,
            cwd=work,
            env=env,
        )
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall_s = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    result = _read_json(result_path)
    summary = _read_json(bundle / "summary.json")
    shutil.rmtree(work)
    setup_s = None
    if result is not None and result["setup_end"] is not None:
        setup_s = result["setup_end"] - start
    return Invocation(
        proc.returncode, wall_s, setup_s, usage.ru_maxrss / 1024.0, result, summary, stderr
    )


def stage_sources(scratch: Path) -> None:
    """Copy kslab into ``scratch`` and compile it there.

    Child processes import this copy and write no bytecode, so set-up is
    timed with compiled modules, as users see it, and the checkout is left
    as it was.
    """
    shutil.copytree(ROOT / "src" / "kslab", scratch / "src" / "kslab")
    compileall.compile_dir(str(scratch / "src" / "kslab"), quiet=1)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kslab").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(env: dict | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **(env or {}),
        "thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "git_commit": _git_commit(),
        "src_sha256_16": _source_digest(),
    }


class Run:
    """Invocations of one benchmark run, with their gate verdicts."""

    def __init__(self, name: str, seed: int, scratch: Path):
        self.workload = ALL_WORKLOADS[name]
        self.seed = seed
        self.scratch = scratch
        self.reference, self.exact = load_reference(name, seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.checks_failed: list[int] = []
        self.env: dict | None = None

    def invoke(self, mode: str) -> Invocation:
        inv = launch(mode, self.workload, self.seed, self.scratch)
        self.attempted += 1
        if inv.result is not None:
            self.env = inv.result["env"]
        if mode == "setup":
            problems = [] if inv.setup_s is not None and inv.exit_code == 0 else [
                f"set-up run exit code {inv.exit_code}"
            ]
        else:
            problems = gate(inv.exit_code, inv.summary, self.reference, self.exact)
            if inv.summary is not None:
                self.checks_failed.append(sum(not c["passed"] for c in inv.summary["checks"]))
        if problems:
            self.failures.append(f"{mode}: " + "; ".join(problems))
            tail = inv.stderr.strip().splitlines()[-5:]
            print(f"{mode} run failed: {'; '.join(problems)}", *tail, sep="\n  ", file=sys.stderr)
        return inv


def measure_untraced(run: Run, seconds: float) -> dict[str, float]:
    run.invoke("setup")  # warms the file cache; not timed
    setups = [run.invoke("setup").setup_s for _ in range(SETUP_PROBES)]
    started = time.monotonic()
    walls, rss = [], []
    while True:
        inv = run.invoke("run")
        walls.append(inv.wall_s)
        rss.append(inv.peak_rss_mb)
        setups.append(inv.setup_s)
        elapsed = time.monotonic() - started
        if elapsed >= seconds or elapsed + inv.wall_s > RUN_BUDGET_S:
            break
    setups = [s for s in setups if s is not None]
    return {
        "run_s": statistics.median(walls),
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": statistics.median(rss),
    }


def measure_traced(run: Run) -> dict[str, float]:
    run.invoke("setup")  # warms the file cache; not timed
    untraced = run.invoke("run")
    traced = run.invoke("trace")
    if traced.result is None or traced.setup_s is None:
        return {name: float("nan") for name, _ in PER_LAYER_METRICS}
    return summarize(traced.result["trace"], traced.wall_s, traced.setup_s, untraced.wall_s)


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict[str, float]]:
    """One benchmark run of workload ``name``."""
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        stage_sources(scratch)
        run = Run(name, seed, scratch)
        values = measure_traced(run) if trace else measure_untraced(run, seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return run, values


def report(run: Run, values: dict[str, float], units: dict[str, str]) -> dict:
    failed = len(run.failures)
    lines = [f"{name} {value!r} {units[name]}" for name, value in values.items()]
    lines.append(f"checks_failed {max(run.checks_failed, default=-1)} count")
    lines.append(f"failed_runs {failed / run.attempted!r} share ({failed} of {run.attempted})")
    lines.append(f"reference {'exact' if run.exact else 'structural'} for seed {run.seed}")
    lines.append("provenance " + json.dumps(provenance(run.env), sort_keys=True))
    print("\n".join(lines))
    missing = [name for name, value in values.items() if not math.isfinite(value)]
    return {
        "correct": failed == 0 and not missing,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": None if name in missing else value, "unit": units[name]}
            for name, value in values.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an exit so the running child is killed and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "kslab" / "cli.py").is_file():
        print(f"error: no kslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run, values = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = dict(PER_LAYER_METRICS if args.trace else END_TO_END_METRICS)
    print(json.dumps(report(run, values, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
