"""Output gate: compare a run's `summary.json` with the stored reference.

References live in ``reference/<workload>.json``, one entry per seed, each
mapping check name to its verdict and constant at the commit that defined
the benchmark (``make_reference.py`` writes them).  A run fails the gate if

- its exit code is not 0 or 1;
- its set of check names differs from the reference;
- a check that passes in the reference fails;
- the constant of a reference-passing check leaves the tolerance below.

Constants of checks that fail in the reference are reported, never gated,
so that a fix can lower ``checks_failed`` without tripping the gate.  For a
seed with no stored entry the gate is structural: names must match the
stored seeds, checks that pass on every stored seed must pass, and
constants are not compared.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# |constant - reference| <= ABS_TOL + REL_TOL * |reference|.  Reruns of the
# same code are byte-identical; the slack admits a change of summation order
# or eigensolver (about 1e-10 relative), not a change of result.
REL_TOL = 1e-6
ABS_TOL = 1e-9


def checks_of(summary: dict) -> dict[str, dict]:
    return {
        c["name"]: {"passed": bool(c["passed"]), "constant": c.get("constant")}
        for c in summary["checks"]
    }


def load_reference(workload: str, seed: int) -> tuple[dict[str, dict], bool]:
    """The reference checks for (workload, seed) and whether they are exact.

    Without a stored entry for ``seed``, the structural reference merges the
    stored seeds: a check counts as passing only if it passes on all of them,
    and carries no constant.
    """
    stored = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())["seeds"]
    if str(seed) in stored:
        return stored[str(seed)], True
    merged: dict[str, dict] = {}
    for checks in stored.values():
        if merged and set(checks) != set(merged):
            raise ValueError(f"stored references of {workload} disagree on check names")
        for name, check in checks.items():
            prior = merged.get(name, {"passed": True})
            merged[name] = {"passed": prior["passed"] and check["passed"], "constant": None}
    return merged, False


def _close(value, ref) -> bool:
    if value is None or ref is None:
        return value is None and ref is None
    return math.isfinite(value) and abs(value - ref) <= ABS_TOL + REL_TOL * abs(ref)


def gate(exit_code: int, summary: dict | None, reference: dict[str, dict], exact: bool) -> list[str]:
    """Reasons the run fails the gate; empty when it passes."""
    if exit_code not in (0, 1):
        return [f"exit code {exit_code}"]
    if summary is None:
        return ["no summary.json"]
    checks = checks_of(summary)
    if set(checks) != set(reference):
        return [f"check names {sorted(checks)} differ from reference {sorted(reference)}"]
    problems = []
    for name, ref in sorted(reference.items()):
        got = checks[name]
        if not ref["passed"]:
            continue
        if not got["passed"]:
            problems.append(f"{name} fails, passes in the reference")
        elif exact and not _close(got["constant"], ref["constant"]):
            problems.append(f"{name} constant {got['constant']!r} != reference {ref['constant']!r}")
    return problems
