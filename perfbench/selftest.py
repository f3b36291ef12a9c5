"""Self-test of the benchmark harness on configs that run in seconds.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

It checks that

- the output gate accepts the reference and rejects each kind of departure;
- an untraced run reports every end-to-end metric of BENCHMARK.json with
  its unit, plus ``checks_failed`` and ``failed_runs``;
- a traced run reports every per-layer metric of BENCHMARK.json with its
  unit, and two traced runs give identical work counters;
- no run leaves a file behind in the checkout.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import contextlib
import copy
import io
import json

from gate import gate, load_reference
from run import END_TO_END_METRICS, ROOT, measure, report
from tracer import EXACT_COUNTERS, PER_LAYER_METRICS

FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def tree() -> set[str]:
    return {
        p.relative_to(ROOT).as_posix()
        for p in ROOT.rglob("*")
        if ".git" not in p.relative_to(ROOT).parts
    }


def test_gate() -> None:
    reference, exact = load_reference("gasket5_graphform", 0)
    check(exact, "seed 0 has an exact reference")
    summary = {
        "checks": [
            {"name": name, "passed": ref["passed"], "constant": ref["constant"]}
            for name, ref in reference.items()
        ]
    }
    check(gate(0, summary, reference, True) == [], "gate accepts the reference itself")
    check(gate(2, summary, reference, True) != [], "gate rejects exit code 2")
    check(gate(0, None, reference, True) != [], "gate rejects a missing summary")

    fewer = {"checks": summary["checks"][1:]}
    check(gate(0, fewer, reference, True) != [], "gate rejects a missing check")

    flipped = copy.deepcopy(summary)
    flipped["checks"][0]["passed"] = False
    check(gate(1, flipped, reference, True) != [], "gate rejects a reference-passing check that fails")

    moved = copy.deepcopy(summary)
    moved["checks"][0]["constant"] *= 1.001
    check(gate(0, moved, reference, True) != [], "gate rejects a constant outside the tolerance")
    check(gate(0, moved, reference, False) == [], "structural gate does not compare constants")

    reference_1, _ = load_reference("gasket5_graphform", 1)
    failing = [name for name, ref in reference_1.items() if not ref["passed"]]
    check(failing == ["subgaussian_fit"], "seed 1 reference has subgaussian_fit failing")
    fixed = {
        "checks": [
            {"name": name, "passed": True, "constant": ref["constant"] * (0.5 if not ref["passed"] else 1)}
            for name, ref in reference_1.items()
        ]
    }
    check(gate(0, fixed, reference_1, True) == [], "gate lets a reference-failing check pass")

    merged, exact = load_reference("gasket5_graphform", 10**6)
    check(not exact and not merged["subgaussian_fit"]["passed"], "unstored seed gets the structural reference")


def run_and_report(name: str, trace: bool) -> tuple[dict, str]:
    out = io.StringIO()
    run, values = measure(name, 0, 1.0, trace)
    units = dict(PER_LAYER_METRICS if trace else END_TO_END_METRICS)
    with contextlib.redirect_stdout(out):
        result = report(run, values, units)
    return result, out.getvalue()


def expected(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_untraced() -> None:
    result, text = run_and_report("interval257", trace=False)
    check(result["correct"] and result["failed"] == 0, f"untraced run is correct: {result['failed']} failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected("end_to_end"), f"untraced metrics match BENCHMARK.json: {sorted(got)}")
    check(all(m["value"] > 0 for m in result["metrics"].values()), "end-to-end metrics are positive")
    check("checks_failed 0 count" in text, "checks_failed printed with its unit")
    check("failed_runs 0.0 share" in text, "failed_runs printed with its unit")
    check("provenance " in text and '"nproc"' in text, "provenance printed")


def test_traced() -> None:
    for name in ("interval257", "gasket5_graphform"):
        first, _ = run_and_report(name, trace=True)
        second, _ = run_and_report(name, trace=True)
        check(first["correct"] and second["correct"], f"{name}: traced runs are correct")
        got = {metric: m["unit"] for metric, m in first["metrics"].items()}
        check(got == expected("per_layer"), f"{name}: traced metrics match BENCHMARK.json")
        for counter in EXACT_COUNTERS:
            a = first["metrics"][counter]["value"]
            b = second["metrics"][counter]["value"]
            check(a == b, f"{name}: {counter} repeats exactly ({a} vs {b})")
    check(first["metrics"]["graphform.heat_kernel.calls"]["value"] > 0, "heat kernel calls are counted")
    check(first["metrics"]["space.ball_ids.calls"]["value"] > 0, "ball_ids calls are counted")


def main() -> int:
    before = tree()
    test_gate()
    test_untraced()
    test_traced()
    after = tree()
    check(after == before, f"runs leave no file behind: {sorted(after ^ before)}")
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
