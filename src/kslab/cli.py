"""Experiment driver: ``run`` writes a check bundle, ``report`` prints one.

The single JSON config file is the audit trail: every run echoes it into the
summary beside what the cloud was, and identical config plus identical seed
gives a byte-identical bundle.  This is the only module that writes files:
reports hand it their rows through ``table()``.  Exit codes: 0 all selected
checks pass, 1 at least one check fails, 2 the input is refused, 3 any
other error (named after the suite that raised it, if any).  Refused input
is an invalid config or invocation, a cloud file the builder rejects, an OS
error, a cloud too coarse for a fitted d_w (``Inapplicable``: fewer than
three scales), or a summary.json without a valid check table for
``report``.  With a numeric d_w, ``run`` turns a too-coarse cloud into
skipped rows (``suites.run_suite``).  Every artifact is computed first, so
exits 2 and 3 write nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .export import write_csv, write_json
from .space import CLOUD_KINDS, Inapplicable, build_cloud
from .suites import SUITES, SuiteContext, applicable_suites, run_suite

__all__ = ["main", "ConfigError"]

SUITE_NAMES = tuple(SUITES) + ("all",)


class ConfigError(Exception):
    """Invalid configuration; the driver exits 2 without writing output."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_space(space) -> dict:
    _require(isinstance(space, dict), "config key 'space' must be an object")
    kind = space.get("kind")
    _require(kind in CLOUD_KINDS, f"unknown cloud kind {kind!r}")
    _, schema = CLOUD_KINDS[kind]
    out = {"kind": kind}
    for key, (typ, lo, hi) in schema.items():
        _require(key in space, f"space kind {kind!r} needs key {key!r}")
        value = space[key]
        if typ is int:
            _require(
                isinstance(value, int) and not isinstance(value, bool),
                f"space.{key} must be an integer",
            )
            _require(lo <= value <= hi, f"space.{key} must lie in [{lo}, {hi}]")
        else:
            _require(isinstance(value, str) and value, f"space.{key} must be a nonempty string")
        out[key] = value
    extra = set(space) - set(schema) - {"kind"}
    _require(not extra, f"unknown space keys: {sorted(extra)}")
    return out


def _read_config(path: str | Path) -> dict:
    """The config file's JSON object, not yet validated."""
    p = Path(path)
    _require(p.is_file(), f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config root must be a JSON object")
    return raw


def _checked_config(raw: dict) -> dict:
    """Validate and normalize a config object.

    Raises ConfigError for anything out of contract: unknown keys,
    parameters outside their documented ranges.
    """
    known = {"space", "d_w", "seed", "suite", "out"}
    extra = set(raw) - known
    _require(not extra, f"unknown config keys: {sorted(extra)}")
    _require("space" in raw, "config needs a 'space' object")

    cfg: dict = {"space": _check_space(raw["space"])}

    d_w = raw.get("d_w", 2.0)
    if d_w != "fit":
        _require(
            isinstance(d_w, (int, float)) and not isinstance(d_w, bool),
            "config key 'd_w' must be a number or the string \"fit\"",
        )
        _require(2.0 <= float(d_w) < 6.0, "config key 'd_w' must lie in [2, 6)")
        d_w = float(d_w)
    cfg["d_w"] = d_w

    if "seed" in raw:
        seed = raw["seed"]
        _require(
            isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
            "config key 'seed' must be a nonnegative integer",
        )
        cfg["seed"] = seed

    suite = raw.get("suite", "all")
    _require(suite in SUITE_NAMES, f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    cfg["suite"] = suite

    if "out" in raw:
        _require(
            isinstance(raw["out"], str) and raw["out"], "config key 'out' must be a nonempty string"
        )
        cfg["out"] = raw["out"]
    return cfg


def _command_config(args: argparse.Namespace) -> dict:
    """The config file with the ``--seed``, ``--suite`` and ``--out``
    overrides applied, validated as one config; seed and out are required."""
    raw = _read_config(args.config)
    for key in ("seed", "suite", "out"):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    cfg = _checked_config(raw)
    _require("seed" in cfg, "seed is mandatory: set it in the config or pass --seed")
    _require("out" in cfg, "output directory is mandatory: set 'out' in the config or pass --out")
    return cfg


def _select_suites(cfg: dict, cloud) -> list[str]:
    names = applicable_suites(cloud)
    if cfg["suite"] == "all":
        return names
    _require(
        cfg["suite"] in names,
        f"suite {cfg['suite']!r} does not apply to cloud kind "
        f"{cloud.kind!r} (applicable: {names})",
    )
    return [cfg["suite"]]


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _command_config(args)
    try:
        cloud = build_cloud(cfg["space"])
    except ValueError as exc:  # the builders' word for a cloud file they refuse
        raise ConfigError(str(exc)) from exc
    # d_w is resolved on the run's own context, so a fit's forms and solves
    # serve the suites as well.
    ctx = SuiteContext(cloud, cfg["d_w"], cfg["seed"])
    selected = _select_suites(cfg, cloud)

    checks = []
    failed = []
    tables = {}
    for suite_name in selected:
        try:
            results = run_suite(suite_name, ctx)
        except Exception as exc:
            raise RuntimeError(f"suite {suite_name!r}: {type(exc).__name__}: {exc}") from exc
        for result in results:
            row = result.row()
            row["suite"] = suite_name
            checks.append(row)
            if not result.passed:
                failed.append(result.name)
            if result.table is not None:
                tables[f"{result.name}.csv"] = result.table

    summary = {
        "config": {k: v for k, v in cfg.items() if k != "out"},
        "d_w": ctx.d_w,
        "d_w_provenance": ctx.dw_info,
        "cloud": {
            "kind": cloud.kind,
            "n": cloud.n,
            "mesh": cloud.mesh,
            "total_mass": cloud.total_mass,
            "abstract": cloud.is_abstract,
        },
        "all_passed": not failed,
        "checks": checks,
        "failed": sorted(failed),
        "n_checks": len(checks),
        "suites": selected,
    }
    # Everything is computed before the directory is made, so a run that
    # exits 2 or 3 leaves nothing on disk.
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        write_csv(out / name, header, rows)
    write_json(out / "summary.json", summary)
    print(f"{len(checks)} checks, {len(failed)} failed -> {out / 'summary.json'}")
    return 1 if failed else 0


def cmd_report(args: argparse.Namespace) -> int:
    bundle = Path(args.bundle)
    summary_path = bundle / "summary.json"
    _require(summary_path.is_file(), f"no summary.json under {bundle}")
    try:
        summary = json.loads(summary_path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"corrupt summary.json: {exc}") from exc
    checks = summary.get("checks") if isinstance(summary, dict) else None
    _require(
        isinstance(checks, list)
        and isinstance(summary.get("all_passed"), bool)
        and all(
            isinstance(c, dict)
            and isinstance(c.get("name"), str)
            and isinstance(c.get("claim"), str)
            and isinstance(c.get("passed"), bool)
            for c in checks
        ),
        "corrupt summary.json: no check table of string names and claims,"
        " boolean verdicts and a boolean all_passed",
    )
    _require(
        summary["all_passed"] == all(c["passed"] for c in checks),
        "corrupt summary.json: all_passed contradicts the check verdicts",
    )
    rows = [
        ("PASS" if c["passed"] else "FAIL", c["name"], c["claim"], c.get("constant"))
        for c in checks
    ]
    name_w = max([len(r[1]) for r in rows] + [5])
    claim_w = max([len(r[2]) for r in rows] + [5])
    for flag, name, claim, constant in rows:
        shown = f"{constant:.6g}" if isinstance(constant, (int, float)) else "-"
        print(f"{flag}  {name:<{name_w}}  {claim:<{claim_w}}  {shown}")
    verdict = "all passed" if summary["all_passed"] else "FAILURES PRESENT"
    print(f"{len(rows)} checks: {verdict} (d_w = {summary.get('d_w')})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kslab",
        description="Multiscale energy diagnostics on measured point clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured suites and write a bundle")
    p_run.add_argument("--config", required=True, help="path to the JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.add_argument("--suite", default=None, help="suite selection override")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="print the table for an existing bundle")
    p_report.add_argument("bundle", help="bundle directory containing summary.json")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # not BaseException: interrupts and exits pass through
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, OSError, Inapplicable)) else 3


if __name__ == "__main__":
    sys.exit(main())
