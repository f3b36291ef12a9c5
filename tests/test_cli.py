"""Driver contract: exit codes, bundle layout, determinism, validation."""

import inspect
import json

import pytest

import kslab
import kslab.cli as cli
import kslab.convergence as cv
import kslab.export as export
import kslab.poincare as pc
import kslab.suites as suites
from kslab.cli import main


# log 5 / log 2, the gasket's walk dimension, written out as configs give it.
GASKET_D_W = 2.321928094887362


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "space": {"kind": "interval_grid", "n": 401},
        "d_w": 2.0,
        "seed": 0,
        "suite": "doubling",
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _refused(tmp_path, capsys, config_path):
    """The message of a run that exits 2 and writes nothing."""
    out = tmp_path / "refused"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    assert not out.exists()
    return capsys.readouterr().err


class TestLoadConfig:
    """``main`` loads the config: it validates it, or refuses it with exit 2."""

    def test_normalizes_defaults(self, tmp_path):
        path = write_config(tmp_path, out=str(tmp_path / "bundle"))
        assert main(["run", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "bundle" / "summary.json").read_text())
        assert summary["config"] == {
            "space": {"kind": "interval_grid", "n": 401},
            "d_w": 2.0,
            "seed": 0,
            "suite": "doubling",
        }

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"space": {"kind": "torus"}}, "unknown cloud kind"),
            ({"space": {"kind": "gasket", "level": 99}}, "must lie in"),
            ({"space": {"kind": "interval_grid"}}, "needs key"),
            ({"seed": "zero"}, "nonnegative integer"),
            ({"seed": True}, "nonnegative integer"),
            ({"d_w": 12.0}, "must lie in"),
            ({"suite": "everything"}, "unknown suite"),
            ({"scale_grid": {"kappa": 3.0}}, "unknown config keys"),
            ({"scale_grid": {}}, "unknown config keys"),
            ({"tolerances": {"calibration_rel": 1.0}}, "unknown config keys"),
            ({"tolerances": {}}, "unknown config keys"),
            ({"typo_key": 1}, "unknown config keys"),
            ({"d_w": 1.5}, "must lie in"),
        ],
    )
    def test_rejects_bad_values(self, tmp_path, capsys, overrides, message):
        path = write_config(tmp_path, **overrides)
        assert message in _refused(tmp_path, capsys, path)

    def test_kinds_come_from_the_space_table(self):
        # One table of cloud kinds: the validator keeps no copy of its own.
        tables = [v for v in vars(cli).values() if isinstance(v, dict) and "gasket" in v]
        assert tables and all(t is kslab.space.CLOUD_KINDS for t in tables)

    def test_rejects_missing_file(self, tmp_path, capsys):
        assert "not found" in _refused(tmp_path, capsys, tmp_path / "absent.json")

    def test_rejects_broken_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert "not valid JSON" in _refused(tmp_path, capsys, path)


class TestRun:
    def test_doubling_suite_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, out=str(tmp_path / "bundle"))
        assert main(["run", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "bundle" / "summary.json").read_text())
        assert summary["all_passed"] is True
        assert summary["n_checks"] == len(summary["checks"])
        assert summary["suites"] == ["doubling"]
        doubling = next(c for c in summary["checks"] if c["name"] == "doubling")
        assert doubling["constant"] <= 2.1
        assert (tmp_path / "bundle" / "doubling.csv").is_file()

    def test_summary_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        main(["run", "--config", str(path), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(path), "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "summary.json").read_bytes()
        b = (tmp_path / "b" / "summary.json").read_bytes()
        assert a == b

    def test_tolerance_override_fails_run(self, tmp_path, monkeypatch):
        monkeypatch.setitem(suites.DEFAULT_TOLERANCES, "doubling_c_d_interval", 1.0)
        path = write_config(tmp_path, out=str(tmp_path / "bundle"))
        assert main(["run", "--config", str(path)]) == 1
        summary = json.loads((tmp_path / "bundle" / "summary.json").read_text())
        assert summary["all_passed"] is False
        assert "doubling" in summary["failed"]

    def test_malformed_config_writes_nothing(self, tmp_path, capsys):
        path = write_config(tmp_path, seed=-1, out=str(tmp_path / "bundle"))
        assert main(["run", "--config", str(path)]) == 2
        assert not (tmp_path / "bundle").exists()
        assert "error:" in capsys.readouterr().err

    def test_scale_grid_config_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        path = write_config(tmp_path, scale_grid={"ratio": 0.6}, out=str(out))
        assert main(["run", "--config", str(path)]) == 2
        assert not out.exists()
        assert "unknown config keys: ['scale_grid']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "space",
        [{"kind": "interval_grid", "n": 9}, {"kind": "square_grid", "n": 9}],
        ids=lambda space: f"{space['kind']}{space['n']}",
    )
    def test_failure_after_validation_writes_nothing(self, tmp_path, capsys, space):
        # The configs validate, then a computation raises: a fitted d_w
        # needs three scales, which interval 9 and square 9 lack even on
        # the diam/2 grid.  Suites skip what a cloud cannot support, but
        # this value has no row.
        out = tmp_path / "bundle"
        path = write_config(tmp_path, space=space, d_w="fit", suite="all", out=str(out))
        assert main(["run", "--config", str(path)]) == 2
        assert not out.exists()
        assert "error: walk-dimension fit needs at least three scales" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "space",
        [{"kind": "interval_grid", "n": n} for n in (9, 13, 17)]
        + [{"kind": "square_grid", "n": n} for n in (9, 13, 17)]
        + [{"kind": "gasket", "level": level} for level in (1, 2, 3)]
        + [{"kind": "carpet", "level": level} for level in (1, 2)],
        ids=lambda space: f"{space['kind']}{space.get('n', space.get('level'))}",
    )
    def test_coarse_cloud_writes_a_bundle(self, tmp_path, space):
        # The coarsest accepted sizes are the first rungs of a refinement
        # ladder: what they cannot support is a skipped row, not an exit 2.
        out = tmp_path / "bundle"
        path = write_config(tmp_path, space=space, suite="all", out=str(out))
        assert main(["run", "--config", str(path)]) in (0, 1)
        summary = json.loads((out / "summary.json").read_text())
        assert {c["suite"] for c in summary["checks"]} == set(summary["suites"])
        for check in summary["checks"]:
            if check["name"].endswith("_skipped"):
                assert check["passed"] is True and check["constant"] is None
                assert check["details"]["reason"]

    def test_missing_out_rejected(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--out", ""], "config key 'out' must be a nonempty string"),
            (["--seed", "-1"], "config key 'seed' must be a nonnegative integer"),
            (["--suite", "everything"], "unknown suite"),
        ],
    )
    def test_flags_are_validated_as_config_keys(
        self, tmp_path, monkeypatch, capsys, flags, message
    ):
        # An override goes through the validator of the key it replaces:
        # `--out ""` is refused like `"out": ""`, not written into the cwd.
        path = write_config(tmp_path, out=str(tmp_path / "bundle"))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(path), *flags]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
        assert message in capsys.readouterr().err

    def test_missing_seed_can_come_from_flag(self, tmp_path):
        cfg = {"space": {"kind": "interval_grid", "n": 401}, "suite": "doubling"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "bundle")
        assert main(["run", "--config", str(path), "--out", out]) == 2
        assert main(["run", "--config", str(path), "--out", out, "--seed", "4"]) == 0

    def test_inapplicable_suite_is_config_error(self, tmp_path):
        cloud_file = tmp_path / "tiny.cloud"
        cloud_file.write_text("3 euclidean\n0.0 0.3333333\n0.5 0.3333333\n1.0 0.3333334\n")
        cfg = {
            "space": {"kind": "file", "path": str(cloud_file)},
            "seed": 0,
            "suite": "graphform",
            "out": str(tmp_path / "bundle"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize("error", [ValueError, RuntimeError])
    def test_library_error_exits_three(self, tmp_path, monkeypatch, capsys, error):
        # An error a suite raises on an accepted config is not refused input.
        def broken(ctx):
            raise error("broken on purpose")

        monkeypatch.setitem(suites.SUITES, "doubling", (broken, "volume-doubling-bound"))
        out = tmp_path / "bundle"
        path = write_config(tmp_path, out=str(out))
        assert main(["run", "--config", str(path)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: suite 'doubling':") and "broken on purpose" in err

    def test_base_exceptions_pass_through(self, tmp_path, monkeypatch):
        # Only Exception is mapped to an exit code; interrupts, exits and
        # other BaseExceptions leave main as they were raised.
        class Stop(BaseException):
            pass

        def stop(ctx):
            raise Stop

        monkeypatch.setitem(suites.SUITES, "doubling", (stop, "volume-doubling-bound"))
        path = write_config(tmp_path, out=str(tmp_path / "bundle"))
        with pytest.raises(Stop):
            main(["run", "--config", str(path)])
        assert not (tmp_path / "bundle").exists()

    def test_unreadable_cloud_file_is_refused(self, tmp_path, capsys):
        cloud_file = tmp_path / "dup.cloud"
        cloud_file.write_text("2 euclidean\n0.0 0.0 0.5\n0.0 0.0 0.5\n")
        out = tmp_path / "bundle"
        path = write_config(tmp_path, space={"kind": "file", "path": str(cloud_file)}, out=str(out))
        assert main(["run", "--config", str(path)]) == 2
        assert not out.exists()
        assert "error: duplicate points" in capsys.readouterr().err

    @pytest.mark.parametrize("spacing", [1e150, 1e200])
    def test_cloud_file_whose_distances_overflow_is_refused(self, tmp_path, capsys, spacing):
        # Finite coordinates whose squared differences overflow would give
        # an infinite mesh and diameter; spacing 1e150 still fits.
        rows = "".join(f"{i * spacing!r} {j * spacing!r} 1.0\n" for i in range(6) for j in range(6))
        cloud_file = tmp_path / "far.cloud"
        cloud_file.write_text("36 euclidean\n" + rows)
        path = write_config(tmp_path, space={"kind": "file", "path": str(cloud_file)}, suite="all")
        if spacing < 1e154:
            out = tmp_path / "bundle"
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
            assert (out / "summary.json").exists()
        else:
            err = _refused(tmp_path, capsys, path)
            assert "error: coordinates too far apart: their distances overflow" in err

    def test_line_file_above_the_hull_threshold_runs(self, tmp_path):
        # 2100 points on the line x = 0 take the convex-hull route to their
        # diameter, and span no 2-D hull.
        rows = "".join(f"0.0 {k / 2099!r} {1 / 2100!r}\n" for k in range(2100))
        cloud_file = tmp_path / "line.cloud"
        cloud_file.write_text("2100 euclidean\n" + rows)
        out = tmp_path / "bundle"
        path = write_config(tmp_path, space={"kind": "file", "path": str(cloud_file)}, out=str(out))
        assert main(["run", "--config", str(path), "--suite", "doubling"]) in (0, 1)
        assert (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "mode, row", [("euclidean", "0.5 1.0"), ("abstract", "0.0 1.0")], ids=["euclidean", "abstract"]
    )
    def test_one_point_cloud_file_is_refused(self, tmp_path, capsys, mode, row):
        # A single point has diameter 0, so no scale fits in it: refused
        # input, not a library fault.
        cloud_file = tmp_path / "one.cloud"
        cloud_file.write_text(f"1 {mode}\n{row}\n")
        path = write_config(tmp_path, space={"kind": "file", "path": str(cloud_file)})
        err = _refused(tmp_path, capsys, path)
        assert "error: a cloud file needs at least two points" in err

    def test_fit_provenance_recorded(self, tmp_path):
        cfg = {
            "space": {"kind": "gasket", "level": 4},
            "d_w": "fit",
            "seed": 0,
            "suite": "doubling",
            "out": str(tmp_path / "bundle"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "bundle" / "summary.json").read_text())
        prov = summary["d_w_provenance"]
        assert prov["source"] == "fit"
        assert prov["fit_d_w"] is not None
        assert prov["eigen_d_w"] is not None
        assert isinstance(prov["agreement"], bool)
        assert summary["d_w"] == prov["value"]

    def test_fit_below_two_resolves_to_two(self, tmp_path):
        # The interval's estimates approach 2 from below; the run uses the
        # lower bound 2 and keeps the raw estimates in the provenance.
        out = tmp_path / "bundle"
        path = write_config(
            tmp_path, space={"kind": "interval_grid", "n": 257}, d_w="fit", suite="all",
            out=str(out),
        )
        assert main(["run", "--config", str(path)]) in (0, 1)
        summary = json.loads((out / "summary.json").read_text())
        prov = summary["d_w_provenance"]
        assert summary["d_w"] == prov["value"] == 2.0
        assert prov["fit_d_w"] < 2.0

    def test_fit_run_solves_each_level_once(self, tmp_path, eigh_sizes):
        path = write_config(
            tmp_path,
            space={"kind": "gasket", "level": 5},
            d_w="fit",
            suite="graphform",
            out=str(tmp_path / "bundle"),
        )
        assert main(["run", "--config", str(path)]) in (0, 1)
        # The fine level (366 vertices) for the standard fields, then the
        # coarse level (123) for the eigenvalue ratio; the suite reuses both.
        assert eigh_sizes == [366, 123]

    @pytest.mark.parametrize("d_w", [2.0, "fit"])
    def test_file_with_constant_first_coordinate_writes_a_bundle(self, tmp_path, d_w):
        # On the line x = 0 the coordinate field is constant: the standard
        # field is the distance from point 0, under every suite and a fit.
        cloud_file = tmp_path / "line.cloud"
        points = [f"0.0 {k / 19!r} {1 / 20!r}" for k in range(20)]
        cloud_file.write_text("\n".join(["20 euclidean", *points]) + "\n")
        out = tmp_path / "bundle"
        path = write_config(
            tmp_path, space={"kind": "file", "path": str(cloud_file)}, d_w=d_w, suite="all",
            out=str(out),
        )
        assert main(["run", "--config", str(path)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "sweep_dist_from_0" in {c["name"] for c in summary["checks"]}


def _record_results(monkeypatch, module, name):
    made = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(module, name, recording)
    return made


def test_bundle_tables_are_the_reports_csv(tmp_path, monkeypatch):
    """Each table `run` writes is byte-equal to its report's own table."""
    profiles = _record_results(monkeypatch, suites, "estimate_doubling")
    sweeps = _record_results(monkeypatch, suites, "energy_sweep")
    poincare = _record_results(monkeypatch, pc, "poincare_check")
    recovery = _record_results(monkeypatch, cv, "recovery_check")
    liminf = _record_results(monkeypatch, cv, "weak_liminf_probe")
    contexts = []

    class RecordingContext(suites.SuiteContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    monkeypatch.setattr(cli, "SuiteContext", RecordingContext)
    out = tmp_path / "bundle"
    path = write_config(
        tmp_path, space={"kind": "interval_grid", "n": 257}, suite="all", out=str(out)
    )
    assert main(["run", "--config", str(path)]) == 0

    reports = {
        "doubling": profiles[0],
        **{f"sweep_{s.label}": s for batch in sweeps for s in batch},
        "poincare_ks": poincare[0]["ks"],
        "spectrum_residual": contexts[0].spectrum,
        "mosco_recovery": recovery[0],
        "mosco_liminf": liminf[0],
    }
    assert len(sweeps) == 1 and len(reports) == 8
    for name, report in reports.items():
        mine = tmp_path / f"{name}.csv"
        export.write_csv(mine, *report.table())
        assert (out / f"{name}.csv").read_bytes() == mine.read_bytes(), name


def test_all_run_estimates_doubling_once(tmp_path, monkeypatch):
    """The doubling suite and the Sobolev growth exponent share one profile."""
    profiles = _record_results(monkeypatch, suites, "estimate_doubling")
    path = write_config(
        tmp_path, space={"kind": "interval_grid", "n": 257}, suite="all", out=str(tmp_path / "b")
    )
    assert main(["run", "--config", str(path)]) == 0
    assert len(profiles) == 1


class TestCheck:
    def test_single_suite_runs(self, tmp_path):
        path = write_config(tmp_path, suite="all", out=str(tmp_path / "bundle"))
        assert main(["run", "--config", str(path), "--suite", "energy"]) == 0
        summary = json.loads((tmp_path / "bundle" / "summary.json").read_text())
        assert summary["suites"] == ["energy"]


def test_one_way_out_and_fixed_bounds(tmp_path, capsys):
    """Only the driver writes files, and no config or caller moves a bound."""
    modules = [m for m in vars(kslab).values() if inspect.ismodule(m)]
    assert cli in modules and export in modules
    for mod in modules:
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for writer in ("to_csv", "to_json", "to_triplets"):
                    assert not hasattr(obj, writer), (name, writer)
        if mod not in (cli, export):
            source = inspect.getsource(mod)
            assert "write_csv" not in source and "write_json" not in source, mod.__name__
    assert "tolerances" not in inspect.signature(suites.SuiteContext).parameters

    out = tmp_path / "bundle"
    path = write_config(tmp_path, suite="energy", out=str(out))
    with pytest.raises(SystemExit) as exc:
        main(["check", "--config", str(path)])
    assert exc.value.code == 2
    path = write_config(tmp_path, tolerances={"doubling_c_d_interval": 1.0}, out=str(out))
    assert main(["run", "--config", str(path)]) == 2
    assert not out.exists()
    assert "unknown config keys: ['tolerances']" in capsys.readouterr().err


class TestRunBundles:
    def test_doubling_bundle(self, tmp_path):
        path = write_config(tmp_path, out=str(tmp_path / "s"))
        assert main(["run", "--config", str(path), "--suite", "doubling"]) == 0
        assert (tmp_path / "s" / "doubling.csv").is_file()
        summary = json.loads((tmp_path / "s" / "summary.json").read_text())
        assert summary["cloud"]["kind"] == "interval_grid" and summary["cloud"]["n"] == 401
        doubling = next(c for c in summary["checks"] if c["name"] == "doubling")
        assert doubling["constant"] <= 2.1

    def test_energy_bundle(self, tmp_path):
        path = write_config(tmp_path, out=str(tmp_path / "s"))
        assert main(["run", "--config", str(path), "--suite", "energy"]) == 0
        for label in ("x", "x_squared", "sin_pi_x"):
            assert (tmp_path / "s" / f"sweep_{label}.csv").is_file()

    def test_square_61_writes_the_planar_calibration(self, tmp_path):
        # Square 61 is the coarsest square whose floor kappa h resolves the
        # calibration radius 0.05 (r = 3h, the floor itself); coarser
        # squares fall back to sweep_finite.
        out = tmp_path / "s"
        path = write_config(tmp_path, space={"kind": "square_grid", "n": 61}, out=str(out))
        assert main(["run", "--config", str(path), "--suite", "energy"]) == 0
        row = json.loads((out / "summary.json").read_text())["checks"][0]
        assert (row["name"], row["claim"], row["passed"]) == (
            "energy_calibration_2d", "planar-increment-calibration", True
        )
        assert row["constant"] == pytest.approx(0.24007895094702103, rel=1e-12)
        assert row["details"] == {"target": 0.25, "rel_error": pytest.approx(0.0396841962119159)}

    def test_summary_names_the_cloud(self, tmp_path):
        # The lattice kind comes from the kind table; a distance-matrix file
        # is an abstract cloud.
        out = tmp_path / "carpet"
        path = write_config(tmp_path, space={"kind": "carpet", "level": 3}, out=str(out))
        assert main(["run", "--config", str(path)]) == 0
        cloud = json.loads((out / "summary.json").read_text())["cloud"]
        assert cloud["kind"] == "carpet" and cloud["abstract"] is False
        assert set(cloud) == {"kind", "n", "mesh", "total_mass", "abstract"}
        line = [0.0, 0.25, 0.5, 0.75, 1.0]
        rows = [" ".join(repr(abs(a - b)) for b in line) + " 0.2" for a in line]
        cloud_file = tmp_path / "line.cloud"
        cloud_file.write_text("\n".join(["5 abstract", *rows]) + "\n")
        out = tmp_path / "file"
        path = write_config(tmp_path, space={"kind": "file", "path": str(cloud_file)}, out=str(out))
        assert main(["run", "--config", str(path)]) in (0, 1)
        cloud = json.loads((out / "summary.json").read_text())["cloud"]
        assert cloud["abstract"] is True and cloud["n"] == 5

    @pytest.mark.parametrize("command", ["space", "sweep"])
    def test_removed_commands_are_usage_errors(self, tmp_path, command):
        path = write_config(tmp_path, out=str(tmp_path / "s"))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path)])
        assert exc.value.code == 2
        assert not (tmp_path / "s").exists()


class TestReport:
    def test_prints_one_row_per_check(self, tmp_path, capsys):
        path = write_config(tmp_path, out=str(tmp_path / "bundle"))
        main(["run", "--config", str(path)])
        capsys.readouterr()
        assert main(["report", str(tmp_path / "bundle")]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        summary = json.loads((tmp_path / "bundle" / "summary.json").read_text())
        assert len(out) == summary["n_checks"] + 1
        assert all(line.startswith(("PASS", "FAIL")) for line in out[:-1])
        assert "all passed" in out[-1]

    def test_missing_bundle_exits_two(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nothing")]) == 2
        assert "no summary.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            "{not json",
            "[]",
            '{"checks": [{"name": "x"}]}',
            "{}",
            '{"checks": [{"name": "x", "claim": "y", "passed": "no"}], "all_passed": true}',
            '{"checks": [{"name": "x", "claim": "y", "passed": true}]}',
            '{"checks": [{"name": 1, "claim": "y", "passed": true}], "all_passed": true}',
            '{"checks": {}, "all_passed": true}',
            '{"checks": [{"name": "x", "claim": "y", "passed": false}], "all_passed": true}',
        ],
    )
    def test_corrupt_summary_exits_two(self, tmp_path, capsys, payload):
        (tmp_path / "summary.json").write_text(payload)
        assert main(["report", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "error: corrupt summary.json" in captured.err and captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "space",
    [
        {"kind": "carpet", "level": 3},
        {"kind": "interval_grid", "n": 257},
        {"kind": "gasket", "level": 4},
    ],
)
def test_every_pair_query_is_a_ball_chunks_pass(tmp_path, monkeypatch, space):
    # One ball engine: every tree query of a whole run, pair or ball, is
    # made by MeasuredPointCloud.ball_chunks itself, not by a private side
    # door; single balls mask their centre's distance row instead.
    # Grid clouds read their balls off the lattice and build no tree at all.
    # kslab imports the tree class where it builds one, so the recording
    # class stands in for it on scipy.spatial.
    import sys

    import scipy.spatial

    import kslab.space

    engine = kslab.space.MeasuredPointCloud.ball_chunks.__code__
    built, callers, ball_queries = [], [], []

    class RecordingTree(scipy.spatial.cKDTree):
        def __init__(self, *args, **kwargs):
            built.append(sys._getframe(1).f_code)
            super().__init__(*args, **kwargs)

        def sparse_distance_matrix(self, *args, **kwargs):
            callers.append(sys._getframe(1).f_code)
            return super().sparse_distance_matrix(*args, **kwargs)

        def query_ball_point(self, *args, **kwargs):
            ball_queries.append(sys._getframe(1).f_code)
            return super().query_ball_point(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", RecordingTree)
    path = write_config(tmp_path, space=space, suite="all", out=str(tmp_path / "bundle"))
    assert main(["run", "--config", str(path)]) in (0, 1)
    if space["kind"] in ("carpet", "interval_grid"):
        assert built == [] and callers == [] and ball_queries == []
    else:
        assert built and callers and ball_queries
        for codes in (callers, ball_queries):
            assert all(code is engine for code in codes), {code.co_name for code in codes}


def test_gasket_graphform_builds_each_graph_once(tmp_path, monkeypatch):
    # Levels 7 and 6 each build their graph once, shared by the cloud and
    # its form; the harmonic field's subdivision is graphform's own call.
    import kslab.space

    levels = []
    real = kslab.space._gasket_subdivision

    def counting(level, *args):
        levels.append(level)
        return real(level, *args)

    monkeypatch.setattr(kslab.space, "_gasket_subdivision", counting)
    kslab.space.gasket_graph.cache_clear()
    path = write_config(
        tmp_path, space={"kind": "gasket", "level": 7}, d_w=GASKET_D_W, suite="graphform",
        out=str(tmp_path / "bundle"),
    )
    assert main(["run", "--config", str(path)]) in (0, 1)
    assert sorted(levels) == [6, 7]


def test_lattice_runs_load_no_scipy(tmp_path):
    # scipy is imported only where a route calls it: the KD-tree, the hull
    # and the graph forms.  A fresh process shows what a run loads.  A gasket
    # graphform run then loads the forms' solvers but builds no KD-tree, so
    # no scipy.spatial module.  The gasket run at the end takes every route
    # and must still write the bundle this process writes.
    import os
    import subprocess
    import sys
    from pathlib import Path

    runs = [({"kind": "carpet", "level": 3}, "all")] + [
        ({"kind": "interval_grid", "n": 257}, suite)
        for suite in ("doubling", "energy", "smoothing", "poincare")
    ]
    form = write_config(
        tmp_path, "form.json", space={"kind": "gasket", "level": 5}, d_w=GASKET_D_W, suite="graphform"
    )
    gasket = write_config(tmp_path, "gasket.json", space={"kind": "gasket", "level": 4}, suite="all")
    configs = [
        str(write_config(tmp_path, f"lattice{k}.json", space=space, suite=suite))
        for k, (space, suite) in enumerate(runs)
    ]
    script = """
import json, sys
from kslab.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
for k, path in enumerate(sys.argv[1:-3]):
    assert main(["run", "--config", path, "--out", f"{sys.argv[-1]}/lattice{k}"]) in (0, 1)
    loaded[path] = scipy_modules()
assert main(["run", "--config", sys.argv[-3], "--out", f"{sys.argv[-1]}/form"]) in (0, 1)
loaded["form"] = scipy_modules()
assert main(["run", "--config", sys.argv[-2], "--out", f"{sys.argv[-1]}/gasket"]) in (0, 1)
print(json.dumps(loaded))
"""
    src = str(Path(kslab.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script, *configs, str(form), str(gasket), str(tmp_path / "child")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    loaded = json.loads(done.stdout.splitlines()[-1])
    form_modules = loaded.pop("form")
    assert loaded == {"import": [], **{path: [] for path in configs}}
    assert form_modules and not [m for m in form_modules if m.startswith("scipy.spatial")]
    assert main(["run", "--config", str(gasket), "--out", str(tmp_path / "here")]) in (0, 1)
    child, here = tmp_path / "child" / "gasket", tmp_path / "here"
    names = sorted(p.name for p in here.iterdir())
    assert names and sorted(p.name for p in child.iterdir()) == names
    for name in names:
        assert (child / name).read_bytes() == (here / name).read_bytes(), name
