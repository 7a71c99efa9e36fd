"""The command-line interface."""

import json
import pathlib
import re

import pytest

import repro.cli
from repro.cli import COMMANDS, build_parser, main
from repro.exp.grid import GRIDS


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_global_options(self):
        args = build_parser().parse_args(
            ["--processors", "3", "--threshold", "2", "--quick", "table3"]
        )
        assert args.processors == 3
        assert args.threshold == 2
        assert args.quick

    def test_all_commands_parse(self):
        parser = build_parser()
        for command in (
            "table3",
            "table4",
            "tables12",
            "figures",
            "latency",
            "alpha",
            "sweep",
            "false-sharing",
            "optimal",
            "all",
        ):
            args = parser.parse_args([command])
            assert callable(args.func)

    def test_global_options_accepted_after_the_command(self):
        args = build_parser().parse_args(
            ["table3", "--quick", "--processors", "3", "--json", "o.jsonl"]
        )
        assert args.quick
        assert args.processors == 3
        assert args.json == "o.jsonl"

    def test_metrics_command_options(self):
        args = build_parser().parse_args(
            ["metrics", "parmult", "--quick", "--sample-interval", "8"]
        )
        assert args.workload == "parmult"
        assert args.sample_interval == 8


class TestCommandTable:
    """The contract of ``COMMANDS``: the parser and the docs follow it."""

    def test_names_are_unique_and_every_command_documents_itself(self):
        names = [command.name for command in COMMANDS]
        assert len(set(names)) == len(names)
        for command in COMMANDS:
            assert (command.run.__doc__ or "").strip(), command.name

    @pytest.mark.parametrize(
        "command", COMMANDS, ids=[command.name for command in COMMANDS]
    )
    def test_every_command_parses_and_prints_help(self, command, capsys):
        # One placeholder per required positional, from the table itself.
        minimal = [
            argument.kwargs.get("choices", ("x",))[0]
            for argument in command.args
            if not argument.flags[0].startswith("-")
            and "nargs" not in argument.kwargs
        ]
        parser = build_parser()
        assert parser.parse_args([command.name, *minimal]).func is command.run
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args([command.name, *minimal, "--help"])
        assert exit_.value.code == 0
        assert f"usage: repro-numa {command.name}" in capsys.readouterr().out

    def test_grid_choices_are_the_grid_registry(self):
        (batch,) = [c for c in COMMANDS if c.name == "batch"]
        (grid,) = [a for a in batch.args if a.flags == ("--grid",)]
        assert grid.kwargs["choices"] == tuple(GRIDS)

    def test_the_readme_lists_exactly_the_command_table(self):
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split(
            "## Running experiments"
        )[1].split("\n## ")[0]
        listed = re.findall(r"^\| `([a-z0-9-]+)` \|", section, re.MULTILINE)
        assert listed == [command.name for command in COMMANDS]

    def test_the_usage_docstring_names_only_real_commands(self):
        # The docstring is the root ``--help`` text; it may abbreviate
        # the table but must not drift from it.
        used = set(
            re.findall(r"^    repro-numa ([a-z0-9-]+)", repro.cli.__doc__,
                       re.MULTILINE)
        )
        assert used and used <= {command.name for command in COMMANDS}


class TestCommands:
    def test_tables12(self, capsys):
        assert main(["tables12"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out
        assert "sync&flush other" in out

    def test_figures(self, capsys):
        assert main(["--processors", "4", "figures"]) == 0
        out = capsys.readouterr().out
        assert "pmap manager" in out
        assert "4 processor modules" in out

    def test_latency(self, capsys):
        assert main(["latency"]) == 0
        out = capsys.readouterr().out
        assert "0.65" in out and "2.3" in out

    def test_quick_table3(self, capsys):
        assert main(["--quick", "--processors", "3", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "IMatMult" in out and "PlyTrace" in out

    def test_quick_table4(self, capsys):
        assert main(["--quick", "--processors", "3", "table4"]) == 0
        out = capsys.readouterr().out
        assert "ΔS" in out

    def test_quick_sweep_single_app(self, capsys):
        assert (
            main(
                [
                    "--quick",
                    "--processors",
                    "2",
                    "sweep",
                    "--apps",
                    "IMatMult",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "threshold sweep" in out


class TestMetricsCommand:
    def test_metrics_prints_summary(self, capsys):
        assert main(["metrics", "parmult", "--quick", "--processors", "3"]) == 0
        out = capsys.readouterr().out
        assert "workload=ParMult" in out
        assert "time series:" in out
        assert "fault_latency_us" in out
        assert "phase profile" in out

    def test_metrics_unknown_workload_fails_loudly(self, capsys):
        # A bad name exits 2 with a tidy one-line message, no traceback.
        assert main(["metrics", "nosuch", "--quick"]) == 2
        err = capsys.readouterr().err
        assert "nosuch" in err
        assert "choose from" in err

    def exported(self, tmp_path, *extra):
        path = tmp_path / "out.jsonl"
        argv = ["metrics", "parmult", "--quick", *extra, "--json", str(path)]
        assert main(argv) == 0
        return [json.loads(line) for line in path.read_text().splitlines()]

    def test_metrics_json_export(self, tmp_path, capsys):
        records = self.exported(tmp_path, "--processors", "3")
        kinds = {record["t"] for record in records}
        # The acceptance contract: time series + histograms + profile.
        assert {"meta", "sample", "counter", "histogram", "phase"} <= kinds
        meta = records[0]
        assert meta["workload"] == "ParMult"
        samples = [r for r in records if r["t"] == "sample"]
        assert samples[-1]["round"] == meta["rounds"] - 1

    def test_metrics_exports_a_time_series_on_the_default_machine(
        self, tmp_path, capsys
    ):
        """Was CI's "CLI smoke — telemetry time series" step."""
        records = self.exported(tmp_path)
        kinds = {record["t"] for record in records}
        assert {"meta", "sample", "counter", "histogram", "phase"} <= kinds
        assert any(record["t"] == "sample" for record in records)


class TestJsonFlag:
    def test_table3_json_rows(self, tmp_path, capsys):
        path = tmp_path / "t3.jsonl"
        assert (
            main(
                ["--quick", "--processors", "3", "table3", "--json", str(path)]
            )
            == 0
        )
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len(records) == 8  # one row per Table 3 application
        assert all(r["t"] == "evaluation_row" for r in records)
        by_app = {r["application"]: r for r in records}
        assert "ParMult" in by_app and "PlyTrace" in by_app
        row = by_app["IMatMult"]
        assert row["t_numa_s"] > 0
        assert "moves" in row["stats"]

    def test_latency_json(self, tmp_path, capsys):
        path = tmp_path / "lat.jsonl"
        assert main(["latency", "--json", str(path)]) == 0
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert all(r["t"] == "latency" for r in records)
        assert any(r["paper"] == 0.65 for r in records)

    def test_unstructured_command_writes_marker(self, tmp_path, capsys):
        path = tmp_path / "t12.jsonl"
        assert main(["tables12", "--json", str(path)]) == 0
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records == [{"t": "meta", "command": "tables12"}]

    def test_no_json_flag_writes_nothing(self, tmp_path, capsys):
        assert main(["latency"]) == 0
        assert list(tmp_path.iterdir()) == []


class TestCheckCommands:
    def test_lint_command_exits_clean_on_this_repo(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_lint_command_flags_a_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(items=[]):\n    pass\n")
        assert main(["lint", str(bad)]) == 1
        assert "RN004" in capsys.readouterr().out

    def test_lint_json_records(self, tmp_path, capsys):
        path = tmp_path / "lint.jsonl"
        assert main(["lint", "--json", str(path)]) == 0
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records[-1]["t"] == "lint_summary"
        assert records[-1]["violations"] == 0

    def test_modelcheck_command_verifies_the_tables(self, capsys):
        assert main(["modelcheck"]) == 0
        out = capsys.readouterr().out
        assert "VERDICT: OK" in out
        assert "16" in out

    def test_modelcheck_json_records(self, tmp_path, capsys):
        path = tmp_path / "mc.jsonl"
        assert main(["modelcheck", "--json", str(path)]) == 0
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records[-1]["t"] == "modelcheck_summary"
        assert records[-1]["ok"] is True

    def test_races_static_exits_clean_on_this_repo(self, capsys):
        assert main(["races", "--static"]) == 0
        out = capsys.readouterr().out
        assert "guard inference" in out
        assert "no unguarded sites" in out
        assert "races: OK" in out

    def test_races_full_pass_catches_both_fixtures(self, capsys):
        assert (
            main(
                [
                    "races",
                    "--quick",
                    "--processors",
                    "4",
                    "--profiles",
                    "none",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "dynamic: ParMult/none seed=0: 0 race(s)" in out
        assert "fixture unguarded-directory-write: caught" in out
        assert "fixture missed-shootdown: caught" in out

    def test_races_json_records(self, tmp_path, capsys):
        path = tmp_path / "races.jsonl"
        assert main(["races", "--static", "--json", str(path)]) == 0
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records[-1] == {"t": "race_check_summary", "ok": True}
        assert any(r["t"] == "guard_summary" for r in records)

    def test_lint_format_json_prints_records(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines]
        assert records[-1]["t"] == "lint_summary"

    def test_lint_format_table_prints_markdown(self, capsys):
        assert main(["lint", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| ")
        assert "lint_summary" in out

    def test_modelcheck_format_table(self, capsys):
        assert main(["modelcheck", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "|---|" in out
        assert "modelcheck_summary" in out

    def test_unknown_workload_is_a_tidy_exit(self, capsys):
        # Exercise several commands' workload lookups, not just metrics.
        for argv in (
            ["sweep", "--quick", "--apps", "NoSuchApp"],
            ["speedup", "--quick", "--apps", "NoSuchApp"],
            ["mix", "--quick", "--apps", "NoSuchApp", "ParMult"],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "NoSuchApp" in err
            assert "Traceback" not in err


class TestChaosCommand:
    def test_chaos_parses_profile_and_seed(self):
        args = build_parser().parse_args(
            ["chaos", "parmult", "--profile", "frame-loss", "--seed", "9"]
        )
        assert args.workload == "parmult"
        assert args.profile == "frame-loss"
        assert args.seed == 9
        assert callable(args.func)

    def test_quick_chaos_prints_a_recovery_report(self, capsys):
        argv = [
            "--quick",
            "--processors",
            "4",
            "chaos",
            "parmult",
            "--profile",
            "transient",
            "--seed",
            "7",
        ]
        assert main(argv) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["profile"] == "transient"
        assert decoded["seed"] == 7
        assert decoded["sanitized"] is True

    def test_chaos_output_is_byte_identical_for_a_seed(self, capsys):
        argv = [
            "--quick",
            "--processors",
            "4",
            "chaos",
            "parmult",
            "--profile",
            "storm",
            "--seed",
            "11",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_chaos_json_sink_gets_the_report(self, tmp_path, capsys):
        path = tmp_path / "chaos.jsonl"
        argv = [
            "--quick",
            "--processors",
            "4",
            "chaos",
            "parmult",
            "--profile",
            "none",
            "--json",
            str(path),
        ]
        assert main(argv) == 0
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records[-1]["t"] == "chaos_report"
        assert records[-1]["profile"] == "none"

    def test_unknown_profile_is_a_tidy_exit(self, capsys):
        assert main(["--quick", "chaos", "parmult", "--profile", "x"]) == 2
        err = capsys.readouterr().err
        assert "unknown fault profile" in err
        assert "Traceback" not in err


class TestTopologyCli:
    def test_topologies_lists_the_registry(self, capsys):
        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        for name in ("ace", "2socket8", "4socket32"):
            assert name in out

    def test_topologies_json_records(self, tmp_path, capsys):
        path = tmp_path / "topo.jsonl"
        assert main(["topologies", "--json", str(path)]) == 0
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        rows = [r for r in records if r["t"] == "topology"]
        assert [r["name"] for r in rows] == ["ace", "2socket8", "4socket32"]
        assert rows[2]["multilevel"] is True
        assert rows[2]["cpus"] == 32

    def test_unknown_machine_is_a_usage_error(self, capsys):
        assert main(["modelcheck", "--machine", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown machine" in err
        assert "Traceback" not in err

    def test_modelcheck_runs_the_multilevel_layer(self, capsys):
        assert main(["modelcheck", "--machine", "2socket8"]) == 0
        out = capsys.readouterr().out
        assert "reachable multi-level configurations" in out
        assert "VERDICT: OK" in out

    def test_modelcheck_on_the_largest_machine(self, capsys):
        assert main(["modelcheck", "--machine", "4socket32"]) == 0
        assert "VERDICT: OK" in capsys.readouterr().out

    def test_races_static_on_a_multilevel_machine(self, capsys):
        assert main(["races", "--static", "--machine", "2socket8"]) == 0
        assert "races: OK" in capsys.readouterr().out

    def test_modelcheck_default_stays_flat(self, capsys):
        assert main(["modelcheck"]) == 0
        out = capsys.readouterr().out
        assert "reachable multi-level configurations" not in out

    def test_chaos_on_a_multilevel_machine(self, tmp_path, capsys):
        path = tmp_path / "chaos.jsonl"
        argv = [
            "--quick",
            "--machine",
            "2socket8",
            "chaos",
            "parmult",
            "--profile",
            "none",
            "--json",
            str(path),
        ]
        assert main(argv) == 0
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records[-1]["t"] == "chaos_report"
        assert records[-1]["n_processors"] == 8


class TestPoliciesCommand:
    def test_policies_parses(self):
        args = build_parser().parse_args(["policies", "--format", "json"])
        assert args.format == "json"
        assert callable(args.func)

    def test_policies_lists_the_registry(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in (
            "move-threshold", "adaptive-threshold",
            "bandwidth-aware", "bandit",
        ):
            assert name in out

    def test_policies_json_rows(self, capsys):
        assert main(["policies", "--format", "json"]) == 0
        rows = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip().startswith("{")
        ]
        by_name = {row["name"]: row for row in rows}
        assert "seed:int=0" in by_name["bandit"]["params"]
        assert by_name["all-global"]["params"] == ""
