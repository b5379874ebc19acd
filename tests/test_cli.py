"""CLI smoke tests: every subcommand runs and reports sanely."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--models", "not_a_model"])

    def test_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.molecule == "water"
        assert args.machine == "commodity"
        assert args.jobs == 1
        assert args.no_cache is False
        assert args.cache_dir is None

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["study", "--jobs", "4", "--no-cache", "--progress"]
        )
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.progress is True


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "execution models" in out
        assert "work_stealing" in out

    def test_workload(self, capsys):
        assert main(["workload", "--size", "1", "--block-size", "3"]) == 0
        out = capsys.readouterr().out
        assert "tasks" in out
        assert "gini" in out

    def test_study(self, capsys, tmp_path):
        code = main(
            [
                "study", "--size", "1", "--block-size", "3",
                "--ranks", "4", "--models", "static_block", "work_stealing",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan_ms" in out
        assert "work_stealing" in out
        assert "cache: 0/2" in out

    def test_study_warm_cache(self, capsys, tmp_path):
        argv = [
            "study", "--size", "1", "--block-size", "3",
            "--ranks", "4", "--models", "static_block",
            "--cache-dir", str(tmp_path), "--progress",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache: 1/1" in warm
        assert "cached" in warm

        def table(text):
            lines = text.splitlines()
            start = lines.index("study results")
            return lines[start:start + 4]

        # Cached rows render identically to freshly computed ones.
        assert table(cold) == table(warm)

    def test_study_no_cache(self, capsys, tmp_path):
        code = main(
            [
                "study", "--size", "1", "--block-size", "3",
                "--ranks", "4", "--models", "static_block",
                "--no-cache", "--jobs", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan_ms" in out
        assert "cache:" not in out

    def test_scf_serial(self, capsys):
        assert main(["scf", "--size", "1", "--block-size", "3"]) == 0
        assert "converged" in capsys.readouterr().out

    def test_scf_parallel(self, capsys):
        code = main(["scf", "--size", "1", "--block-size", "3", "--workers", "2"])
        assert code == 0

    def test_validate(self, capsys):
        code = main(
            ["validate", "--size", "1", "--block-size", "3", "--ranks", "4"]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_alkane_workload(self, capsys):
        assert main(["workload", "--molecule", "alkane", "--size", "3"]) == 0


class TestFaultToleranceFlags:
    def test_fault_flag_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.timeout is None
        assert args.max_attempts is None

    def test_resume_is_an_argparse_error(self, capsys):
        # The cache is the only checkpoint: a plain rerun resumes.
        for extra in ([], ["--no-cache"]):
            with pytest.raises(SystemExit) as exc:
                main(["study", "--size", "1", "--ranks", "4", *extra, "--resume"])
            assert exc.value.code == 2
            assert "--resume" in capsys.readouterr().err

    def test_cached_rerun_reports_every_cell_cached(self, capsys, tmp_path):
        argv = [
            "study", "--size", "1", "--block-size", "3",
            "--ranks", "4", "--models", "static_block", "work_stealing",
            "--cache-dir", str(tmp_path), "--progress",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        statuses = [line.split()[1] for line in out.splitlines() if line.startswith("[")]
        assert statuses == ["cached", "cached"]  # one progress line per cell
        assert "cache: 2/2" in out
        assert not (tmp_path / "journal").exists()

    def test_quarantine_renders_and_exits_nonzero(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.core.sweep as sweep_mod

        execute_cell = sweep_mod.execute_cell

        def fail_work_stealing(cell):
            if cell.model == "work_stealing":
                raise RuntimeError("injected CLI failure")
            return execute_cell(cell)

        monkeypatch.setattr(sweep_mod, "execute_cell", fail_work_stealing)
        code = main(
            ["study", "--size", "1", "--block-size", "3",
             "--ranks", "4", "--models", "static_block", "work_stealing",
             "--cache-dir", str(tmp_path), "--max-attempts", "1"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "quarantined cells" in captured.out
        assert "work_stealing@P=4" in captured.out
        assert "static_block@P=4" not in captured.out  # it ran, not quarantined
        assert "static_block" in captured.out  # partial results still shown
        assert "partial" in captured.err

    def test_chaos_parser_defaults(self):
        args = build_parser().parse_args(["chaos", "--quick"])
        assert args.quick is True
        assert args.jobs == 3
        assert args.timeout == 2.0
        assert args.workdir is None
        assert args.only == []
        assert sorted(vars(args)) == [
            "command", "func", "jobs", "only", "quick", "seed", "timeout", "workdir",
        ]

    def test_chaos_only_selects_suites_and_scenarios(self):
        from repro.chaos.harness import select

        args = build_parser().parse_args(
            ["chaos", "--only", "service", "--only", "remote_sigkill"]
        )
        rows = select(args.only)
        assert len(rows) == 7
        assert rows[0].key == "remote_sigkill"  # table order, not argument order
        assert {row.suite for row in rows[1:]} == {"service"}

    def test_chaos_only_rejects_unknown_names(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["chaos", "--only", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'nope'" in err
        assert "'distributed'" in err and "'drain_restart'" in err

    @pytest.mark.parametrize("flag", ["--distributed", "--service"])
    def test_chaos_suite_flags_are_gone(self, flag):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["chaos", "--quick", flag])
        assert exc.value.code == 2

    def test_parser_does_not_import_chaos(self):
        import subprocess
        import sys

        code = (
            "import sys; from repro.__main__ import build_parser; "
            "build_parser().parse_args(['info']); "
            "sys.exit('repro.chaos' in sys.modules)"
        )
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0
