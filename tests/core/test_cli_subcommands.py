"""The top-level CLI grammar: real subparsers for every command.

Pre-fix the trace/faults/bench tools were dispatched by hand off
``argv[0]``, so ``repro --help`` never mentioned them and their flags
were invisible to the top parser.  These tests pin the new contract:
the tools are listed, ``repro <tool> --help`` reaches the tool's own
parser, and every historical invocation shape keeps working.
"""

import pytest

from repro.cli import build_parser, main


def _help_text(capsys, argv) -> str:
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 0
    return capsys.readouterr().out


class TestTopLevelHelp:
    def test_lists_every_tool_subcommand(self, capsys):
        out = _help_text(capsys, ["--help"])
        for tool in ("trace", "faults", "bench"):
            assert tool in out, tool
        assert "all" in out

    def test_lists_artefact_subcommands(self, capsys):
        out = _help_text(capsys, ["--help"])
        for name in ("table1", "fig3", "headline", "compare"):
            assert name in out, name

    def test_no_command_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2


class TestToolDelegation:
    @pytest.mark.parametrize("tool", ["trace", "faults", "bench"])
    def test_tool_help_reaches_the_tool_parser(self, tool, capsys):
        out = _help_text(capsys, [tool, "--help"])
        assert f"repro {tool}" in out  # the tool's own prog line

    def test_tool_tail_passed_verbatim(self, monkeypatch):
        seen = {}

        def fake_bench(argv):
            seen["argv"] = argv
            return 0

        import repro.perf.cli as perf_cli

        monkeypatch.setattr(perf_cli, "bench_main", fake_bench)
        assert main(["bench", "engine", "--quick", "--repeats", "1"]) == 0
        assert seen["argv"] == ["engine", "--quick", "--repeats", "1"]

    def test_unknown_tool_flag_not_swallowed_by_top_parser(self, capsys):
        """Flags argparse has never heard of must reach the tool, not
        die at the top level (the pre-fix dispatch relied on this)."""
        with pytest.raises(SystemExit) as e:
            main(["trace", "--no-such-flag"])
        assert e.value.code == 2
        # the *tool's* parser rejected it, under the tool's prog name
        assert "repro trace" in capsys.readouterr().err


class TestArtefactGrammar:
    def test_single_artefact_still_works(self, capsys):
        assert main(["table2"]) == 0
        assert "vecop" in capsys.readouterr().out

    def test_multiple_artefacts_still_work(self, capsys):
        assert main(["table1", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out

    def test_unknown_artefact_rejected(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["figure99"])
        assert e.value.code == 2

    def test_unknown_flag_on_artefact_rejected(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["table1", "--bogus"])
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestAllGrammar:
    def test_all_flags_parse(self):
        parser = build_parser()
        args, extra = parser.parse_known_args(
            ["all", "--quick", "--jobs", "4", "--cache-dir", "c"]
        )
        assert not extra
        assert args.command == "all"
        assert args.jobs == 4 and args.quick and str(args.cache_dir) == "c"

    def test_all_default_cache_dir(self):
        """No ``--cache-dir``, no result cache."""
        parser = build_parser()
        args = parser.parse_args(["all"])
        assert args.cache_dir is None
        assert args.jobs == 1

    def test_no_cache_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["all", "--no-cache"])
        assert e.value.code == 2
        assert "unrecognized arguments: --no-cache" in capsys.readouterr().err
