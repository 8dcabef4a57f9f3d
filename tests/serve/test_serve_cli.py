"""The serve/loadtest argument surface, and the shared --jobs contract
across every subcommand that takes one (satellite of the serving PR:
one validator, one error message, no subcommand left unguarded)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestSharedJobsValidation:
    """Every --jobs-taking subcommand routes through
    ``repro.cli.jobs_count``: same exit code, same message."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["all", "--jobs", "0"],
            ["serve", "--jobs", "0"],
            ["loadtest", "--port", "1", "--jobs", "0"],
        ],
        ids=["all", "serve", "loadtest"],
    )
    def test_rejects_zero_jobs(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["all", "--jobs", "many"],
            ["serve", "--jobs", "many"],
        ],
        ids=["all", "serve"],
    )
    def test_rejects_non_integer_jobs(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err


class TestServeArgs:
    @pytest.mark.parametrize(
        "flag,value",
        [("--queue-limit", "0")],
    )
    def test_bad_config_is_a_parse_error(self, flag, value, capsys):
        from repro.serve.cli import serve_main

        with pytest.raises(SystemExit) as excinfo:
            serve_main([flag, value])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flag,value", [("--unit-attempts", "3"), ("--retry-backoff", "0.1")]
    )
    def test_unit_retry_options_are_gone(
        self, flag, value, capsys, monkeypatch
    ):
        """A job unit gets one attempt: there is no retry to tune."""
        import asyncio

        from repro.serve.cli import serve_main

        # Were the option accepted, no server may start.
        monkeypatch.setattr(asyncio, "run", lambda coro: coro.close())
        with pytest.raises(SystemExit) as excinfo:
            serve_main([flag, value])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_serve_sets_the_switch_interval_before_the_loop(
        self, monkeypatch, tmp_path
    ):
        """``repro serve`` shortens the GIL switch interval before its
        event loop starts, and ``--jobs`` is parsed but changes
        nothing."""
        import asyncio
        import sys as _sys

        from repro.serve import cli as serve_cli

        seen = []

        def fake_run(coro):
            seen.append(_sys.getswitchinterval())
            coro.close()
            return 0

        monkeypatch.setattr(asyncio, "run", fake_run)
        before = _sys.getswitchinterval()
        try:
            assert serve_cli.serve_main(
                ["--jobs", "3", "--no-jobs", "--cache-dir", str(tmp_path)]
            ) == 0
        finally:
            _sys.setswitchinterval(before)
        assert seen == [pytest.approx(serve_cli.SWITCH_INTERVAL_S)]
        assert serve_cli.SWITCH_INTERVAL_S == 0.0005

    def test_loadtest_requires_a_port(self, capsys):
        from repro.serve.cli import loadtest_main

        with pytest.raises(SystemExit) as excinfo:
            loadtest_main([])
        assert excinfo.value.code == 2
        assert "--port" in capsys.readouterr().err


class TestServeLoadtestEndToEnd:
    def test_boot_serve_then_loadtest_against_it(self, tmp_path):
        """The CI recipe in miniature: boot ``repro serve`` as a real
        subprocess, scrape the readiness line for the port, point the
        load generator at it, assert the warm-shaped hit ratio, shut
        the server down gracefully, and check its exit status."""
        from repro.serve.cli import loadtest_main

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            ready = proc.stdout.readline()
            assert "listening on" in ready, ready
            assert "jobs=" not in ready, ready
            port = int(ready.split("listening on ")[1].split()[0].rsplit(":", 1)[1])

            # Warm the cache, then measure — the warm pass must clear
            # the 90% coalesce+cache bar end to end through the CLI.
            assert loadtest_main(
                ["--port", str(port), "--requests", "150", "--rate", "2000",
                 "--seed", "5"]
            ) == 0
            assert loadtest_main(
                ["--port", str(port), "--requests", "150", "--rate", "2000",
                 "--seed", "5", "--assert-hit-ratio", "0.9", "--json",
                 "--shutdown"]
            ) == 0
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0, out
            assert "drained and stopped" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    def test_assert_hit_ratio_fails_loudly(self, tmp_path, capsys):
        """An impossible bar must turn into exit 1, not a silent pass."""
        import asyncio

        from repro.serve.cli import loadtest_main
        from repro.serve.frontend import CampaignFrontEnd, ServeConfig
        from repro.serve.server import ServeServer

        async def scenario():
            server = ServeServer(
                CampaignFrontEnd(
                    ServeConfig(cache_dir=None),
                    runner=lambda units: [u.label() for u in units],
                )
            )
            await server.start()
            run_task = asyncio.ensure_future(server.serve_until_shutdown())
            # Unique-request workload: nothing to coalesce or cache, so
            # a 1.01 bar cannot be met.
            code = await asyncio.get_running_loop().run_in_executor(
                None,
                lambda: loadtest_main(
                    ["--port", str(server.port), "--requests", "20",
                     "--rate", "2000", "--hot-fraction", "0",
                     "--assert-hit-ratio", "1.01", "--shutdown"]
                ),
            )
            await run_task
            return code

        assert asyncio.run(scenario()) == 1
        assert "FAIL" in capsys.readouterr().out
