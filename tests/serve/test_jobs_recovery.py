"""Kill-and-restart: SIGKILL a serve process mid-job, restart it on
the same journal + cache, and require completion with resumed units
and byte-identical results vs an uninterrupted run.

This is the acceptance test of the durable job tier — everything here
runs real subprocesses, real sockets, real unit execution; nothing is
mocked.  The analogue of the paper's checkpoint/restart discipline
(Section 6): on commodity hardware the crash is a *when*, not an *if*,
and the system must pay a resume, not a recompute.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

# A dozen real operating points: cheap enough for CI, numerous enough
# (with --job-batch 1) that a poller reliably catches the job mid-run.
UNITS = [
    {"kind": "sweep_point",
     "params": {"mode": mode, "platform": "Tegra2", "freq": round(f, 1)}}
    for mode in ("single", "multi")
    for f in (0.4, 0.6, 0.8, 1.0, 1.2, 1.4)
]


def boot_serve(tmp_path, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--jobs", "1", "--job-batch", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--journal-dir", str(tmp_path / "journal"),
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    ready = proc.stdout.readline()
    assert "listening on" in ready, ready
    port = int(ready.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
    return proc, port, ready


def request(port, doc, timeout_s=30.0):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout_s) as s:
        s.sendall((json.dumps({**doc, "id": 1}) + "\n").encode())
        with s.makefile("r", encoding="utf-8") as fh:
            return json.loads(fh.readline())


def wait_done(port, job_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = request(port, {"op": "status", "job_id": job_id})["job"]
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} not terminal within {timeout_s}s")


def shutdown(proc, port):
    try:
        request(port, {"op": "shutdown"})
        proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


@pytest.mark.slow
class TestKillAndRestart:
    def test_sigkilled_job_resumes_and_matches_uninterrupted_run(
        self, tmp_path
    ):
        # --- reference: an uninterrupted run in pristine dirs --------
        ref_dir = tmp_path / "ref"
        proc, port, _ = boot_serve(ref_dir)
        try:
            sub = request(
                port, {"op": "submit", "tenant": "ci", "units": UNITS}
            )
            assert sub["ok"], sub
            assert wait_done(port, sub["job_id"])["state"] == "done"
            reference = request(
                port, {"op": "result", "job_id": sub["job_id"]}
            )["result"]["units"]
        finally:
            shutdown(proc, port)

        # --- crash run: SIGKILL mid-job, restart, resume -------------
        crash_dir = tmp_path / "crash"
        job_id = None
        for attempt in range(3):
            proc, port, _ = boot_serve(crash_dir)
            killed = False
            try:
                sub = request(
                    port,
                    {"op": "submit", "tenant": "ci", "units": UNITS,
                     "job_id": f"crashjob{attempt}"},
                )
                assert sub["ok"], sub
                job_id = sub["job_id"]
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    job = request(port, {"op": "status", "job_id": job_id})
                    done = job["job"]["done"]
                    if 1 <= done < len(UNITS):
                        proc.send_signal(signal.SIGKILL)
                        proc.communicate()
                        killed = True
                        break
                    if job["job"]["state"] != "running" and done == len(UNITS):
                        break  # finished before we could kill: retry
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
            if killed:
                break
            # The job outran the poller; fresh dirs, try again.
            import shutil

            shutil.rmtree(crash_dir, ignore_errors=True)
        assert killed, "could not catch the job mid-run in 3 attempts"

        # The journal survived the SIGKILL.
        assert (crash_dir / "journal" / "jobs.wal").stat().st_size > 0

        # Restart on the same dirs: the readiness line announces the
        # recovery, the job completes, and >=1 unit came from cache.
        proc, port, ready = boot_serve(crash_dir)
        try:
            assert "recovered 1 job(s)" in ready, ready
            job = wait_done(port, job_id)
            assert job["state"] == "done"
            assert job["done"] == len(UNITS)
            assert job["resumed_units"] >= 1  # checkpoint paid off
            resumed = request(
                port, {"op": "result", "job_id": job_id}
            )["result"]["units"]
        finally:
            shutdown(proc, port)

        # Byte-identical to the uninterrupted reference.
        assert (
            json.dumps(resumed, sort_keys=True)
            == json.dumps(reference, sort_keys=True)
        )

    def test_restart_with_clean_journal_recovers_nothing(self, tmp_path):
        proc, port, ready = boot_serve(tmp_path)
        try:
            assert "recovered" not in ready
            assert request(port, {"op": "ping"})["ok"]
        finally:
            shutdown(proc, port)
