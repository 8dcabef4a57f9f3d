"""``repro cluster-serve`` end to end: the shipped CLI boots a real
router + backend fleet as subprocesses, serves through the router
and from each backend directly with the same bytes, and drains the
whole cluster cleanly."""

import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

POINT = {"mode": "single", "platform": "Tegra2", "freq": 1.0}


def rpc(port, doc, timeout=15.0):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall((json.dumps(doc) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf)


@pytest.mark.slow
class TestClusterServeCLI:
    def test_boot_serve_and_drain(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "cluster-serve",
                "--backends", "2", "--port", "0",
                "--cache-dir", str(tmp_path / "cache"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            # The readiness line carries the router port AND every
            # backend's address — the whole topology in one line.
            ready = ""
            for line in proc.stdout:
                if "cluster-serve: listening on" in line:
                    ready = line
                    break
            assert ready, "router never became ready"
            router_port = int(
                re.search(r"listening on [^:]+:(\d+)", ready).group(1)
            )
            backends = dict(
                (m.group(1), int(m.group(2)))
                for m in re.finditer(r"(b\d+)=[^:]+:(\d+)", ready)
            )
            assert set(backends) == {"b0", "b1"}
            # Every backend listens on a port of its own.
            assert all(port > 0 for port in backends.values())
            assert len(set(backends.values())) == 2

            # Through the router: first compute, then cache — the
            # router always routes a key to its home shard.
            first = rpc(router_port, {"op": "query", "id": 1,
                                      "kind": "sweep_point", "params": POINT})
            assert first["ok"], first
            assert first["served"] == "computed"
            again = rpc(router_port, {"op": "query", "id": 2,
                                      "kind": "sweep_point", "params": POINT})
            assert again["served"] == "cache"
            assert again["value"] == first["value"]

            # Hit the backends directly: the home shard answers from
            # its cache, the other one computes the value itself.
            direct = {
                name: rpc(port, {"op": "query", "id": 3,
                                 "kind": "sweep_point", "params": POINT})
                for name, port in backends.items()
            }
            served = sorted(d["served"] for d in direct.values())
            assert served == ["cache", "computed"], served
            values = {json.dumps(d["value"], sort_keys=True)
                      for d in direct.values()}
            values.add(json.dumps(first["value"], sort_keys=True))
            assert len(values) == 1  # byte-identical across all paths

            stats = rpc(router_port, {"op": "stats", "id": 4})
            assert stats["ok"]
            agg = stats["stats"]
            assert agg["computed"] == 2
            assert set(agg["per_backend_hit_ratio"]) == {"b0", "b1"}
            assert stats["router"]["forwarded"] >= 2

            # Cluster-wide drain: ack, then router exits 0 only after
            # every backend did.
            bye = rpc(router_port, {"op": "shutdown", "id": 5})
            assert bye["ok"]
            out = proc.communicate(timeout=60)[0]
            assert proc.returncode == 0, out
            assert "drained and stopped" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    def test_backend_count_is_validated(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "cluster-serve",
             "--backends", "0"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "--backends" in proc.stderr


def test_cluster_serve_has_no_jobs_option(capsys):
    """Backends compute every miss in process; there is no worker count
    to forward."""
    from repro.serve.cluster import cluster_serve_main

    with pytest.raises(SystemExit) as excinfo:
        cluster_serve_main(["--jobs", "1"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err
