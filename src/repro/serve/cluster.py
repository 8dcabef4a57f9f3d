"""``repro cluster-serve`` — boot a sharded serve cluster.

Usage::

    python -m repro cluster-serve --backends 2 --port 7660

One command brings up N backend ``repro serve`` processes (each a
cluster shard with its own cache directory) plus the in-process
:class:`~repro.serve.router.ServeRouter` front door.  Readiness is one
flushed line naming every address::

    repro cluster-serve: listening on 127.0.0.1:7660 \
        (backends: b0=127.0.0.1:34001 b1=127.0.0.1:34002) \
        (epoch: 3f2a9c41d07b)

CI and scripts wait for it, point ``repro loadtest`` at the router
port, and may talk to the backend ports directly.
The trailing ``epoch`` is the cluster's topology version (see
:func:`~repro.serve.router.topology_epoch`) — ring-aware clients
learn it via the ``locate`` op and use it to detect stale rings.
A ``shutdown`` op at the router — or SIGINT/SIGTERM — drains the whole
cluster: the router stops admitting and empties its in-flight
forwards, then each backend drains in boot order, and the final
``drained and stopped`` line confirms none of it was dropped.

Backends run ``--no-jobs``: the durable job tier journals against one
process's journal directory, and sharding jobs across the ring is out
of scope for this tier.  The router answers job ops itself, with the
``bad_request`` a ``--no-jobs`` server gives; run jobs on a plain
``repro serve``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import subprocess
import sys
import threading
from pathlib import Path

from repro.parallel.cache import DEFAULT_CACHE_DIR
from repro.serve.router import ServeRouter, advertised_host

#: Seconds to wait for one backend's readiness line before declaring
#: the boot failed.
BACKEND_BOOT_TIMEOUT_S = 30.0

#: Seconds to wait for one backend to exit after the drain before
#: escalating to terminate().
BACKEND_EXIT_TIMEOUT_S = 30.0


class _Backend:
    """One backend subprocess plus its stdout pump.  A backend started
    on port 0 learns its bound port from its ``listening on HOST:PORT``
    line, before :attr:`ready` is set."""

    def __init__(self, name: str, host: str, port: int, argv: list[str]) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.argv = argv
        self.proc: subprocess.Popen | None = None
        self.ready = threading.Event()
        self._pump: threading.Thread | None = None

    def start(self) -> None:
        self.proc = subprocess.Popen(
            self.argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self._pump = threading.Thread(
            target=self._pump_stdout, name=f"pump-{self.name}", daemon=True
        )
        self._pump.start()

    def _pump_stdout(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            if "listening on " in line and not self.ready.is_set():
                address = line.split("listening on ", 1)[1].split()[0]
                self.port = int(address.rpartition(":")[2])
                self.ready.set()
            # Prefixed passthrough: backend logs stay attributable.
            sys.stdout.write(f"[{self.name}] {line}")
            sys.stdout.flush()
        self.ready.set()  # EOF: stop any waiter, ready or not

    def wait_ready(self, timeout_s: float) -> bool:
        ok = self.ready.wait(timeout_s)
        return ok and self.proc is not None and self.proc.poll() is None

    def stop(self, timeout_s: float) -> bool:
        """Await a (presumably drained) exit; escalate to terminate."""
        if self.proc is None:
            return True
        try:
            self.proc.wait(timeout_s)
            return True
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            with contextlib.suppress(subprocess.TimeoutExpired):
                self.proc.wait(5.0)
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            return False


def cluster_serve_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cluster-serve",
        description="Boot a sharded serve cluster: N backend processes "
        "plus a consistent-hashing router front door.",
    )
    parser.add_argument(
        "--backends", type=int, default=2, metavar="N",
        help="backend serve processes (default: 2)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for router and backends (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="router port (default: 0 = ephemeral, printed on the "
        "'listening on' line); backends always take ephemeral ports",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=DEFAULT_CACHE_DIR, metavar="DIR",
        help="base cache directory; each backend shards into "
        "DIR/<name> (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="study seed baked into cache keys (default: 0)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=256, metavar="N",
        help="per-backend pending-computation bound (default: 256)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=None, metavar="S",
        help="bound each backend's shutdown drain (default: unbounded)",
    )
    parser.add_argument(
        "--wire", choices=("auto", "json", "binary"), default="auto",
        help="'auto' (default): router and backends accept binary1 "
        "negotiation, backend links stay JSON unless asked; 'binary': "
        "the router also negotiates binary1 on its backend links; "
        "'json': JSON-lines only, cluster-wide",
    )
    parser.add_argument(
        "--advertise-host", default=None, metavar="HOST",
        help="address the readiness line and locate answers carry "
        "(default: the bind address, or this machine's primary "
        "address when binding a wildcard)",
    )
    args = parser.parse_args(argv)
    if args.backends < 1:
        parser.error("--backends must be at least 1")

    # Backend addresses travel out to ring clients via locate: they
    # must be connectable even when the bind host is a wildcard.
    adv = advertised_host(args.host, args.advertise_host)
    backends: list[_Backend] = []
    for name in (f"b{i}" for i in range(args.backends)):
        backend_argv = [
            sys.executable, "-m", "repro", "serve",
            "--host", args.host,
            "--port", "0",
            "--name", name,
            "--queue-limit", str(args.queue_limit),
            "--cache-dir", str(args.cache_dir / name),
            "--seed", str(args.seed),
            "--no-jobs",
            "--advertise-host", adv,
        ]
        if args.wire == "json":
            backend_argv += ["--wire", "json"]
        if args.drain_timeout is not None:
            backend_argv += ["--drain-timeout", str(args.drain_timeout)]
        backends.append(_Backend(name, adv, 0, backend_argv))

    for backend in backends:
        backend.start()
    for backend in backends:
        if not backend.wait_ready(BACKEND_BOOT_TIMEOUT_S):
            print(
                f"repro cluster-serve: backend {backend.name} failed to "
                "come up; aborting boot",
                file=sys.stderr, flush=True,
            )
            for b in backends:
                if b.proc is not None and b.proc.poll() is None:
                    b.proc.terminate()
            for b in backends:
                b.stop(5.0)
            return 1

    try:
        return asyncio.run(_run_router(args, backends))
    finally:
        # Belt and braces: no backend outlives the router.
        for backend in backends:
            if backend.proc is not None and backend.proc.poll() is None:
                backend.proc.terminate()
            backend.stop(5.0)


async def _run_router(
    args: argparse.Namespace, backends: list[_Backend]
) -> int:
    router = ServeRouter(
        [(b.name, b.host, b.port) for b in backends],
        host=args.host,
        port=args.port,
        binary_wire=args.wire != "json",
        backend_wire="binary" if args.wire == "binary" else "json",
        advertise_host=args.advertise_host,
    )
    await router.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(sig, router.request_shutdown)
    addresses = " ".join(f"{b.name}={b.host}:{b.port}" for b in backends)
    print(
        f"repro cluster-serve: listening on {router.host}:{router.port} "
        f"(backends: {addresses}) (epoch: {router.epoch})",
        flush=True,
    )
    # serve_until_shutdown sends each backend the shutdown op in boot
    # order; the subprocess exit waits below confirm the drains landed.
    await router.serve_until_shutdown()
    clean = True
    for backend in backends:
        clean = backend.stop(BACKEND_EXIT_TIMEOUT_S) and clean
    print(
        "repro cluster-serve: drained and stopped — "
        f"{router.forwarded} forwarded, {router.unavailable} unavailable, "
        f"{router.rejected_draining} rejected while draining, "
        f"backends {'all exited cleanly' if clean else 'NEEDED TERMINATE'}",
        flush=True,
    )
    return 0 if clean else 1
