"""``repro jobs`` — client CLI for the durable campaign job tier.

Talks the same JSON-lines TCP protocol as every other serve client;
one request per connection (job ops are cheap and stateless per
connection, so holding a socket buys nothing).

Usage::

    python -m repro jobs submit --port 7653 --campaign quick
    python -m repro jobs submit --port 7653 --tenant alice \\
        --units '[{"kind": "headline", "params": {"n_nodes": 96}}]'
    python -m repro jobs status --port 7653            # all jobs
    python -m repro jobs status --port 7653 JOB_ID
    python -m repro jobs watch  --port 7653 JOB_ID     # poll to terminal
    python -m repro jobs result --port 7653 JOB_ID
    python -m repro jobs cancel --port 7653 JOB_ID

``watch`` exits 0 when the job lands ``done``, 1 on ``failed`` /
``cancelled``, 2 on ``--timeout`` — so CI can gate on a submitted
campaign completing after a crash/restart cycle.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

from repro.serve.client import request_once as _request


def _fail(resp: dict[str, Any]) -> int:
    error = resp.get("error", "unknown")
    detail = resp.get("detail") or resp.get("reason") or ""
    hint = ""
    if "retry_after_s" in resp:
        hint = f" (retry after {resp['retry_after_s']:.2f} s)"
    print(f"repro jobs: {error}{': ' if detail else ''}{detail}{hint}",
          file=sys.stderr)
    return 1


def _print_status(job: dict[str, Any]) -> None:
    line = (
        f"{job['job_id']}  {job['state']:<9}  tenant={job['tenant']}  "
        f"{job['done']}/{job['n_units']} done"
    )
    if job.get("quarantined"):
        line += f", {job['quarantined']} quarantined"
    if job.get("resumed_units"):
        line += f", {job['resumed_units']} resumed"
    print(line)


def jobs_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro jobs",
        description="Submit and track durable campaign jobs on a "
        "running 'repro serve' instance.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="server address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, required=True,
        help="server port (from the serve 'listening on' line)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_submit = sub.add_parser("submit", help="submit a job")
    p_submit.add_argument(
        "--tenant", default="default",
        help="tenant the job is accounted to (default: 'default')",
    )
    p_submit.add_argument(
        "--seed", type=int, default=None,
        help="study seed for the job's units (default: server's)",
    )
    group = p_submit.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--campaign", choices=("quick", "full"),
        help="submit the whole figure campaign as one job",
    )
    group.add_argument(
        "--units", metavar="JSON",
        help="explicit unit array: "
        "'[{\"kind\": ..., \"params\": {...}}, ...]'",
    )
    group.add_argument(
        "--units-file", type=Path, metavar="PATH",
        help="read the unit array from a JSON file",
    )

    p_status = sub.add_parser("status", help="show job state(s)")
    p_status.add_argument("job_id", nargs="?", default=None)
    p_status.add_argument(
        "--json", action="store_true", help="print raw JSON"
    )

    p_watch = sub.add_parser(
        "watch", help="poll a job until it reaches a terminal state"
    )
    p_watch.add_argument("job_id")
    p_watch.add_argument(
        "--interval", type=float, default=0.5, metavar="S",
        help="poll interval in seconds (default: 0.5)",
    )
    p_watch.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="give up (exit 2) after S seconds (default: forever)",
    )

    p_result = sub.add_parser("result", help="fetch a terminal job's values")
    p_result.add_argument("job_id")

    p_cancel = sub.add_parser("cancel", help="cancel a queued/running job")
    p_cancel.add_argument("job_id")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (OSError, ConnectionError, json.JSONDecodeError, ValueError) as exc:
        print(f"repro jobs: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    host, port = args.host, args.port
    if args.command == "submit":
        doc: dict[str, Any] = {"op": "submit", "tenant": args.tenant}
        if args.seed is not None:
            doc["seed"] = args.seed
        if args.campaign:
            doc["campaign"] = args.campaign
        else:
            text = (
                args.units_file.read_text()
                if args.units_file is not None else args.units
            )
            doc["units"] = json.loads(text)
        resp = _request(host, port, doc)
        if not resp.get("ok"):
            return _fail(resp)
        print(
            f"{resp['job_id']}  queued  "
            f"{resp['n_units']} unit(s) as tenant {args.tenant}"
        )
        return 0

    if args.command == "status":
        doc = {"op": "status"}
        if args.job_id:
            doc["job_id"] = args.job_id
        resp = _request(host, port, doc)
        if not resp.get("ok"):
            return _fail(resp)
        if args.json:
            print(json.dumps(
                resp.get("job", resp.get("jobs")), indent=2, sort_keys=True
            ))
        elif args.job_id:
            _print_status(resp["job"])
        else:
            jobs = resp["jobs"]
            if not jobs:
                print("no jobs")
            for job in jobs:
                _print_status(job)
        return 0

    if args.command == "watch":
        deadline = (
            time.monotonic() + args.timeout
            if args.timeout is not None else None
        )
        last = None
        while True:
            resp = _request(host, port, {"op": "status", "job_id": args.job_id})
            if not resp.get("ok"):
                return _fail(resp)
            job = resp["job"]
            key = (job["state"], job["done"], job["quarantined"])
            if key != last:
                _print_status(job)
                last = key
            if job["state"] in ("done", "failed", "cancelled"):
                return 0 if job["state"] == "done" else 1
            if deadline is not None and time.monotonic() >= deadline:
                print(
                    f"repro jobs: watch timed out after {args.timeout} s",
                    file=sys.stderr,
                )
                return 2
            time.sleep(args.interval)

    if args.command == "result":
        resp = _request(host, port, {"op": "result", "job_id": args.job_id})
        if not resp.get("ok"):
            return _fail(resp)
        print(json.dumps(resp["result"], indent=2, sort_keys=True))
        return 0

    # cancel
    resp = _request(host, port, {"op": "cancel", "job_id": args.job_id})
    if not resp.get("ok"):
        return _fail(resp)
    print("cancelled" if resp["cancelled"] else "already terminal")
    return 0
