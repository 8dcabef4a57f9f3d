"""Batched campaign-serving front end (``repro serve``).

The ROADMAP north star is a system that serves heavy traffic, and the
traffic against this reproduction is overwhelmingly *repeated* requests
for the same operating points — the same Figure 3/4 ``(mode, platform,
freq)`` grid cells and Figure 6 ``(app, nodes)`` points, re-requested
across report builds, CI runs and notebook sessions (the evaluation-
service pattern of the later ARM-HPC studies).  That workload shape
makes three mechanisms do almost all the work:

* **single-flight coalescing** — identical in-flight requests share one
  computation (:class:`~repro.serve.frontend.CampaignFrontEnd`);
* **cache-backed serving** — anything the content-addressed
  :class:`~repro.parallel.cache.ResultCache` already holds is returned
  without computing anything;
* **micro-batching** — the distinct misses that remain are collected
  for a few milliseconds: sweep points are computed as one vectorized
  call per mode on the event loop, and Figure 6 and headline
  simulations as one :func:`repro.parallel.runner.run_units` call over
  a bounded multiprocessing pool, from an executor thread.

Around them sit admission control (a bounded pending queue; excess
load is rejected 429-style with a ``retry_after_s`` hint), graceful
shutdown (drain every accepted request, then exit), and observability
(queue depth / batch size / hit ratio / latency through
:mod:`repro.obs`).  ``repro loadtest`` (:mod:`repro.serve.loadtest`)
is the matching open-loop load generator, and the ``serve`` perf suite
records throughput and tail latency cold vs warm in
``BENCH_serve.json``.

For work that outlives a request — whole figure campaigns, batch
sweeps — the **durable job tier** (:mod:`~repro.serve.jobs`) accepts
``submit``/``status``/``result``/``cancel`` ops backed by a crash-safe
write-ahead journal (:mod:`~repro.serve.journal`): jobs survive a
SIGKILL, resume from the result cache on restart (unit completion is
the checkpoint), are dispatched fairly across tenants under per-tenant
quotas, and retry-then-quarantine failing units.  ``repro jobs``
(:mod:`~repro.serve.jobs_cli`) is the matching client.

Horizontal scale comes from the **cluster tier**
(:mod:`~repro.serve.router`): ``repro cluster-serve`` boots N backend
serve processes plus a :class:`~repro.serve.router.ServeRouter` front
door that consistent-hashes every query's ``(kind, params)`` key to its
home shard, so each backend's cache and single-flight table see only
their slice of the hot set.  Backends cross-fill from each other's
caches via the compute-free ``probe`` op
(:class:`~repro.serve.router.CachePeerFill`), and cluster shutdown
drains router-then-backends in boot order.  The protocol through the
router is byte-identical to a single backend's.

The router proxies by default, but it is a single process and caps
cluster throughput; the **redirect protocol** takes it off the data
path.  A ``locate`` op returns the full topology plus a deterministic
**topology epoch** (:func:`~repro.serve.router.topology_epoch`), and a
:class:`~repro.serve.client.RingClient` then routes every query to its
home shard itself with the very same ring, falling back to the router
(and re-learning the topology) only on failure.  ``repro loadtest
--direct`` drives this path; ``serve.cluster4_direct`` in
``BENCH_serve.json`` records the scaling it buys.

Layering: :mod:`~repro.serve.frontend` is transport-independent pure
asyncio; :mod:`~repro.serve.jobs` adds the durable queue on top of the
front end's executor; :mod:`~repro.serve.server` puts a JSON-lines TCP
protocol in front of both; :mod:`~repro.serve.router` shards that
protocol across backends; :mod:`~repro.serve.cli` is the
``repro serve`` / ``repro loadtest`` argument surface,
:mod:`~repro.serve.cluster` the ``repro cluster-serve`` one and
:mod:`~repro.serve.jobs_cli` the ``repro jobs`` one.
"""

from repro.serve.client import RingClient, request_once
from repro.serve.frontend import (
    CampaignFrontEnd,
    Overloaded,
    ServeConfig,
    ServeStats,
    percentile,
)
from repro.serve.jobs import Job, JobManager, JobsConfig
from repro.serve.journal import JobJournal
from repro.serve.router import (
    CachePeerFill,
    HashRing,
    ServeRouter,
    route_key,
    topology_epoch,
)

__all__ = [
    "CachePeerFill",
    "CampaignFrontEnd",
    "HashRing",
    "Job",
    "JobJournal",
    "JobManager",
    "JobsConfig",
    "Overloaded",
    "RingClient",
    "ServeConfig",
    "ServeRouter",
    "ServeStats",
    "percentile",
    "request_once",
    "route_key",
    "topology_epoch",
]
