"""Campaign-serving front end (``repro serve``).

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
* **compute** — a sweep-point miss is computed on the connection's
  read path, for less than a hand-off to a thread would cost; each
  distinct Figure 6 and headline simulation miss is one
  :func:`repro.parallel.runner.run_units` call on one executor thread,
  dispatched as it arrives.  ``repro serve`` runs under a 0.5 ms GIL
  switch interval, so the loop answers hot hits promptly while
  simulations compute; the ``serve.hot_during_sims`` bench entry
  records that tail.

Around them sit admission control (a bounded pending queue; excess
load is rejected 429-style with a ``retry_after_s`` hint), graceful
shutdown (drain every accepted request, then exit), and observability
(queue depth / per-unit compute spans / hit ratio / latency through
:mod:`repro.obs`).  ``repro loadtest`` (:mod:`repro.serve.loadtest`)
is the matching open-loop load generator, and the ``serve`` perf suite
records throughput and tail latency cold vs warm, and the hot-hit
tail during a simulation burst, in ``BENCH_serve.json``.

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
their slice of the hot set, and cluster shutdown drains
router-then-backends in boot order.  The protocol through the
router is byte-identical to a single backend's.

The router proxies by default, but it is a single process and caps
cluster throughput; routing on the client takes it off the data
path.  A ``locate`` op returns the full topology plus a deterministic
**topology epoch** (:func:`~repro.serve.router.topology_epoch`), and a
:class:`~repro.serve.client.RingClient` then routes every query to its
home shard itself with the very same ring, falling back to the router
(and re-learning the topology) only on failure.  ``repro loadtest
--direct`` drives this path; ``serve.cluster4_direct`` in
``BENCH_serve.json`` records its ceiling (DESIGN.md section 15).

Layering: :mod:`~repro.serve.frontend` is transport-independent pure
asyncio; :mod:`~repro.serve.jobs` adds the durable queue on top of the
front end's executor; :mod:`~repro.serve.server` puts a JSON-lines TCP
protocol in front of both; :mod:`~repro.serve.router` shards that
protocol across backends, and both serve it through
:class:`~repro.serve.wire.WireEndpoint`: each connection is one
``asyncio.Protocol`` that parses what it reads with the shared
:class:`~repro.serve.wire.FrameParser` and answers a read-path request
in the same callback (DESIGN.md section 14); :mod:`~repro.serve.cli` is the
``repro serve`` / ``repro loadtest`` argument surface,
:mod:`~repro.serve.cluster` the ``repro cluster-serve`` one and
:mod:`~repro.serve.jobs_cli` the ``repro jobs`` one.
"""

#: Public name -> the module that defines it, resolved on first access
#: (PEP 562): ``repro cluster-serve``'s router process imports only the
#: router and the wire, not the front end, its cache and the simulator.
_EXPORTS = {
    "CampaignFrontEnd": "repro.serve.frontend",
    "HashRing": "repro.serve.router",
    "Job": "repro.serve.jobs",
    "JobJournal": "repro.serve.journal",
    "JobManager": "repro.serve.jobs",
    "JobsConfig": "repro.serve.jobs",
    "Overloaded": "repro.serve.frontend",
    "RingClient": "repro.serve.client",
    "ServeConfig": "repro.serve.frontend",
    "ServeRouter": "repro.serve.router",
    "ServeStats": "repro.serve.frontend",
    "percentile": "repro.serve.frontend",
    "request_once": "repro.serve.client",
    "route_key": "repro.serve.router",
    "topology_epoch": "repro.serve.router",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.serve' has no attribute {name!r}")
    import importlib

    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
