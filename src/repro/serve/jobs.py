"""Durable multi-tenant campaign jobs: submit now, survive restarts.

A *job* is a named batch of campaign work units (an explicit unit
list, or a whole figure campaign decomposed via
:func:`repro.parallel.units.campaign_units`) owned by a *tenant*.
Where the query path (:class:`~repro.serve.frontend.CampaignFrontEnd`)
answers one unit per request or not at all, the job tier accepts
minutes of work and guarantees it survives the process:

* **Durability** — every submit, terminal transition and quarantine is
  appended to a crash-safe :class:`~repro.serve.journal.JobJournal`
  before it is acknowledged.  Unit completions are journaled too, but
  batched: the *authoritative* checkpoint for a completed unit is its
  value landing in the content-addressed result cache, so losing a few
  unit records to a crash costs a cache probe, not recomputation.
* **Checkpoint/restart** — :meth:`JobManager.recover` replays the
  journal, then probes the cache for every pending unit of every
  non-terminal job (:meth:`ResultCache.get_many`); whatever already
  landed is marked done (counted as ``resumed_units``) and only the
  remainder re-enters dispatch.  This is the paper's Section 6
  discipline — commodity-SoC clusters are HPC-viable only with
  checkpoint/restart baked in — applied to our own serving layer.
* **Journal-flush batching** — fsync per unit would dominate cheap
  units.  The flush cadence reuses
  :meth:`repro.fault.checkpoint.CheckpointPolicy.interval_for`: with
  the observed fsync cost as the checkpoint cost and a configured
  process MTBF, Daly's interval says how much work may sit unflushed;
  divided by the observed unit cost that becomes a records-per-fsync
  batch size.
* **Fair scheduling** — dispatch is round-robin across tenants, and
  within a tenant oldest job first (the oldest-first discipline of
  :meth:`repro.cluster.slurm.SlurmScheduler.drain`), so one tenant's
  mega-job cannot starve another's smoke test.  Per-tenant quotas
  bound queued units; over quota, ``submit`` raises
  :class:`~repro.serve.frontend.Overloaded` with a retry hint while
  other tenants are untouched.
* **Retry and quarantine** — a failed unit retries with exponential
  backoff up to ``max_attempts``; then it is quarantined (journaled)
  and the job completes as ``failed`` with partial results, instead of
  one poison unit wedging the queue forever.

Observability: ``serve.jobs.*`` totals (submitted/done/failed/
cancelled/units_done/units_retried/units_quarantined/resumed_units)
and a ``serve.jobs.batch`` span per dispatched batch.
"""

from __future__ import annotations

import asyncio
import itertools
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Any, Awaitable, Callable

from repro.fault.checkpoint import CheckpointPolicy
from repro.obs.recorder import current as _obs_current
from repro.parallel.cache import MISS, ResultCache, unit_key
from repro.parallel.runner import UnitFailure
from repro.parallel.units import WorkUnit
from repro.serve.frontend import UNIT_KINDS, Overloaded
from repro.serve.journal import DEFAULT_ROTATE_BYTES, JobJournal

# Job states.  queued -> running -> done | failed | cancelled.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
TERMINAL_STATES = frozenset({JOB_DONE, JOB_FAILED, JOB_CANCELLED})

# Unit states within a job.
UNIT_PENDING = "pending"
UNIT_DONE = "done"
UNIT_QUARANTINED = "quarantined"


@dataclass
class JobsConfig:
    """Tunables for the job tier."""

    tenant_quota_units: int = 4096   #: max queued units per tenant
    max_attempts: int = 3            #: unit attempts before quarantine
    retry_backoff_s: float = 0.05    #: base of the exponential backoff
    backoff_cap_s: float = 5.0       #: backoff ceiling
    batch_units: int = 16            #: units per dispatched batch
    process_mtbf_s: float = 1800.0   #: assumed serve-process MTBF
    keep_terminal: int = 64          #: terminal jobs kept for status
    rotate_bytes: int = DEFAULT_ROTATE_BYTES  #: journal compaction bound
    seed: int = 0                    #: default study seed for jobs

    def __post_init__(self) -> None:
        if self.tenant_quota_units < 1:
            raise ValueError("tenant_quota_units must be at least 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.retry_backoff_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff times must be non-negative")
        if self.batch_units < 1:
            raise ValueError("batch_units must be at least 1")
        if self.process_mtbf_s <= 0:
            raise ValueError("process_mtbf_s must be positive")
        if self.keep_terminal < 0:
            raise ValueError("keep_terminal must be non-negative")


@dataclass
class _Unit:
    """One unit's in-job lifecycle state."""

    unit: WorkUnit
    state: str = UNIT_PENDING
    attempts: int = 0
    not_before: float = 0.0          #: monotonic retry-eligibility time
    error: str | None = None
    value: Any = None                #: in-memory copy (cache is durable)
    have_value: bool = False


@dataclass
class Job:
    """One submitted job and its unit ledger."""

    job_id: str
    tenant: str
    units: list[_Unit]
    seed: int
    order: int                       #: submission order (fair dispatch)
    created_unix: float
    state: str = JOB_QUEUED
    resumed_units: int = 0           #: pending units revived from cache

    @property
    def counts(self) -> dict[str, int]:
        done = sum(1 for u in self.units if u.state == UNIT_DONE)
        quarantined = sum(
            1 for u in self.units if u.state == UNIT_QUARANTINED
        )
        return {
            "n_units": len(self.units),
            "done": done,
            "quarantined": quarantined,
            "pending": len(self.units) - done - quarantined,
        }

    def pending_units(self) -> int:
        return self.counts["pending"]

    def status_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "seed": self.seed,
            "created_unix": self.created_unix,
            "resumed_units": self.resumed_units,
            **self.counts,
        }
        quarantined = [
            {"index": i, "unit": u.unit.label(), "error": u.error}
            for i, u in enumerate(self.units)
            if u.state == UNIT_QUARANTINED
        ]
        if quarantined:
            doc["quarantined_units"] = quarantined
        return doc


def campaign_job_units(quick: bool = True) -> list[dict[str, Any]]:
    """The unit specs for a whole figure campaign (``submit`` payload
    for a ``campaign`` job) — the same decomposition ``repro all``
    runs, expressed as wire-shaped dicts."""
    from repro.cluster.cluster import tibidabo
    from repro.core.study import FIG6_FULL_COUNTS, FIG6_QUICK_COUNTS
    from repro.parallel.units import campaign_units

    counts = FIG6_QUICK_COUNTS if quick else FIG6_FULL_COUNTS
    units = campaign_units(quick, tibidabo(max(counts)))
    return [{"kind": u.kind, "params": u.params} for u in units]


def _is_seed(value: Any) -> bool:
    """A job seed is a plain ``int``: it is baked into cache keys and
    the study, so a float or a string would resume as a different job."""
    return isinstance(value, int) and not isinstance(value, bool)


class JobManager:
    """The durable queue: journal + cache + fair dispatch.

    :param journal: the write-ahead log (owns durability).
    :param cache: the content-addressed result cache completed unit
        values land in — the restart checkpoint store.  ``None`` keeps
        values only in memory (tests; resume degrades to recompute).
    :param execute: ``async (units, seed) -> values`` — production
        wiring is :meth:`CampaignFrontEnd.execute_units`, so job
        batches queue with query simulation units on one executor
        thread.  Failed units come back as
        :class:`~repro.parallel.runner.UnitFailure` slots.  It writes
        nothing to ``cache``: each completed unit's checkpoint is
        written here, once.
    :param policy: checkpoint-cost arithmetic for journal-flush
        batching; the default derives the Daly interval from the
        observed fsync cost and ``config.process_mtbf_s``.
    """

    def __init__(
        self,
        journal: JobJournal,
        cache: ResultCache | None,
        execute: Callable[[list[WorkUnit], int], Awaitable[list[Any]]],
        config: JobsConfig | None = None,
        policy: CheckpointPolicy | None = None,
    ) -> None:
        self.journal = journal
        self.cache = cache
        self.config = config or JobsConfig()
        self._execute = execute
        self._policy = policy or CheckpointPolicy(
            checkpoint_cost_s=1e-3, restart_cost_s=1.0
        )
        self.jobs: dict[str, Job] = {}
        self.totals: dict[str, int] = {
            "submitted": 0, "done": 0, "failed": 0, "cancelled": 0,
            "units_done": 0, "units_retried": 0,
            "units_quarantined": 0, "resumed_units": 0,
        }
        self._order = itertools.count()
        self._rr_offset = 0              # tenant round-robin cursor
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._running = False
        self._parked = False
        self._t0 = time.monotonic()
        # Flush batching: EWMA of fsync cost and unit cost feed the
        # CheckpointPolicy arithmetic; _unflushed counts unit records
        # appended since the last fsync.
        self._fsync_cost_s = 1e-3
        self._unit_cost_s = 0.05
        self._unflushed = 0

    # -- obs helpers -------------------------------------------------------
    def _bump(self, name: str, value: int = 1) -> None:
        self.totals[name] = self.totals.get(name, 0) + value
        rec = _obs_current()
        if rec is not None:
            rec.bump(f"serve.jobs.{name}", value)

    def _clock(self) -> float:
        return time.monotonic() - self._t0

    # -- durability helpers ------------------------------------------------
    def _flush_every_units(self) -> int:
        """How many unit-done records may sit unflushed: the Daly
        interval (observed fsync cost as checkpoint cost, configured
        process MTBF) divided by the observed unit cost — cheap units
        amortise one fsync over many records, expensive units flush
        nearly every time."""
        policy = self._policy
        if policy.interval_s is None:
            policy = replace(
                policy, checkpoint_cost_s=max(self._fsync_cost_s, 1e-6)
            )
        interval = policy.interval_for(self.config.process_mtbf_s)
        per_flush = int(interval / max(self._unit_cost_s, 1e-6))
        return max(1, min(per_flush, 256))

    def _journal_flush(self, force: bool = False) -> None:
        if not force and self._unflushed < self._flush_every_units():
            return
        t0 = time.monotonic()
        self.journal.flush()
        cost = time.monotonic() - t0
        self._fsync_cost_s = 0.8 * self._fsync_cost_s + 0.2 * cost
        self._unflushed = 0

    def _append(self, doc: dict[str, Any], flush: bool = True) -> None:
        self.journal.append(doc, flush=False)
        if flush:
            self._journal_flush(force=True)
        else:
            self._unflushed += 1
            self._journal_flush(force=False)

    # -- submission --------------------------------------------------------
    def _queued_units(self, tenant: str) -> int:
        return sum(
            job.pending_units()
            for job in self.jobs.values()
            if job.tenant == tenant and job.state not in TERMINAL_STATES
        )

    def submit(
        self,
        tenant: str,
        unit_specs: list[dict[str, Any]],
        seed: int | None = None,
        job_id: str | None = None,
    ) -> Job:
        """Accept a job (durably) or raise.

        Raises ``ValueError`` for a malformed spec and
        :class:`Overloaded` (``reason="tenant_quota"``) when the
        tenant's queued-unit quota would be exceeded — with a retry
        hint scaled by that tenant's backlog at the observed unit cost,
        and zero effect on other tenants.
        """
        if not unit_specs:
            raise ValueError("a job needs at least one unit")
        if not tenant or not isinstance(tenant, str):
            raise ValueError("tenant must be a non-empty string")
        if seed is not None and not _is_seed(seed):
            raise ValueError("seed must be an integer")
        units = []
        for spec in unit_specs:
            kind = spec.get("kind")
            params = spec.get("params", {})
            if kind not in UNIT_KINDS:
                raise ValueError(
                    f"unknown work-unit kind {kind!r} "
                    f"(one of: {', '.join(UNIT_KINDS)})"
                )
            if not isinstance(params, dict):
                raise ValueError("unit params must be an object")
            units.append(_Unit(WorkUnit(kind, dict(params))))
        backlog = self._queued_units(tenant)
        if backlog + len(units) > self.config.tenant_quota_units:
            raise Overloaded(
                max(0.01, backlog * self._unit_cost_s),
                reason="tenant_quota",
            )
        job = Job(
            job_id=job_id or uuid.uuid4().hex[:12],
            tenant=tenant,
            units=units,
            seed=self.config.seed if seed is None else seed,
            order=next(self._order),
            created_unix=time.time(),
        )
        if job.job_id in self.jobs:
            raise ValueError(f"duplicate job id {job.job_id!r}")
        self.jobs[job.job_id] = job
        self._append(self._submit_record(job), flush=True)
        self._bump("submitted")
        self._wake.set()
        return job

    @staticmethod
    def _submit_record(job: Job) -> dict[str, Any]:
        return {
            "t": "submit",
            "job": job.job_id,
            "tenant": job.tenant,
            "seed": job.seed,
            "created": job.created_unix,
            "units": [
                {"kind": u.unit.kind, "params": u.unit.params}
                for u in job.units
            ],
        }

    # -- queries -----------------------------------------------------------
    def get(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    def status(self, job_id: str | None = None) -> Any:
        if job_id is not None:
            return self.get(job_id).status_doc()
        return [
            job.status_doc()
            for job in sorted(self.jobs.values(), key=lambda j: j.order)
        ]

    def result(self, job_id: str) -> dict[str, Any]:
        """The per-unit values of a terminal job.

        Values come from memory when this process computed them, else
        from the cache (the restart case).  A done unit whose cache
        entry was since evicted reports ``"expired"`` — resubmit to
        recompute it.
        """
        job = self.get(job_id)
        if job.state not in TERMINAL_STATES:
            raise JobNotReady(job.state)
        out = []
        missing_keys = [
            unit_key(u.unit.kind, u.unit.params, job.seed)
            for u in job.units
            if u.state == UNIT_DONE and not u.have_value
        ]
        fetched: dict[str, Any] = {}
        if missing_keys and self.cache is not None:
            fetched = dict(
                zip(missing_keys, self.cache.get_many(missing_keys))
            )
        for u in job.units:
            entry: dict[str, Any] = {
                "kind": u.unit.kind,
                "params": u.unit.params,
                "state": u.state,
            }
            if u.state == UNIT_DONE:
                if u.have_value:
                    entry["value"] = u.value
                else:
                    value = fetched.get(
                        unit_key(u.unit.kind, u.unit.params, job.seed),
                        MISS,
                    )
                    if value is MISS:
                        entry["state"] = "expired"
                    else:
                        entry["value"] = value
            elif u.error is not None:
                entry["error"] = u.error
            out.append(entry)
        return {
            "job_id": job.job_id,
            "state": job.state,
            "seed": job.seed,
            "units": out,
        }

    def cancel(self, job_id: str) -> bool:
        """Cancel a non-terminal job (durably).  Returns ``False`` if
        it was already terminal.  A batch in flight finishes on the
        worker (its values still land in the cache) but the job stays
        cancelled."""
        job = self.get(job_id)
        if job.state in TERMINAL_STATES:
            return False
        self._set_state(job, JOB_CANCELLED)
        self._wake.set()
        return True

    # -- recovery ----------------------------------------------------------
    def recover(self) -> dict[str, int]:
        """Rebuild state from the journal, then resume from the cache.

        Replay is tolerant by construction (the journal truncates its
        own corrupt tail); records that reference unknown jobs or
        out-of-range units are skipped.  Every pending unit of every
        non-terminal job is probed against the cache in one batched
        ``get_many``; hits become done units (``resumed_units``) —
        *that* is the checkpoint/restart contract: unit completion was
        the checkpoint, the probe is the restore.
        """
        records = self.journal.replay()
        restored = 0
        for doc in records:
            self._apply_record(doc)
        resumed = 0
        for job in self.jobs.values():
            if job.state in TERMINAL_STATES:
                continue
            restored += 1
            job.state = JOB_QUEUED  # a crashed "running" job re-queues
            resumed += self._resume_from_cache(job)
            self._finish_if_complete(job)
        if self.jobs:
            self._order = itertools.count(
                max(j.order for j in self.jobs.values()) + 1
            )
        self._bump("resumed_units", resumed) if resumed else None
        self._journal_flush(force=True)
        self._maybe_rotate(force=True)
        self._wake.set()
        return {
            "jobs": len(self.jobs),
            "restored": restored,
            "resumed_units": resumed,
        }

    def _apply_record(self, doc: dict[str, Any]) -> None:
        kind = doc.get("t")
        if kind == "submit":
            units = doc.get("units")
            job_id = doc.get("job")
            seed = doc.get("seed", 0)
            if not isinstance(units, list) or not units \
                    or not isinstance(job_id, str) or job_id in self.jobs \
                    or not _is_seed(seed):
                return
            try:
                parsed = [
                    _Unit(WorkUnit(u["kind"], dict(u["params"])))
                    for u in units
                ]
            except (KeyError, TypeError):
                return
            self.jobs[job_id] = Job(
                job_id=job_id,
                tenant=str(doc.get("tenant", "default")),
                units=parsed,
                seed=seed,
                order=next(self._order),
                created_unix=float(doc.get("created", 0.0)),
            )
        elif kind == "unit":
            job = self.jobs.get(doc.get("job"))
            index = doc.get("i")
            if job is None or not isinstance(index, int) \
                    or not 0 <= index < len(job.units):
                return
            unit = job.units[index]
            state = doc.get("state")
            if state == UNIT_DONE:
                unit.state = UNIT_DONE
            elif state == UNIT_QUARANTINED:
                unit.state = UNIT_QUARANTINED
                unit.error = doc.get("error")
        elif kind == "state":
            job = self.jobs.get(doc.get("job"))
            state = doc.get("state")
            if job is not None and state in TERMINAL_STATES:
                job.state = state

    def _resume_from_cache(self, job: Job) -> int:
        if self.cache is None:
            return 0
        pending = [
            (i, u) for i, u in enumerate(job.units)
            if u.state == UNIT_PENDING
        ]
        if not pending:
            return 0
        hits = self.cache.get_many(
            [
                unit_key(u.unit.kind, u.unit.params, job.seed)
                for _, u in pending
            ]
        )
        resumed = 0
        for (i, unit), value in zip(pending, hits):
            if value is MISS:
                continue
            unit.state = UNIT_DONE
            unit.value = value
            unit.have_value = True
            resumed += 1
            self._append(
                {"t": "unit", "job": job.job_id, "i": i,
                 "state": UNIT_DONE},
                flush=False,
            )
        job.resumed_units += resumed
        return resumed

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        if self._task is None:
            self._running = True
            self._task = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )

    async def drain(self, timeout_s: float | None = None) -> bool:
        """Stop dispatching and park incomplete jobs in the journal.

        Unlike the query path, nothing is lost on a timeout: jobs are
        durable, so parking is a journal flush plus stopping the loop —
        a restarted manager resumes them from the cache.  Returns
        ``True`` when the in-flight batch (if any) completed within the
        bound, ``False`` when it was abandoned to the executor.
        """
        self._parked = True
        self._running = False
        self._wake.set()
        drained = True
        if self._task is not None:
            try:
                await asyncio.wait_for(
                    asyncio.shield(self._task), timeout=timeout_s
                )
            except asyncio.TimeoutError:
                drained = False
                self._task.cancel()
                try:
                    await self._task
                except (asyncio.CancelledError, Exception):
                    pass
            self._task = None
        self._journal_flush(force=True)
        return drained

    def close(self) -> None:
        self.journal.close()

    # -- dispatch ----------------------------------------------------------
    def _eligible(self, job: Job, now: float) -> list[int]:
        return [
            i for i, u in enumerate(job.units)
            if u.state == UNIT_PENDING and u.not_before <= now
        ]

    def _next_batch(self) -> tuple[Job, list[int]] | None:
        """Fair pick: tenants in round-robin rotation; within the
        chosen tenant, oldest job first (SLURM's oldest-first requeue
        discipline); within a job, unit order.  One batch draws from
        one job, so values map back trivially and seeds never mix."""
        now = time.monotonic()
        tenants = sorted(
            {
                job.tenant
                for job in self.jobs.values()
                if job.state not in TERMINAL_STATES
            }
        )
        if not tenants:
            return None
        n = len(tenants)
        for hop in range(n):
            tenant = tenants[(self._rr_offset + hop) % n]
            jobs = sorted(
                (
                    j for j in self.jobs.values()
                    if j.tenant == tenant
                    and j.state not in TERMINAL_STATES
                ),
                key=lambda j: j.order,
            )
            for job in jobs:
                eligible = self._eligible(job, now)
                if eligible:
                    self._rr_offset = (self._rr_offset + hop + 1) % n
                    return job, eligible[: self.config.batch_units]
        return None

    def _retry_delay(self) -> float | None:
        """Seconds until the nearest backoff expiry, or ``None``."""
        now = time.monotonic()
        times = [
            u.not_before
            for job in self.jobs.values()
            if job.state not in TERMINAL_STATES
            for u in job.units
            if u.state == UNIT_PENDING
        ]
        if not times:
            return None
        return max(0.0, min(times) - now)

    async def _dispatch_loop(self) -> None:
        while self._running:
            picked = self._next_batch()
            if picked is None:
                delay = self._retry_delay()
                self._wake.clear()
                try:
                    await asyncio.wait_for(
                        self._wake.wait(),
                        timeout=delay if delay and delay > 0 else None,
                    )
                except asyncio.TimeoutError:
                    pass
                continue
            job, indices = picked
            await self._run_batch(job, indices)

    async def _run_batch(self, job: Job, indices: list[int]) -> None:
        job.state = JOB_RUNNING
        units = [job.units[i].unit for i in indices]
        rec = _obs_current()
        t0 = self._clock()
        wall0 = time.monotonic()
        try:
            values = await self._execute(units, job.seed)
            if len(values) != len(units):
                raise RuntimeError(
                    f"executor returned {len(values)} values for "
                    f"{len(units)} units"
                )
        except Exception as exc:  # noqa: BLE001 - batch-level containment
            values = [
                UnitFailure(f"{type(exc).__name__}: {exc}")
                for _ in units
            ]
        wall = time.monotonic() - wall0
        if units:
            per_unit = wall / len(units)
            self._unit_cost_s = 0.8 * self._unit_cost_s + 0.2 * per_unit
        if job.state == JOB_CANCELLED:
            return  # cancelled mid-flight: nothing to checkpoint
        now = time.monotonic()
        for i, value in zip(indices, values):
            unit = job.units[i]
            if isinstance(value, UnitFailure):
                unit.attempts += 1
                unit.error = value.error
                if unit.attempts >= self.config.max_attempts:
                    unit.state = UNIT_QUARANTINED
                    self._bump("units_quarantined")
                    self._append(
                        {"t": "unit", "job": job.job_id, "i": i,
                         "state": UNIT_QUARANTINED, "error": unit.error},
                        flush=True,
                    )
                else:
                    self._bump("units_retried")
                    backoff = min(
                        self.config.retry_backoff_s
                        * (2 ** (unit.attempts - 1)),
                        self.config.backoff_cap_s,
                    )
                    unit.not_before = now + backoff
            else:
                unit.state = UNIT_DONE
                unit.value = value
                unit.have_value = True
                if self.cache is not None:
                    # The cache entry IS the restart checkpoint, and
                    # this is its one write: executors write nothing.
                    self.cache.put(
                        unit_key(unit.unit.kind, unit.unit.params, job.seed),
                        value,
                        kind=unit.unit.kind,
                    )
                self._bump("units_done")
                self._append(
                    {"t": "unit", "job": job.job_id, "i": i,
                     "state": UNIT_DONE},
                    flush=False,
                )
        if rec is not None:
            rec.span(
                "serve.jobs.batch", "serve", t0, self._clock(),
                units=len(units), tenant=job.tenant,
            )
        self._finish_if_complete(job)
        if job.state == JOB_RUNNING:
            job.state = JOB_QUEUED

    def _finish_if_complete(self, job: Job) -> None:
        counts = job.counts
        if counts["pending"] or job.state in TERMINAL_STATES:
            return
        self._set_state(
            job, JOB_FAILED if counts["quarantined"] else JOB_DONE
        )

    def _set_state(self, job: Job, state: str) -> None:
        job.state = state
        self._append(
            {"t": "state", "job": job.job_id, "state": state}, flush=True
        )
        self._bump(state)
        self._maybe_rotate()

    # -- compaction --------------------------------------------------------
    def _maybe_rotate(self, force: bool = False) -> None:
        if not force and self.journal.size_bytes < self.config.rotate_bytes:
            self._prune_terminal()
            return
        self._prune_terminal()
        docs: list[dict[str, Any]] = []
        for job in sorted(self.jobs.values(), key=lambda j: j.order):
            docs.append(self._submit_record(job))
            for i, unit in enumerate(job.units):
                if unit.state == UNIT_DONE:
                    docs.append(
                        {"t": "unit", "job": job.job_id, "i": i,
                         "state": UNIT_DONE}
                    )
                elif unit.state == UNIT_QUARANTINED:
                    docs.append(
                        {"t": "unit", "job": job.job_id, "i": i,
                         "state": UNIT_QUARANTINED, "error": unit.error}
                    )
            if job.state in TERMINAL_STATES:
                docs.append(
                    {"t": "state", "job": job.job_id, "state": job.state}
                )
        self.journal.rotate(docs)
        self._unflushed = 0

    def _prune_terminal(self) -> None:
        terminal = sorted(
            (j for j in self.jobs.values() if j.state in TERMINAL_STATES),
            key=lambda j: j.order,
        )
        for job in terminal[: max(0, len(terminal) - self.config.keep_terminal)]:
            del self.jobs[job.job_id]


class JobNotReady(RuntimeError):
    """``result`` was asked for a job that is not terminal yet."""

    def __init__(self, state: str) -> None:
        super().__init__(f"job is {state}, not terminal")
        self.state = state
