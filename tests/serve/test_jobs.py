"""The durable job tier's manager: submission, fair multi-tenant
dispatch, quotas, retry/quarantine, cancel, drain, and journal-backed
recovery with resume-from-cache.  Every test injects a fake async
executor — real unit execution rides the frontend/runner path covered
elsewhere; the contract under test here is the queue."""

import asyncio
import contextlib

import pytest

from repro.obs import recorder
from repro.parallel.cache import ResultCache, unit_key
from repro.parallel.runner import UnitFailure
from repro.serve.frontend import Overloaded
from repro.serve.jobs import (
    JobManager,
    JobNotReady,
    JobsConfig,
    campaign_job_units,
)
from repro.serve.journal import JobJournal


def run_async(coro):
    return asyncio.run(coro)


def specs(n, tag="u"):
    return [
        {"kind": "sweep_point", "params": {"tag": tag, "i": i}}
        for i in range(n)
    ]


def echo_executor(calls=None):
    async def execute(units, seed):
        if calls is not None:
            calls.append(([u.label() for u in units], seed))
        return [{"i": u.params.get("i"), "seed": seed} for u in units]

    return execute


@pytest.fixture
def make_manager():
    """Build a manager on a journal under a test's ``tmp_path``, as
    often as the test needs; every journal opened is closed at
    teardown, whether or not the test closed its manager."""

    def make(tmp_path, execute, cache=True, **cfg):
        cfg.setdefault("retry_backoff_s", 0.001)
        return JobManager(
            journals.enter_context(
                JobJournal(tmp_path / "journal", fsync=False)
            ),
            ResultCache(tmp_path / "cache") if cache else None,
            execute,
            JobsConfig(**cfg),
        )

    with contextlib.ExitStack() as journals:
        yield make


async def wait_terminal(mgr, *jobs, timeout_s=5.0):
    async def poll():
        while any(
            mgr.get(j.job_id).state not in ("done", "failed", "cancelled")
            for j in jobs
        ):
            await asyncio.sleep(0.005)

    await asyncio.wait_for(poll(), timeout=timeout_s)


class TestSubmitValidation:
    def test_empty_units_rejected(self, tmp_path, make_manager):
        mgr = make_manager(tmp_path, echo_executor())
        with pytest.raises(ValueError, match="at least one unit"):
            mgr.submit("t", [])

    def test_unknown_kind_rejected(self, tmp_path, make_manager):
        mgr = make_manager(tmp_path, echo_executor())
        with pytest.raises(ValueError, match="unknown work-unit kind"):
            mgr.submit("t", [{"kind": "nonsense", "params": {}}])

    def test_bad_tenant_rejected(self, tmp_path, make_manager):
        mgr = make_manager(tmp_path, echo_executor())
        with pytest.raises(ValueError, match="tenant"):
            mgr.submit("", specs(1))

    def test_duplicate_job_id_rejected(self, tmp_path, make_manager):
        mgr = make_manager(tmp_path, echo_executor())
        mgr.submit("t", specs(1), job_id="fixed")
        with pytest.raises(ValueError, match="duplicate job id"):
            mgr.submit("t", specs(1, tag="other"), job_id="fixed")

    @pytest.mark.parametrize("seed", ["abc", 1.5, True])
    def test_non_integer_seed_rejected(self, tmp_path, seed, make_manager):
        """Regression: a string seed was journaled and then bricked the
        next ``recover()``; a float resumed as a different job."""
        mgr = make_manager(tmp_path, echo_executor())
        with pytest.raises(ValueError, match="seed must be an integer"):
            mgr.submit("t", specs(1), seed=seed)
        assert mgr.jobs == {}
        mgr.close()
        with JobJournal(tmp_path / "journal", fsync=False) as journal:
            assert journal.replay() == []

    def test_campaign_decomposition_is_submittable(
        self, tmp_path, make_manager
    ):
        units = campaign_job_units(quick=True)
        assert len(units) > 10
        mgr = make_manager(tmp_path, echo_executor())
        job = mgr.submit("t", units)
        assert job.counts["n_units"] == len(units)


class TestExecution:
    def test_job_runs_to_done_with_values(self, tmp_path, make_manager):
        async def scenario():
            mgr = make_manager(tmp_path, echo_executor(), batch_units=4)
            await mgr.start()
            job = mgr.submit("alice", specs(10), seed=3)
            await wait_terminal(mgr, job)
            assert job.state == "done"
            result = mgr.result(job.job_id)
            assert [u["value"]["i"] for u in result["units"]] == list(range(10))
            assert all(u["value"]["seed"] == 3 for u in result["units"])
            assert mgr.totals["units_done"] == 10
            assert mgr.totals["done"] == 1
            await mgr.drain()
            mgr.close()

        run_async(scenario())

    def test_result_before_terminal_raises(self, tmp_path, make_manager):
        mgr = make_manager(tmp_path, echo_executor())
        job = mgr.submit("t", specs(1))
        with pytest.raises(JobNotReady) as exc:
            mgr.result(job.job_id)
        assert exc.value.state == "queued"

    def test_batches_never_mix_jobs_or_seeds(self, tmp_path, make_manager):
        async def scenario():
            calls = []
            mgr = make_manager(tmp_path, echo_executor(calls), batch_units=8)
            await mgr.start()
            j1 = mgr.submit("t", specs(5, tag="a"), seed=1)
            j2 = mgr.submit("t", specs(5, tag="b"), seed=2)
            await wait_terminal(mgr, j1, j2)
            for labels, seed in calls:
                tags = {l.split("tag=")[1][0] for l in labels}
                assert len(tags) == 1
                assert seed == (1 if tags == {"a"} else 2)
            await mgr.drain()
            mgr.close()

        run_async(scenario())

    def test_values_land_in_cache(self, tmp_path, make_manager):
        async def scenario():
            mgr = make_manager(tmp_path, echo_executor())
            await mgr.start()
            job = mgr.submit("t", specs(3), seed=5)
            await wait_terminal(mgr, job)
            await mgr.drain()
            mgr.close()
            cache = ResultCache(tmp_path / "cache")
            key = unit_key("sweep_point", {"tag": "u", "i": 0}, 5)
            assert cache.get(key) == {"i": 0, "seed": 5}

        run_async(scenario())


class TestFairScheduling:
    def test_tenants_interleave_round_robin(self, tmp_path, make_manager):
        """Two tenants with queued backlogs must alternate batches —
        neither waits for the other's whole job to finish first."""

        async def scenario():
            calls = []
            mgr = make_manager(tmp_path, echo_executor(calls), batch_units=2)
            # Hold dispatch until both jobs are queued.
            j_a = mgr.submit("alice", specs(6, tag="a"))
            j_b = mgr.submit("bob", specs(6, tag="b"))
            await mgr.start()
            await wait_terminal(mgr, j_a, j_b)
            owners = [
                "alice" if "tag=a" in labels[0] else "bob"
                for labels, _ in calls
            ]
            # Strict alternation while both have work: no tenant owns
            # two consecutive batches before the other's first.
            assert owners[:2] in (["alice", "bob"], ["bob", "alice"])
            assert owners.count("alice") == owners.count("bob") == 3
            assert all(a != b for a, b in zip(owners, owners[1:]))
            await mgr.drain()
            mgr.close()

        run_async(scenario())

    def test_within_tenant_oldest_job_first(self, tmp_path, make_manager):
        async def scenario():
            calls = []
            mgr = make_manager(tmp_path, echo_executor(calls), batch_units=4)
            j1 = mgr.submit("t", specs(4, tag="first"))
            j2 = mgr.submit("t", specs(4, tag="second"))
            await mgr.start()
            await wait_terminal(mgr, j1, j2)
            assert "tag=first" in calls[0][0][0]
            assert "tag=second" in calls[-1][0][0]
            await mgr.drain()
            mgr.close()

        run_async(scenario())

    def test_quota_rejects_with_hint_and_spares_other_tenant(
        self, tmp_path, make_manager
    ):
        mgr = make_manager(
            tmp_path, echo_executor(), tenant_quota_units=5
        )
        mgr.submit("greedy", specs(5))
        with pytest.raises(Overloaded) as exc:
            mgr.submit("greedy", specs(1, tag="over"))
        assert exc.value.reason == "tenant_quota"
        assert exc.value.retry_after_s > 0
        # The other tenant's quota is untouched.
        job = mgr.submit("modest", specs(5, tag="m"))
        assert job.state == "queued"

    def test_quota_frees_as_units_complete(self, tmp_path, make_manager):
        async def scenario():
            mgr = make_manager(
                tmp_path, echo_executor(), tenant_quota_units=4
            )
            await mgr.start()
            job = mgr.submit("t", specs(4))
            await wait_terminal(mgr, job)
            # Terminal jobs hold no quota.
            assert mgr.submit("t", specs(4, tag="next")).state == "queued"
            await mgr.drain()
            mgr.close()

        run_async(scenario())


class TestRetryAndQuarantine:
    def test_transient_failure_retries_to_success(
        self, tmp_path, make_manager
    ):
        attempts = {}

        async def flaky(units, seed):
            out = []
            for u in units:
                n = attempts[u.label()] = attempts.get(u.label(), 0) + 1
                if n < 2:
                    out.append(UnitFailure("RuntimeError: transient"))
                else:
                    out.append({"ok": u.params["i"]})
            return out

        async def scenario():
            mgr = make_manager(tmp_path, flaky, max_attempts=3)
            await mgr.start()
            job = mgr.submit("t", specs(3))
            await wait_terminal(mgr, job)
            assert job.state == "done"
            assert mgr.totals["units_retried"] == 3
            assert mgr.totals["units_quarantined"] == 0
            await mgr.drain()
            mgr.close()

        run_async(scenario())

    def test_poison_unit_quarantined_job_fails_with_partial_results(
        self, tmp_path, make_manager
    ):
        async def poison_one(units, seed):
            return [
                UnitFailure("ValueError: poison")
                if u.params["i"] == 1 else {"ok": u.params["i"]}
                for u in units
            ]

        async def scenario():
            with recorder.recording() as rec:
                mgr = make_manager(
                    tmp_path, poison_one, max_attempts=2, batch_units=8
                )
                await mgr.start()
                job = mgr.submit("t", specs(3))
                await wait_terminal(mgr, job)
                assert job.state == "failed"
                assert mgr.totals["units_quarantined"] == 1
                doc = job.status_doc()
                assert doc["quarantined"] == 1
                assert "poison" in doc["quarantined_units"][0]["error"]
                # Partial results remain fetchable.
                result = mgr.result(job.job_id)
                states = [u["state"] for u in result["units"]]
                assert states == ["done", "quarantined", "done"]
                assert "error" in result["units"][1]
                await mgr.drain()
                mgr.close()
            assert rec.totals["serve.jobs.units_quarantined"] == 1

        run_async(scenario())

    def test_whole_batch_executor_crash_is_contained(
        self, tmp_path, make_manager
    ):
        async def explode(units, seed):
            raise RuntimeError("executor died")

        async def scenario():
            mgr = make_manager(tmp_path, explode, max_attempts=2)
            await mgr.start()
            job = mgr.submit("t", specs(2))
            await wait_terminal(mgr, job)
            assert job.state == "failed"
            assert job.counts["quarantined"] == 2
            await mgr.drain()
            mgr.close()

        run_async(scenario())


class TestCancel:
    def test_cancel_queued_job(self, tmp_path, make_manager):
        async def scenario():
            mgr = make_manager(tmp_path, echo_executor())
            job = mgr.submit("t", specs(4))
            assert mgr.cancel(job.job_id) is True
            assert job.state == "cancelled"
            assert mgr.cancel(job.job_id) is False  # already terminal
            await mgr.start()
            await asyncio.sleep(0.02)
            assert job.counts["done"] == 0  # never dispatched
            await mgr.drain()
            mgr.close()

        run_async(scenario())

    def test_cancel_survives_restart(self, tmp_path, make_manager):
        mgr = make_manager(tmp_path, echo_executor())
        job = mgr.submit("t", specs(2))
        mgr.cancel(job.job_id)
        mgr.close()

        mgr2 = make_manager(tmp_path, echo_executor())
        mgr2.recover()
        assert mgr2.get(job.job_id).state == "cancelled"
        mgr2.close()


class TestDrain:
    def test_drain_parks_incomplete_jobs_recoverably(
        self, tmp_path, make_manager
    ):
        gate = asyncio.Event()

        async def slow(units, seed):
            await gate.wait()
            return [{"i": u.params["i"]} for u in units]

        async def scenario():
            mgr = make_manager(tmp_path, slow, batch_units=2)
            await mgr.start()
            job = mgr.submit("t", specs(6))
            await asyncio.sleep(0.02)  # first batch is now in flight
            drained = await mgr.drain(timeout_s=0.05)
            assert drained is False  # the gate never opened
            gate.set()
            mgr.close()

            # The parked job recovers as queued with all units pending.
            mgr2 = make_manager(tmp_path, echo_executor())
            info = mgr2.recover()
            assert info["restored"] == 1
            parked = mgr2.get(job.job_id)
            assert parked.state == "queued"
            assert parked.counts["pending"] == 6
            mgr2.close()

        run_async(scenario())

    def test_drain_waits_for_inflight_batch_when_it_finishes(
        self, tmp_path, make_manager
    ):
        async def scenario():
            mgr = make_manager(tmp_path, echo_executor())
            await mgr.start()
            job = mgr.submit("t", specs(2))
            await wait_terminal(mgr, job)
            assert await mgr.drain(timeout_s=1.0) is True
            mgr.close()

        run_async(scenario())


class TestRecovery:
    def test_completed_units_resume_from_cache(self, tmp_path, make_manager):
        async def scenario():
            mgr = make_manager(tmp_path, echo_executor())
            await mgr.start()
            done = mgr.submit("t", specs(4), seed=9)
            await wait_terminal(mgr, done)
            await mgr.drain()
            mgr.close()

            # A new manager sees a fresh submit whose units are all
            # already cached: recover() completes it without dispatch.
            mgr2 = make_manager(tmp_path, echo_executor())
            parked = mgr2.submit("t", specs(4), seed=9, job_id="parked")
            mgr2.journal.flush()
            mgr2.close()

            calls = []
            with recorder.recording() as rec:
                mgr3 = make_manager(tmp_path, echo_executor(calls))
                info = mgr3.recover()
            assert info["resumed_units"] == 4
            revived = mgr3.get("parked")
            assert revived.state == "done"
            assert revived.resumed_units == 4
            assert calls == []
            assert rec.totals["serve.jobs.resumed_units"] == 4
            assert rec.totals["cache.hit"] >= 4
            result = mgr3.result("parked")
            assert [u["value"]["i"] for u in result["units"]] == [0, 1, 2, 3]
            mgr3.close()

        run_async(scenario())

    def test_partially_cached_job_recomputes_only_the_rest(
        self, tmp_path, make_manager
    ):
        async def scenario():
            calls = []
            mgr = make_manager(tmp_path, echo_executor(calls), batch_units=8)
            await mgr.start()
            warm = mgr.submit("t", specs(3), seed=1)  # units 0..2 cached
            await wait_terminal(mgr, warm)
            await mgr.drain()
            mgr.close()

            mgr2 = make_manager(tmp_path, echo_executor())
            mgr2.submit("t", specs(5, tag="u"), seed=1, job_id="wide")
            mgr2.journal.flush()
            mgr2.close()

            calls2 = []
            mgr3 = make_manager(tmp_path, echo_executor(calls2))
            info = mgr3.recover()
            assert info["resumed_units"] == 3
            await mgr3.start()
            await wait_terminal(mgr3, mgr3.get("wide"))
            # Only units 3 and 4 were ever dispatched.
            dispatched = sorted(
                label for labels, _ in calls2 for label in labels
            )
            assert all("i=3" in l or "i=4" in l for l in dispatched)
            assert len(dispatched) == 2
            await mgr3.drain()
            mgr3.close()

        run_async(scenario())

    def test_terminal_jobs_survive_restart_with_results(
        self, tmp_path, make_manager
    ):
        async def scenario():
            mgr = make_manager(tmp_path, echo_executor())
            await mgr.start()
            job = mgr.submit("t", specs(2), seed=4)
            await wait_terminal(mgr, job)
            await mgr.drain()
            mgr.close()

            mgr2 = make_manager(tmp_path, echo_executor())
            mgr2.recover()
            result = mgr2.result(job.job_id)
            assert [u["value"]["i"] for u in result["units"]] == [0, 1]
            mgr2.close()

        run_async(scenario())

    def test_replay_skips_submit_records_with_non_integer_seeds(
        self, tmp_path, make_manager
    ):
        """A journal written before seeds were validated may hold a
        string or float seed: recovery skips that job (and its unit
        records) instead of raising or resuming it under another seed."""
        mgr = make_manager(tmp_path, echo_executor())
        good = mgr.submit("t", specs(1), seed=7)
        for bad_id, seed in (("str-seed", "abc"), ("float-seed", 1.5)):
            mgr.journal.append({
                "t": "submit", "job": bad_id, "tenant": "t", "seed": seed,
                "created": 0.0, "units": specs(1),
            })
            mgr.journal.append(
                {"t": "unit", "job": bad_id, "i": 0, "state": "done"}
            )
        mgr.close()

        mgr2 = make_manager(tmp_path, echo_executor())
        info = mgr2.recover()
        assert set(mgr2.jobs) == {good.job_id}
        assert mgr2.get(good.job_id).seed == 7
        assert info["jobs"] == 1
        mgr2.close()

    def test_rotation_compacts_and_preserves_state(
        self, tmp_path, make_manager
    ):
        async def scenario():
            mgr = make_manager(
                tmp_path, echo_executor(), rotate_bytes=1, keep_terminal=2
            )
            await mgr.start()
            jobs = [
                mgr.submit("t", specs(2, tag=f"j{i}")) for i in range(5)
            ]
            # keep_terminal=2 prunes old terminal jobs at rotation, so a
            # job may vanish from the manager once finished — absence
            # counts as terminal here.
            async def all_settled():
                while any(
                    j.job_id in mgr.jobs
                    and j.state not in ("done", "failed", "cancelled")
                    for j in jobs
                ):
                    await asyncio.sleep(0.005)

            await asyncio.wait_for(all_settled(), timeout=5.0)
            await mgr.drain()
            mgr.close()

            mgr2 = make_manager(tmp_path, echo_executor())
            info = mgr2.recover()
            # keep_terminal=2 pruned the oldest terminal jobs at rotate.
            assert info["jobs"] <= 3
            assert all(
                j.state == "done" for j in mgr2.jobs.values()
            )
            mgr2.close()

        run_async(scenario())


class TestCheckpointPolicyBatching:
    def test_flush_batch_is_clamped(self, tmp_path, make_manager):
        mgr = make_manager(tmp_path, echo_executor())
        mgr._unit_cost_s = 1e9  # absurdly expensive units
        assert mgr._flush_every_units() == 1
        mgr._unit_cost_s = 1e-9  # absurdly cheap units
        assert mgr._flush_every_units() == 256

    def test_expensive_fsync_raises_batching(self, tmp_path, make_manager):
        mgr = make_manager(tmp_path, echo_executor())
        mgr._unit_cost_s = 0.05
        mgr._fsync_cost_s = 1e-4
        cheap_fsync = mgr._flush_every_units()
        mgr._fsync_cost_s = 0.1
        assert mgr._flush_every_units() > cheap_fsync
