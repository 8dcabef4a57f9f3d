"""Unit tests for the observability layer: recorder semantics, the
instrumentation hooks in engine/MPI/net/cluster, exporters, and the
per-rank breakdown table."""

import json

import pytest

from repro.obs import (
    TraceRecorder,
    canonical_text,
    current,
    disable,
    enable,
    recording,
    to_chrome_trace,
    trace_hash,
    write_chrome_trace,
)


class TestRecorder:
    def test_disabled_by_default(self):
        assert current() is None

    def test_recording_context_enables_and_restores(self):
        assert current() is None
        with recording() as rec:
            assert current() is rec
        assert current() is None

    def test_nested_recording_restores_outer(self):
        with recording() as outer:
            with recording() as inner:
                assert current() is inner
            assert current() is outer

    def test_enable_disable_roundtrip(self):
        rec = enable(scenario="t")
        try:
            assert current() is rec
            assert rec.meta == {"scenario": "t"}
        finally:
            assert disable() is rec
        assert current() is None

    def test_span_validation(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError):
            rec.span("x", "compute", 2.0, 1.0)

    def test_bump_aggregates(self):
        rec = TraceRecorder()
        rec.bump("net.bytes", 100)
        rec.bump("net.bytes", 28)
        rec.bump("net.messages")
        assert rec.totals == {"net.bytes": 128.0, "net.messages": 1.0}

    def test_ranks_and_len(self):
        rec = TraceRecorder()
        rec.span("a", "compute", 0.0, 1.0, rank=3)
        rec.instant("b", "engine", 0.5, rank=1)
        rec.counter("c", 0.0, 9.0, rank=7)
        assert rec.ranks() == [1, 3, 7]
        assert len(rec) == 3


class TestCanonicalForm:
    def test_addresses_scrubbed(self):
        rec = TraceRecorder()
        rec.instant("step:<generator object f at 0x7f2a91>", "engine", 0.0)
        text = canonical_text(rec)
        assert "0x7f2a91" not in text
        assert "0xADDR" in text

    def test_hash_sensitive_to_content_and_order(self):
        a, b, c = TraceRecorder(), TraceRecorder(), TraceRecorder()
        a.span("x", "compute", 0.0, 1.0)
        a.span("y", "compute", 0.0, 2.0)
        b.span("y", "compute", 0.0, 2.0)
        b.span("x", "compute", 0.0, 1.0)
        c.span("x", "compute", 0.0, 1.0)
        c.span("y", "compute", 0.0, 2.0)
        assert trace_hash(a) == trace_hash(c)
        assert trace_hash(a) != trace_hash(b)  # order is part of the oracle

    def test_meta_excluded_from_hash(self):
        a = TraceRecorder(seed=0)
        b = TraceRecorder(seed=999)
        a.span("x", "compute", 0.0, 1.0)
        b.span("x", "compute", 0.0, 1.0)
        assert trace_hash(a) == trace_hash(b)


class TestChromeExport:
    def make(self):
        rec = TraceRecorder(scenario="unit")
        rec.span("compute", "compute", 0.001, 0.003, rank=2, flops=10)
        rec.instant("deliver", "net", 0.002, rank=1)
        rec.counter("cluster.power_w", 0.0, 800.0)
        rec.bump("net.bytes", 64)
        return rec

    def test_phases_and_units(self):
        doc = to_chrome_trace(self.make())
        evs = doc["traceEvents"]
        phases = {e["ph"] for e in evs}
        assert phases == {"M", "X", "i", "C"}
        span = next(e for e in evs if e["ph"] == "X")
        assert span["ts"] == pytest.approx(1000.0)  # µs
        assert span["dur"] == pytest.approx(2000.0)
        assert span["tid"] == 2
        assert doc["otherData"]["totals"] == json.dumps({"net.bytes": 64.0})

    def test_written_file_is_valid_json(self, tmp_path):
        path = write_chrome_trace(self.make(), str(tmp_path / "t.json"))
        doc = json.loads(open(path).read())
        assert "traceEvents" in doc


class TestEngineHooks:
    def test_engine_emits_fire_and_step(self):
        from repro.sim.engine import Engine

        with recording() as rec:
            eng = Engine()

            def proc():
                yield eng.timeout(1.0)
                yield eng.timeout(0.5)

            eng.process(proc(), name="p")
            eng.run()
        fires = [i for i in rec.instants if i.name == "fire"]
        steps = [i for i in rec.instants if i.name.startswith("step:")]
        assert len(fires) >= 3  # initial step + two timer fires
        assert any(i.name == "step:p" for i in steps)
        assert rec.totals["engine.scheduled"] >= 3

    def test_engine_created_outside_recording_stays_silent(self):
        from repro.sim.engine import Engine

        eng = Engine()
        with recording() as rec:
            eng.timeout(1.0)
            eng.run()
        assert len(rec) == 0
        assert eng._rec is None


class TestMPISpans:
    def run_pair(self):
        from repro.mpi.api import MPIWorld, UniformNetwork
        from repro.net.protocol import TCP_IP, ProtocolStack

        stack = ProtocolStack(TCP_IP, core_name="Cortex-A9")
        with recording() as rec:
            world = MPIWorld(2, UniformNetwork(stack))

            def prog(ctx):
                if ctx.rank == 0:
                    yield ctx.compute(1e-3)
                    yield from ctx.send(1, b"x" * 64)
                    return None
                msg = yield from ctx.recv(0)
                return msg.nbytes

            res = world.run(prog)
        return rec, res

    def test_span_categories_present(self):
        rec, res = self.run_pair()
        assert res.results[1] == 64
        cats = {s.cat for s in rec.spans}
        assert {"compute", "comm", "wait", "net"} <= cats

    def test_compute_span_times(self):
        rec, _ = self.run_pair()
        (comp,) = rec.spans_by_cat("compute")
        assert comp.rank == 0
        assert comp.duration_s == pytest.approx(1e-3)

    def test_wait_span_matches_stats(self):
        rec, res = self.run_pair()
        (wait,) = rec.spans_by_cat("wait")
        assert wait.rank == 1
        assert wait.duration_s == pytest.approx(res.stats[1].comm_wait_s)

    def test_net_span_and_delivery_instant(self):
        rec, _ = self.run_pair()
        (xfer,) = rec.spans_by_cat("net")
        deliver = [i for i in rec.instants if i.name == "deliver"]
        assert len(deliver) == 1
        assert deliver[0].rank == 1
        assert deliver[0].t == pytest.approx(xfer.t1)

    def test_bytes_counter(self):
        rec, _ = self.run_pair()
        counters = [c for c in rec.counters if c.name == "mpi.bytes_sent"]
        assert counters and counters[-1].value == 64


class TestNetCounters:
    def test_protocol_stack_totals(self):
        from repro.net.protocol import OPEN_MX, TCP_IP, ProtocolStack

        stack = ProtocolStack(TCP_IP, core_name="Cortex-A9")
        with recording() as rec:
            stack.transfer_time_s(3000)
            stack.transfer_time_s(100)
        assert rec.totals["net.messages"] == 2
        assert rec.totals["net.bytes"] == 3100
        assert rec.totals["net.frames"] == 3  # ceil(3000/1500) + 1
        assert "net.rendezvous" not in rec.totals

        mx = ProtocolStack(OPEN_MX, core_name="Cortex-A9")
        with recording() as rec:
            mx.transfer_time_s(64 * 1024)
        assert rec.totals["net.rendezvous"] == 1

    def test_link_frames_for(self):
        from repro.net.link import GBE

        assert GBE.frames_for(0) == 1
        assert GBE.frames_for(1500) == 1
        assert GBE.frames_for(1501) == 2
        with pytest.raises(ValueError):
            GBE.frames_for(-1)

    def test_link_wire_time(self):
        from repro.net.link import GBE

        # 1 Gb/s = 8 ns/byte: 1000 bytes take 8 µs on the wire.
        assert GBE.wire_time_s(1000) == pytest.approx(8e-6)


class TestClusterHooks:
    def test_boot_failures_recorded(self):
        from repro.cluster.reliability import PCIeFaultInjector

        with recording() as rec:
            inj = PCIeFaultInjector(p_boot_failure=0.5, seed=3)
            healthy = inj.boot_nodes(64)
        failures = [
            i for i in rec.instants if i.name == "pcie.boot_failure"
        ]
        assert len(failures) == int((~healthy).sum()) > 0
        assert rec.totals["cluster.boot_attempts"] == 64

    def test_degraded_cluster_node_up_down(self):
        from repro.cluster.cluster import degraded_tibidabo

        with recording() as rec:
            cluster, lost = degraded_tibidabo(n_nodes=32, seed=1)
        ups = [i for i in rec.instants if i.name == "node.up"]
        downs = [i for i in rec.instants if i.name == "node.down"]
        assert len(ups) == cluster.n_nodes
        assert len(downs) == lost
        assert rec.totals.get("cluster.nodes_lost", 0.0) == lost

    def test_power_sample_counter(self):
        from repro.cluster.cluster import tibidabo
        from repro.cluster.power import ClusterPowerModel

        model = ClusterPowerModel()
        cluster = tibidabo(8)
        with recording() as rec:
            watts = model.sample(cluster, 12.5)
        (c,) = [c for c in rec.counters if c.name == "cluster.power_w"]
        assert c.t == 12.5
        assert c.value == pytest.approx(watts)
        assert watts == pytest.approx(model.total_power_watts(cluster))


class TestBreakdownTable:
    def test_rank_breakdown_sums(self):
        from repro.analysis import rank_breakdown, render_rank_breakdown

        rec = TraceRecorder()
        rec.span("compute", "compute", 0.0, 2.0, rank=0)
        rec.span("send->1", "comm", 2.0, 2.5, rank=0)
        rec.span("recv<-0", "wait", 0.0, 3.0, rank=1)
        b = rank_breakdown(rec)
        assert b[0]["compute"] == pytest.approx(2.0)
        assert b[0]["comm"] == pytest.approx(0.5)
        assert b[1]["wait"] == pytest.approx(3.0)
        table = render_rank_breakdown(rec)
        assert "makespan" in table and "all" in table

    def test_empty_breakdown(self):
        from repro.analysis import render_rank_breakdown

        assert "no rank spans" in render_rank_breakdown(TraceRecorder())


class TestTraceCLI:
    def test_summary_and_hash(self, capsys):
        from repro.obs.cli import trace_main

        assert trace_main(["pingpong", "--summary"]) == 0
        out = capsys.readouterr().out
        assert "trace hash" in out
        assert "rank" in out and "compute" in out

    def test_check_passes(self, capsys):
        from repro.obs.cli import trace_main

        assert trace_main(["reliability", "--check", "--runs", "3"]) == 0
        assert "deterministic across 3 runs: OK" in capsys.readouterr().out

    def test_out_writes_chrome_json(self, tmp_path, capsys):
        from repro.obs.cli import trace_main

        out = tmp_path / "trace.json"
        assert trace_main(["pingpong", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_dispatch_through_main_cli(self, capsys):
        from repro.cli import main

        assert main(["trace", "imb"]) == 0
        assert "trace hash" in capsys.readouterr().out
