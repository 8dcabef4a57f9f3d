"""Unified observability layer: structured tracing and replay checking.

The paper's cluster results (Figure 6 scalability, Figure 7
interconnect, the 51%-efficiency HPL headline) are all statements about
*where time goes* — compute vs. communication vs. wait.  This package
gives every layer of the simulator one way to say it:

* :mod:`repro.obs.recorder` — :class:`TraceRecorder`, a sink for
  **spans** (named time intervals on a rank), **instants** (points in
  time), **counters** (timestamped samples) and **totals** (timeless
  aggregates).  Recording is off by default and costs one ``is None``
  check per instrumented site when disabled.
* :mod:`repro.obs.export` — Chrome trace-event JSON (open the file in
  Perfetto / ``chrome://tracing``), a canonical line serialisation, and
  a SHA-256 trace hash.  The hash is the engine's determinism oracle:
  two runs from the same seed must produce byte-identical canonical
  traces.
* :mod:`repro.obs.messages` — per-message capture and Paraver-style
  post-mortem analysis (communication matrix, stall detection).
* :mod:`repro.obs.replay` — named scenarios (reliability, IMB, HPL …)
  run under a fresh recorder, and the deterministic-replay harness that
  asserts same-seed runs hash identically.
* :mod:`repro.obs.cli` — the ``python -m repro trace`` subcommand.

Only the light modules are imported here; :mod:`~repro.obs.replay`,
:mod:`~repro.obs.messages` and :mod:`~repro.obs.cli` pull in the
cluster/apps stack and are imported lazily by their users (this also
keeps :mod:`repro.sim.engine` -> :mod:`repro.obs.recorder` free of
import cycles).
"""

from repro.obs.recorder import (
    CounterRecord,
    InstantRecord,
    SpanRecord,
    TraceRecorder,
    current,
    disable,
    enable,
    recording,
)
from repro.obs.export import (
    canonical_lines,
    canonical_text,
    to_chrome_trace,
    trace_hash,
    write_chrome_trace,
)

__all__ = [
    "CounterRecord",
    "InstantRecord",
    "SpanRecord",
    "TraceRecorder",
    "current",
    "disable",
    "enable",
    "recording",
    "canonical_lines",
    "canonical_text",
    "to_chrome_trace",
    "trace_hash",
    "write_chrome_trace",
]
