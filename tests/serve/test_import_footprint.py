"""What the router process loads.

``repro cluster-serve`` runs the router in its own process: it needs
the ring, the links and the wire, not the front end, its cache and
the simulator behind them.  ``repro.serve`` and ``repro.parallel``
resolve their public names lazily, so the router imports no numpy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, check=True,
    ).stdout.strip()


@pytest.mark.parametrize("module", ["repro.serve.cluster", "repro.serve.wire"])
def test_router_modules_load_no_simulator(module):
    out = _python(
        f"import sys, {module}\n"
        "heavy = sorted(m for m in sys.modules if m == 'numpy'\n"
        "               or m.startswith(('repro.core', 'repro.apps')))\n"
        "print(heavy)"
    )
    assert out == "[]"


def test_serve_server_loads_no_fault_module():
    """The job tier checkpoints into the result cache, so the serve
    path needs none of the simulated-fault machinery."""
    out = _python(
        "import sys, repro.serve.server\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] == ['repro', 'fault']))"
    )
    assert out == "[]"


def test_public_names_still_resolve():
    out = _python(
        "import sys\n"
        "from repro.serve import ServeRouter, CampaignFrontEnd\n"
        "from repro.parallel import run_campaign, ResultCache\n"
        "import repro.serve, repro.parallel\n"
        "print(ServeRouter.__module__, CampaignFrontEnd.__module__,\n"
        "      run_campaign.__module__, ResultCache.__module__)\n"
        "print(all(hasattr(repro.serve, n) for n in repro.serve.__all__),\n"
        "      all(hasattr(repro.parallel, n) for n in repro.parallel.__all__))"
    )
    assert out.splitlines() == [
        "repro.serve.router repro.serve.frontend repro.parallel.runner "
        "repro.parallel.cache",
        "True True",
    ]


def test_all_is_unchanged():
    import repro.parallel
    import repro.serve

    assert repro.serve.__all__ == [
        "CampaignFrontEnd", "HashRing", "Job", "JobJournal",
        "JobManager", "JobsConfig", "Overloaded", "RingClient",
        "ServeConfig", "ServeRouter", "ServeStats", "percentile",
        "request_once", "route_key", "topology_epoch",
    ]
    assert repro.parallel.__all__ == [
        "CacheStats", "CampaignReport", "ResultCache", "WorkUnit",
        "campaign_units", "code_fingerprint", "execute_unit",
        "run_campaign", "run_units", "unit_key",
    ]
    with pytest.raises(AttributeError):
        repro.serve.no_such_name
