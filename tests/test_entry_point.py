"""The package import and the ``python -m repro`` entry point.

``import repro`` resolves its public names lazily, so the entry point
runs before numpy loads and can keep OpenBLAS from starting a thread
pool the single-threaded program never uses.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _env(**extra: str) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def _python(code: str, **env: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code], env=_env(**env),
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def test_import_repro_loads_no_numpy():
    out = _python(
        "import sys, repro; print(repro.__version__, 'numpy' in sys.modules)"
    )
    assert out == f"{repro.__version__} False"


def test_public_names_resolve_lazily():
    from repro import PLATFORMS, MobileSoCStudy, get_kernel, tibidabo
    from repro.arch.catalog import PLATFORMS as platforms
    from repro.cluster.cluster import tibidabo as build
    from repro.core.study import MobileSoCStudy as study
    from repro.kernels.registry import get_kernel as kernel

    assert (MobileSoCStudy, PLATFORMS, get_kernel, tibidabo) == (
        study, platforms, kernel, build,
    )
    assert all(hasattr(repro, name) for name in repro.__all__)
    assert set(repro.__all__) <= set(dir(repro))
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name


#: ``python -m repro --help`` in process, then the setting it left.
_ENTRY = """
import os, runpy, sys
sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def test_entry_point_turns_the_blas_pool_off():
    assert _python(_ENTRY).splitlines()[-1] == "1"


def test_entry_point_keeps_a_user_setting():
    assert _python(_ENTRY, OPENBLAS_NUM_THREADS="2").splitlines()[-1] == "2"


def _serve_threads(**env: str) -> int:
    """Threads of a booted ``repro serve`` once it is listening."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--no-jobs"],
        env=_env(**env), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        for line in proc.stdout:
            if "listening on" in line:
                break
        else:
            pytest.fail("repro serve exited before listening")
        time.sleep(0.3)  # let any pool a library starts come up
        return len(os.listdir(f"/proc/{proc.pid}/task"))
    finally:
        proc.terminate()
        proc.communicate(timeout=30)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/<pid>/task"
)
def test_serve_starts_no_blas_pool():
    """As many threads as a server told ``OPENBLAS_NUM_THREADS=1``
    explicitly (on a host with one CPU OpenBLAS starts no pool anyway)."""
    assert _serve_threads() == _serve_threads(OPENBLAS_NUM_THREADS="1")
