"""``repro all --cache-dir``'s cached campaign output.

With a cache, ``repro all`` stores its whole output (the rendered
artefacts, the ``--json-dir`` texts and the unit count) as one
content-addressed object.  A run that finds it prints it without
loading the study, the runner or numpy; any run that does not find a
usable one takes the full path.  Either way, stdout (less the two
report lines) and the JSON files are byte-identical to an uncached
run's.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.parallel.cache as cache_mod
from repro.cli import (
    CAMPAIGN_OUTPUT_KIND,
    CAMPAIGN_SEED,
    _is_campaign_output,
    main,
)
from repro.parallel.cache import MISS, ResultCache, unit_key

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Package prefixes an all-hit run must not load.
SIMULATOR = (
    "repro.core", "repro.apps", "repro.sim", "repro.mpi", "repro.cluster",
    "repro.kernels", "repro.timing", "repro.net", "repro.arch",
    "repro.analysis",
)


#: Line prefixes of the report around the rendered artefacts.
REPORT = ("wrote ", "campaign: ", "cache ")


def run_all(*argv: str, quick: bool = True) -> tuple[str, list[str]]:
    """``repro all ARGV`` in process: ``(stdout less the report lines,
    the campaign and cache report lines)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["all", *(["--quick"] if quick else []), *argv]) == 0
    lines = out.getvalue().splitlines()
    return (
        "\n".join(line for line in lines if not line.startswith(REPORT)),
        [line for line in lines if line.startswith(REPORT[1:])],
    )


def json_texts(json_dir: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(json_dir.iterdir())}


def object_path(cache_dir: Path, quick: bool = True) -> Path:
    key = unit_key(CAMPAIGN_OUTPUT_KIND, {"quick": quick}, CAMPAIGN_SEED)
    return ResultCache(cache_dir)._path(key)


@pytest.fixture(scope="module")
def uncached(tmp_path_factory):
    """The uncached run: ``(stdout less the report, JSON file texts)``."""
    json_dir = tmp_path_factory.mktemp("json-uncached")
    text, report = run_all("--json-dir", str(json_dir))
    assert len(report) == 1  # no cache line without --cache-dir
    return text, json_texts(json_dir)


@pytest.fixture(scope="module")
def filled(tmp_path_factory, uncached):
    """A cache one cold ``repro all --quick --json-dir`` filled."""
    cache_dir = tmp_path_factory.mktemp("cache")
    json_dir = tmp_path_factory.mktemp("json-cold")
    text, report = run_all("--cache-dir", str(cache_dir),
                           "--json-dir", str(json_dir))
    assert report[1].endswith("0 hits / 68 misses (0% hit rate)")
    assert (text, json_texts(json_dir)) == uncached
    return cache_dir


def test_warm_run_is_one_hit_and_computes_nothing(
    filled, uncached, tmp_path, monkeypatch
):
    import repro.parallel.runner

    def no_campaign(*args, **kwargs):
        raise AssertionError("an all-hit run ran the campaign")

    monkeypatch.setattr(repro.parallel.runner, "run_campaign", no_campaign)
    text, report = run_all("--cache-dir", str(filled),
                           "--json-dir", str(tmp_path / "json"))
    assert (text, json_texts(tmp_path / "json")) == uncached
    assert report[0].startswith("campaign: 67 work units in ")
    assert report[0].endswith(" s [quick]")
    assert report[1] == f"cache {filled}: 1 hits / 0 misses (100% hit rate)"


def test_cold_run_without_json_dir_then_warm_with(uncached, tmp_path):
    """A cold run without ``--json-dir`` still stores the file texts."""
    cache_dir = tmp_path / "cache"
    assert run_all("--cache-dir", str(cache_dir))[0] == uncached[0]
    text, report = run_all("--cache-dir", str(cache_dir),
                           "--json-dir", str(tmp_path / "json"))
    assert report[1].endswith("1 hits / 0 misses (100% hit rate)")
    assert (text, json_texts(tmp_path / "json")) == uncached


def test_cold_run_with_json_dir_then_warm_without(
    filled, uncached, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    text, report = run_all("--cache-dir", str(filled))
    assert text == uncached[0]
    assert report[1].endswith("1 hits / 0 misses (100% hit rate)")
    assert os.listdir(tmp_path) == []  # no JSON file written


@pytest.mark.parametrize("corpse", [
    b'{"schema": 1, "kind": "campaign_output", "val',  # truncated
    json.dumps({"schema": 1, "kind": "campaign_output",
                "value": {"text": "stale", "n_units": 67}}).encode(),  # alien
])
def test_unusable_object_is_a_miss_and_unlinked(
    filled, uncached, tmp_path, corpse
):
    cache_dir = shutil.copytree(filled, tmp_path / "cache")
    path = object_path(cache_dir)
    path.write_bytes(corpse)
    cache = ResultCache(cache_dir)
    key = unit_key(CAMPAIGN_OUTPUT_KIND, {"quick": True}, CAMPAIGN_SEED)
    assert cache.get(key, valid=_is_campaign_output) is MISS
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)
    assert not path.exists()

    path.write_bytes(corpse)
    text, report = run_all("--cache-dir", str(cache_dir),
                           "--json-dir", str(tmp_path / "json"))
    assert (text, json_texts(tmp_path / "json")) == uncached
    # The full path ran on unit-level hits and rewrote a usable object.
    assert report[1].endswith("67 hits / 1 misses (99% hit rate)")
    assert _is_campaign_output(json.loads(path.read_text())["value"])


def test_other_code_never_hits(filled, uncached, tmp_path, monkeypatch):
    cache_dir = shutil.copytree(filled, tmp_path / "cache")
    monkeypatch.setattr(cache_mod, "code_fingerprint", lambda: "other-code")
    text, report = run_all("--cache-dir", str(cache_dir),
                           "--json-dir", str(tmp_path / "json"))
    assert (text, json_texts(tmp_path / "json")) == uncached
    assert report[1].endswith("0 hits / 68 misses (0% hit rate)")


def test_quick_and_full_never_share_an_object(filled, tmp_path):
    quick = unit_key(CAMPAIGN_OUTPUT_KIND, {"quick": True}, CAMPAIGN_SEED)
    full = unit_key(CAMPAIGN_OUTPUT_KIND, {"quick": False}, CAMPAIGN_SEED)
    assert quick != full
    cache_dir = shutil.copytree(filled, tmp_path / "cache")
    text, report = run_all("--cache-dir", str(cache_dir),
                           "--json-dir", str(tmp_path / "json"), quick=False)
    # The quick units hit; the full grid's other units and its own
    # output object miss.
    assert report[1].endswith("67 hits / 24 misses (74% hit rate)")
    assert object_path(cache_dir, quick=False).exists()
    assert (text, json_texts(tmp_path / "json")) == (
        run_all("--json-dir", str(tmp_path / "uncached"), quick=False)[0],
        json_texts(tmp_path / "uncached"),
    )


def test_all_hit_run_loads_no_simulator(filled):
    """``python -m repro all --quick --cache-dir`` on a filled cache
    imports neither numpy nor any simulator package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "all", "--quick",
         "--cache-dir", str(filled)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert "(100% hit rate)" in proc.stdout
    loaded = {line.rsplit("|", 1)[1].strip()
              for line in proc.stderr.splitlines()
              if line.startswith("import time:") and "|" in line}
    assert "repro.cli" in loaded and "repro.parallel.cache" in loaded
    heavy = sorted(m for m in loaded
                   if m == "numpy" or m.startswith(("numpy.", *SIMULATOR)))
    assert heavy == []
