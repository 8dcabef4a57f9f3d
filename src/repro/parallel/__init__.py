"""Campaign execution with a persistent result cache.

The paper's campaign decomposes into independent pieces: every Figure
3/4 operating point (platform x frequency x core mode), every Figure 6
point (application x node count) and the headline HPL run is a pure
function of the model code and its coordinates.  This package

* decomposes the campaign into those :class:`~repro.parallel.units.WorkUnit`\\ s,
* executes them in one process (:mod:`repro.parallel.runner`) with a
  deterministic merge, and
* memoises unit results in a content-addressed on-disk cache
  (:mod:`repro.parallel.cache`) keyed by the unit coordinates *and* a
  fingerprint of the package source, so a code change invalidates
  everything automatically.

The merged output is byte-identical to the serial
:meth:`~repro.core.study.MobileSoCStudy.run_all`: each unit owns its
own deterministically seeded RNG (see
:meth:`repro.core.study.MobileSoCStudy.sweep_point`), floats survive
the JSON cache round-trip exactly, and merge order is fixed by the unit
plan, never by completion order.  DESIGN.md section 10 carries the full
argument.
"""

#: Public name -> the module that defines it, resolved on first access
#: (PEP 562), so ``repro.parallel.cache`` loads without the runner, the
#: unit kinds and the simulator behind them.
_EXPORTS = {
    "CacheStats": "repro.parallel.cache",
    "CampaignReport": "repro.parallel.runner",
    "ResultCache": "repro.parallel.cache",
    "WorkUnit": "repro.parallel.units",
    "campaign_units": "repro.parallel.units",
    "code_fingerprint": "repro.parallel.cache",
    "execute_unit": "repro.parallel.units",
    "run_campaign": "repro.parallel.runner",
    "run_units": "repro.parallel.runner",
    "unit_key": "repro.parallel.cache",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.parallel' has no attribute {name!r}"
        )
    import importlib

    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
