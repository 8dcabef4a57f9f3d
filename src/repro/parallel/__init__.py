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

from repro.parallel.cache import CacheStats, ResultCache, code_fingerprint, unit_key
from repro.parallel.runner import CampaignReport, run_campaign, run_units
from repro.parallel.units import WorkUnit, campaign_units, execute_unit

__all__ = [
    "CacheStats",
    "CampaignReport",
    "ResultCache",
    "WorkUnit",
    "campaign_units",
    "code_fingerprint",
    "execute_unit",
    "run_campaign",
    "run_units",
    "unit_key",
]
