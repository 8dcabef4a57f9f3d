"""repro — reproduction of "Supercomputing with Commodity CPUs: Are
Mobile SoCs Ready for HPC?" (Rajovic et al., SC'13).

The package rebuilds the paper's entire evaluation as calibrated models
and simulators:

* :mod:`repro.arch` — the Table 1 platforms (Tegra 2/3, Exynos 5250,
  Core i7-2760QM) as parametric micro-architecture models,
* :mod:`repro.kernels` — the 11-kernel micro-benchmark suite (Table 2)
  plus STREAM, functionally real in NumPy,
* :mod:`repro.timing` — roofline timing and the Yokogawa power-meter
  measurement procedure (Figures 3-5),
* :mod:`repro.net` / :mod:`repro.mpi` / :mod:`repro.sim` — TCP/IP vs
  Open-MX protocol stacks, switches, and a discrete-event MPI simulator
  (Figure 7),
* :mod:`repro.cluster` — the Tibidabo prototype, cluster power,
  NFS/SLURM, and Section 6's reliability models,
* :mod:`repro.apps` — HPL, PEPC, HYDRO, GROMACS, SPECFEM3D (Figure 6),
* :mod:`repro.core` — TOP500 trends (Figures 1-2), metrics (Table 4)
  and the :class:`~repro.core.study.MobileSoCStudy` orchestrator,
* :mod:`repro.analysis` — text renderings and paper-vs-measured reports.

Quickstart::

    from repro import MobileSoCStudy
    study = MobileSoCStudy()
    print(study.headline_hpl())   # ~97 GFLOPS, ~51%, ~120 MFLOPS/W
"""

__version__ = "1.0.0"

#: Public name -> the module that defines it.  Resolved on first access
#: (PEP 562), so ``import repro`` loads no model code and no numpy: the
#: ``python -m repro`` entry point runs before either.
_EXPORTS = {
    "MobileSoCStudy": "repro.core.study",
    "PLATFORMS": "repro.arch.catalog",
    "get_platform": "repro.arch.catalog",
    "KERNELS": "repro.kernels.registry",
    "get_kernel": "repro.kernels.registry",
    "tibidabo": "repro.cluster.cluster",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
