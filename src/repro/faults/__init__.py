"""Deterministic fault injection and crash-schedule exploration.

Layering note: instrumented modules (``repro.hw.pmem`` and friends)
import :mod:`repro.faults.plan` at module scope, so this package
initializer must stay dependency-light — it re-exports only the plan
and registry halves eagerly.  The explorer/workload machinery
(which imports ``repro.core`` and would create an import cycle through
the instrumented modules) is loaded lazily on first attribute access.
"""

from repro.faults.plan import (
    ACTIVE,
    NULL_PLAN,
    BaseFaultPlan,
    CountingPlan,
    CrashSchedulePlan,
    FaultSpec,
    InjectedCrash,
    InjectedEcallAbort,
    InjectedFault,
    InjectedLinkDrop,
    NullFaultPlan,
    TornFlush,
    UnfencedFence,
    flip_bit,
    get_active_plan,
    install_plan,
    installed,
)
from repro.faults.registry import (
    ABORT,
    ALL_KINDS,
    CRASH,
    DROP,
    FLIP,
    SITES,
    TORN,
    UNFENCED,
    FaultSite,
    UnknownSiteError,
    crashable_sites,
    require_site,
    sites_for_layer,
)

_LAZY = {
    "explore": "repro.faults.explorer",
    "ExploreConfig": "repro.faults.explorer",
    "ExplorationReport": "repro.faults.explorer",
    "Violation": "repro.faults.explorer",
    "WORKLOADS": "repro.faults.workload",
    "make_workload": "repro.faults.workload",
    "Workload": "repro.faults.protocol",
    "GoldenRun": "repro.faults.protocol",
    "ReplayOutcome": "repro.faults.protocol",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
