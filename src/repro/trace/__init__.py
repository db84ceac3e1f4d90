"""Global execution tracing and mechanical property checking.

Every protocol stack reports its externally visible events (multicasts,
deliveries, view and e-view installations, mode changes, crashes,
recoveries) to a shared :class:`~repro.trace.recorder.TraceRecorder`.
The monitors in :mod:`repro.trace.checks` then verify, in one pass over
the recorded trace, the exact properties the paper states: Agreement (2.1),
Uniqueness (2.2), Integrity (2.3) for view synchrony, and Total Order
(6.1), Causal Order (6.2), Structure (6.3) for enriched views.

The recorder is also what gives experiments their *omniscient* view of
the run — the ground-truth shared-state classifier reads the sets
``S_R``/``S_N`` and the cluster decomposition straight from the trace.
"""

from repro.trace.events import (
    AppEvent,
    CrashEvent,
    DeliveryEvent,
    EViewChangeEvent,
    ModeChangeEvent,
    MulticastEvent,
    RecoverEvent,
    TraceEvent,
    ViewInstallEvent,
)
from repro.trace.recorder import TraceRecorder
from repro.trace.checks import (
    CheckReport,
    check_view_synchrony,
    check_enriched_views,
    run_check,
)

__all__ = [
    "TraceEvent",
    "MulticastEvent",
    "DeliveryEvent",
    "ViewInstallEvent",
    "EViewChangeEvent",
    "ModeChangeEvent",
    "CrashEvent",
    "RecoverEvent",
    "AppEvent",
    "TraceRecorder",
    "CheckReport",
    "check_view_synchrony",
    "check_enriched_views",
    "run_check",
]
