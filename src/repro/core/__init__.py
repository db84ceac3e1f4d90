"""The paper's application model and shared-state machinery.

This package is the reproduction of Sections 3, 4 and 6.2:

* :mod:`repro.core.modes` — the NORMAL / REDUCED / SETTLING execution
  modes and the transition automaton of Figure 1;
* :mod:`repro.core.mode_functions` — pluggable mode functions (quorum
  voting, static majority, always-available);
* :mod:`repro.core.cuts` — consistent cuts over recorded traces;
* :mod:`repro.core.shared_state` — the taxonomy: state transfer, state
  creation, state merging, with the paper's necessary conditions over
  ``S_R``, ``S_N`` and clusters;
* :mod:`repro.core.classify` — three classifiers: omniscient ground
  truth, flat-view local reasoning (returns ambiguity sets), and
  enriched-view local reasoning (Section 6.2);
* :mod:`repro.core.group_object` — a group-object framework implementing
  the Section 6.2 methodology (external operations within a subview,
  internal operations across the subviews of one sv-set, merge on
  success);
* :mod:`repro.core.state_transfer`, :mod:`repro.core.state_creation` —
  the transfer and creation repair protocols (each application supplies
  its own merge:
  :meth:`~repro.core.group_object.GroupObject.merge_app_states`).
"""

from repro.core.modes import Mode, ModeAutomaton, ModeTrackingApp, Transition
from repro.core.mode_functions import (
    AlwaysFullModeFunction,
    Capability,
    ModeFunction,
    QuorumModeFunction,
    StaticMajorityModeFunction,
)
from repro.core.shared_state import Diagnosis, Problem, diagnose
from repro.core.classify import (
    EnrichedVerdict,
    classify_enriched,
    classify_flat,
    ground_truth,
)

__all__ = [
    "Mode",
    "Transition",
    "ModeAutomaton",
    "ModeTrackingApp",
    "Capability",
    "ModeFunction",
    "QuorumModeFunction",
    "StaticMajorityModeFunction",
    "AlwaysFullModeFunction",
    "Problem",
    "Diagnosis",
    "diagnose",
    "ground_truth",
    "classify_flat",
    "classify_enriched",
    "EnrichedVerdict",
]
