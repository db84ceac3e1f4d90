"""Enriched view synchrony — the paper's proposed extension (Section 6).

An *enriched view* (e-view) is a view together with a two-level
structure: the members are partitioned into *subviews*, and the subviews
are partitioned into *subview sets* (sv-sets).  The run-time attaches no
meaning to the structure; it only maintains two rules that give the
application its reasoning power:

* structure can **shrink** at arbitrary times (failures remove members),
  but it can **grow only at the will of the application**, through
  :meth:`~repro.evs.manager.EViewManager.subview_merge` and
  :meth:`~repro.evs.manager.EViewManager.sv_set_merge`;
* structure is preserved across view changes (Property 6.3): processes
  that shared a subview (sv-set) keep sharing one in the next view, and
  fresh processes always enter as singleton subviews in singleton
  sv-sets.

Within a view, e-view changes are totally ordered by the view
coordinator (Property 6.1) and act as consistent cuts with respect to
application multicasts (Property 6.2).
"""

from repro.evs.eview import EvDelta, EView, EViewStructure, Subview, SvSet
from repro.evs.manager import EViewManager

__all__ = [
    "Subview",
    "SvSet",
    "EViewStructure",
    "EvDelta",
    "EView",
    "EViewManager",
]
