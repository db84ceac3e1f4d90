"""Reproduction of *On Programming with View Synchrony* (ICDCS 1996).

Babaoğlu, Bartoli and Dini's paper analyses the *shared state problem*
in view-synchronous programming — state transfer, state creation and
state merging — and proposes *enriched view synchrony* (subviews and
sv-sets) to make the problem locally classifiable.  This package builds
the complete system the paper describes, from the asynchronous network
up:

``repro.sim`` / ``repro.net``
    deterministic discrete-event kernel and partitionable network;
``repro.fd`` / ``repro.gms`` / ``repro.vsync``
    failure detection, partitionable membership, view-synchronous
    multicast (Properties 2.1-2.3);
``repro.evs``
    enriched views: subviews, sv-sets, merge calls (Properties 6.1-6.3);
``repro.core``
    the paper's application model — N/R/S modes (Figure 1), the
    shared-state taxonomy and its classifiers, group objects, state
    transfer / creation / merging machinery;
``repro.isis``
    the Isis-style primary-partition baseline (Section 5);
``repro.apps``
    the paper's example applications (replicated file, parallel-lookup
    database, majority lock manager);
``repro.trace`` / ``repro.workload``
    trace recording, property checkers, fault-schedule generators and
    the experiment harness behind EXPERIMENTS.md;
``repro.bench``
    the two perf gates CI runs (scale and tracing overhead).

Quickstart::

    from repro import Cluster

    cluster = Cluster(n_sites=3, config=None)
    cluster.settle()
    cluster.stack_at(0).multicast("hello group")
    cluster.run_for(10)
"""

from repro.errors import (
    ApplicationError,
    ClassificationError,
    EnrichedViewError,
    InvariantViolation,
    MembershipError,
    NetworkError,
    ReproError,
    SimulationError,
    ViewSynchronyError,
)
from repro.types import (
    Message,
    MessageId,
    ProcessId,
    SiteId,
    SubviewId,
    SvSetId,
    ViewId,
)
from repro.gms.view import View
from repro.evs.eview import EView, EViewStructure, Subview, SvSet
from repro.vsync.events import GroupApplication
from repro.vsync.stack import GroupStack, StackConfig
from repro.runtime.cluster import Cluster, ClusterConfig

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "SimulationError",
    "NetworkError",
    "MembershipError",
    "ViewSynchronyError",
    "EnrichedViewError",
    "ApplicationError",
    "InvariantViolation",
    "ClassificationError",
    "ProcessId",
    "SiteId",
    "ViewId",
    "MessageId",
    "Message",
    "SubviewId",
    "SvSetId",
    "View",
    "EView",
    "EViewStructure",
    "Subview",
    "SvSet",
    "GroupApplication",
    "GroupStack",
    "StackConfig",
    "Cluster",
    "ClusterConfig",
    "__version__",
]
