"""Exception hierarchy for the reproduction library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Misuse of the simulation kernel (scheduler, timers, processes)."""


class NetworkError(ReproError):
    """Misuse of the simulated network (unknown sites, bad topology)."""


class MembershipError(ReproError):
    """Protocol-level error in the group membership service."""


class ViewSynchronyError(ReproError):
    """Violation or misuse detected in the view-synchronous layer."""


class EnrichedViewError(ReproError):
    """Invalid subview / sv-set operation in the enriched-view layer."""


class ApplicationError(ReproError):
    """Error raised by a group-object application."""


class ClassificationError(ReproError):
    """A shared-state classifier was invoked on an ineligible event."""


class CodecError(ReproError):
    """A payload could not be encoded to / decoded from the wire format."""


class TransportError(ReproError):
    """Misuse or failure of the real-network transport layer."""
