"""View-synchronous reliable multicast.

The integration layer the paper calls "the real utility of view
synchrony ... not in its individual components but in their
integration" (Section 2): reliable multicast whose delivery guarantees
are stated *as a function of view changes*:

* **Agreement (2.1)** — processes that survive from one view to the same
  next view deliver the same set of messages;
* **Uniqueness (2.2)** — a message is delivered in at most one view;
* **Integrity (2.3)** — at-most-once delivery of genuinely multicast
  messages only.

:class:`~repro.vsync.stack.GroupStack` is the public entry point: it
wires the failure detector, the membership protocol, the per-view
channels and the enriched-view manager into a single process.
"""

from repro.vsync.events import GroupApplication
from repro.vsync.channel import ViewChannels
from repro.vsync.stack import GroupStack, StackConfig

__all__ = [
    "GroupApplication",
    "ViewChannels",
    "GroupStack",
    "StackConfig",
]
