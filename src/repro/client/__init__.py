"""Client service tier: external access to a :class:`VersionedStore`.

The store's client API is one request/reply vocabulary
(:mod:`repro.client.protocol`) served by one router
(:mod:`repro.client.service`) and reachable two ways:

* **realnet**: ``cli`` side frames on every node's normal listening
  socket (:mod:`repro.client.client` — real TCP clients);
* **sim**: an in-process port with the same request/reply semantics
  (:mod:`repro.client.sim`), so workloads drive both runtimes through
  one client surface.
"""

from __future__ import annotations

from repro.client.protocol import ClientReply, ClientRequest
from repro.client.service import StoreService

__all__ = [
    "ClientRequest",
    "ClientReply",
    "StoreService",
]
