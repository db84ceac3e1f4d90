"""Client service tier: external access to a :class:`VersionedStore`.

One request/reply vocabulary (:mod:`repro.client.protocol`), one
server-side router (:mod:`repro.client.service`) and one retry contract
(:mod:`repro.client.core`, sans-I/O), carried out by two adapters:
:mod:`repro.client.client` over TCP ``cli`` side frames on realnet, and
:mod:`repro.client.sim` in-process on the simulator.
"""

from __future__ import annotations

from repro.client.protocol import ClientReply, ClientRequest
from repro.client.service import StoreService

__all__ = ["ClientRequest", "ClientReply", "StoreService"]
