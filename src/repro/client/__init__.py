"""Client service tier: external access to a :class:`VersionedStore`.

The store's client API is one request/reply vocabulary
(:mod:`repro.client.protocol`) served by one router
(:mod:`repro.client.service`) and reachable two ways:

* **realnet**: ``cli`` side frames on every node's normal listening
  socket (:mod:`repro.client.client` — real TCP clients);
* **sim**: an in-process port with the same request/reply semantics
  (:mod:`repro.client.sim`), so workloads drive both runtimes through
  one client surface.

:func:`store_client` picks the right implementation for a
:class:`~repro.ports.ClusterPort`.
"""

from __future__ import annotations

from typing import Any

from repro.client.protocol import ClientReply, ClientRequest
from repro.client.service import StoreService

__all__ = [
    "ClientRequest",
    "ClientReply",
    "StoreService",
    "store_client",
]


def store_client(cluster: Any, site: int = 0, client_id: str = "c0") -> Any:
    """A blocking store client for ``cluster``, whatever its runtime.

    Sim clusters get the in-process port; realnet clusters get a real
    TCP client dialing ``site``'s listening socket (driven on the
    cluster's loop thread, so calls block the way every other driver
    action does).
    """
    runtime = getattr(cluster, "runtime", "sim")
    if runtime == "sim":
        from repro.client.sim import SimStoreClient

        return SimStoreClient(cluster, site=site, client_id=client_id)
    from repro.client.client import DriverStoreClient

    return DriverStoreClient(cluster, site=site, client_id=client_id)
