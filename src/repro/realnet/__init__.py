"""Real-network runtime: the VS/EVS stacks over actual sockets.

The discrete-event simulator (:mod:`repro.sim` + :mod:`repro.net`) is
the fast, deterministic verification backend; this package is the
deployment surface.  It implements the same two ports the protocol
stacks are written against (:mod:`repro.ports`) on top of an asyncio
event loop and TCP:

* :class:`WallClockScheduler` — :class:`~repro.ports.SchedulerPort`
  over ``loop.call_at``;
* :class:`RealNetwork` — :class:`~repro.ports.NetworkPort` over
  length-prefixed ``bin1`` frames on per-peer TCP links, with injected
  loss/latency and a firewall predicate so the simulator's fault knobs
  carry over to live sockets;
* :class:`RealNode` / :class:`RealCluster` — per-site harness and
  in-process multi-node adapter over :mod:`repro.runtime.core`
  (ephemeral localhost ports, crash/recover/partition/heal/join,
  wall-clock ``settle``), configured by the same
  :class:`~repro.runtime.core.ClusterConfig` as every other runtime;
* :class:`RealClusterDriver` — blocking
  :class:`~repro.ports.ClusterPort` facade (event loop on a dedicated
  thread) so synchronous harness code — workloads, invariant monitors,
  the CLI — drives either wall-clock adapter exactly like a simulated
  cluster;
* :mod:`repro.realnet.codec` / :mod:`repro.realnet.codec_bin` — the
  payload registry and the wire format (see docs/protocol.md).

The protocol layers are byte-identical between backends; nothing in
fd/gms/vsync/evs knows which one it is running on.
"""

from repro.realnet.cluster import RealCluster
from repro.realnet.driver import RealClusterDriver
from repro.realnet.codec import MAX_FRAME_BYTES, register_payload
from repro.realnet.network import RealNetwork
from repro.realnet.node import RealNode, realnet_stack_config, run_standalone
from repro.realnet.wallclock import WallClockEvent, WallClockScheduler

__all__ = [
    "MAX_FRAME_BYTES",
    "RealCluster",
    "RealClusterDriver",
    "RealNetwork",
    "RealNode",
    "WallClockEvent",
    "WallClockScheduler",
    "realnet_stack_config",
    "register_payload",
    "run_standalone",
]
