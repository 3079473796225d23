"""Distributed span evaluation over TCP remote workers.

The pipe transport (:mod:`repro.core.transport`) and this package are
two codecs over one frame protocol: the same opcodes, the same
``HANDLERS`` dispatch, the same :mod:`repro.core.wire` payloads.  A
``rcgp worker`` process dials the coordinator's
:class:`~repro.cluster.fleet.ClusterFleet`, handshakes (protocol
version, shared token, cpu slots) and then serves exactly the frames a
local pipe worker serves.  The fleet contributes its idle workers as
channels to the engine's one :class:`~repro.core.engine.ClusterDispatch`
(re-exported here with its per-slice
:class:`~repro.core.engine.ClusterBackend`), which ships every span to
a remote worker when one is idle, else to the local pipe worker, with
the standard fault recovery — so results stay bit-identical to the
serial loop whatever the fleet does.
"""

from ..core.engine import ClusterBackend, ClusterDispatch
from .fleet import ClusterFleet, RemoteChannel, RemoteWorker
from .protocol import PROTOCOL_VERSION, SocketChannel
from .worker import run_worker

__all__ = [
    "ClusterBackend",
    "ClusterDispatch",
    "ClusterFleet",
    "PROTOCOL_VERSION",
    "RemoteChannel",
    "RemoteWorker",
    "SocketChannel",
    "run_worker",
]
