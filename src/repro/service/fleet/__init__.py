"""Distributed executor fleet: remote workers behind ``ExecutorBackend``.

The fleet extends the service layer across host boundaries:

* :mod:`repro.service.fleet.protocol` — the length-prefixed socket
  protocol (hello/welcome handshake with version checks, submit/result,
  heartbeat, stats and shutdown frames);
* :mod:`repro.service.fleet.worker` — :class:`WorkerServer`, the
  ``repro worker`` daemon hosting a warm machine pool and compile/replay
  caches;
* :mod:`repro.service.fleet.client` — :class:`WorkerClient`, one
  multiplexed connection to a worker with reader + heartbeat threads;
* :mod:`repro.service.fleet.backend` — :class:`FleetBackend`, jobs
  dispatched across N workers (one in flight per worker slot), mapping
  dead connections and missed heartbeats to
  :class:`~repro.utils.errors.WorkerLost` so the retry/quarantine
  machinery recovers;
* :mod:`repro.service.fleet.local` — :class:`ProcessBackend`, the same
  executor over local worker processes on socketpairs;
* :mod:`repro.service.fleet.launch` — subprocess helpers for loopback
  fleets (tests, benchmarks, examples).

Job execution stays a pure function of the spec, so fleet results are
bit-identical to the serial backend — including sweeps that lose a
worker mid-flight (see DESIGN.md "The fleet").
"""

from __future__ import annotations

from repro.service.fleet.backend import (
    FLEET_WORKERS_ENV,
    FleetBackend,
    fleet_addresses_from_env,
)
from repro.service.fleet.client import WorkerClient
from repro.service.fleet.protocol import PROTOCOL_VERSION
from repro.service.fleet.worker import WorkerServer

__all__ = [
    "FLEET_WORKERS_ENV",
    "FleetBackend",
    "PROTOCOL_VERSION",
    "WorkerClient",
    "WorkerServer",
    "fleet_addresses_from_env",
]
