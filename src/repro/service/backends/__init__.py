"""Executor backends for the experiment service.

Every backend implements the :class:`ExecutorBackend` contract
(``submit(spec) -> JobFuture``, ``drain()``, ``close()``, ``stats()``)
and runs each job through :func:`execute_with_retry`, which handles
both QuMA and baseline specs.  An ``ExperimentService`` owns exactly one
of them, its engine, picked by ``backend=``:

* :class:`SerialBackend` (``"serial"``) — in-process reference
  implementation;
* :class:`ProcessBackend` (``"process"``) — local worker processes on
  the fleet transport (one socketpair each);
* :class:`FleetBackend` (``"fleet"``) — remote worker daemons over the
  fleet socket protocol (``repro worker``).

``ProcessBackend`` and ``FleetBackend`` share one dispatch path (one
job in flight per worker, the rest held client-side) and one
``WorkerLost`` recovery path.
"""

from __future__ import annotations

from repro.service.backends.base import (
    ExecutorBackend,
    execute_job,
    execute_with_retry,
)
from repro.service.backends.serial import SerialBackend
from repro.service.fleet.backend import FleetBackend
from repro.service.fleet.local import ProcessBackend, default_workers

__all__ = [
    "ExecutorBackend",
    "FleetBackend",
    "ProcessBackend",
    "SerialBackend",
    "default_workers",
    "execute_job",
    "execute_with_retry",
]
