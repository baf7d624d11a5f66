"""Machine pool: reuse QuMA instances across jobs with compatible configs.

Building a :class:`~repro.core.quma.QuMA` is dominated by readout
calibration (hundreds of synthesized shots per qubit) and LUT
construction.  Both are deterministic functions of the configuration, so
a machine built once can serve every job whose config matches — each job
gets a :meth:`~repro.core.quma.QuMA.reset` with its own run seed, which
restores the just-constructed state bit-for-bit.

Compatibility is keyed on :meth:`MachineConfig.fingerprint` excluding
``dcu_points`` (the data collection unit is resized per job by the
reset).  ``config.seed`` stays *in* the key: it seeds the readout
calibration, so machines built from different base seeds are physically
different instruments.  The worker takes the key once per job and
passes it to acquire, release and the replay cache; the pool never
hashes a config.  Configs are frozen and keep their key, so machines
are built on the caller's config itself.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.config import MachineConfig
from repro.core.quma import QuMA

#: Config fields that machine reset handles per job.
POOL_KEY_EXCLUDE = ("dcu_points",)


def pool_key(config: MachineConfig) -> str:
    """Compatibility key: which machines can serve which jobs."""
    return config.fingerprint(exclude=POOL_KEY_EXCLUDE)


class MachinePool:
    """Idle QuMA instances grouped by config compatibility key."""

    #: Idle machines kept per compatibility key; a release past it drops
    #: the machine.
    MAX_IDLE_PER_KEY = 4
    #: Idle machines kept in all.  Bounds memory for long-lived pools
    #: (such as a worker daemon's) sweeping many distinct configs: when
    #: the bound is hit, the least-recently-released machine is evicted,
    #: whatever key it belongs to.
    MAX_IDLE_TOTAL = 16

    def __init__(self):
        # A serial engine runs jobs on every thread that submits; machine
        # *construction* stays outside the lock (it dominates and is
        # purely local), only the idle bookkeeping is guarded.
        self._mutex = threading.Lock()
        self._idle: dict[str, list[QuMA]] = {}
        #: Every idle machine and its key in release order, for cross-key
        #: eviction; acquiring a machine removes its entry.
        self._released: OrderedDict[QuMA, str] = OrderedDict()
        self.builds = 0
        self.reuses = 0

    def acquire(self, config: MachineConfig, key: str) -> tuple[QuMA, bool]:
        """A machine for ``key`` (``pool_key(config)``), built or reused.

        Returns ``(machine, reused)``.  A built machine holds the
        caller's (frozen) config; a job's K lives on the machine.  The
        caller must :meth:`release` it under ``key``.
        """
        with self._mutex:
            idle = self._idle.get(key)
            if idle:
                machine = idle.pop()
                del self._released[machine]
                self.reuses += 1
                return machine, True
            self.builds += 1
        return QuMA(config), False

    def release(self, machine: QuMA, key: str) -> None:
        """Return a machine to the idle pool under its acquire ``key``
        (dropped when the key is full)."""
        with self._mutex:
            idle = self._idle.setdefault(key, [])
            if len(idle) >= self.MAX_IDLE_PER_KEY:
                return
            idle.append(machine)
            self._released[machine] = key
            while len(self._released) > self.MAX_IDLE_TOTAL:
                old_machine, old_key = self._released.popitem(last=False)
                old_idle = self._idle[old_key]
                old_idle.remove(old_machine)
                if not old_idle:
                    del self._idle[old_key]

    def stats(self) -> dict:
        with self._mutex:
            return {"builds": self.builds, "reuses": self.reuses,
                    "idle": len(self._released), "keys": len(self._idle)}
