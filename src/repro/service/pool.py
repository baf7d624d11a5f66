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
different instruments.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import replace

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
        #: release order for cross-key eviction; may hold stale entries
        #: for machines that have since been re-acquired.
        self._released: deque[tuple[str, QuMA]] = deque()
        self.builds = 0
        self.reuses = 0

    def acquire(self, config: MachineConfig) -> tuple[QuMA, bool]:
        """A machine compatible with ``config``, built or reused.

        Returns ``(machine, reused)``.  The machine's config is a private
        copy — job-side mutation (``dcu_points``) never leaks back into
        the caller's spec.  The caller must :meth:`release` the machine.
        """
        key = pool_key(config)
        with self._mutex:
            idle = self._idle.get(key)
            if idle:
                self.reuses += 1
                return idle.pop(), True
            self.builds += 1
        return QuMA(replace(config)), False

    def release(self, machine: QuMA) -> None:
        """Return a machine to the idle pool (dropped when the key is full)."""
        key = pool_key(machine.config)
        with self._mutex:
            idle = self._idle.setdefault(key, [])
            if len(idle) >= self.MAX_IDLE_PER_KEY:
                return
            idle.append(machine)
            self._released.append((key, machine))
            while self._idle_count() > self.MAX_IDLE_TOTAL and self._released:
                old_key, old_machine = self._released.popleft()
                old_idle = self._idle.get(old_key, [])
                if old_machine in old_idle:  # skip stale (re-acquired) entries
                    old_idle.remove(old_machine)
                    if not old_idle:
                        del self._idle[old_key]

    def _idle_count(self) -> int:
        return sum(len(v) for v in self._idle.values())

    def stats(self) -> dict:
        with self._mutex:
            return {"builds": self.builds, "reuses": self.reuses,
                    "idle": self._idle_count(), "keys": len(self._idle)}
