"""Quantum microinstruction buffer (Section 5.3.2).

Decomposes timed QuMIS microinstructions into micro-operations with
timing labels and pushes them into the timing control unit's queues.
``Wait`` creates a new time point (fresh label); ``Pulse`` attaches one
micro-operation per routed channel at the current label; ``MPG``/``MD``
"can be directly translated into codeword triggers ... bypassing the
micro-operation unit", so they go to their own queues unmodified.
"""

from __future__ import annotations

from repro.core.config import MachineConfig
from repro.core.events import MdEvent, MpgEvent, PulseEvent
from repro.core.timing import TimingControlUnit
from repro.isa import instructions as ins
from repro.isa.operations import OperationTable
from repro.sim import TraceRecorder
from repro.utils.errors import ConfigurationError


class QuantumMicroinstructionBuffer:
    """Fills the timing control unit's queues from the microcode stream."""

    def __init__(self, tcu: TimingControlUnit, config: MachineConfig,
                 op_table: OperationTable, trace: TraceRecorder | None = None):
        self.tcu = tcu
        self.config = config
        self.op_table = op_table
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.current_label: int | None = None
        self._next_label = 1
        self._flux_channel = {frozenset(p): f"uop_flux{i}"
                              for i, p in enumerate(config.flux_pairs)}
        self.auto_start = config.td_auto_start
        # Decoded once per machine: the wiring and the name -> id bindings
        # of the operation table never change under it.
        self._routes: dict[tuple, tuple[tuple, ...]] = {}
        self._wired: set[tuple[int, ...]] = set()

    def reset(self) -> None:
        """Forget the label stream (for a fresh run on a reused machine)."""
        self.current_label = None
        self._next_label = 1

    # -- routing ---------------------------------------------------------

    def _route(self, pulse: ins.Pulse) -> tuple[tuple, ...]:
        """A Pulse's per-channel ``(uop, op, channel, qubits)`` routes."""
        routes = self._routes.get(pulse.pairs)
        if routes is not None:
            return routes
        routes = []
        for qubits, op in pulse.pairs:
            uop = self.op_table.id_of(op)
            if op in self.config.two_qubit_ops:
                key = frozenset(qubits)
                if key not in self._flux_channel:
                    raise ConfigurationError(
                        f"no flux channel wired for qubit pair {tuple(qubits)}")
                routes.append((uop, op, self._flux_channel[key], tuple(qubits)))
            else:
                for q in qubits:
                    self.config.device_index(q)  # validates wiring
                    routes.append((uop, op, f"uop{q}", (q,)))
        routes = self._routes[pulse.pairs] = tuple(routes)
        return routes

    def _check_wired(self, qubits: tuple[int, ...]) -> None:
        if qubits not in self._wired:
            for q in qubits:
                self.config.device_index(q)  # validates wiring
            self._wired.add(qubits)

    # -- accept one microinstruction ---------------------------------------

    def accept(self, uinstr: ins.Instruction) -> bool:
        """Push one microinstruction's queue entries.

        Returns False (accepting nothing) if any target queue lacks space —
        the back-pressure that stalls the execution controller.
        """
        if isinstance(uinstr, ins.Wait):
            if not self.tcu.has_space(1):
                return False
            label = self._next_label
            self.tcu.push_time_point(uinstr.interval, label)
            self.current_label = label
            self._next_label += 1
            self._maybe_start()
            return True

        if isinstance(uinstr, ins.Pulse):
            routes = self._route(uinstr)
            label, needed_point = self._label_for_events()
            if not self.tcu.has_space(needed_point, "pulse", len(routes)):
                return False
            self._commit_label(label, needed_point)
            for uop, op, channel, qubits in routes:
                self.tcu.push_event("pulse", PulseEvent(
                    label=label, uop=uop, op_name=op, channel=channel,
                    qubits=qubits))
            return True

        if isinstance(uinstr, ins.Mpg):
            self._check_wired(uinstr.qubits)
            label, needed_point = self._label_for_events()
            if not self.tcu.has_space(needed_point, "mpg", 1):
                return False
            self._commit_label(label, needed_point)
            self.tcu.push_event("mpg", MpgEvent(label=label, qubits=uinstr.qubits,
                                                duration_cycles=uinstr.duration))
            return True

        if isinstance(uinstr, ins.Md):
            self._check_wired(uinstr.qubits)
            label, needed_point = self._label_for_events()
            if not self.tcu.has_space(needed_point, "md", 1):
                return False
            self._commit_label(label, needed_point)
            self.tcu.push_event("md", MdEvent(label=label, qubits=uinstr.qubits,
                                              rd=uinstr.rd))
            return True

        raise ConfigurationError(
            f"QMB cannot accept {type(uinstr).__name__}; "
            f"only QuMIS microinstructions reach the buffer")

    def _label_for_events(self) -> tuple[int, int]:
        """Label for an event, plus how many time points must be created.

        Events preceding any Wait attach to an implicit time point at
        interval 0 (fire as soon as T_D starts).
        """
        if self.current_label is None:
            return self._next_label, 1
        return self.current_label, 0

    def _commit_label(self, label: int, needed_point: int) -> None:
        if needed_point:
            # Interval 0: fires the moment T_D starts counting.
            self.tcu.push_time_point(0, label)
            self.current_label = label
            self._next_label += 1
            self._maybe_start()

    def _maybe_start(self) -> None:
        if self.auto_start and not self.tcu.started:
            self.tcu.start()
