"""Structured execution tracing.

Every architectural unit can emit :class:`TraceRecord` entries tagged with
the simulation time, the unit name and an event kind.  The benches that
regenerate Table 5 (the four-level decoding trace) and Figures 3/5 (the
AllXY timeline) are simple filters over this stream, and the timing
invariant tests assert directly on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator


@dataclass(frozen=True)
class TraceRecord:
    """One traced architectural event."""

    time: int  #: simulation time in ns
    unit: str  #: emitting unit, e.g. "timing_ctrl", "ctpg0", "mdu0"
    kind: str  #: event kind, e.g. "fire", "codeword", "pulse_start"
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:>9} ns] {self.unit:<14} {self.kind:<16} {parts}"


class ScheduleRecorder:
    """Records the time-ordered quantum-operation schedule of a run.

    Attached to the :class:`~repro.qubit.device.QuantumDevice` (and the
    measurement path) by the round-replay engine, it captures every
    operation applied to the density matrix — idle-decoherence intervals,
    pulse unitaries, projective measurements — plus the feedline-record
    template of each measurement.  The replay engine slices the stream
    into per-measurement segments, verifies that consecutive rounds match
    bit-for-bit, and re-applies the recorded operations to basis states to
    precompute each K-point's pre-measurement channel (see
    ``repro.core.replay``).

    Op tuples (payloads are the exact objects the device applied, so a
    replay reproduces the same floating-point results):

    * ``("idle", dt_ns)`` — decoherence over ``dt_ns`` on every qubit;
    * ``("unitary", qubits, u)`` — ``u`` applied to device ``qubits``;
    * ``("measure", qubit, p1, outcome, t_ns, basis_index)`` — projective
      measurement with its pre-measurement P(|1>), sampled outcome,
      absolute time, and the post-projection computational-basis index
      (``None`` if the collapsed state was not exactly a basis state —
      legitimate mid-round for entangled registers; the plan builders
      verify basis collapse where their soundness actually needs it).
    """

    def __init__(self):
        self.ops: list[tuple] = []
        #: one entry per feedline record: (chip_qubits, duration_ns) —
        #: a 1-tuple for plain readout, the whole register for
        #: multiplexed readout (one shared record for all of them).
        self.trace_infos: list[tuple[tuple[int, ...], int]] = []
        self.measure_count = 0
        self.ineligible: str | None = None

    def idle(self, dt_ns: int) -> None:
        self.ops.append(("idle", dt_ns))

    def unitary(self, qubits: tuple[int, ...], u) -> None:
        self.ops.append(("unitary", tuple(qubits), u))

    def measure(self, qubit: int, p1: float, outcome: int, t_ns: int,
                basis_index: int | None) -> None:
        self.ops.append(("measure", qubit, p1, outcome, t_ns, basis_index))
        self.measure_count += 1

    def trace_template(self, chip_qubits: tuple[int, ...],
                       duration_ns: int) -> None:
        """One feedline record's shape (from the readout path)."""
        self.trace_infos.append((tuple(chip_qubits), duration_ns))


class TraceRecorder:
    """Collects trace records; disabled recorders are cheap no-ops."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: list[TraceRecord] = []

    def emit(self, time: int, unit: str, kind: str, **detail: Any) -> None:
        """Record an event if tracing is enabled."""
        if self.enabled:
            self.records.append(TraceRecord(time, unit, kind, detail))

    def clear(self) -> None:
        """Drop all collected records."""
        self.records.clear()

    def filter(
        self,
        unit: str | None = None,
        kind: str | None = None,
        units: Iterable[str] | None = None,
        kinds: Iterable[str] | None = None,
    ) -> list[TraceRecord]:
        """Return records matching the given unit/kind constraints."""
        unit_set = set(units) if units is not None else None
        kind_set = set(kinds) if kinds is not None else None
        out = []
        for rec in self.records:
            if unit is not None and rec.unit != unit:
                continue
            if kind is not None and rec.kind != kind:
                continue
            if unit_set is not None and rec.unit not in unit_set:
                continue
            if kind_set is not None and rec.kind not in kind_set:
                continue
            out.append(rec)
        return out

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)
