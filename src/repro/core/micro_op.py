"""Micro-operation unit (Section 5.3.2).

Each AWG channel has one.  For every micro-operation ``uOp_i`` it stores a
codeword sequence::

    Seq_i : ([0, cw0]; [dt1, cw1]; [dt2, cw2]; ...)

where ``dt_j`` is the interval in cycles between consecutive codeword
triggers.  The default mapping forwards a micro-operation as its own
single codeword (the AllXY case: "the micro-operation unit simply forwards
the codewords").  The paper's example composite — Z emulated as Y then X,
``Seq_Z : ([0, 1]; [4, 4])`` wait, as X(cw 1) after Y(cw 4) — is expressed
with :meth:`define_sequence`.
"""

from __future__ import annotations

from repro.awg.ctpg import CodewordTriggeredPulseGenerator
from repro.sim import Simulator, TraceRecorder
from repro.utils.errors import MicrocodeError
from repro.utils.units import cycles_to_ns


class MicroOperationUnit:
    """Translates micro-operations into timed codeword triggers."""

    def __init__(self, name: str, sim: Simulator,
                 ctpg: CodewordTriggeredPulseGenerator,
                 delay_ns: int = 5, trace: TraceRecorder | None = None):
        self.name = name
        self.sim = sim
        self.ctpg = ctpg
        self.delay_ns = int(delay_ns)
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        #: uop id -> list of (interval_cycles_from_previous, codeword)
        self._sequences: dict[int, list[tuple[int, int]]] = {}

    def define_sequence(self, uop: int, seq: list[tuple[int, int]]) -> None:
        """Install ``Seq_i`` for micro-operation ``uop``.

        ``seq`` is a list of (interval cycles, codeword); the first
        interval is conventionally 0 (trigger immediately).
        """
        if not seq:
            raise MicrocodeError(f"empty codeword sequence for uop {uop}")
        for dt, cw in seq:
            if dt < 0:
                raise MicrocodeError(f"negative interval in sequence for uop {uop}")
            if cw < 0:
                raise MicrocodeError(f"negative codeword in sequence for uop {uop}")
        self._sequences[uop] = list(seq)

    def sequence_for(self, uop: int) -> list[tuple[int, int]]:
        """The installed sequence, or the default forward-as-codeword."""
        return self._sequences.get(uop, [(0, uop)])

    def trigger(self, uop: int, op_name: str = "?") -> None:
        """Fire micro-operation ``uop`` now.

        Codeword triggers leave after the unit's fixed latency, spaced by
        the sequence's intervals.
        """
        if self.trace.enabled:
            self.trace.emit(self.sim.now, self.name, "uop", uop=uop,
                            name=op_name)
        t = self.sim.now + self.delay_ns
        for dt_cycles, codeword in self.sequence_for(uop):
            t += cycles_to_ns(dt_cycles)
            self.sim.at(t, self._make_trigger(codeword))

    def _make_trigger(self, codeword: int):
        def fire():
            if self.trace.enabled:
                self.trace.emit(self.sim.now, self.name, "codeword_out",
                                codeword=codeword, ctpg=self.ctpg.name)
            self.ctpg.trigger(codeword)
        return fire
