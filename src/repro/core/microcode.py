"""Physical microcode unit and Q control store (Section 5.3).

Quantum instructions are translated into QuMIS microinstruction sequences
using microprograms held in the Q control store, enabling
technology-independent instruction definition:

* ``Apply op, q``    ->  ``Pulse {q}, op`` + ``Wait <gate slot>``
* ``Measure q, rd``  ->  ``MPG {q}, <D>`` + ``MD {q}, rd``
* ``QNopReg rs``     ->  ``Wait <value of rs>`` (read at dispatch)
* ``<uprog> q...``   ->  the registered microprogram with formal qubits
                         bound to operands (e.g. Algorithm 2's CNOT)
* QuMIS instructions pass through unchanged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.core.config import MachineConfig
from repro.core.register_file import RegisterFile
from repro.isa import instructions as ins
from repro.isa.assembler import assemble
from repro.isa.operations import OperationTable
from repro.sim import TraceRecorder
from repro.utils.errors import MicrocodeError


@dataclass(frozen=True)
class Microprogram:
    """A Q-control-store entry: a QuMIS body over formal qubit parameters.

    The body's qubit indices 0..n_params-1 denote the formal parameters
    in operand order; expansion remaps them to the actual operands.
    """

    name: str
    n_params: int
    body: tuple[ins.Instruction, ...]

    def expand(self, actual_qubits: tuple[int, ...]) -> list[ins.Instruction]:
        if len(actual_qubits) != self.n_params:
            raise MicrocodeError(
                f"microprogram {self.name!r} takes {self.n_params} qubit(s), "
                f"got {len(actual_qubits)}")
        return [_remap_qubits(instr, actual_qubits) for instr in self.body]


def _referenced_qubits(instr: ins.Instruction) -> set[int]:
    if isinstance(instr, ins.Pulse):
        return {q for qs, _ in instr.pairs for q in qs}
    if isinstance(instr, (ins.Mpg, ins.Md)):
        return set(instr.qubits)
    return set()


def _remap_qubits(instr: ins.Instruction, mapping: tuple[int, ...]) -> ins.Instruction:
    def remap(q: int) -> int:
        if q >= len(mapping):
            raise MicrocodeError(
                f"microprogram body references formal qubit q{q} but only "
                f"{len(mapping)} parameter(s) are bound")
        return mapping[q]

    if isinstance(instr, ins.Pulse):
        pairs = tuple((tuple(remap(q) for q in qs), op) for qs, op in instr.pairs)
        return ins.Pulse(pairs=pairs)
    if isinstance(instr, ins.Mpg):
        return ins.Mpg(qubits=tuple(remap(q) for q in instr.qubits),
                       duration=instr.duration)
    if isinstance(instr, ins.Md):
        return ins.Md(qubits=tuple(remap(q) for q in instr.qubits), rd=instr.rd)
    if isinstance(instr, ins.Wait):
        return instr
    raise MicrocodeError(
        f"microprogram bodies may only contain QuMIS instructions, "
        f"found {type(instr).__name__}")


class QControlStore:
    """Named microprograms, definable from QuMIS assembly text."""

    def __init__(self, op_table: OperationTable):
        self.op_table = op_table
        self._programs: dict[str, Microprogram] = {}

    def define(self, name: str, n_params: int, body_asm: str) -> Microprogram:
        """Register a microprogram.

        ``body_asm`` is QuMIS assembly where q0..q{n_params-1} denote the
        formal qubit parameters, e.g. Algorithm 2::

            Pulse {q0}, mY90
            Wait 4
            Pulse {q0, q1}, CZ
            Wait 8
            Pulse {q0}, Y90
            Wait 4
        """
        if not 1 <= n_params <= 2:
            raise MicrocodeError("microprograms take 1 or 2 qubit parameters")
        program = assemble(body_asm, op_table=self.op_table)
        body = tuple(program.instructions)
        for instr in body:
            if not isinstance(instr, (ins.Pulse, ins.Mpg, ins.Md, ins.Wait)):
                raise MicrocodeError(
                    f"microprogram {name!r} contains non-QuMIS "
                    f"{type(instr).__name__}")
        for instr in body:
            for q in _referenced_qubits(instr):
                if q >= n_params:
                    raise MicrocodeError(
                        f"microprogram {name!r} references formal qubit q{q} "
                        f"but declares only {n_params} parameter(s)")
        uprog = Microprogram(name=name, n_params=n_params, body=body)
        self._programs[name.lower()] = uprog
        return uprog

    def lookup(self, name: str) -> Microprogram:
        try:
            return self._programs[name.lower()]
        except KeyError:
            raise MicrocodeError(f"no microprogram named {name!r}") from None

    def names(self) -> list[str]:
        return [p.name for p in self._programs.values()]

    def clear(self) -> None:
        """Drop every defined microprogram (back to construction state)."""
        self._programs.clear()

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._programs


@functools.lru_cache(maxsize=256)
def _register_wait(interval: int) -> ins.Wait:
    """The ``Wait`` a ``QNopReg`` issues for one register value.

    Instructions are immutable, so every issue with the same value (every
    round of an averaging loop) shares one instance.
    """
    return ins.Wait(interval=interval)


class PhysicalMicrocodeUnit:
    """Expands dispatched quantum instructions into QuMIS streams."""

    def __init__(self, config: MachineConfig, store: QControlStore,
                 registers: RegisterFile, trace: TraceRecorder | None = None):
        self.config = config
        self.store = store
        self.registers = registers
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)

    def expand(self, instr: ins.Instruction, now_ns: int = 0) -> list[ins.Instruction]:
        """Translate one quantum instruction into microinstructions.

        Register reads (``QNopReg``) happen here, at dispatch time, which
        is how the same instruction can be issued repeatedly with runtime-
        computed parameters (Section 5.3.2).
        """
        if isinstance(instr, (ins.Wait, ins.Pulse, ins.Mpg, ins.Md)):
            return [instr]
        if isinstance(instr, ins.WaitReg):
            value = self.registers.read(instr.rs)
            if value <= 0:
                if self.trace.enabled:
                    self.trace.emit(now_ns, "microcode", "skip_wait",
                                    rs=instr.rs, value=value)
                return []
            if self.trace.enabled:
                self.trace.emit(now_ns, "microcode", "expand",
                                what="QNopReg", interval=value)
            return [_register_wait(value)]
        if isinstance(instr, ins.Apply):
            if self.trace.enabled:
                self.trace.emit(now_ns, "microcode", "expand", what="Apply",
                                op=instr.op, qubit=instr.qubit)
            return [
                ins.Pulse.single((instr.qubit,), instr.op),
                ins.Wait(interval=self.config.gate_slot_cycles),
            ]
        if isinstance(instr, ins.Measure):
            if self.trace.enabled:
                self.trace.emit(now_ns, "microcode", "expand",
                                what="Measure", qubit=instr.qubit)
            return [
                ins.Mpg(qubits=(instr.qubit,), duration=self.config.msmt_cycles),
                ins.Md(qubits=(instr.qubit,), rd=instr.rd),
            ]
        if isinstance(instr, ins.QCall):
            uprog = self.store.lookup(instr.uprog)
            if self.trace.enabled:
                self.trace.emit(now_ns, "microcode", "expand",
                                what=instr.uprog, qubits=instr.qubits)
            return uprog.expand(instr.qubits)
        raise MicrocodeError(f"cannot expand {type(instr).__name__}")
