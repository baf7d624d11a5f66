"""Execution controller: the classical pipeline of the quantum control unit.

Executes auxiliary classical instructions (register updates, program flow
control) and streams quantum instructions to the physical microcode unit,
"in an as-fast-as-possible fashion" with *non-deterministic* timing
(Section 5.2): each instruction costs a base issue time plus optional
uniform jitter.  The controller stalls on

* reads of registers with in-flight measurement write-backs (feedback), and
* queue back-pressure from the quantum microinstruction buffer.
"""

from __future__ import annotations

from repro.core.config import MachineConfig
from repro.core.microcode import PhysicalMicrocodeUnit
from repro.core.qmb import QuantumMicroinstructionBuffer
from repro.core.register_file import RegisterFile
from repro.isa import instructions as ins
from repro.isa.program import Program
from repro.sim import Simulator, TraceRecorder
from repro.utils.errors import ReproError
from repro.utils.rng import derive_rng


class ExecutionController:
    """Instruction fetch/execute over an assembled :class:`Program`."""

    def __init__(self, sim: Simulator, config: MachineConfig,
                 registers: RegisterFile, microcode: PhysicalMicrocodeUnit,
                 qmb: QuantumMicroinstructionBuffer,
                 trace: TraceRecorder | None = None):
        self.sim = sim
        self.config = config
        self.registers = registers
        self.microcode = microcode
        self.qmb = qmb
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self._jitter_rng = derive_rng(config.seed, "classical_jitter")

        self.program: Program | None = None
        self.pc = 0
        self.halted = True
        self.instructions_executed = 0
        self.stall_ns = 0
        self.data_memory: dict[int, int] = {}
        self._pending_uinstrs: list[ins.Instruction] = []
        self._stall_started: int | None = None
        #: per-instruction source registers, decoded once at load
        self._sources: list[tuple[int, ...]] = []

    # -- control --------------------------------------------------------------

    def load(self, program: Program) -> None:
        self.program = program
        self._sources = [self._source_registers(instr)
                         for instr in program.instructions]
        self.pc = 0
        self.halted = False
        self.instructions_executed = 0
        self._pending_uinstrs = []

    def reset(self, seed: int | None = None) -> None:
        """Return to the just-constructed state (no program loaded)."""
        self._jitter_rng = derive_rng(
            self.config.seed if seed is None else seed, "classical_jitter")
        self.program = None
        self._sources = []
        self.pc = 0
        self.halted = True
        self.instructions_executed = 0
        self.stall_ns = 0
        self.data_memory = {}
        self._pending_uinstrs = []
        self._stall_started = None

    def start(self) -> None:
        """Begin fetching at the current simulation time."""
        if self.program is None:
            raise ReproError("no program loaded")
        self.halted = False
        self.sim.after(0, self._step)

    def _issue_delay(self) -> int:
        delay = self.config.classical_issue_ns
        if self.config.classical_jitter_ns > 0:
            delay += int(self._jitter_rng.integers(
                0, self.config.classical_jitter_ns + 1))
        return delay

    def _schedule_next(self) -> None:
        if not self.halted:
            self.sim.after(self._issue_delay(), self._step)

    # -- stalls -----------------------------------------------------------------

    def _begin_stall(self) -> None:
        if self._stall_started is None:
            self._stall_started = self.sim.now

    def _end_stall(self) -> None:
        if self._stall_started is not None:
            self.stall_ns += self.sim.now - self._stall_started
            self._stall_started = None

    # -- main loop ---------------------------------------------------------------

    def _step(self) -> None:
        """Issue one slot: up to ``issue_width`` instructions.

        Width 1 models the implemented prototype; wider slots model the
        VLIW extension of Section 9.  A bundle ends early at a taken
        branch, a stall, a halt, or quantum back-pressure.
        """
        if self.halted or self.program is None:
            return
        remaining = self.config.issue_width
        while remaining > 0 and not self.halted:
            if self.pc >= len(self.program.instructions):
                self._halt("end_of_program")
                return
            instr = self.program.instructions[self.pc]

            sources = self._sources[self.pc]
            if sources and self.registers.any_pending(sources):
                # Feedback stall: a measurement result is still in flight.
                self._begin_stall()
                if self.trace.enabled:
                    self.trace.emit(self.sim.now, "exec_ctrl",
                                    "stall_pending", pc=self.pc, regs=sources)
                self.registers.wait_for(sources, self._on_unstalled)
                return

            if self.trace.enabled:
                from repro.isa.disassembler import disassemble

                self.trace.emit(self.sim.now, "exec_ctrl", "issue", pc=self.pc,
                                text=disassemble(instr))

            if instr.is_quantum:
                self._pending_uinstrs = list(
                    self.microcode.expand(instr, self.sim.now))
                if not self._try_drain():
                    return  # resumes via _on_space
                self.pc += 1
                self.instructions_executed += 1
                remaining -= 1
                continue

            pc_before = self.pc
            self._execute_classical(instr)
            self.instructions_executed += 1
            if self.halted:
                return
            remaining -= 1
            if self.pc != pc_before + 1:
                break  # control flow ends the bundle
        self._schedule_next()

    def _on_unstalled(self) -> None:
        self._end_stall()
        self.sim.after(self._issue_delay(), self._step)

    def _try_drain(self) -> bool:
        """Push expanded microinstructions to the QMB.

        Returns False on back-pressure, after registering a space waiter.
        """
        while self._pending_uinstrs:
            if not self.qmb.accept(self._pending_uinstrs[0]):
                self._begin_stall()
                if self.trace.enabled:
                    self.trace.emit(self.sim.now, "exec_ctrl",
                                    "stall_backpressure", pc=self.pc)
                self.qmb.tcu.wait_for_space(self._on_space)
                return False
            accepted = self._pending_uinstrs.pop(0)
            if isinstance(accepted, ins.Md) and accepted.rd is not None:
                # The write-back is now in flight; reads of rd stall.
                self.registers.mark_pending(accepted.rd)
        self._end_stall()
        return True

    def _on_space(self) -> None:
        if not self._try_drain():
            return
        self.pc += 1
        self.instructions_executed += 1
        self._schedule_next()

    def _halt(self, reason: str) -> None:
        self.halted = True
        self._end_stall()
        self.trace.emit(self.sim.now, "exec_ctrl", "halt", reason=reason,
                        executed=self.instructions_executed)

    # -- classical semantics -------------------------------------------------------

    @staticmethod
    def _source_registers(instr: ins.Instruction) -> tuple[int, ...]:
        if isinstance(instr, (ins.Add, ins.Sub, ins.And, ins.Or, ins.Xor)):
            return (instr.rs, instr.rt)
        if isinstance(instr, (ins.Addi, ins.Load)):
            return (instr.rs,)
        if isinstance(instr, ins.Store):
            return (instr.rt, instr.rs)
        if isinstance(instr, (ins.Beq, ins.Bne, ins.Blt)):
            return (instr.rs, instr.rt)
        if isinstance(instr, ins.WaitReg):
            return (instr.rs,)
        return ()

    def _execute_classical(self, instr: ins.Instruction) -> None:
        regs = self.registers
        next_pc = self.pc + 1
        if isinstance(instr, ins.Nop):
            pass
        elif isinstance(instr, ins.Halt):
            self._halt("halt_instruction")
            return
        elif isinstance(instr, ins.Movi):
            regs.write(instr.rd, instr.imm)
        elif isinstance(instr, ins.Add):
            regs.write(instr.rd, regs.read(instr.rs) + regs.read(instr.rt))
        elif isinstance(instr, ins.Sub):
            regs.write(instr.rd, regs.read(instr.rs) - regs.read(instr.rt))
        elif isinstance(instr, ins.And):
            regs.write(instr.rd, regs.read(instr.rs) & regs.read(instr.rt))
        elif isinstance(instr, ins.Or):
            regs.write(instr.rd, regs.read(instr.rs) | regs.read(instr.rt))
        elif isinstance(instr, ins.Xor):
            regs.write(instr.rd, regs.read(instr.rs) ^ regs.read(instr.rt))
        elif isinstance(instr, ins.Addi):
            regs.write(instr.rd, regs.read(instr.rs) + instr.imm)
        elif isinstance(instr, ins.Load):
            addr = regs.read(instr.rs) + instr.offset
            regs.write(instr.rd, self.data_memory.get(addr, 0))
        elif isinstance(instr, ins.Store):
            addr = regs.read(instr.rs) + instr.offset
            self.data_memory[addr] = regs.read(instr.rt)
        elif isinstance(instr, (ins.Beq, ins.Bne, ins.Blt)):
            a, b = regs.read(instr.rs), regs.read(instr.rt)
            taken = ((a == b) if isinstance(instr, ins.Beq)
                     else (a != b) if isinstance(instr, ins.Bne)
                     else (a < b))
            if taken:
                next_pc = self.program.label_index(instr.target)
        elif isinstance(instr, ins.Jmp):
            next_pc = self.program.label_index(instr.target)
        else:
            raise ReproError(f"unhandled classical instruction {instr!r}")
        self.pc = next_pc
