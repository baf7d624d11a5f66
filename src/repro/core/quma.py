"""The QuMA machine: every unit of Figure 4/7 wired together.

Construction builds the full control stack over a simulated transmon
device: execution controller -> physical microcode unit -> quantum
microinstruction buffer -> timing control unit -> micro-operation units ->
CTPGs -> qubits, plus the measurement path (digital output, MDUs, data
collection unit) and the register-file feedback loop.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.awg.ctpg import CodewordTriggeredPulseGenerator
from repro.core.config import MachineConfig
from repro.core.execution_controller import ExecutionController
from repro.core.measurement import MeasurementPath
from repro.core.micro_op import MicroOperationUnit
from repro.core.microcode import PhysicalMicrocodeUnit, QControlStore
from repro.core.qmb import QuantumMicroinstructionBuffer
from repro.core.register_file import RegisterFile
from repro.core.timing import TimingControlUnit
from repro.isa.assembler import assemble
from repro.isa.operations import DEFAULT_OPERATIONS, OperationTable
from repro.isa.program import Program
from repro.pulse.envelopes import square
from repro.pulse.lut import WaveformLUT, build_single_qubit_lut
from repro.pulse.waveform import Waveform
from repro.qubit.device import QuantumDevice
from repro.readout.calibration import ReadoutCalibration, calibrate_readout
from repro.readout.data_collection import DataCollectionUnit
from repro.readout.mdu import MeasurementDiscriminationUnit
from repro.sim import Simulator, TraceRecorder
from repro.utils.errors import ReproError
from repro.utils.units import cycles_to_ns


@dataclass
class RunResult:
    """Summary of one machine run."""

    completed: bool
    duration_ns: int
    instructions_executed: int
    timing_violations: list = field(default_factory=list)
    registers: list[int] = field(default_factory=list)
    averages: np.ndarray | None = None
    measurements: int = 0
    orphan_discriminations: int = 0
    stall_ns: int = 0
    #: rounds served by the replay fast path (0 = full event-driven run).
    #: When > 0, ``duration_ns``/``instructions_executed``/``stall_ns`` are
    #: extrapolated from the recorded rounds (see DESIGN.md).
    replayed_rounds: int = 0


def calibration_key(config: MachineConfig, qubit: int) -> tuple:
    """The content that decides one wired qubit's readout calibration.

    The first wired qubit keeps the historical shared noise stream
    (``None``: single-qubit runs stay bit-identical across versions);
    the others calibrate on their own ``q{n}`` streams.
    """
    return (config.readout_for(qubit), cycles_to_ns(config.msmt_cycles),
            config.calibration_shots, config.seed,
            None if qubit == config.qubits[0] else qubit)


@functools.lru_cache(maxsize=64)
def cached_calibration(params, msmt_ns, n_shots, seed, stream):
    """:func:`calibrate_readout`, memoized on :func:`calibration_key`."""
    return calibrate_readout(params, msmt_ns, n_shots=n_shots, seed=seed,
                             qubit=stream)


def readout_calibrations(config: MachineConfig, qubits=None
                         ) -> dict[int, ReadoutCalibration]:
    """Per-qubit readout calibrations (default: every wired qubit).

    QuMA, the mitigation layer and the baseline all take their records
    from this one bounded, process-wide memo.  It is keyed on
    :func:`calibration_key` at each call, never on the config object,
    so equal-content configs share a record.  Records are
    immutable; never modify one.
    """
    qubits = config.qubits if qubits is None else qubits
    return {q: cached_calibration(*calibration_key(config, q)) for q in qubits}


def check_run_result(result: RunResult) -> None:
    """Raise unless a run completed cleanly with a full data round."""
    if not result.completed:
        raise ReproError("experiment program did not run to completion")
    if result.timing_violations:
        raise ReproError(
            f"{len(result.timing_violations)} timing violations during run")
    if result.averages is None:
        raise ReproError("no complete data-collection round")


class QuMA:
    """The assembled quantum microarchitecture."""

    def __init__(self, config: MachineConfig | None = None,
                 op_table: OperationTable | None = None):
        self.config = config if config is not None else MachineConfig()
        self.op_table = op_table.copy() if op_table else DEFAULT_OPERATIONS.copy()
        self.sim = Simulator()
        self.trace = TraceRecorder(enabled=self.config.trace_enabled)

        # -- quantum device -------------------------------------------------
        self.device = QuantumDevice(
            list(self.config.transmons),
            f_ssb_hz=self.config.f_ssb_hz,
            drive_detuning_hz=self.config.drive_detuning_hz,
            seed=self.config.seed,
        )

        # -- analog-digital interface: drive direction ----------------------
        self.ctpgs: dict[str, CodewordTriggeredPulseGenerator] = {}
        self.uop_units: dict[str, MicroOperationUnit] = {}
        drive_lut = build_single_qubit_lut(
            self.config.calibration,
            op_ids={name: self.op_table.id_of(name)
                    for name in ("I", "X180", "X90", "mX90", "Y180", "Y90", "mY90")})
        for q in self.config.qubits:
            ctpg = CodewordTriggeredPulseGenerator(
                name=f"ctpg{q}", sim=self.sim, lut=drive_lut,
                target_qubits=(self.config.device_index(q),),
                sink=self.device.play_waveform,
                fixed_delay_ns=self.config.ctpg_delay_ns, trace=self.trace)
            self.ctpgs[f"ctpg{q}"] = ctpg
            self.uop_units[f"uop{q}"] = MicroOperationUnit(
                name=f"uop{q}", sim=self.sim, ctpg=ctpg,
                delay_ns=self.config.uop_delay_ns, trace=self.trace)
        for i, pair in enumerate(self.config.flux_pairs):
            flux_lut = WaveformLUT()
            flux_lut.upload(self.op_table.id_of("CZ"), Waveform(
                "CZ", square(40, 0.5, rise_ns=4), meta={"kind": "cz"}))
            ctpg = CodewordTriggeredPulseGenerator(
                name=f"ctpg_flux{i}", sim=self.sim, lut=flux_lut,
                target_qubits=tuple(self.config.device_index(q) for q in pair),
                sink=self.device.play_waveform,
                fixed_delay_ns=self.config.ctpg_delay_ns, trace=self.trace)
            self.ctpgs[f"ctpg_flux{i}"] = ctpg
            self.uop_units[f"uop_flux{i}"] = MicroOperationUnit(
                name=f"uop_flux{i}", sim=self.sim, ctpg=ctpg,
                delay_ns=self.config.uop_delay_ns, trace=self.trace)

        # -- measurement direction -------------------------------------------
        calibrations = readout_calibrations(self.config)
        self.mdus = {q: MeasurementDiscriminationUnit(qubit=q, calibration=cal)
                     for q, cal in calibrations.items()}
        #: calibration of the first wired qubit (single-qubit experiments)
        self.readout_calibration = calibrations[self.config.qubits[0]]
        self.readout_calibrations = calibrations
        self.dcu = DataCollectionUnit(self.config.dcu_points)
        self.registers = RegisterFile()
        self.measurement = MeasurementPath(
            self.sim, self.config, self.device, self.mdus, self.dcu,
            self.registers, trace=self.trace)

        # -- digital control stack --------------------------------------------
        self.tcu = TimingControlUnit(self.sim, capacity=self.config.queue_capacity,
                                     trace=self.trace)
        self.tcu.add_event_queue("pulse", self._dispatch_pulse)
        self.tcu.add_event_queue("mpg", self.measurement.on_mpg)
        self.tcu.add_event_queue("md", self.measurement.on_md)
        self.store = QControlStore(self.op_table)
        self.microcode = PhysicalMicrocodeUnit(self.config, self.store,
                                               self.registers, trace=self.trace)
        self.qmb = QuantumMicroinstructionBuffer(self.tcu, self.config,
                                                 self.op_table, trace=self.trace)
        self.exec_ctrl = ExecutionController(self.sim, self.config, self.registers,
                                             self.microcode, self.qmb,
                                             trace=self.trace)

    # -- machine reuse -------------------------------------------------------

    def reset(self, seed: int | None = None, dcu_points: int | None = None) -> None:
        """Restore the just-constructed state without rebuilding the stack.

        Re-derives every run-time RNG stream (device projection, readout
        noise, classical jitter) from ``seed`` — defaulting to the
        construction seed, in which case the machine is bit-for-bit
        indistinguishable from a freshly built ``QuMA(config)``.  The
        drive LUTs and pulse-unitary caches are deterministic functions
        of the config and are kept, which is what makes pooled reuse
        cheap; the readout calibrations are shared records from
        :func:`readout_calibrations` and outlive any one machine.

        ``dcu_points`` resizes the data collection unit for the next
        program's K; K is machine state, and the config is never written.
        """
        seed = self.config.seed if seed is None else seed
        self.sim.reset()
        self.trace.clear()
        self.device.restart(seed)
        if dcu_points is not None and dcu_points != self.dcu.k_points:
            self.dcu = DataCollectionUnit(dcu_points)
            self.measurement.dcu = self.dcu
        else:
            self.dcu.clear()
        self.registers.reset()
        self.measurement.reset(seed)
        self.tcu.reset()
        self.qmb.reset()
        self.exec_ctrl.reset(seed)
        # A fresh machine has an empty Q-control store; without this,
        # microprograms defined for one job would leak into the next
        # job's name resolution on a pooled machine.
        self.store.clear()
        for ctpg in self.ctpgs.values():
            ctpg.triggers_received = 0

    # -- event routing ------------------------------------------------------

    def _dispatch_pulse(self, event) -> None:
        unit = self.uop_units.get(event.channel)
        if unit is None:
            raise ReproError(f"pulse event routed to unknown channel {event.channel!r}")
        unit.trigger(event.uop, event.op_name)

    # -- programming interface ------------------------------------------------

    def define_microprogram(self, name: str, n_params: int, body_asm: str) -> None:
        """Install a Q-control-store microprogram callable as a mnemonic."""
        self.store.define(name, n_params, body_asm)

    def assemble(self, source: str) -> Program:
        """Assemble source with this machine's operation/microprogram tables."""
        return assemble(source, op_table=self.op_table, uprogs=self.store.names())

    def load(self, program: Program | str | bytes) -> None:
        """Load a program into the quantum instruction cache.

        Accepts an assembled :class:`Program`, assembly text, or a binary
        produced by :meth:`Program.to_binary` (decoded against this
        machine's operation and microprogram tables).
        """
        if isinstance(program, bytes):
            program = Program.from_binary(program, op_table=self.op_table,
                                          uprog_names=self.store.names())
        elif isinstance(program, str):
            program = self.assemble(program)
        self.exec_ctrl.load(program)

    def start_timing(self) -> None:
        """Manually start T_D (used with ``td_auto_start=False``)."""
        self.tcu.start()

    # -- running ---------------------------------------------------------------

    def run(self, until_ns: int | None = None,
            until: Callable[[], bool] | None = None,
            max_events: int | None = None) -> RunResult:
        """Execute the loaded program to completion (or a stop condition).

        ``until_ns`` bounds simulated time as :meth:`Simulator.run` does:
        no event later than it runs, and the clock ends there.  ``until``
        is an arbitrary stop predicate evaluated before every event (used
        by the queue-state benches to pause mid-flight).
        """
        if self.exec_ctrl.program is None:
            raise ReproError("no program loaded")
        if self.exec_ctrl.pc == 0 and self.sim.pending() == 0:
            self.exec_ctrl.start()
        if until is None:
            self.sim.run(until=until_ns, max_events=max_events)
        else:
            events = 0
            while not until() and self.sim.run(until=until_ns, max_events=1):
                events += 1
                if max_events is not None and events >= max_events:
                    break
        return self._result()

    def _result(self) -> RunResult:
        # Paused or complete, a run ends with every noted record's
        # statistic computed and every write-back delivered.
        self.measurement.flush()
        averages = None
        if self.dcu.rounds_completed > 0:
            averages = self.dcu.averages()
        return RunResult(
            completed=self.exec_ctrl.halted and self.tcu.queues_empty(),
            duration_ns=self.sim.now,
            instructions_executed=self.exec_ctrl.instructions_executed,
            timing_violations=list(self.tcu.violations),
            registers=list(self.registers.values),
            averages=averages,
            measurements=len(self.measurement.results),
            orphan_discriminations=self.measurement.orphan_discriminations,
            stall_ns=self.exec_ctrl.stall_ns,
        )
