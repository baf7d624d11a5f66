"""Measurement path: digital output unit, MDU glue, and write-back.

MPG events gate the measurement carrier (the paper's digital output unit,
Section 7.1), which projects the qubit and produces the feedline record;
MD events start the discrimination process, whose integration statistic
feeds the data collection unit and whose binary result is written back to
the register file for feedback control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MachineConfig
from repro.core.events import MdEvent, MpgEvent
from repro.core.register_file import RegisterFile
from repro.qubit.device import QuantumDevice
from repro.readout.data_collection import DataCollectionUnit
from repro.readout.mdu import MeasurementDiscriminationUnit
from repro.readout.multiplex import multiplexed_trace
from repro.readout.resonator import transmitted_trace
from repro.sim import Simulator, TraceRecorder
from repro.utils.rng import derive_rng
from repro.utils.units import cycles_to_ns


@dataclass
class _ActiveMeasurement:
    start_ns: int
    duration_ns: int
    trace: np.ndarray
    outcome: int


class MeasurementPath:
    """Analog-digital interface for the measurement direction."""

    def __init__(self, sim: Simulator, config: MachineConfig,
                 device: QuantumDevice, mdus: dict[int, MeasurementDiscriminationUnit],
                 dcu: DataCollectionUnit, registers: RegisterFile,
                 trace: TraceRecorder | None = None):
        self.sim = sim
        self.config = config
        self.device = device
        self.mdus = mdus
        self.dcu = dcu
        self.registers = registers
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self._rng = derive_rng(config.seed, "readout_noise")
        self._active: dict[int, _ActiveMeasurement] = {}
        self.results: list = []
        self.orphan_discriminations = 0
        #: optional schedule recorder (round-replay engine); observes only
        self.recorder = None

    def reset(self, seed: int | None = None) -> None:
        """Drop in-flight and recorded measurements; re-derive the noise RNG."""
        self._rng = derive_rng(self.config.seed if seed is None else seed,
                               "readout_noise")
        self._active.clear()
        self.results.clear()
        self.orphan_discriminations = 0
        self.recorder = None

    # -- MPG: measurement pulse generation --------------------------------------

    def on_mpg(self, event: MpgEvent) -> None:
        """An MPG trigger fired at the current time.

        All qubits addressed by one MPG share the feedline: their readout
        signals are frequency-multiplexed into a single record (Section
        5.1.2), which each qubit's MDU later filters.
        """
        if self.trace.enabled:
            self.trace.emit(self.sim.now, "digital_out", "mpg_trigger",
                            qubits=event.qubits,
                            duration=event.duration_cycles,
                            codeword=self.config.msmt_codeword)
        start = self.sim.now + self.config.msmt_path_delay_ns
        duration_ns = cycles_to_ns(event.duration_cycles)
        self.sim.at(start, self._make_begin(event.qubits, duration_ns))

    def _make_begin(self, chip_qubits: tuple[int, ...], duration_ns: int):
        def begin():
            outcomes = {}
            for q in chip_qubits:
                dev_q = self.config.device_index(q)
                outcomes[q] = self.device.measure_project(dev_q, self.sim.now)
            # t0 = 0: the readout demodulation NCO is phase-referenced to
            # the measurement trigger, so the record phase matches the
            # calibrated weight function regardless of absolute time.
            if self.recorder is not None:
                self.recorder.trace_template(chip_qubits, duration_ns)
            if len(chip_qubits) == 1:
                (q,) = chip_qubits
                record = transmitted_trace(self.config.readout_for(q),
                                           outcomes[q], duration_ns, 0,
                                           self._rng)
            else:
                record = multiplexed_trace(
                    {q: self.config.readout_for(q) for q in chip_qubits},
                    outcomes, duration_ns, self._rng)
            for q in chip_qubits:
                self._active[q] = _ActiveMeasurement(
                    start_ns=self.sim.now, duration_ns=duration_ns,
                    trace=record, outcome=outcomes[q])
                if self.trace.enabled:
                    self.trace.emit(self.sim.now, "readout",
                                    "msmt_pulse_start", qubit=q,
                                    duration_ns=duration_ns,
                                    outcome=outcomes[q])
        return begin

    # -- MD: measurement discrimination -------------------------------------------

    def on_md(self, event: MdEvent) -> None:
        """An MD trigger fired at the current time."""
        start = self.sim.now + self.config.msmt_path_delay_ns
        for q in event.qubits:
            if self.trace.enabled:
                self.trace.emit(self.sim.now, "timing_ctrl", "md_dispatch",
                                qubit=q, rd=event.rd, mdu=f"mdu{q}")
            self.sim.at(start, self._make_discriminate(q, event.rd))

    def _make_discriminate(self, chip_qubit: int, rd: int | None):
        def discriminate():
            active = self._active.pop(chip_qubit, None)
            if active is not None and active.start_ns == self.sim.now:
                record = active.trace
            else:
                # MD without a matching MPG: the MDU integrates the
                # noise of the qubit's own readout chain.
                self.orphan_discriminations += 1
                duration = cycles_to_ns(self.config.msmt_cycles)
                record = transmitted_trace(self.config.readout_for(chip_qubit),
                                           0, duration, 0, self._rng,
                                           pulse_on=False)
                self.trace.emit(self.sim.now, "readout", "orphan_md",
                                qubit=chip_qubit)
            mdu = self.mdus[chip_qubit]
            result = mdu.discriminate(record, trigger_ns=self.sim.now)
            if self.trace.enabled:
                self.trace.emit(self.sim.now, f"mdu{chip_qubit}",
                                "discriminate_start", ready_ns=result.ready_ns)
            self.sim.at(result.ready_ns, self._make_writeback(result, rd))
        return discriminate

    def _make_writeback(self, result, rd: int | None):
        def writeback():
            self.results.append(result)
            self.dcu.record(result.statistic)
            if self.trace.enabled:
                self.trace.emit(self.sim.now, f"mdu{result.qubit}", "result",
                                value=result.value,
                                statistic=round(result.statistic, 3))
            if rd is not None:
                self.registers.writeback(rd, result.value)
        return writeback
