"""Measurement path: digital output unit, MDU glue, and write-back.

MPG events gate the measurement carrier (the paper's digital output unit,
Section 7.1), which projects the qubit and produces the feedline record;
MD events start the discrimination process, whose integration statistic
feeds the data collection unit and whose binary result is written back to
the register file for feedback control.

Only the statistic and its bit leave the MDU (Section 5.1.2), so the
record itself is never built here.  An MPG notes what its record holds
(qubits, window, outcome word, pulse on or off) and the statistics of
every pending record are computed later, in record order, through
:func:`repro.readout.pipeline.readout_statistics`, the chain replay and
readout calibration use.  That happens at the first point a value is
observed: the write-back of an MD with a destination register, any
write-back while tracing or while a schedule recorder is attached, the
end of every :meth:`QuMA.run`, or a full pending list.  Other
write-backs queue and reach ``results`` and the DCU, in write-back
order, at the next flush.  The ``readout_noise`` stream feeds readout
records only, so drawing it later in the same order gives the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import MachineConfig
from repro.core.events import MdEvent, MpgEvent
from repro.core.register_file import RegisterFile
from repro.qubit.device import QuantumDevice
from repro.readout.data_collection import DataCollectionUnit
from repro.readout.mdu import MeasurementDiscriminationUnit
from repro.readout.multiplex import multiplexed_signal_table
from repro.readout.pipeline import readout_statistics
# multiplexed_trace, transmitted_trace: unused, but perfbench patches them
# on this module until the layer probes of the ROADMAP's "One profiler"
# item retire its monkeypatches.
from repro.readout.multiplex import multiplexed_trace  # noqa: F401
from repro.readout.resonator import transmitted_trace  # noqa: F401
from repro.sim import Simulator, TraceRecorder
from repro.utils.rng import derive_rng
from repro.utils.units import cycles_to_ns


class _Shape:
    """What every record of one (qubits, window, pulse on/off) shares:
    the signal table indexed by outcome word, and the register's noise,
    weights and ADC depths.  Built once per machine."""

    __slots__ = ("window_ns", "columns", "table", "rows", "noise_std",
                 "weights", "adc_bits")

    def __init__(self, path: "MeasurementPath", qubits: tuple[int, ...],
                 window_ns: int, pulse_on: bool):
        params = {q: path.config.readout_for(q) for q in qubits}
        if pulse_on:
            self.table, self.noise_std = multiplexed_signal_table(params,
                                                                  window_ns)
        else:
            # An MD without a matching MPG integrates the noise of the
            # qubit's own readout chain.
            self.table = np.zeros((1, window_ns))
            self.noise_std = params[qubits[0]].noise_std
        #: one-row index arrays, so a record that flushes alone converts
        #: no list
        self.rows = tuple(np.array([word], dtype=np.intp)
                          for word in range(len(self.table)))
        mdus = [path.mdus[q] for q in qubits]
        self.window_ns = window_ns
        self.columns = {q: j for j, q in enumerate(qubits)}
        self.weights = tuple(mdu.weights for mdu in mdus)
        self.adc_bits = tuple(mdu.adc_bits for mdu in mdus)


class _Run:
    """Consecutive records of one shape, in record order: their outcome
    words (bit ``j`` is register qubit ``j``'s projection) and, once
    flushed, one row of statistics per record, one per register qubit."""

    __slots__ = ("shape", "words", "stats")

    def __init__(self, shape: _Shape):
        self.shape = shape
        self.words: list[int] = []
        self.stats: list[list[float]] | None = None


class MeasurementPath:
    """Analog-digital interface for the measurement direction."""

    #: Most records noted before their statistics are computed: one flush
    #: covers a whole 8-round AllXY job (336 records), and a longer run
    #: holds at most this many.
    PENDING_MAX_RECORDS = 512

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
        #: chip qubit -> (record start, run, index in run) of its last MPG
        self._active: dict[int, tuple[int, _Run, int]] = {}
        self._shapes: dict[tuple, _Shape] = {}
        #: runs whose statistics are not computed yet, in record order
        self._runs: list[_Run] = []
        self._pending = 0
        #: write-backs reached but not delivered yet, in write-back order
        self._writebacks: list[tuple] = []
        self.results: list = []
        self.orphan_discriminations = 0
        #: optional schedule recorder (round-replay engine); observes only
        self.recorder = None

    def reset(self, seed: int | None = None) -> None:
        """Drop in-flight, pending and recorded measurements; re-derive
        the noise RNG."""
        self._rng = derive_rng(self.config.seed if seed is None else seed,
                               "readout_noise")
        self._active.clear()
        self._runs.clear()
        self._pending = 0
        self._writebacks.clear()
        self.results.clear()
        self.orphan_discriminations = 0
        self.recorder = None

    # -- records -------------------------------------------------------------

    def _note(self, qubits: tuple[int, ...], window_ns: int, pulse_on: bool,
              word: int) -> tuple[_Run, int]:
        """Append one record; returns its run and index in the run."""
        key = (qubits, window_ns, pulse_on)
        shape = self._shapes.get(key)
        if shape is None:
            shape = self._shapes[key] = _Shape(self, qubits, window_ns,
                                               pulse_on)
        runs = self._runs
        if runs and runs[-1].shape is shape:
            run = runs[-1]
        else:
            run = _Run(shape)
            runs.append(run)
        run.words.append(word)
        index = len(run.words) - 1
        self._pending += 1
        if self._pending >= self.PENDING_MAX_RECORDS:
            self.flush()
        return run, index

    def flush(self) -> None:
        """Compute every pending record's statistics, then deliver every
        queued write-back.

        Each run of same-shape records takes one
        :func:`readout_statistics` call, which draws their noise in
        record order.
        """
        runs = self._runs
        for run in runs:
            shape, words = run.shape, run.words
            indices = (shape.rows[words[0]] if len(words) == 1
                       else np.array(words, dtype=np.intp))
            run.stats = readout_statistics(
                shape.table, indices, shape.noise_std, self._rng,
                shape.weights, shape.adc_bits).tolist()
        runs.clear()
        self._pending = 0
        if self._writebacks:
            writebacks, self._writebacks = self._writebacks, []
            for writeback in writebacks:
                self._deliver(*writeback)

    def _deliver(self, run: _Run, index: int, qubit: int, trigger_ns: int,
                 rd: int | None) -> None:
        """One write-back: the result, the DCU and the register file."""
        statistic = run.stats[index][run.shape.columns[qubit]]
        result = self.mdus[qubit].result(statistic, trigger_ns,
                                         run.shape.window_ns)
        self.results.append(result)
        self.dcu.record(statistic)
        if self.trace.enabled:
            self.trace.emit(result.ready_ns, f"mdu{qubit}", "result",
                            value=result.value,
                            statistic=round(statistic, 3))
        if rd is not None:
            self.registers.writeback(rd, result.value)

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
            now = self.sim.now
            word = 0
            for j, q in enumerate(chip_qubits):
                word |= self.device.measure_project(
                    self.config.device_index(q), now) << j
            if self.recorder is not None:
                self.recorder.trace_template(chip_qubits, duration_ns)
            run, index = self._note(chip_qubits, duration_ns, True, word)
            for j, q in enumerate(chip_qubits):
                self._active[q] = (now, run, index)
                if self.trace.enabled:
                    self.trace.emit(now, "readout", "msmt_pulse_start",
                                    qubit=q, duration_ns=duration_ns,
                                    outcome=(word >> j) & 1)
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
            now = self.sim.now
            active = self._active.pop(chip_qubit, None)
            if active is not None and active[0] == now:
                _, run, index = active
            else:
                # MD without a matching MPG: a zero-signal record, noted
                # here, at its place in the record order.
                self.orphan_discriminations += 1
                run, index = self._note((chip_qubit,),
                                        cycles_to_ns(self.config.msmt_cycles),
                                        False, 0)
                self.trace.emit(now, "readout", "orphan_md",
                                qubit=chip_qubit)
            ready_ns = now + self.mdus[chip_qubit].latency_ns(
                run.shape.window_ns)
            if self.trace.enabled:
                self.trace.emit(now, f"mdu{chip_qubit}",
                                "discriminate_start", ready_ns=ready_ns)
            self.sim.at(ready_ns, self._make_writeback(run, index, chip_qubit,
                                                       now, rd))
        return discriminate

    def _make_writeback(self, run: _Run, index: int, chip_qubit: int,
                        trigger_ns: int, rd: int | None):
        def writeback():
            if rd is None and not self.trace.enabled and self.recorder is None:
                self._writebacks.append((run, index, chip_qubit, trigger_ns,
                                         rd))
            else:
                # The value is observed now: flush everything before it.
                self.flush()
                self._deliver(run, index, chip_qubit, trigger_ns, rd)
        return writeback
