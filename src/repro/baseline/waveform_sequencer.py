"""The conventional full-waveform control method, executable (§4.2.2).

"Current arbitrary waveform generators first upload long waveforms
combining different pulses with appropriate timing and later play them."
This module implements that method over the *same* simulated transmon and
readout chain as QuMA: every operation combination is pre-rendered into
one long waveform; running the experiment plays each waveform after an
initialization wait and measures.

It produces physically identical results to QuMA (same pulses reach the
qubit) while exposing the method's architectural costs: per-combination
memory, full re-uploads on any recalibration, and no runtime flexibility
— which is exactly the paper's argument for codeword-triggered control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MachineConfig
from repro.core.quma import readout_calibrations
from repro.pulse.lut import SINGLE_QUBIT_PULSES, PulseCalibration, build_single_qubit_lut
from repro.pulse.waveform import Waveform
from repro.qubit.device import QuantumDevice
from repro.readout.adc import adc_quantize
from repro.readout.calibration import ReadoutCalibration
from repro.readout.data_collection import DataCollectionUnit
from repro.readout.resonator import transmitted_trace
from repro.readout.weights import integrate
from repro.utils.errors import ConfigurationError
from repro.utils.rng import derive_rng
from repro.utils.units import cycles_to_ns


@dataclass
class SequencerRunResult:
    """Outcome of one waveform-method experiment run."""

    averages: np.ndarray
    memory_bytes: float
    waveforms_uploaded: int
    upload_bytes_total: float  #: cumulative bytes pushed (incl. re-uploads)


class WaveformSequencer:
    """An AWG-only control system: full waveforms, no instructions."""

    def __init__(self, config: MachineConfig | None = None):
        self.config = config if config is not None else MachineConfig()
        if len(self.config.qubits) != 1:
            raise ConfigurationError(
                "the waveform-method model drives a single qubit")
        self.qubit = self.config.qubits[0]
        self._cal = self.config.calibration
        self._waveforms: list[Waveform] = []
        self._sequences: list[tuple[str, ...]] = []
        self.upload_bytes_total = 0.0
        #: The record a QuMA built from this config discriminates with.
        self.readout_calibration: ReadoutCalibration = readout_calibrations(
            self.config)[self.qubit]

    # -- waveform preparation ------------------------------------------------

    def _render(self, sequence: tuple[str, ...],
                calibration: PulseCalibration) -> Waveform:
        """Concatenate calibrated gate pulses into one long waveform."""
        lut = build_single_qubit_lut(calibration)
        ids = {name: i for i, name in enumerate(SINGLE_QUBIT_PULSES)}
        parts = []
        for op in sequence:
            if op not in ids:
                raise ConfigurationError(f"operation {op!r} has no pulse")
            parts.append(lut.lookup(ids[op]).samples)
        samples = np.concatenate(parts) if parts else np.zeros(0, complex)
        return Waveform(name="+".join(sequence), samples=samples)

    def upload(self, sequences: list[tuple[str, ...]],
               calibration: PulseCalibration | None = None) -> None:
        """Render and upload one full waveform per combination."""
        calibration = calibration if calibration is not None else self._cal
        self._sequences = [tuple(s) for s in sequences]
        self._waveforms = [self._render(s, calibration) for s in self._sequences]
        self.upload_bytes_total += self.memory_bytes()

    def reupload_for_recalibration(self, changed_op: str,
                                   calibration: PulseCalibration) -> float:
        """Recalibrate one pulse: re-render every waveform containing it.

        Returns the bytes pushed, the method's reconfiguration cost.
        """
        pushed = 0.0
        for i, seq in enumerate(self._sequences):
            if changed_op in seq:
                self._waveforms[i] = self._render(seq, calibration)
                pushed += self._waveforms[i].memory_bytes
        self.upload_bytes_total += pushed
        return pushed

    def memory_bytes(self) -> float:
        return float(sum(w.memory_bytes for w in self._waveforms))

    # -- execution -------------------------------------------------------------

    def run(self, n_rounds: int = 1) -> SequencerRunResult:
        """Play every uploaded waveform ``n_rounds`` times and average.

        Per combination and round: initialization wait, waveform playback,
        then a measurement pulse — the same physical schedule QuMA
        produces for the AllXY kernels.
        """
        if not self._waveforms:
            raise ConfigurationError("no waveforms uploaded")
        device = QuantumDevice(list(self.config.transmons),
                               f_ssb_hz=self.config.f_ssb_hz,
                               drive_detuning_hz=self.config.drive_detuning_hz,
                               seed=self.config.seed)
        rng = derive_rng(self.config.seed, "readout_noise")
        dcu = DataCollectionUnit(len(self._waveforms))
        init_ns = cycles_to_ns(40000)
        msmt_ns = cycles_to_ns(self.config.msmt_cycles)
        readout = self.config.readout_for(self.qubit)
        now = 0
        for _ in range(n_rounds):
            for waveform in self._waveforms:
                now += init_ns
                if waveform.duration_ns:
                    device.play_waveform((0,), waveform, now)
                    now += waveform.duration_ns
                outcome = device.measure_project(0, now)
                trace = transmitted_trace(readout, outcome, msmt_ns, 0, rng)
                statistic = integrate(adc_quantize(trace),
                                      self.readout_calibration.weights)
                dcu.record(statistic)
                now += msmt_ns
        return SequencerRunResult(
            averages=dcu.averages(),
            memory_bytes=self.memory_bytes(),
            waveforms_uploaded=len(self._waveforms),
            upload_bytes_total=self.upload_bytes_total,
        )
