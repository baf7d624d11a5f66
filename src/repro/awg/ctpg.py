"""Codeword-triggered pulse generation unit (Section 5.1.1).

"The codeword-triggered pulse generation unit converts a digitally stored
pulse into an analog one only when it receives a codeword trigger", with
a *fixed* trigger-to-output delay — 80 ns in the implemented control box
(Section 7.1).  The fixed delay is what lets upstream stages compose
pulses purely by scheduling codeword triggers.
"""

from __future__ import annotations

from typing import Callable

from repro.awg.dac import dac_quantize
from repro.pulse.lut import WaveformLUT
from repro.pulse.waveform import Waveform
from repro.sim import Simulator, TraceRecorder
from repro.utils.errors import ConfigurationError

#: The implemented control box's codeword-to-output latency (Section 7.1).
DEFAULT_FIXED_DELAY_NS = 80


class CodewordTriggeredPulseGenerator:
    """One AWG output line: LUT + DAC + fixed-latency trigger path.

    ``target_qubits`` is the wiring: which qubit(s) the analog output
    drives (a pair for a flux/CZ line).  ``sink`` receives
    ``(qubits, waveform, start_ns)`` when the pulse hits the chip.
    """

    def __init__(self, name: str, sim: Simulator, lut: WaveformLUT,
                 target_qubits: tuple[int, ...],
                 sink: Callable[[tuple[int, ...], Waveform, int], None],
                 fixed_delay_ns: int = DEFAULT_FIXED_DELAY_NS,
                 dac_bits: int = 14, trace: TraceRecorder | None = None):
        if not target_qubits:
            raise ConfigurationError(f"CTPG {name} wired to no qubits")
        self.name = name
        self.sim = sim
        self.lut = lut
        self.target_qubits = tuple(target_qubits)
        self.sink = sink
        self.fixed_delay_ns = int(fixed_delay_ns)
        self.dac_bits = dac_bits
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.triggers_received = 0
        self._dac_cache: dict[int, Waveform] = {}

    def trigger(self, codeword: int) -> None:
        """Receive a codeword trigger now; play the pulse after the fixed delay."""
        now = self.sim.now
        self.triggers_received += 1
        if codeword not in self.lut:
            raise ConfigurationError(
                f"{self.name}: codeword {codeword} has no uploaded waveform")
        waveform = self._dac_waveform(codeword)
        start = now + self.fixed_delay_ns
        if self.trace.enabled:
            self.trace.emit(now, self.name, "codeword", codeword=codeword)
        self.sim.at(start, lambda: self._play(waveform, codeword))

    def _dac_waveform(self, codeword: int) -> Waveform:
        cached = self._dac_cache.get(codeword)
        stored = self.lut.lookup(codeword)
        if cached is not None and cached.meta.get("source") is stored:
            return cached
        quantized = Waveform(
            name=stored.name,
            samples=dac_quantize(stored.samples, self.dac_bits),
            meta={**stored.meta, "source": stored},
        )
        self._dac_cache[codeword] = quantized
        return quantized

    def _play(self, waveform: Waveform, codeword: int) -> None:
        if self.trace.enabled:
            self.trace.emit(self.sim.now, self.name, "pulse_start",
                            codeword=codeword, name=waveform.name,
                            duration_ns=waveform.duration_ns,
                            qubits=self.target_qubits)
        self.sink(self.target_qubits, waveform, self.sim.now)
