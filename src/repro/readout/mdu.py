"""Measurement discrimination unit (Section 5.1.2).

Hardware-based discrimination: on a codeword trigger the MDU digitizes
the feedline record, integrates it against the calibrated weight function
and thresholds the result, producing the binary measurement result within
a fixed pipeline latency (< 1 us in the paper's FPGA implementation,
versus hundreds of microseconds for the software method of Section 4.2.1).

The MDU holds what that takes: the calibration (weights and threshold),
the prepared weights, the ADC depth and the latency.  The digitize and
integrate steps themselves run in
:func:`repro.readout.pipeline.readout_statistics`, for full simulation
and replay alike; :meth:`MeasurementDiscriminationUnit.result` turns the
statistic into the result the rest of the stack sees.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.readout.calibration import ReadoutCalibration
from repro.readout.weights import prepare_weights
# adc_quantize, integrate: unused, but perfbench patches them on this
# module until the layer probes of the ROADMAP's "One profiler" item
# retire its monkeypatches.
from repro.readout.adc import adc_quantize  # noqa: F401
from repro.readout.weights import integrate  # noqa: F401
from repro.utils.units import CYCLE_NS


@dataclass(frozen=True)
class DiscriminationResult:
    """Output of one discrimination run."""

    qubit: int
    statistic: float  #: integration result S_q
    value: int  #: binary result M_q
    trigger_ns: int  #: when the MD trigger arrived
    ready_ns: int  #: when the result is available to the control unit


class MeasurementDiscriminationUnit:
    """Discriminates one qubit's analog measurement record."""

    #: Post-integration pipeline latency in cycles (demod + threshold).
    PIPELINE_CYCLES = 20

    def __init__(self, qubit: int, calibration: ReadoutCalibration,
                 adc_bits: int = 8):
        self.qubit = qubit
        self.calibration = calibration
        self.adc_bits = adc_bits
        #: Converted once and shared by every record shape that reads
        #: this qubit, so a one-record flush converts nothing.
        self.weights = prepare_weights(calibration.weights)

    def latency_ns(self, integration_ns: int) -> int:
        """Trigger-to-result latency for a given integration window."""
        return int(integration_ns) + self.PIPELINE_CYCLES * CYCLE_NS

    def result(self, statistic: float, trigger_ns: int,
               integration_ns: int) -> DiscriminationResult:
        """Threshold an integration statistic into the MDU's result."""
        value = 1 if statistic > self.calibration.threshold else 0
        return DiscriminationResult(
            qubit=self.qubit, statistic=statistic, value=value,
            trigger_ns=int(trigger_ns),
            ready_ns=trigger_ns + self.latency_ns(integration_ns))
