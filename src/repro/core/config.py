"""Machine configuration with the paper's hardware defaults."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from repro.pulse.lut import PulseCalibration
from repro.qubit.transmon import TransmonParams
from repro.readout.resonator import ReadoutParams
from repro.utils.errors import ConfigurationError


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to instantiate a :class:`repro.core.quma.QuMA`.

    Defaults reproduce the paper's implemented control box (Section 7) and
    the AllXY experimental setup (Section 8): qubit 2 of the 10-transmon
    chip, 5 ns cycle, 80 ns CTPG delay, -50 MHz SSB, 300-cycle measurement.

    Frozen (change one with ``dataclasses.replace``), so one config
    object serves every job of a sweep and keeps its :meth:`fingerprint`.
    """

    #: Chip labels of the wired qubits (the AllXY run uses qubit 2).
    qubits: tuple[int, ...] = (2,)
    #: Physical parameters per wired qubit (parallel to ``qubits``).
    transmons: tuple[TransmonParams, ...] = ()
    #: Readout chain parameters, shared across qubits.
    readout: ReadoutParams = field(default_factory=ReadoutParams)
    #: Optional per-qubit readout parameters (parallel to ``qubits``) for
    #: frequency-multiplexed readout; defaults to ``readout`` everywhere.
    readouts: tuple[ReadoutParams, ...] = ()
    #: Single-qubit pulse calibration used to build the CTPG LUTs.
    calibration: PulseCalibration = field(default_factory=PulseCalibration)
    #: Qubit pairs wired with a flux (CZ) line.
    flux_pairs: tuple[tuple[int, int], ...] = ()
    #: Operations routed to a flux channel instead of per-qubit drives.
    two_qubit_ops: tuple[str, ...] = ("CZ",)

    #: Single-sideband modulation frequency (Hz).
    f_ssb_hz: float = -50e6
    #: Drive-qubit detuning (Hz), for Ramsey-style experiments.
    drive_detuning_hz: float = 0.0

    #: Micro-operation unit latency Delta (ns).
    uop_delay_ns: int = 5
    #: CTPG codeword-to-output delay (ns); Section 7.1 gives 80 ns.
    ctpg_delay_ns: int = 80
    #: Measurement path trigger-to-pulse delay (ns).  Defaults to the
    #: drive-path total (uop + ctpg) so gates and measurement stay
    #: back-to-back, as calibrated in the experiment.
    msmt_path_delay_ns: int | None = None

    #: Classical instruction issue time (ns) and max uniform jitter (ns) —
    #: the non-deterministic timing domain of Section 5.2.
    classical_issue_ns: int = 5
    classical_jitter_ns: int = 0
    #: Instructions issued per slot.  1 = the implemented prototype;
    #: larger widths model the VLIW extension named as future work in
    #: Section 9 ("a QuMA supporting a VLIW instruction set").
    issue_width: int = 1

    #: Event/timing queue capacity (entries per queue).
    queue_capacity: int = 64
    #: Start T_D automatically on the first timing-queue push.
    td_auto_start: bool = True

    #: Default gate slot inserted by the ``Apply`` microprogram (cycles).
    gate_slot_cycles: int = 4
    #: Default measurement pulse duration for ``Measure`` (cycles).
    msmt_cycles: int = 300
    #: Codeword conventionally used for the measurement pulse (Table 5).
    msmt_codeword: int = 7

    #: K for the data collection unit (points averaged per round).
    dcu_points: int = 1
    #: Shots per state for readout calibration.
    calibration_shots: int = 200

    #: Root seed for all stochastic components.
    seed: int = 0
    #: Record architectural trace events.
    trace_enabled: bool = True

    def __post_init__(self):
        if not self.qubits:
            raise ConfigurationError("at least one qubit must be wired")
        if len(set(self.qubits)) != len(self.qubits):
            raise ConfigurationError("duplicate qubit labels")
        if not self.transmons:
            object.__setattr__(self, "transmons", tuple(
                TransmonParams(kappa=self.calibration.kappa) for _ in self.qubits))
        if len(self.transmons) != len(self.qubits):
            raise ConfigurationError("transmons must parallel qubits")
        if not self.readouts:
            object.__setattr__(self, "readouts",
                               tuple(self.readout for _ in self.qubits))
        if len(self.readouts) != len(self.qubits):
            raise ConfigurationError("readouts must parallel qubits")
        for pair in self.flux_pairs:
            if len(pair) != 2 or pair[0] == pair[1]:
                raise ConfigurationError(f"bad flux pair {pair}")
            for q in pair:
                if q not in self.qubits:
                    raise ConfigurationError(f"flux pair {pair} uses unwired qubit {q}")
        if self.msmt_path_delay_ns is None:
            object.__setattr__(self, "msmt_path_delay_ns",
                               self.uop_delay_ns + self.ctpg_delay_ns)
        if self.queue_capacity < 2:
            raise ConfigurationError("queue capacity must be at least 2")
        if self.classical_issue_ns < 1:
            raise ConfigurationError("classical issue time must be >= 1 ns")
        if self.issue_width < 1:
            raise ConfigurationError("issue width must be at least 1")

    def fingerprint(self, *, exclude: tuple[str, ...] = ()) -> str:
        """Stable content digest of the full configuration.

        Two configs with equal field values (recursively, including the
        nested transmon/readout/calibration dataclasses) produce the same
        hex digest across processes and sessions — the key material for
        the service layer's compile cache and machine pool.  ``exclude``
        drops named top-level fields, e.g. ``("dcu_points",)`` for pool
        compatibility where the data collection unit is resized per job.
        The digest is kept on the (frozen) instance per ``exclude``, not
        as a field, and a pickled config carries it along.
        """
        digests = self.__dict__.setdefault("_digests", {})
        if exclude not in digests:
            data = {name: value for name, value in sorted(asdict(self).items())
                    if name not in exclude}
            blob = json.dumps(data, sort_keys=True, default=repr)
            digests[exclude] = hashlib.sha256(blob.encode()).hexdigest()
        return digests[exclude]

    def device_index(self, chip_label: int) -> int:
        """Map a chip qubit label (e.g. q2) to the device's dense index."""
        try:
            return self.qubits.index(chip_label)
        except ValueError:
            raise ConfigurationError(f"qubit q{chip_label} is not wired") from None

    def readout_for(self, chip_label: int) -> ReadoutParams:
        """Readout chain parameters of one wired qubit."""
        return self.readouts[self.device_index(chip_label)]
