"""Coverage for remaining corners: CZ phase error, calibration edges,
data-collection details, and operation-table semantics."""

import numpy as np
import pytest

from repro.core import MachineConfig, QuMA
from repro.isa.operations import OperationTable
from repro.pulse import PulseCalibration, Waveform, build_single_qubit_lut, square
from repro.qubit import QuantumDevice, TransmonParams
from repro.readout import DataCollectionUnit, ReadoutParams, calibrate_readout
from repro.utils.errors import CalibrationError, ConfigurationError, EncodingError

LUT = build_single_qubit_lut()


def test_cz_entangles_superposed_qubits():
    flux = Waveform("CZ", square(40, 0.5), meta={"kind": "cz"})
    dev = QuantumDevice([TransmonParams(), TransmonParams()],
                        cz_phase_error_rad=0.0)
    dev.play_waveform((0,), LUT.lookup(5), 0)  # Y90 both
    dev.play_waveform((1,), LUT.lookup(5), 0)
    dev.play_waveform((0, 1), flux, 20)
    # Entanglement witness: the reduced state of one qubit is mixed.
    r0 = dev.state.reduced(0)
    assert np.real(np.trace(r0 @ r0)) < 0.6


def test_cz_phase_error_changes_unitary():
    flux = Waveform("CZ", square(40, 0.5), meta={"kind": "cz"})
    ideal = QuantumDevice([TransmonParams(), TransmonParams()],
                          cz_phase_error_rad=0.0)
    off = QuantumDevice([TransmonParams(), TransmonParams()],
                        cz_phase_error_rad=0.3)
    for dev in (ideal, off):
        dev.play_waveform((0,), LUT.lookup(2), 0)
        dev.play_waveform((1,), LUT.lookup(2), 0)
        dev.play_waveform((0, 1), flux, 20)
    assert not np.allclose(ideal.state.data, off.state.data)


def test_calibration_needs_shots():
    with pytest.raises(CalibrationError):
        calibrate_readout(ReadoutParams(), 1500, n_shots=1)


def test_calibration_detects_degenerate_readout():
    degenerate = ReadoutParams(amp_ground=0.3, amp_excited=0.3,
                               phase_ground=0.5, phase_excited=0.5)
    with pytest.raises((CalibrationError, ValueError)):
        calibrate_readout(degenerate, 1500, n_shots=10)


def test_dcu_raw_and_clear():
    dcu = DataCollectionUnit(2)
    for v in (1.0, 2.0, 3.0, 4.0):
        dcu.record(v)
    assert np.allclose(dcu.raw(), [1, 2, 3, 4])
    assert len(dcu) == 4
    dcu.clear()
    assert len(dcu) == 0


def test_operation_table_conflicts():
    table = OperationTable()
    x_id = table.id_of("X180")
    # Same name, same id: fine (idempotent).
    assert table.define("X180", x_id) == x_id
    with pytest.raises(ConfigurationError):
        table.define("X180", x_id + 1)
    with pytest.raises(ConfigurationError):
        table.define("fresh_name", x_id)
    with pytest.raises(ConfigurationError):
        table.define("too_big", 300)


def test_operation_table_copy_isolated():
    a = OperationTable()
    b = a.copy()
    b.define("EXTRA")
    assert "EXTRA" in b
    assert "EXTRA" not in a


def test_operation_table_names_in_id_order():
    table = OperationTable()
    names = table.names()
    assert names[0] == "I"
    assert names[table.id_of("CZ")] == "CZ"


def test_machine_rejects_bad_binary_length():
    machine = QuMA(MachineConfig(qubits=(2,)))
    with pytest.raises(EncodingError):
        machine.load(b"\x01\x02\x03")  # not a multiple of 4


def test_pulse_calibration_envelope_area_positive():
    cal = PulseCalibration()
    assert cal.envelope_area() > 0
    # Amplitude scales inversely with kappa.
    a1 = PulseCalibration(kappa=0.4).amplitude_for(np.pi)
    a2 = PulseCalibration(kappa=0.8).amplitude_for(np.pi)
    assert a1 == pytest.approx(2 * a2)


def test_transmon_param_validation():
    with pytest.raises(ConfigurationError):
        TransmonParams(t1_ns=-1.0)
    with pytest.raises(ConfigurationError):
        TransmonParams(t1_ns=100.0, t2_ns=500.0)
    with pytest.raises(ConfigurationError):
        TransmonParams(kappa=0.0)
