"""Tests for the executable full-waveform baseline (Section 4.2.2)."""

import numpy as np
import pytest

from repro.baseline import WaveformSequencer
from repro.core import MachineConfig, QuMA
from repro.experiments.allxy import ALLXY_PAIRS, rescale_with_calibration_points
from repro.pulse import PulseCalibration
from repro.readout import ReadoutParams
from repro.utils.errors import ConfigurationError

NAMES = {"i": "I", "x": "X180", "y": "Y180", "x90": "X90", "y90": "Y90"}
ALLXY_SEQUENCES = [tuple(NAMES[g] for g in pair) for pair in ALLXY_PAIRS]


def make_sequencer(**kwargs):
    return WaveformSequencer(MachineConfig(qubits=(2,), **kwargs))


def test_upload_builds_one_waveform_per_combination():
    seq = make_sequencer()
    seq.upload(ALLXY_SEQUENCES)
    result_memory = seq.memory_bytes()
    # 21 waveforms x 2 gates x 20 ns x 2 channels x 12 bits = 2520 B.
    assert result_memory == 2520.0


def test_x180_waveform_flips_qubit():
    seq = make_sequencer()
    seq.upload([("X180",)])
    result = seq.run(n_rounds=4)
    ro = seq.readout_calibration
    p1 = (result.averages[0] - ro.s_ground) / (ro.s_excited - ro.s_ground)
    assert p1 > 0.9


def test_identity_waveform_stays_ground():
    seq = make_sequencer()
    seq.upload([("I", "I")])
    result = seq.run(n_rounds=4)
    ro = seq.readout_calibration
    p1 = (result.averages[0] - ro.s_ground) / (ro.s_excited - ro.s_ground)
    assert abs(p1) < 0.1


def test_readout_chain_is_the_wired_qubits_own():
    """Calibration and traces use the qubit's ``readout_for`` params, so
    the sequencer discriminates exactly as QuMA on the same config."""
    config = MachineConfig(qubits=(2,),
                           readouts=(ReadoutParams(f_if_hz=52e6),))
    seq = WaveformSequencer(config)
    ours, theirs = seq.readout_calibration, QuMA(config).readout_calibration
    assert ours.threshold == theirs.threshold
    assert ours.s_ground == theirs.s_ground
    assert ours.s_excited == theirs.s_excited
    assert ours.assignment_fidelity == theirs.assignment_fidelity
    assert np.array_equal(ours.weights, theirs.weights)
    seq.upload([("X180",)])
    result = seq.run(n_rounds=4)
    p1 = (result.averages[0] - ours.s_ground) / (ours.s_excited - ours.s_ground)
    assert p1 > 0.9


def test_run_without_upload_rejected():
    with pytest.raises(ConfigurationError):
        make_sequencer().run()


def test_unknown_op_rejected():
    seq = make_sequencer()
    with pytest.raises(ConfigurationError):
        seq.upload([("NOSUCH",)])


def test_multi_qubit_config_rejected():
    with pytest.raises(ConfigurationError):
        WaveformSequencer(MachineConfig(qubits=(0, 1)))


def test_recalibration_reupload_cost():
    seq = make_sequencer()
    seq.upload(ALLXY_SEQUENCES)
    before = seq.upload_bytes_total
    pushed = seq.reupload_for_recalibration(
        "X180", PulseCalibration(amplitude_error=0.01))
    # X180 appears in pairs 1,3,4,9(x-y?)... — count from the table:
    expected_slots = sum(len(s) for s in ALLXY_SEQUENCES if "X180" in s)
    assert pushed == expected_slots * 60.0
    assert seq.upload_bytes_total == before + pushed
    # Far more than QuMA's single 60-byte LUT entry.
    assert pushed > 10 * 60.0


@pytest.mark.slow
def test_allxy_staircase_via_waveform_method():
    """The conventional method reproduces the same physics: the AllXY
    staircase appears, at 6x the waveform memory."""
    seq = make_sequencer(trace_enabled=False)
    # Each combination once (the sequencer measures every waveform); run
    # the 21 combinations twice per round by uploading doubled sequences.
    doubled = [s for s in ALLXY_SEQUENCES for _ in range(2)]
    seq.upload(doubled)
    result = seq.run(n_rounds=48)
    fidelity = rescale_with_calibration_points(result.averages)
    assert fidelity[:10].mean() < 0.15
    assert abs(fidelity[10:34].mean() - 0.5) < 0.12
    assert fidelity[34:].mean() > 0.85
    assert result.memory_bytes == 5040.0  # doubled: 2 x 2520 B
