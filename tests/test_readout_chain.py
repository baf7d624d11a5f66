"""Tests for the readout chain: resonator, ADC, weights, MDU, calibration."""

import numpy as np
import pytest

from repro.readout import (
    DataCollectionUnit,
    MeasurementDiscriminationUnit,
    ReadoutParams,
    adc_quantize,
    calibrate_readout,
    integrate,
    matched_filter_weights,
    transmitted_trace,
)
from repro.readout.resonator import mean_trace
from repro.utils import derive_rng
from repro.utils.errors import ConfigurationError

PARAMS = ReadoutParams()
DURATION = 1500  # 300 cycles, the paper's AllXY measurement pulse


def test_trace_length_and_determinism():
    rng1 = derive_rng(1, "ro")
    rng2 = derive_rng(1, "ro")
    a = transmitted_trace(PARAMS, 0, DURATION, 0, rng1)
    b = transmitted_trace(PARAMS, 0, DURATION, 0, rng2)
    assert len(a) == DURATION
    assert np.array_equal(a, b)


def test_traces_state_dependent():
    t0 = mean_trace(PARAMS, 0, DURATION, 0)
    t1 = mean_trace(PARAMS, 1, DURATION, 0)
    assert not np.allclose(t0, t1)


def test_signal_is_memoized_read_only_and_unchanged():
    """One shared, read-only record per content key, equal to the
    closed-form evaluation; every trace built from it is a fresh array."""
    from repro.readout.resonator import transmitted_signal

    signal = transmitted_signal(PARAMS, 1, DURATION, 0)
    assert transmitted_signal(PARAMS, 1, DURATION, 0) is signal
    assert not signal.flags.writeable
    t = np.arange(DURATION, dtype=float)
    envelope = 1.0 - np.exp(-(t + 0.5) / PARAMS.ringup_ns)
    carrier = np.cos(2.0 * np.pi * PARAMS.f_if_hz * (t + 0.0) * 1e-9
                     + PARAMS.phase_excited)
    expected = PARAMS.amp_excited * envelope * carrier
    assert signal.tobytes() == expected.tobytes()
    # The noise level does not enter the signal: noisy and quiet chains
    # share one record.
    quiet = ReadoutParams(noise_std=0.0)
    assert transmitted_signal(quiet, 1, DURATION, 0) is signal
    trace = transmitted_trace(PARAMS, 1, DURATION, 0, derive_rng(3, "ro"))
    quiet_trace = mean_trace(PARAMS, 1, DURATION, 0)
    for built in (trace, quiet_trace):
        assert built.flags.writeable
        assert not np.shares_memory(built, signal)
    assert quiet_trace.tobytes() == signal.tobytes()


def test_trace_without_pulse_is_noise_only():
    rng = derive_rng(2, "ro")
    t = transmitted_trace(PARAMS, 1, DURATION, 0, rng, pulse_on=False)
    assert abs(np.mean(t)) < 0.02


def test_ringup_suppresses_early_signal():
    t = np.abs(mean_trace(PARAMS, 0, DURATION, 0))
    early = np.max(t[:20])
    late = np.max(t[-300:])
    assert early < 0.5 * late


def test_if_oscillation_period():
    # 40 MHz -> 25 ns period; autocorrelation of the steady-state tail
    # peaks at lag 25.
    t = mean_trace(PARAMS, 0, DURATION, 0)[-500:]
    lags = [np.dot(t[:-lag], t[lag:]) / (len(t) - lag) for lag in range(1, 40)]
    assert int(np.argmax(lags)) + 1 == 25


def test_adc_quantize_grid():
    x = np.array([0.0, 0.1, -0.5, 2.0, -2.0])
    q = adc_quantize(x, bits=8)
    step = 1.0 / 128
    assert np.allclose(q / step, np.round(q / step))
    assert q.max() <= 1.0 - step
    assert q.min() >= -1.0


def test_adc_monotone():
    x = np.linspace(-1.2, 1.2, 101)
    q = adc_quantize(x, bits=8)
    assert np.all(np.diff(q) >= 0)


def test_matched_filter_unit_peak():
    w = matched_filter_weights(mean_trace(PARAMS, 0, DURATION, 0),
                               mean_trace(PARAMS, 1, DURATION, 0))
    assert np.max(np.abs(w)) == pytest.approx(1.0)


def test_matched_filter_identical_traces_rejected():
    t = mean_trace(PARAMS, 0, DURATION, 0)
    with pytest.raises(ValueError):
        matched_filter_weights(t, t)


def test_integrate_truncates_to_common_length():
    assert integrate(np.ones(10), np.ones(5)) == pytest.approx(5.0)


def test_calibration_separates_states():
    cal = calibrate_readout(PARAMS, DURATION, n_shots=100, seed=3)
    assert cal.s_excited > cal.threshold > cal.s_ground
    assert cal.assignment_fidelity > 0.95


def test_mdu_discriminates_both_states():
    cal = calibrate_readout(PARAMS, DURATION, n_shots=100, seed=3)
    mdu = MeasurementDiscriminationUnit(qubit=2, calibration=cal)
    rng = derive_rng(4, "shots")
    correct = 0
    n = 50
    for outcome in (0, 1):
        for _ in range(n):
            trace = transmitted_trace(PARAMS, outcome, DURATION, 0, rng)
            res = mdu.discriminate(trace, trigger_ns=0)
            correct += res.value == outcome
    assert correct / (2 * n) > 0.95


def test_mdu_latency_under_1us_excluding_integration():
    cal = calibrate_readout(PARAMS, DURATION, n_shots=10, seed=3)
    mdu = MeasurementDiscriminationUnit(qubit=0, calibration=cal)
    # Section 5.1.2: hardware discrimination latency < 1 us beyond the
    # integration window itself.
    assert mdu.latency_ns(DURATION) - DURATION < 1000


def test_mdu_result_fields():
    cal = calibrate_readout(PARAMS, DURATION, n_shots=10, seed=3)
    mdu = MeasurementDiscriminationUnit(qubit=2, calibration=cal)
    rng = derive_rng(5, "r")
    res = mdu.discriminate(transmitted_trace(PARAMS, 1, DURATION, 0, rng), 100)
    assert res.qubit == 2
    assert res.trigger_ns == 100
    assert res.ready_ns == 100 + mdu.latency_ns(DURATION)


def test_data_collection_averaging():
    dcu = DataCollectionUnit(k_points=3)
    for round_ in range(4):
        for i in range(3):
            dcu.record(10.0 * i + round_)
    avg = dcu.averages()
    assert np.allclose(avg, [1.5, 11.5, 21.5])
    assert dcu.rounds_completed == 4


def test_data_collection_ignores_partial_round():
    dcu = DataCollectionUnit(k_points=2)
    dcu.record(1.0)
    dcu.record(2.0)
    dcu.record(99.0)  # partial
    assert np.allclose(dcu.averages(), [1.0, 2.0])


def test_data_collection_empty_raises():
    with pytest.raises(ConfigurationError):
        DataCollectionUnit(k_points=2).averages()
    with pytest.raises(ConfigurationError):
        DataCollectionUnit(k_points=0)


def test_calibration_deterministic_given_seed():
    a = calibrate_readout(PARAMS, DURATION, n_shots=20, seed=9)
    b = calibrate_readout(PARAMS, DURATION, n_shots=20, seed=9)
    assert a.threshold == b.threshold
    assert np.array_equal(a.weights, b.weights)
