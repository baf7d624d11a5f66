"""One calibration record per content key.

``calibrate_readout`` synthesizes its shots in blocks yet matches the
one-trace-per-shot loop bit for bit; QuMA, the mitigation layer and the
baseline share memoized calibrations and confusion matrices keyed on
content, so a warm mitigated sweep never recalibrates.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import MachineConfig, QuMA, Session
from repro.core.quma import cached_calibration, readout_calibrations
from repro.mitigation import ReadoutMitigator, confusion_matrix
from repro.mitigation.base import cached_response
from repro.readout import ReadoutParams, adc_quantize, calibrate_readout
from repro.readout.resonator import mean_trace, transmitted_trace
from repro.readout.multiplex import staggered_readouts
from repro.readout.weights import (integrate, matched_filter_weights,
                                   prepare_weights)
from repro.utils.rng import derive_rng


def per_shot_calibration(params, duration_ns, n_shots, seed, qubit=None,
                         adc_bits=8):
    """The one-trace-per-shot calibration loop the batched one replaces."""
    if qubit is None:
        rng = derive_rng(seed, "readout_calibration")
    else:
        rng = derive_rng(seed, "readout_calibration", f"q{qubit}")
    w = matched_filter_weights(mean_trace(params, 0, duration_ns, t0_ns=0),
                               mean_trace(params, 1, duration_ns, t0_ns=0))
    w_run = prepare_weights(w, duration_ns)
    stats = {0: [], 1: []}
    for outcome in (0, 1):
        for _ in range(n_shots):
            trace = transmitted_trace(params, outcome, duration_ns, 0, rng)
            stats[outcome].append(
                integrate(adc_quantize(trace, adc_bits), w_run))
    s0 = float(np.mean(stats[0]))
    s1 = float(np.mean(stats[1]))
    threshold = 0.5 * (s0 + s1)
    correct = sum(1 for s in stats[0] if s <= threshold)
    correct += sum(1 for s in stats[1] if s > threshold)
    return w, threshold, s0, s1, correct / (2.0 * n_shots)


@pytest.mark.parametrize("params,duration_ns,n_shots,seed,qubit", [
    (ReadoutParams(), 1500, 200, 0, None),
    (ReadoutParams(f_if_hz=52e6), 1500, 200, 4, 3),
    (ReadoutParams(), 1500, 37, 2, None),
    (ReadoutParams(f_if_hz=46e6), 1500, 37, 9, 1),
    (ReadoutParams(noise_std=0.0), 1500, 200, 1, None),
    (ReadoutParams(amp_excited=0.345), 300, 200, 7, None),
    (ReadoutParams(amp_excited=0.345), 300, 37, 7, 2),
], ids=["shared", "q3-stream", "37-shots", "37-shots-q1", "noise-free",
        "300ns", "300ns-37-shots-q2"])
def test_block_calibration_matches_per_shot_loop(params, duration_ns,
                                                 n_shots, seed, qubit):
    w, threshold, s0, s1, fidelity = per_shot_calibration(
        params, duration_ns, n_shots, seed, qubit)
    cal = calibrate_readout(params, duration_ns, n_shots=n_shots, seed=seed,
                            qubit=qubit)
    assert cal.threshold == threshold
    assert cal.s_ground == s0
    assert cal.s_excited == s1
    assert cal.assignment_fidelity == fidelity
    assert np.array_equal(cal.weights, w)


# -- calibration memo keys ---------------------------------------------------


def misses():
    return cached_calibration.cache_info().misses


def test_equal_content_configs_share_one_record():
    # A seed no other test uses, so the first call is a miss.
    before = cached_calibration.cache_info()
    first = readout_calibrations(MachineConfig(seed=918_273))
    second = readout_calibrations(MachineConfig(seed=918_273))
    after = cached_calibration.cache_info()
    assert second[2] is first[2]
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 1


def _change_seed(config):
    return replace(config, seed=config.seed + 1)


def _change_readouts(config):
    return replace(config, readouts=(ReadoutParams(f_if_hz=52e6),)
                   + config.readouts[1:])


def _change_msmt_cycles(config):
    return replace(config, msmt_cycles=200)


def _change_calibration_shots(config):
    return replace(config, calibration_shots=30)


def _change_first_wired_qubit(config):
    return replace(config, qubits=(1, 0))


@pytest.mark.parametrize("mutate", [
    _change_seed, _change_readouts, _change_msmt_cycles,
    _change_calibration_shots, _change_first_wired_qubit,
], ids=["seed", "readouts", "msmt_cycles", "calibration_shots",
        "first_wired_qubit"])
def test_mutated_config_recomputes(mutate):
    config = MachineConfig(qubits=(0, 1), seed=271_828, calibration_shots=20)
    before = readout_calibrations(config)
    count = misses()
    config = mutate(config)
    after = readout_calibrations(config)
    assert misses() > count
    assert any(after[q].threshold != before[q].threshold for q in (0, 1))
    # Back to the old content: the old records again, not new ones.
    assert readout_calibrations(
        MachineConfig(qubits=(0, 1), seed=271_828,
                      calibration_shots=20))[1] is before[1]


def test_quma_and_confusion_matrix_use_the_same_calibrations(monkeypatch):
    config = MachineConfig(qubits=(0, 1, 2), flux_pairs=((0, 1), (1, 2)),
                           readouts=staggered_readouts(3), seed=31,
                           calibration_shots=24, trace_enabled=False)
    machine = QuMA(config)
    used = {}

    def spy(config, qubits=None):
        used.update(readout_calibrations(config, qubits))
        return used

    # Recompute every record, so equal values are not just shared records.
    cached_calibration.cache_clear()
    monkeypatch.setattr("repro.mitigation.readout.readout_calibrations", spy)
    confusion_matrix(config, (0, 1, 2), cal_shots=4)
    assert sorted(used) == [0, 1, 2]
    for q in (0, 1, 2):
        ours, theirs = machine.readout_calibrations[q], used[q]
        assert ours is not theirs
        assert ours.threshold == theirs.threshold
        assert ours.s_ground == theirs.s_ground
        assert ours.s_excited == theirs.s_excited
        assert ours.assignment_fidelity == theirs.assignment_fidelity
        assert np.array_equal(ours.weights, theirs.weights)


# -- confusion-matrix memo -----------------------------------------------------


def pair_config(**kwargs):
    kwargs.setdefault("readouts", (ReadoutParams(f_if_hz=40e6),
                                   ReadoutParams(f_if_hz=52e6)))
    return MachineConfig(qubits=(0, 1), flux_pairs=((0, 1),),
                         calibration_shots=40, trace_enabled=False, **kwargs)


def test_cached_matrix_is_read_only():
    response = ReadoutMitigator(pair_config(), cal_shots=16).response_for(
        (0, 1))
    assert not response.flags.writeable
    with pytest.raises(ValueError):
        response[0, 0] = 0.5


def test_equal_content_mitigators_share_a_matrix_until_content_changes():
    config = pair_config(seed=424_242)
    first = ReadoutMitigator(config, cal_shots=16).response_for((0, 1))
    assert ReadoutMitigator(pair_config(seed=424_242), cal_shots=16) \
        .response_for((0, 1)) is first
    count = cached_response.cache_info().misses
    config = replace(config, seed=424_243)
    changed = ReadoutMitigator(config, cal_shots=16).response_for((0, 1))
    assert cached_response.cache_info().misses == count + 1
    assert changed is not first
    assert np.array_equal(
        changed, confusion_matrix(pair_config(seed=424_243), (0, 1),
                                  cal_shots=16))


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_warm_mitigated_sweep_does_not_recalibrate(backend):
    with Session(seed=64_738, backend=backend, workers=2,
                 telemetry=True) as session:
        def sweep():
            session.run("mitigated", targets=((0, 1),), experiment="bell",
                        mitigation=("readout",), n_rounds=4,
                        bases=("ZZ",))
            return session.stats()["calibration"]

        first = sweep()
        second = sweep()
        gauges = session.service.metrics_summary()["workers_merged"]["gauges"]
    assert first["confusion_misses"] >= 1
    assert second["confusion_misses"] == first["confusion_misses"]
    assert second["confusion_hits"] > first["confusion_hits"]
    assert second["readout_misses"] == first["readout_misses"]
    # The executing processes' memos, as their machines were built.
    assert gauges["calibration.readout_entries"] >= 2
    assert {f"calibration.{name}_{count}" for name in ("readout", "confusion")
            for count in ("hits", "misses", "entries")} <= set(gauges)
