"""Error-mitigation subsystem: folding, extrapolation, readout inversion,
and the registered ``mitigated`` experiment wrapper."""

import numpy as np
import pytest

from repro import MachineConfig, Session
from repro.experiments import REGISTRY
from repro.experiments.entangling import _correlation, _marginal_one
from repro.mitigation import (
    INVERSES,
    MitigatedExperiment,
    ReadoutMitigator,
    ZNEMitigator,
    confusion_matrix,
    correct_counts,
    correct_probabilities,
    extrapolate_to_zero,
    extrapolation_weights,
    fold_asm,
    fold_counts,
    fold_ops,
    fold_rng,
    noise_amplification,
)
from repro.compiler.ir import Op, OpKind
from repro.readout import ReadoutParams
from repro.readout.multiplex import staggered_readouts
from repro.service.job import SweepResult
from repro.utils.errors import CalibrationError, ConfigurationError


def pair_config(**kwargs):
    kwargs.setdefault("qubits", (0, 1))
    kwargs.setdefault("flux_pairs", ((0, 1),))
    kwargs.setdefault("readouts", (ReadoutParams(f_if_hz=40e6),
                                   ReadoutParams(f_if_hz=52e6)))
    kwargs.setdefault("trace_enabled", False)
    kwargs.setdefault("calibration_shots", 40)
    return MachineConfig(**kwargs)


# -- gate folding -------------------------------------------------------------


def test_fold_counts_realize_requested_scale():
    rng = fold_rng(0, 1)
    # d = round((scale-1) * n / 2) total folds, distributed uniformly.
    assert fold_counts(4, 3.0, rng).tolist() == [1, 1, 1, 1]
    counts = fold_counts(4, 2.0, fold_rng(0, 1))
    assert counts.sum() == 2 and counts.max() == 1
    assert fold_counts(5, 1.0, rng).tolist() == [0] * 5
    assert fold_counts(0, 3.0, rng).tolist() == []


def test_fold_counts_reject_attenuation():
    with pytest.raises(ConfigurationError, match="must be >= 1"):
        fold_counts(4, 0.5, fold_rng(0, 0))


def test_fold_selection_is_deterministic():
    a = fold_counts(7, 1.8, fold_rng(3, 2))
    b = fold_counts(7, 1.8, fold_rng(3, 2))
    assert a.tolist() == b.tolist()
    assert a.sum() == round(0.8 * 7 / 2)


def test_fold_ops_inserts_inverse_pairs():
    ops = [Op("Y90", (0,), OpKind.PULSE, duration_cycles=4),
           Op("CZ", (0, 1), OpKind.PULSE, duration_cycles=8),
           Op("MEASURE", (0, 1), OpKind.MEASURE, duration_cycles=300)]
    folded = fold_ops(ops, 3.0, fold_rng(0, 2))
    names = [op.name for op in folded]
    assert names == ["Y90", "mY90", "Y90", "CZ", "CZ", "CZ", "MEASURE"]
    assert all(op.kind is OpKind.PULSE for op in folded[:-1])


ASM = "\n".join([
    "    mov r2, 4",
    "Loop:",
    "    Pulse {q0}, Y90",
    "    Wait 4",
    "    Pulse {q0, q1}, CZ",
    "    Wait 8",
    "    MPG {q0, q1}, 300",
    "    MD {q0, q1}",
    "    bne r1, r2, Loop",
])


def test_fold_asm_triples_foldable_pulses_and_keeps_scaffold():
    folded = fold_asm(ASM, 3.0, fold_rng(0, 2))
    lines = folded.splitlines()
    assert lines.count("    Pulse {q0}, Y90") == 2
    assert lines.count("    Pulse {q0}, mY90") == 1
    assert lines.count("    Pulse {q0, q1}, CZ") == 3
    # The grid-keeping Wait rides along with every folded copy.
    assert lines.count("    Wait 4") == 3
    assert lines.count("    Wait 8") == 3
    # Control flow and measurement pass through untouched, in order.
    assert lines[0] == "    mov r2, 4"
    assert lines[-1] == "    bne r1, r2, Loop"
    assert "    MPG {q0, q1}, 300" in lines and "    MD {q0, q1}" in lines


def test_fold_asm_scale_one_is_identity():
    assert fold_asm(ASM, 1.0, fold_rng(0, 0)) == ASM


def test_fold_asm_is_deterministic():
    assert (fold_asm(ASM, 2.0, fold_rng(5, 1))
            == fold_asm(ASM, 2.0, fold_rng(5, 1)))


def test_fold_asm_ignores_unknown_operations():
    asm = "    Pulse {q0}, CZREC\n    Wait 4"
    assert fold_asm(asm, 3.0, fold_rng(0, 1)) == asm


# -- extrapolators ------------------------------------------------------------


def test_richardson_is_exact_on_polynomials():
    scales = (1.0, 2.0, 3.0)
    poly = lambda lam: 0.3 - 0.2 * lam + 0.05 * lam * lam
    values = [poly(lam) for lam in scales]
    zero = extrapolate_to_zero(scales, values, "richardson")
    assert zero == pytest.approx(poly(0.0), abs=1e-12)


def test_linear_is_exact_on_lines_and_vectorized():
    scales = (1.0, 2.0, 3.0)
    values = np.asarray([[1.0 - 0.1 * lam, 0.5 + 0.2 * lam]
                         for lam in scales])
    zero = extrapolate_to_zero(scales, values, "linear")
    assert np.allclose(zero, [1.0, 0.5])


def test_exponential_is_exact_on_geometric_decay():
    scales = (1.0, 2.0, 3.0)
    a, b, r = 0.25, 0.5, 0.6
    values = [a + b * r ** k for k in range(3)]
    zero = extrapolate_to_zero(scales, values, "exponential")
    # Aitken's delta-squared recovers the geometric limit a... at k -> inf;
    # the zero-noise value is y0 - delta^2/Delta = a + b shifted: check
    # the closed form directly.
    y0, y1, y2 = values
    assert zero == pytest.approx(y0 - (y1 - y0) ** 2 / (y2 - 2 * y1 + y0))


def test_exponential_falls_back_to_linear_without_curvature():
    scales = (1.0, 2.0, 3.0)
    values = [0.9, 0.8, 0.7]  # second difference exactly zero
    assert (extrapolate_to_zero(scales, values, "exponential")
            == pytest.approx(extrapolate_to_zero(scales, values, "linear")))


def test_extrapolator_validation():
    with pytest.raises(ConfigurationError, match="unknown extrapolator"):
        extrapolate_to_zero((1.0, 2.0), [1.0, 2.0], "cubic")
    with pytest.raises(ConfigurationError, match="at least 2"):
        extrapolate_to_zero((1.0,), [1.0], "richardson")
    with pytest.raises(ConfigurationError, match="duplicate"):
        extrapolate_to_zero((1.0, 1.0), [1.0, 2.0], "richardson")
    with pytest.raises(ConfigurationError, match="equally spaced"):
        extrapolate_to_zero((1.0, 2.0, 4.0), [1, 2, 3], "exponential")


def test_noise_amplification_matches_weights():
    scales = (1.0, 2.0)
    weights = extrapolation_weights(scales, "richardson")
    assert np.allclose(weights, [2.0, -1.0])
    assert noise_amplification(scales, "richardson") == pytest.approx(
        np.sqrt(5.0))
    assert noise_amplification((1.0, 2.0, 3.0), "exponential") is None


# -- confusion matrix and inversion ------------------------------------------


def test_identity_response_recovers_exactly_without_ridge():
    q = np.asarray([0.5, 0.1, 0.1, 0.3])
    p = correct_probabilities(np.eye(4), q, ridge=0.0)
    assert np.allclose(p, q, atol=1e-12)


def test_ridge_inversion_stays_close_on_well_conditioned_response():
    response = np.asarray([[0.95, 0.04], [0.05, 0.96]])
    q = response @ np.asarray([0.7, 0.3])
    p = correct_probabilities(response, q)
    assert np.allclose(p, [0.7, 0.3], atol=1e-3)


def test_near_singular_response_stays_finite_and_normalized():
    # Two nearly identical columns: the unregularized inverse explodes,
    # the ridge solution must stay a clean probability vector.
    response = np.asarray([[0.5, 0.5 + 1e-9], [0.5, 0.5 - 1e-9]])
    p = correct_probabilities(response, np.asarray([0.6, 0.4]), ridge=1e-6)
    assert np.all(np.isfinite(p)) and np.all(p >= 0)
    assert p.sum() == pytest.approx(1.0)


def test_confusion_matrix_is_a_deterministic_stochastic_matrix():
    config = pair_config()
    a = confusion_matrix(config, (0, 1), cal_shots=24)
    b = confusion_matrix(config, (0, 1), cal_shots=24)
    assert np.array_equal(a, b)
    assert a.shape == (4, 4)
    assert np.allclose(a.sum(axis=0), 1.0)
    # Crosstalk is small at well-separated IFs: strongly diagonal.
    assert np.all(np.diag(a) > 0.5)


@pytest.mark.parametrize("if_step_hz", [12e6, 0.5e6])
def test_confusion_matrix_matches_per_shot_discrimination(if_step_hz):
    """The reference loop: one multiplexed record per shot, discriminated
    qubit by qubit as the MDU does (``np.dot`` per record, not a BLAS
    matrix product)."""
    from repro.core.quma import readout_calibrations
    from repro.readout import adc_quantize
    from repro.readout.multiplex import multiplexed_trace
    from repro.readout.weights import integrate, prepare_weights
    from repro.utils.rng import derive_rng
    from repro.utils.units import cycles_to_ns

    targets = (0, 1)
    config = pair_config(seed=4, readouts=staggered_readouts(2, if_step_hz))
    msmt_ns = cycles_to_ns(config.msmt_cycles)
    cals = readout_calibrations(config, targets)
    params = {q: config.readout_for(q) for q in targets}
    weights = [prepare_weights(cals[q].weights, msmt_ns) for q in targets]
    rng = derive_rng(config.seed, "mitigation", "confusion")
    shots = config.calibration_shots
    reference = np.zeros((4, 4))
    for word in range(4):
        for _ in range(shots):
            trace = adc_quantize(multiplexed_trace(
                params, {q: (word >> j) & 1 for j, q in enumerate(targets)},
                msmt_ns, rng))
            read = sum(int(integrate(trace, weights[j])
                           > cals[q].threshold) << j
                       for j, q in enumerate(targets))
            reference[read, word] += 1
    assert np.array_equal(confusion_matrix(config, targets),
                          reference / shots)


def test_confusion_matrix_degenerate_ifs_still_invertible():
    # Identical IFs: matched filters fully overlap, the response is as
    # ill-conditioned as the simulator can make it — the ridge inversion
    # must still return a finite normalized distribution.
    config = pair_config(readouts=(ReadoutParams(f_if_hz=40e6),
                                   ReadoutParams(f_if_hz=40e6)))
    response = confusion_matrix(config, (0, 1), cal_shots=24)
    assert np.allclose(response.sum(axis=0), 1.0)
    p = correct_counts(response, np.asarray([40, 10, 10, 40]))
    assert np.all(np.isfinite(p)) and p.sum() == pytest.approx(1.0)


def test_confusion_matrix_width_eight():
    config = MachineConfig(qubits=tuple(range(8)),
                           readouts=staggered_readouts(8),
                           calibration_shots=20, trace_enabled=False)
    response = confusion_matrix(config, tuple(range(8)), cal_shots=2)
    assert response.shape == (256, 256)
    assert np.allclose(response.sum(axis=0), 1.0)


def test_confusion_matrix_rejects_bad_widths_and_shots():
    config = pair_config()
    with pytest.raises(CalibrationError, match="width"):
        confusion_matrix(config, tuple(range(9)))
    with pytest.raises(CalibrationError, match="width"):
        confusion_matrix(config, ())
    with pytest.raises(CalibrationError, match="calibration shot"):
        confusion_matrix(config, (0, 1), cal_shots=0)


def test_zero_count_histograms_raise_calibration_error():
    with pytest.raises(CalibrationError, match="zero total counts"):
        correct_counts(np.eye(4), np.zeros(4))
    with pytest.raises(CalibrationError, match="zero total counts"):
        _marginal_one(np.zeros(4), 0)
    with pytest.raises(CalibrationError, match="zero total counts"):
        _correlation(np.zeros(4))


def test_inversion_validates_shapes_and_ridge():
    with pytest.raises(CalibrationError, match="does not match"):
        correct_probabilities(np.eye(3), np.asarray([0.5, 0.5]))
    with pytest.raises(CalibrationError, match="ridge"):
        correct_probabilities(np.eye(2), np.asarray([0.5, 0.5]), ridge=-1.0)


# -- mitigator configuration --------------------------------------------------


def test_zne_mitigator_validates_scales():
    with pytest.raises(ConfigurationError, match="at least 2"):
        ZNEMitigator(scales=(1.0,))
    with pytest.raises(ConfigurationError, match="must be 1.0"):
        ZNEMitigator(scales=(2.0, 3.0))
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        ZNEMitigator(scales=(1.0, 3.0, 2.0))
    with pytest.raises(ConfigurationError, match="unknown extrapolator"):
        ZNEMitigator(extrapolator="cubic")
    with pytest.raises(ConfigurationError, match="equally spaced"):
        ZNEMitigator(scales=(1.0, 2.0, 4.0), extrapolator="exponential")


def test_readout_mitigator_caches_response_per_register():
    mitigator = ReadoutMitigator(pair_config(), cal_shots=16)
    first = mitigator.response_for((0, 1))
    assert mitigator.response_for((0, 1)) is first


def test_mitigated_experiment_validates_params():
    config = pair_config()
    with pytest.raises(ConfigurationError, match="cannot wrap itself"):
        MitigatedExperiment(config=config, targets=((0, 1),),
                            params={"experiment": "mitigated"})
    with pytest.raises(ConfigurationError, match="unknown mitigation"):
        MitigatedExperiment(config=config, targets=((0, 1),),
                            params={"experiment": "bell",
                                    "mitigation": ("zne", "twirl")})
    with pytest.raises(ConfigurationError, match="at least one"):
        MitigatedExperiment(config=config, targets=((0, 1),),
                            params={"experiment": "bell", "mitigation": ()})
    with pytest.raises(ConfigurationError, match="duplicate"):
        MitigatedExperiment(config=config, targets=((0, 1),),
                            params={"experiment": "bell",
                                    "mitigation": ("zne", "zne")})


def test_mitigated_experiment_rejects_uncorrelated_inner():
    exp = MitigatedExperiment(config=MachineConfig(qubits=(2,),
                                                   trace_enabled=False),
                              params={"experiment": "rabi",
                                      "mitigation": ("readout",),
                                      "amplitudes": [0.1, 0.2],
                                      "n_rounds": 2})
    with pytest.raises(ConfigurationError, match="without cal_targets"):
        exp.build_specs()


# -- the mitigated experiment end to end --------------------------------------


def test_scale_one_variants_are_byte_identical_to_unwrapped():
    config = pair_config()
    bell = REGISTRY.get("bell")(config=config, targets=((0, 1),),
                                params={"n_rounds": 4})
    wrapped = MitigatedExperiment(config=config, targets=((0, 1),),
                                  params={"experiment": "bell",
                                          "mitigation": ("zne",),
                                          "scales": (1.0, 2.0, 3.0),
                                          "n_rounds": 4})
    plain = bell.build_specs()
    expanded = wrapped.build_specs()
    assert len(expanded) == 3 * len(plain)
    for i, spec in enumerate(plain):
        variant = expanded[3 * i]
        assert variant.asm == spec.asm
        assert variant.run_seed == spec.run_seed
        assert variant.params["zne_scale"] == 1.0
        folded = expanded[3 * i + 1]
        assert folded.asm != spec.asm
        assert folded.run_seed != spec.run_seed
        assert "zne x2" in folded.label


def test_folded_variants_share_text_across_repeats():
    wrapped = MitigatedExperiment(config=pair_config(), targets=((0, 1),),
                                  params={"experiment": "ghz",
                                          "mitigation": ("zne",),
                                          "scales": (1.0, 2.0),
                                          "n_rounds": 4, "repeats": 2})
    specs = wrapped.build_specs()
    # Fold selection keys on the config seed, not the run seed: the two
    # repeats' folded variants carry identical program text (one compile
    # cache entry) but distinct derived run seeds.
    assert specs[1].asm == specs[3].asm
    assert specs[1].run_seed != specs[3].run_seed


def test_mitigated_bell_runs_and_analyzes():
    # Closely spaced IFs leave visible readout crosstalk, so the parity
    # correlators sit strictly inside (-1, 1) and carry finite error bars.
    config = pair_config(seed=7, readouts=(ReadoutParams(f_if_hz=40e6),
                                           ReadoutParams(f_if_hz=42e6)))
    with Session(config) as session:
        future = session.submit_experiment(
            "mitigated", targets=((0, 1),), experiment="bell",
            mitigation=("zne", "readout"), scales=(1.0, 2.0),
            n_rounds=32, cal_shots=16)
        streamed = list(future.stream(fit=True))
        result = future.result()
    assert len(streamed) == 2 * 3  # two scales, three bases
    assert set(result.correlations) == {"ZZ", "XX", "YY"}
    assert result.fidelity is not None
    assert -1.0 <= result.fidelity <= 1.0
    # The final incremental estimate agrees with the one-shot analysis.
    estimate = future.estimate()
    assert estimate.per_target[(0, 1)]["fidelity"] == pytest.approx(
        result.fidelity)
    # Error bars: scale-1 binomial stderr amplified by the ZNE weights.
    stderr = estimate.stderr[(0, 1)]
    assert stderr is not None and stderr["fidelity"] > 0


def test_mitigated_analysis_requires_whole_groups():
    exp = MitigatedExperiment(config=pair_config(), targets=((0, 1),),
                              params={"experiment": "bell",
                                      "mitigation": ("zne",),
                                      "scales": (1.0, 2.0),
                                      "n_rounds": 4})
    with pytest.raises(ConfigurationError, match="whole"):
        exp.analyze_target([object()], (0, 1))


def test_mitigated_estimate_skips_incomplete_groups():
    config = pair_config(seed=3)
    exp = MitigatedExperiment(config=config, targets=((0, 1),),
                              params={"experiment": "bell",
                                      "mitigation": ("zne",),
                                      "scales": (1.0, 2.0),
                                      "n_rounds": 4, "bases": ("ZZ",)})
    with Session(config) as session:
        future = session.submit(exp)
        results = [job for job, _ in future.stream(fit=False)]
    # Only the scale-1 variant of the single group: no estimate yet.
    assert exp.estimate_target([(0, results[0])], (0, 1)) is None
    est = exp.estimate_target(list(enumerate(results)), (0, 1))
    assert est is not None and "correlations" in est


def test_mitigation_marks_params_and_metrics():
    with Session(pair_config(seed=5)) as session:
        future = session.submit_experiment(
            "mitigated", targets=((0, 1),), experiment="bell",
            mitigation="zne,readout", scales=(1.0, 2.0),
            n_rounds=4, bases=("ZZ",), cal_shots=8)
        future.result()
        jobs = future.sweep.jobs
        stats = session.stats()
    assert all(job.params["mitigation"] == "zne,readout" for job in jobs)
    assert {job.params["zne_scale"] for job in jobs} == {1.0, 2.0}
    counters = stats["metrics"]["service"]["counters"]
    assert counters["service.mitigated_jobs"] == len(jobs)
    assert counters["service.zne_jobs"] == len(jobs)


def test_sweep_artifact_round_trips_estimate(tmp_path):
    path = str(tmp_path / "sweep.json")
    with Session(pair_config(seed=2)) as session:
        future = session.submit_experiment(
            "mitigated", targets=((0, 1),), experiment="bell",
            mitigation=("zne", "readout"), scales=(1.0, 2.0),
            n_rounds=4, cal_shots=8)
        result = future.result()
        future.sweep.save(path)
    loaded = SweepResult.load(path)
    assert loaded.estimate is not None
    (per_target,) = loaded.estimate["per_target"]
    assert per_target["target"] == [0, 1]
    assert per_target["fit"]["fidelity"] == pytest.approx(result.fidelity)
    # Round-trip only: this tiny clean sweep's binomial stderr is 0.
    assert per_target["stderr"]["fidelity"] >= 0


def test_cli_mitigation_flag_wraps_experiment(capsys):
    from repro.cli import main

    code = main(["exp", "bell", "--qubits", "0-1", "--mitigation",
                 "zne,readout", "--param", "n_rounds=4",
                 "--param", "scales=(1.0, 2.0)", "--param", "cal_shots=8",
                 "--param", "bases=('ZZ',)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[mitigated zne+readout]" in out
