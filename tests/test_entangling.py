"""Target-register protocol and the entangling experiment family.

The tentpole contracts under test:

* target normalization: ``qubits=`` fans out single-qubit targets,
  ``targets=`` addresses registers, and malformed registers fail loudly;
* flux-topology routing: ``Session.config_for`` auto-wires the flux (CZ)
  chains and staggered readout IFs a register run needs, and pinned
  configs that cannot serve a target are rejected with clear errors;
* correlated readout: register jobs carry per-qubit calibration points
  and a joint-outcome histogram whose counts sum to the round budget;
* physics: Bell correlations/fidelity, the GHZ two-branch population,
  and the CZ conditional phase land near their ideal values;
* registry-driven parity: every registered experiment (including the
  entangling family) produces bit-identical job streams across the
  serial/process backends, and scoped draining keeps concurrent
  pair sweeps on one service from stealing each other's results.

Set ``REPRO_SERVICE_BACKEND=serial|process|fleet`` to pin the
parametrized backend (the CI matrix runs one backend per job).
"""

import json
import os

import numpy as np
import pytest

from repro import MachineConfig, Session
from repro.experiments import REGISTRY
from repro.experiments.base import normalize_targets, target_key, target_label
from repro.readout import ReadoutParams
from repro.readout.calibration import joint_outcome_counts
from repro.service import ExperimentService, JobSpec
from repro.utils.errors import CalibrationError, ConfigurationError, JobError

ALL_BACKENDS = ("serial", "process")
_PINNED = os.environ.get("REPRO_SERVICE_BACKEND")
BACKENDS_UNDER_TEST = (_PINNED,) if _PINNED else ALL_BACKENDS

#: Fast parameters for the registry-driven parity suite: every
#: registered experiment MUST have an entry (asserted below), so a new
#: experiment cannot ship without joining the cross-backend contract.
FAST_PARAMS = {
    "rabi": (None, dict(amplitudes=[0.0, 0.2, 0.4, 0.6], n_rounds=2)),
    "rb": (None, dict(lengths=[1, 4], sequences_per_length=1, n_rounds=2)),
    "allxy": (None, dict(n_rounds=2)),
    "t1": (None, dict(delays_cycles=[4, 8, 16], n_rounds=2)),
    "ramsey": (None, dict(delays_cycles=[4, 8, 16, 20], n_rounds=2)),
    "echo": (None, dict(delays_cycles=[4, 8, 16], n_rounds=2)),
    "cz_calibration": (((0, 1),),
                       dict(phases=[0.0, 1.5, 3.0, 4.5], n_rounds=4)),
    "bell": (((0, 1),), dict(n_rounds=4)),
    "ghz": (((0, 1, 2),), dict(n_rounds=4, repeats=2)),
    "mitigated": (((0, 1),), dict(experiment="bell", n_rounds=4,
                                  scales=(1.0, 2.0), cal_shots=8)),
}


def pair_config(**kwargs):
    """A 0-1 flux pair machine with multiplex-ready readouts."""
    kwargs.setdefault("qubits", (0, 1))
    kwargs.setdefault("flux_pairs", ((0, 1),))
    kwargs.setdefault("readouts", (ReadoutParams(f_if_hz=40e6),
                                   ReadoutParams(f_if_hz=52e6)))
    kwargs.setdefault("trace_enabled", False)
    return MachineConfig(**kwargs)


# -- target normalization ----------------------------------------------------


def test_normalize_targets_from_qubits():
    assert normalize_targets(qubits=2) == ((2,),)
    assert normalize_targets(qubits=(0, 1)) == ((0,), (1,))
    assert normalize_targets() is None


def test_normalize_targets_registers():
    assert normalize_targets(targets=((0, 1),)) == ((0, 1),)
    assert normalize_targets(targets=(2, (0, 1))) == ((2,), (0, 1))
    assert normalize_targets(targets=3) == ((3,),)
    # Chain qubits may be shared across pair targets.
    assert normalize_targets(targets=((0, 1), (1, 2))) == ((0, 1), (1, 2))


def test_normalize_targets_rejects_malformed():
    with pytest.raises(ConfigurationError, match="not both"):
        normalize_targets(targets=((0, 1),), qubits=(0,))
    with pytest.raises(ConfigurationError, match="within target"):
        normalize_targets(targets=((0, 0),))
    with pytest.raises(ConfigurationError, match="duplicate targets"):
        normalize_targets(targets=((0, 1), (0, 1)))
    with pytest.raises(ConfigurationError, match="at least one"):
        normalize_targets(targets=((),))
    with pytest.raises(ConfigurationError, match="at least one"):
        normalize_targets(targets=())


def test_target_key_and_label():
    assert target_key((2,)) == 2
    assert target_key((0, 1)) == (0, 1)
    assert target_label((0, 1, 2)) == "q0-1-2"


def test_qubits_spelling_matches_targets_spelling():
    """targets=((0,), (1,)) is exactly qubits=(0, 1)."""
    with Session(seed=3) as session:
        amps = [0.0, 0.2, 0.4, 0.6]
        via_qubits = session.submit_experiment(
            "rabi", qubits=(0, 1), amplitudes=amps, n_rounds=2)
        via_qubits.result()
        via_targets = session.submit_experiment(
            "rabi", targets=((0,), (1,)), amplitudes=amps, n_rounds=2)
        via_targets.result()
    for a, b in zip(via_qubits.sweep.jobs, via_targets.sweep.jobs):
        assert np.array_equal(a.averages, b.averages)
        assert (a.s_ground, a.s_excited) == (b.s_ground, b.s_excited)


def test_wrong_arity_rejected():
    with Session() as session:
        with pytest.raises(ConfigurationError, match="2-qubit targets"):
            session.run("bell", targets=((0, 1, 2),))
        with pytest.raises(ConfigurationError, match="at least 2"):
            session.run("ghz", targets=((0,),))


# -- flux-topology routing ---------------------------------------------------


def test_session_config_auto_wires_flux_chain():
    with Session(seed=5) as session:
        config = session.config_for(targets=((0, 1, 2),))
    assert config.qubits == (0, 1, 2)
    assert {frozenset(p) for p in config.flux_pairs} == \
        {frozenset((0, 1)), frozenset((1, 2))}
    # Multiplexed readout gets pairwise-distinct IFs.
    ifs = [r.f_if_hz for r in config.readouts]
    assert len(set(ifs)) == 3


def test_session_config_single_qubit_targets_unchanged():
    """All-single-qubit runs keep the historic config shape bit-for-bit."""
    with Session(seed=5) as session:
        config = session.config_for(qubits=(0, 1))
        legacy = MachineConfig(qubits=(0, 1), trace_enabled=False, seed=5)
    assert config.fingerprint() == legacy.fingerprint()


def test_pair_sweep_merges_flux_pairs():
    with Session() as session:
        config = session.config_for(targets=((0, 1), (1, 2)))
    assert config.qubits == (0, 1, 2)
    assert {frozenset(p) for p in config.flux_pairs} == \
        {frozenset((0, 1)), frozenset((1, 2))}


def test_pinned_config_without_flux_pair_rejected():
    config = MachineConfig(qubits=(0, 1), trace_enabled=False)
    with Session(config) as session:
        with pytest.raises(ConfigurationError, match="flux"):
            session.run("bell", targets=((0, 1),))


def test_pinned_config_with_degenerate_ifs_rejected():
    config = MachineConfig(qubits=(0, 1), flux_pairs=((0, 1),),
                           trace_enabled=False)  # shared default readout
    with Session(config) as session:
        with pytest.raises(ConfigurationError, match="IF"):
            session.run("bell", targets=((0, 1),))


def test_entangling_defaults_to_first_flux_pair():
    with Session(pair_config()) as session:
        experiment = session.create("bell")
    assert experiment.targets == ((0, 1),)


def test_entangling_runs_without_explicit_targets():
    """session.run("bell") with no pinned config wires its own pair."""
    with Session() as session:
        bell = session.create("bell")
        assert bell.targets == ((0, 1),)
        assert bell.config.flux_pairs == ((0, 1),)
        ghz = session.create("ghz")
        assert ghz.targets == ((0, 1, 2),)
        result = session.run("bell", n_rounds=4, bases=("ZZ",))
    assert result.correlations["ZZ"] is not None
    # Single-qubit experiments keep the historic first-wired-qubit default.
    with Session() as session:
        assert session.create("allxy").targets == ((2,),)


# -- correlated readout ------------------------------------------------------


def test_joint_outcome_counts_thresholding():
    stats = np.array([[0.0, 1.0],   # q0 low, q1 high -> index 2
                      [1.0, 1.0],   # both high       -> index 3
                      [0.0, 0.0],   # both low        -> index 0
                      [1.0, 0.0]])  # q0 high, q1 low -> index 1
    counts = joint_outcome_counts(stats, np.array([0.5, 0.5]))
    assert counts.tolist() == [1, 1, 1, 1]
    # Discrimination matches the MDU: strictly greater than threshold.
    at_threshold = joint_outcome_counts(np.array([[0.5, 0.5]]),
                                        np.array([0.5, 0.5]))
    assert at_threshold.tolist() == [1, 0, 0, 0]
    with pytest.raises(CalibrationError, match="n_rounds"):
        joint_outcome_counts(np.zeros(4), np.zeros(2))
    with pytest.raises(CalibrationError, match="threshold"):
        joint_outcome_counts(np.zeros((2, 2)), np.zeros(3))


def test_register_job_carries_per_qubit_calibration_and_histogram():
    n_rounds = 6
    with Session(pair_config()) as session:
        future = session.submit_experiment("bell", n_rounds=n_rounds,
                                           bases=("ZZ",))
        future.result()
    (job,) = future.sweep.jobs
    assert job.cal_targets == (0, 1)
    assert len(job.s_grounds) == len(job.s_exciteds) == 2
    assert job.s_grounds != job.s_exciteds
    # One joint outcome per round.
    assert int(np.sum(job.joint_counts)) == n_rounds
    assert np.isclose(np.sum(job.joint_probabilities), 1.0)
    assert job.register_normalized.shape == (2,)


def test_cal_targets_spec_validation():
    config = pair_config()
    with pytest.raises(ConfigurationError, match="k_points"):
        JobSpec(config=config, asm="halt", k_points=1, cal_targets=(0, 1))
    with pytest.raises(ConfigurationError, match="not wired"):
        JobSpec(config=config, asm="halt", k_points=1, cal_targets=(7,))
    with pytest.raises(ConfigurationError, match="duplicate"):
        JobSpec(config=config, asm="halt", k_points=2, cal_targets=(0, 0))
    with pytest.raises(ConfigurationError, match="at least one"):
        JobSpec(config=config, asm="halt", k_points=1, cal_targets=())


def test_desynced_register_stream_fails_loudly():
    """An MD stream that is not whole register rounds must not silently
    shift statistics to the wrong qubit columns."""
    asm = """
        Pulse {q0}, X180
        Wait 4
        MPG {q0, q1}, 300
        MD {q0, q1}
        Wait 4
        MPG {q0}, 300
        MD {q0}
        halt
    """
    spec = JobSpec(config=pair_config(), asm=asm, k_points=2, replay=False,
                   cal_targets=(0, 1))
    with ExperimentService(backend="serial") as service:
        # Terminal job failures surface uniformly as JobError; the
        # original type and message are preserved in its text.
        with pytest.raises(JobError, match="ConfigurationError.*register "
                                           "rounds"):
            service.run_job(spec)


def test_sweep_artifact_roundtrips_joint_counts(tmp_path):
    with Session(pair_config()) as session:
        future = session.submit_experiment("bell", n_rounds=4, bases=("ZZ",))
        future.result()
    path = tmp_path / "bell.json"
    future.sweep.save(str(path))
    from repro.service.job import SweepResult

    loaded = SweepResult.load(str(path))
    (job,), (orig,) = loaded.jobs, future.sweep.jobs
    assert job.cal_targets == orig.cal_targets
    assert job.s_grounds == orig.s_grounds
    assert job.s_exciteds == orig.s_exciteds
    assert np.array_equal(job.joint_counts, orig.joint_counts)
    # Every field but the simulator internals and telemetry is persisted
    # and survives the round trip with its type.
    import dataclasses
    from repro.service.job import JobResult

    persisted = [f.name for f in dataclasses.fields(JobResult)
                 if f.name not in ("run", "telemetry")]
    with open(path) as f:
        (entry,) = json.load(f)["jobs"]
    assert sorted(entry) == sorted(persisted)
    assert job.run is None and job.telemetry is None
    for name in persisted:
        saved, back = getattr(orig, name), getattr(job, name)
        assert type(back) is type(saved), name
        if isinstance(saved, np.ndarray):
            assert back.dtype == saved.dtype, name
            assert np.array_equal(back, saved), name
        else:
            assert back == saved, name


# -- physics -----------------------------------------------------------------


def test_bell_correlations_and_fidelity():
    with Session(pair_config()) as session:
        result = session.run("bell", n_rounds=48)
    assert result.correlations["ZZ"] > 0.8
    assert result.correlations["XX"] > 0.8
    assert result.correlations["YY"] < -0.8
    assert result.fidelity > 0.85
    assert result.n_shots == 48


def test_bell_partial_bases_have_no_fidelity():
    with Session(pair_config()) as session:
        result = session.run("bell", n_rounds=8, bases=("ZZ", "XX"))
    assert result.fidelity is None
    assert set(result.correlations) == {"ZZ", "XX"}


def test_ghz_population_concentrates_on_branches():
    with Session() as session:
        result = session.run("ghz", targets=((0, 1, 2),), n_rounds=24,
                             repeats=2)
    assert result.population > 0.85
    assert result.p_all_zero > 0.2
    assert result.p_all_one > 0.2
    assert result.n_shots == 48
    assert len(result.counts) == 8


def test_cz_conditional_phase_near_pi():
    with Session() as session:
        result = session.run("cz_calibration", targets=((0, 1),), n_rounds=32)
    assert result.phase_error_rad() < 0.35
    assert result.visibility > 0.6
    assert result.control_fidelity > 0.9


def test_register_order_does_not_break_analysis():
    """The assembler sorts multiplexed MD sets, so the statistic stream
    is ascending-qubit order whatever the register's own ordering; the
    analysis must map marginals through stream positions (regression:
    reversed registers once swapped control and target columns)."""
    with Session() as session:
        reversed_cz = session.run("cz_calibration", targets=((1, 0),),
                                  n_rounds=32)
    assert reversed_cz.phase_error_rad() < 0.35
    assert reversed_cz.control_fidelity > 0.9
    with Session() as session:
        reversed_ghz = session.run("ghz", targets=((2, 1, 0),), n_rounds=16,
                                   repeats=1)
    assert reversed_ghz.population > 0.85
    # Stream order is recorded on the result, not assumed by callers.
    from repro.experiments.entangling import stream_position

    assert stream_position((1, 0), 1) == 1
    assert stream_position((2, 1, 0), 2) == 2


def test_pair_sweep_returns_mapping_keyed_by_register():
    with Session() as session:
        results = session.run("bell", targets=((0, 1), (1, 2)), n_rounds=8,
                              bases=("ZZ",))
    assert sorted(results) == [(0, 1), (1, 2)]
    for result in results.values():
        assert result.correlations["ZZ"] > 0.5


def test_entangling_incremental_estimate_converges():
    """Final update() equals the one-shot analyze() to the bit."""
    with Session() as session:
        future = session.submit_experiment("ghz", targets=((0, 1, 2),),
                                           n_rounds=6, repeats=3)
        estimates = [est for _, est in future.stream(fit=True)]
        result = future.result()
    final = estimates[-1]
    assert final.complete
    assert final.values["population"] == result.population
    assert final.values["p_all_zero"] == result.p_all_zero
    assert final.values["p_all_one"] == result.p_all_one


def test_cz_estimate_matches_analysis():
    with Session() as session:
        future = session.submit_experiment("cz_calibration",
                                           targets=((0, 1),),
                                           phases=[0.0, 1.2, 2.4, 3.6, 4.8],
                                           n_rounds=8)
        result = future.result()
        final = future.estimate()
    assert final.complete
    assert final.values["conditional_phase_rad"] == \
        result.conditional_phase_rad
    assert final.values["visibility"] == result.visibility
    assert final.values["control_fidelity"] == result.control_fidelity


def test_summary_labels_registers():
    with Session() as session:
        future = session.submit_experiment("bell", targets=((0, 1), (1, 2)),
                                           n_rounds=4, bases=("ZZ",))
        text = future.summary()
    assert "q0-1:" in text and "q1-2:" in text


# -- registry-driven backend parity ------------------------------------------


def test_fast_params_cover_every_registered_experiment():
    """A new experiment cannot ship without joining the parity suite."""
    assert set(FAST_PARAMS) == set(REGISTRY.names())


def _canonical_jobs(backend: str, name: str):
    targets, params = FAST_PARAMS[name]
    with Session(backend=backend, workers=2, seed=11) as session:
        future = session.submit_experiment(name, targets=targets, **params)
        for _ in future.stream(fit=False):
            pass
        jobs = [f.result() for f in future.futures]
    return [(job.label, job.seed,
             np.asarray(job.averages).tobytes(),
             None if job.joint_counts is None
             else np.asarray(job.joint_counts).tobytes(),
             job.s_grounds, job.s_exciteds,
             job.s_ground, job.s_excited) for job in jobs]


@pytest.mark.parametrize("name", sorted(FAST_PARAMS))
def test_experiment_deterministic_on_serial(name):
    assert _canonical_jobs("serial", name) == _canonical_jobs("serial", name)


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
@pytest.mark.parametrize("name", sorted(FAST_PARAMS))
def test_experiment_parity_across_backends(name, backend):
    """Every registered experiment is bit-identical on every backend."""
    assert _canonical_jobs("serial", name) == _canonical_jobs(backend, name)


# -- scoped draining under concurrent pair sweeps ----------------------------


def test_concurrent_pair_sweeps_keep_their_own_streams():
    """Two register experiments on one service: interleaved scoped
    streams never steal each other's jobs, and results match solo runs."""
    with ExperimentService(backend="serial") as service:
        a = Session(service=service, seed=1)
        b = Session(service=service, seed=2)
        fut_a = a.submit_experiment("bell", targets=((0, 1),), n_rounds=4)
        fut_b = b.submit_experiment("bell", targets=((1, 2),), n_rounds=4)
        stream_a = fut_a.stream(fit=False)
        stream_b = fut_b.stream(fit=False)
        seen_a, seen_b = [], []
        for _ in range(3):  # interleave the two drains
            seen_a.append(next(stream_a)[0])
            seen_b.append(next(stream_b)[0])
        res_a, res_b = fut_a.result(), fut_b.result()
    assert [j.label for j in seen_a] == [j.label for j in fut_a.sweep.jobs]
    assert [j.label for j in seen_b] == [j.label for j in fut_b.sweep.jobs]
    assert all("q0-1" in j.label for j in seen_a)
    assert all("q1-2" in j.label for j in seen_b)

    # Sharing the service changed nothing: a solo run reproduces A's
    # results exactly, and both futures analyzed complete sweeps.
    with Session(seed=1) as solo:
        solo_a = solo.run("bell", targets=((0, 1),), n_rounds=4)
    assert solo_a.correlations == res_a.correlations
    assert solo_a.fidelity == res_a.fidelity
    assert res_a.fidelity is not None and res_b.fidelity is not None
