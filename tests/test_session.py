"""The Session facade, the experiment registry, and incremental fits.

The tentpole contracts under test:

* the registry names every shipped experiment, unknown names fail
  loudly, and unknown parameters are rejected at construction;
* an experiment must implement the target trio, and every single-qubit
  experiment summarizes its own fit;
* the final incremental ``update()`` estimate agrees exactly with the
  one-shot ``analyze()`` fit over the same sweep;
* multi-qubit runs return one result per qubit, each normalized against
  its own readout calibration.
"""

import warnings

import numpy as np
import pytest

from repro import MachineConfig, Session
from repro.experiments import REGISTRY, Estimate
from repro.pulse import PulseCalibration
from repro.utils.errors import ConfigurationError

AMPS = np.linspace(0.0, 0.8, 5)
DELAYS = [4, 8, 16, 24, 32, 48]


def fast_config(**kwargs):
    kwargs.setdefault("qubits", (2,))
    kwargs.setdefault("trace_enabled", False)
    kwargs.setdefault("calibration", PulseCalibration(kappa=0.7))
    return MachineConfig(**kwargs)


# -- registry ----------------------------------------------------------------


def test_registry_names_every_experiment():
    assert set(REGISTRY.names()) == {"rabi", "rb", "allxy",
                                     "t1", "ramsey", "echo",
                                     "cz_calibration", "bell", "ghz",
                                     "mitigated"}


def test_unknown_experiment_name_lists_registered():
    with Session(fast_config()) as session:
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            session.run("nope")


def test_unknown_parameter_rejected():
    with Session(fast_config()) as session:
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            session.run("rabi", frequency=1.0)


def test_unwired_qubit_rejected():
    with Session(fast_config()) as session:
        with pytest.raises(ConfigurationError, match="not wired"):
            session.run("rabi", qubits=(5,), amplitudes=AMPS, n_rounds=2)


def test_registry_rejects_duplicate_name():
    from repro.experiments.base import ExperimentRegistry, Experiment

    registry = ExperimentRegistry()

    class A(Experiment):
        name = "x"

        def build_target_specs(self, target):
            return []

        def analyze_target(self, jobs, target):
            return None

    class B(A):
        pass

    registry.register(A)
    registry.register(A)  # idempotent
    with pytest.raises(ConfigurationError, match="already registered"):
        registry.register(B)


def test_experiment_without_analyze_target_cannot_be_built():
    from repro.experiments.base import Experiment

    class NoAnalysis(Experiment):
        name = "no_analysis"

        def build_target_specs(self, target):
            return []

    with pytest.raises(TypeError, match="analyze_target"):
        NoAnalysis(config=fast_config())


def test_session_lists_experiments():
    with Session(fast_config()) as session:
        assert session.experiments() == REGISTRY.names()


def test_ramsey_session_does_not_mutate_config():
    config = fast_config()
    with Session(config) as session:
        session.run("ramsey", delays_cycles=[4, 8, 12, 16, 20, 24],
                    n_rounds=2)
    assert config.drive_detuning_hz == 0.0


# -- incremental fitting -----------------------------------------------------


def test_incremental_estimate_converges_to_analyze_fit():
    amps = np.linspace(0.0, 0.8, 9)
    with Session(fast_config()) as session:
        future = session.submit_experiment("rabi", amplitudes=amps,
                                           n_rounds=4)
        estimates = [est for _, est in future.stream(fit=True)]
        result = future.result()
    assert len(estimates) == 9
    final = estimates[-1]
    assert final.complete
    # The exactness contract: the last update() saw the same arrays the
    # one-shot analyze() fit saw, so the fits agree to the bit.
    assert final.values["pi_amplitude"] == result.pi_amplitude
    assert final.values["expected_pi_amplitude"] == \
        result.expected_pi_amplitude


def test_incremental_estimate_rb_converges():
    with Session(fast_config()) as session:
        future = session.submit_experiment("rb", lengths=[1, 4, 8, 16],
                                           sequences_per_length=2,
                                           n_rounds=4)
        for _, _ in future.stream():  # no per-point fitting requested
            pass
        result = future.result()
        final = future.estimate()
    assert final.complete
    assert final.values["error_per_clifford"] == result.error_per_clifford
    assert final.values["p"] == result.fit.p


def test_estimate_none_while_underconstrained():
    with Session(fast_config()) as session:
        future = session.submit_experiment("rabi", amplitudes=AMPS,
                                           n_rounds=2)
        seen = []
        for _, est in future.stream(fit=True):
            seen.append(est)
        future.result()
    # The 3-parameter fit needs 3 points; earlier estimates carry None.
    assert seen[0].values is None
    assert isinstance(seen[-1], Estimate)
    assert seen[-1].n_specs == len(AMPS)


def test_on_estimate_hook_enables_fitting():
    estimates = []
    with Session(fast_config()) as session:
        session.run("rabi", amplitudes=AMPS, n_rounds=2,
                    on_estimate=estimates.append)
    assert len(estimates) == len(AMPS)
    assert estimates[-1].complete


def test_coherence_estimate_matches_analysis():
    delays = [4, 8, 16, 24, 32, 48]
    with Session(fast_config()) as session:
        future = session.submit_experiment("t1", delays_cycles=delays,
                                           n_rounds=8)
        result = future.result()
        final = future.estimate()
    assert final.complete
    assert final.values["tau_ns"] == result.fitted_tau_ns


# -- multi-qubit -------------------------------------------------------------


def test_multi_qubit_rabi_returns_result_per_qubit():
    config = MachineConfig(qubits=(0, 1), trace_enabled=False,
                           calibration=PulseCalibration(kappa=0.7))
    with Session(config) as session:
        future = session.submit_experiment("rabi", qubits=(0, 1),
                                           amplitudes=AMPS, n_rounds=4)
        results = future.result()
    assert sorted(results) == [0, 1]
    for result in results.values():
        assert len(result.population) == len(AMPS)
    # Each qubit's jobs carry that qubit's own calibration points.
    jobs = future.sweep.jobs
    q0_cal = (jobs[0].s_ground, jobs[0].s_excited)
    q1_cal = (jobs[len(AMPS)].s_ground, jobs[len(AMPS)].s_excited)
    assert q0_cal != q1_cal


def test_multi_qubit_estimate_keyed_by_qubit():
    config = MachineConfig(qubits=(0, 1), trace_enabled=False,
                           calibration=PulseCalibration(kappa=0.7))
    with Session(config) as session:
        future = session.submit_experiment("rabi", qubits=(0, 1),
                                           amplitudes=AMPS, n_rounds=2)
        future.result()
        final = future.estimate()
    assert sorted(final.per_target) == [(0,), (1,)]
    assert all(v is not None for v in final.per_target.values())


def test_multi_qubit_single_machine_pooled():
    """Both qubits' sweeps share one pooled 2-qubit machine."""
    config = MachineConfig(qubits=(0, 1), trace_enabled=False,
                           calibration=PulseCalibration(kappa=0.7))
    with Session(config) as session:
        future = session.submit_experiment("rabi", qubits=(0, 1),
                                           amplitudes=AMPS, n_rounds=2)
        future.result()
    assert future.sweep.pool_stats["builds"] == 1
    assert future.sweep.pool_stats["reuses"] == 2 * len(AMPS) - 1


def test_int_qubits_accepted():
    with Session(fast_config()) as session:
        result = session.run("allxy", qubits=2, n_rounds=2)
    assert len(result.fidelity) == 42


# -- Estimate views (single-target contracts) --------------------------------


def test_estimate_values_raises_on_multi_target():
    """The values convenience view refuses to pick an arbitrary target."""
    config = MachineConfig(qubits=(0, 1), trace_enabled=False,
                           calibration=PulseCalibration(kappa=0.7))
    with Session(config) as session:
        future = session.submit_experiment("rabi", qubits=(0, 1),
                                           amplitudes=AMPS, n_rounds=2)
        future.result()
        final = future.estimate()
    assert sorted(final.per_target) == [(0,), (1,)]
    with pytest.raises(ConfigurationError, match="single-target"):
        final.values
    # Explicit per-target indexing is the supported multi-target path.
    assert final.per_target[(0,)] is not None


def test_estimate_values_single_target():
    from repro.experiments.base import Estimate

    assert Estimate(n_results=0, n_specs=1).values is None
    single = Estimate(n_results=1, n_specs=1, per_target={(2,): {"x": 1.0}})
    assert single.values == {"x": 1.0}


# -- session plumbing --------------------------------------------------------


def test_session_builds_config_from_qubits_and_seed():
    session = Session(seed=7)
    config = session.config_for(qubits=(0, 1))
    assert config.qubits == (0, 1)
    assert config.seed == 7
    assert config.trace_enabled is False
    session.close()


def test_session_wraps_external_service_without_closing():
    from repro.service import ExperimentService

    service = ExperimentService(backend="serial")
    with Session(fast_config(), service=service) as session:
        session.run("allxy", n_rounds=2)
    # The wrapped service survives the session and stays usable.
    with Session(fast_config(), service=service) as session:
        session.run("allxy", n_rounds=2)
    assert service.stats()["submitted"] == 2
    service.close()


def test_submitting_leaves_the_experiments_specs_untouched():
    """A service's retry/timeout defaults and a session's telemetry flag
    ride on copies, so the next session runs the experiment as built."""
    from repro.service import ExperimentService, RetryPolicy

    experiment = Session(fast_config()).create("allxy", n_rounds=2)
    with ExperimentService(retry=RetryPolicy(max_attempts=3),
                           job_timeout=30.0) as service:
        first = Session(service=service, telemetry=True).submit(experiment)
        first.result()
    second = Session().submit(experiment)
    second.result()
    assert all(job.telemetry is not None for job in first.sweep)
    assert all(job.telemetry is None for job in second.sweep)
    for spec in experiment.build_specs():
        assert (spec.retry, spec.timeout, spec.telemetry) == \
            (None, None, False)


def test_two_sessions_share_service_without_stealing_results():
    """Scoped draining: interleaved experiments keep their own streams."""
    from repro.service import ExperimentService

    with ExperimentService(backend="serial") as service:
        a = Session(fast_config(), service=service)
        b = Session(fast_config(seed=9), service=service)
        fut_a = a.submit_experiment("rabi", amplitudes=AMPS, n_rounds=2)
        fut_b = b.submit_experiment("rabi", amplitudes=AMPS, n_rounds=2)
        res_a = fut_a.result()
        res_b = fut_b.result()
    assert len(fut_a.sweep) == len(fut_b.sweep) == len(AMPS)
    assert [j.seed for j in fut_a.sweep] != [j.seed for j in fut_b.sweep]
    assert res_a.population is not res_b.population


def test_resumed_stream_drains_only_the_remainder():
    """A partially consumed stream never re-fires hooks on resume."""
    seen = []
    with Session(fast_config()) as session:
        future = session.submit_experiment("rabi", amplitudes=AMPS,
                                           n_rounds=2)
        for i, _ in enumerate(future.stream(on_result=seen.append)):
            if i == 1:
                break
        future.result(on_result=seen.append)
    labels = [job.label for job in seen]
    assert len(labels) == len(AMPS)
    assert len(set(labels)) == len(AMPS)


def test_session_jobs_stay_out_of_service_wide_stream():
    """Experiment submissions are owned by their future: a service-wide
    iter_completed consumer never sees them."""
    from repro.service import ExperimentService

    with ExperimentService(backend="serial") as service:
        session = Session(fast_config(), service=service)
        loose = service.submit(session.create(
            "allxy", n_rounds=2).build_specs()[0])
        future = session.submit_experiment("rabi", amplitudes=AMPS,
                                           n_rounds=2)
        service_wide = [r.label for r in service.iter_completed()]
        future.result()
    assert service_wide == [loose.result().label]
    assert len(future.sweep) == len(AMPS)


def test_experiment_future_result_is_cached():
    with Session(fast_config()) as session:
        future = session.submit_experiment("allxy", n_rounds=2)
        first = future.result()
        second = future.result()
    assert first is second
    assert future.done()


def test_summary_lines():
    with Session(fast_config()) as session:
        future = session.submit_experiment("rabi", amplitudes=AMPS,
                                           n_rounds=4)
        text = future.summary()
    assert "pi amplitude" in text

    config = MachineConfig(qubits=(0, 1), trace_enabled=False,
                           calibration=PulseCalibration(kappa=0.7))
    with Session(config) as session:
        future = session.submit_experiment("rabi", qubits=(0, 1),
                                           amplitudes=AMPS, n_rounds=2)
        text = future.summary()
    assert "q0:" in text and "q1:" in text


@pytest.mark.parametrize("name,params,text", [
    ("rabi", dict(amplitudes=AMPS), "pi amplitude"),
    ("rb", dict(lengths=[1, 4, 8], sequences_per_length=1),
     "error per Clifford"),
    ("allxy", {}, "deviation"),
    ("t1", dict(delays_cycles=DELAYS), "fitted tau"),
    ("ramsey", dict(delays_cycles=DELAYS), "fitted tau"),
    ("echo", dict(delays_cycles=DELAYS), "fitted tau"),
], ids=["rabi", "rb", "allxy", "t1", "ramsey", "echo"])
def test_single_qubit_summary_names_its_fit(name, params, text):
    """Each single-qubit experiment prints its own line, not the base
    class's repr fallback, for one target and per target of two."""
    with Session(fast_config()) as session:
        future = session.submit_experiment(name, n_rounds=4, **params)
        line = future.summary()
    assert text in line
    assert line != repr(future.result())

    config = MachineConfig(qubits=(0, 1), trace_enabled=False,
                           calibration=PulseCalibration(kappa=0.7))
    with Session(config) as session:
        lines = session.submit_experiment(name, qubits=(0, 1), n_rounds=4,
                                          **params).summary().splitlines()
    assert [line.split(":")[0] for line in lines] == ["q0", "q1"]
    assert all(text in line for line in lines)


def test_no_internal_caller_trips_the_deprecation_gate():
    """Session runs stay silent with every DeprecationWarning turned
    into an error: no code path they take calls a deprecated API."""
    delays = [4, 8, 16, 24, 32, 48]
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with Session(fast_config()) as session:
            session.run("rabi", amplitudes=AMPS, n_rounds=2)
            session.run("allxy", n_rounds=2)
            session.run("t1", delays_cycles=delays, n_rounds=2)
