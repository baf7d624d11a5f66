"""The Session facade, the experiment registry, and incremental fits.

The tentpole contracts under test:

* the registry names every shipped experiment, unknown names fail
  loudly, and unknown parameters are rejected at construction;
* the deprecated ``run_*`` wrappers warn and return results bit-identical
  to ``Session.run`` on every backend (serial always; process in the
  slow tier);
* the final incremental ``update()`` estimate agrees exactly with the
  one-shot ``analyze()`` fit over the same sweep;
* multi-qubit runs return one result per qubit, each normalized against
  its own readout calibration.

Set ``REPRO_SERVICE_BACKEND=serial|process|fleet`` to pin the
parametrized backend (the CI matrix runs one backend per job).
"""

import os
import warnings

import numpy as np
import pytest

from repro import MachineConfig, Session
from repro.experiments import (
    REGISTRY,
    Estimate,
    run_allxy,
    run_echo,
    run_rabi,
    run_ramsey,
    run_rb,
    run_t1,
)
from repro.pulse import PulseCalibration
from repro.utils.errors import ConfigurationError

ALL_BACKENDS = ("serial", "process")
_PINNED = os.environ.get("REPRO_SERVICE_BACKEND")
BACKENDS_UNDER_TEST = (_PINNED,) if _PINNED else ALL_BACKENDS

AMPS = np.linspace(0.0, 0.8, 5)


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

        def build_qubit_specs(self, qubit):
            return []

        def analyze_qubit(self, jobs, qubit):
            return None

    class B(A):
        pass

    registry.register(A)
    registry.register(A)  # idempotent
    with pytest.raises(ConfigurationError, match="already registered"):
        registry.register(B)


def test_session_lists_experiments():
    with Session(fast_config()) as session:
        assert session.experiments() == REGISTRY.names()


# -- wrapper parity ----------------------------------------------------------


def test_run_rabi_wrapper_warns_and_matches_session():
    with Session(fast_config()) as session:
        fresh = session.run("rabi", amplitudes=AMPS, n_rounds=4)
    with pytest.warns(DeprecationWarning, match="run_rabi is deprecated"):
        legacy = run_rabi(fast_config(), amplitudes=AMPS, n_rounds=4)
    assert np.array_equal(legacy.population, fresh.population)
    assert legacy.pi_amplitude == fresh.pi_amplitude
    assert legacy.expected_pi_amplitude == fresh.expected_pi_amplitude


def test_run_rb_wrapper_warns_and_matches_session():
    with Session(fast_config()) as session:
        fresh = session.run("rb", lengths=[1, 4, 8], sequences_per_length=2,
                            n_rounds=4, seed=3)
    with pytest.warns(DeprecationWarning, match="run_rb is deprecated"):
        legacy = run_rb(fast_config(), lengths=[1, 4, 8],
                        sequences_per_length=2, n_rounds=4, seed=3)
    assert np.array_equal(legacy.survival, fresh.survival)
    assert legacy.fit == fresh.fit


def test_run_allxy_wrapper_warns_and_matches_session():
    with Session(fast_config()) as session:
        fresh = session.run("allxy", n_rounds=4)
    with pytest.warns(DeprecationWarning, match="run_allxy is deprecated"):
        legacy = run_allxy(fast_config(), n_rounds=4)
    assert np.array_equal(legacy.averages, fresh.averages)
    assert np.array_equal(legacy.fidelity, fresh.fidelity)
    assert legacy.deviation == fresh.deviation


@pytest.mark.parametrize("kind,wrapper", [("t1", run_t1), ("ramsey", run_ramsey),
                                          ("echo", run_echo)])
def test_coherence_wrappers_warn_and_match_session(kind, wrapper):
    delays = [4, 8, 16, 24, 32, 48]
    with Session(fast_config()) as session:
        fresh = session.run(kind, delays_cycles=delays, n_rounds=8)
    with pytest.warns(DeprecationWarning, match=f"run_{kind} is deprecated"):
        legacy = wrapper(fast_config(), delays_cycles=delays, n_rounds=8)
    assert np.array_equal(legacy.population, fresh.population)
    assert legacy.fit == fresh.fit


def test_ramsey_session_does_not_mutate_config():
    config = fast_config()
    with Session(config) as session:
        session.run("ramsey", delays_cycles=[4, 8, 12, 16, 20, 24],
                    n_rounds=2)
    assert config.drive_detuning_hz == 0.0


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
def test_wrapper_parity_across_backends(backend):
    """Session.run on every backend matches the serial wrapper bitwise."""
    with pytest.warns(DeprecationWarning):
        legacy = run_rabi(fast_config(), amplitudes=AMPS, n_rounds=4)
    with Session(fast_config(), backend=backend, workers=2) as session:
        fresh = session.run("rabi", amplitudes=AMPS, n_rounds=4)
    assert np.array_equal(legacy.population, fresh.population)
    assert legacy.pi_amplitude == fresh.pi_amplitude


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
    assert sorted(final.per_qubit) == [0, 1]
    assert all(v is not None for v in final.per_qubit.values())


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


def test_estimate_per_qubit_raises_on_register_targets():
    """per_qubit is the legacy flat view; register estimates must not be
    silently collapsed onto single qubit labels."""
    from repro.experiments.base import Estimate

    estimate = Estimate(n_results=1, n_specs=1,
                        per_target={(0, 1): {"fidelity": 1.0}})
    with pytest.raises(ConfigurationError, match="per_target"):
        estimate.per_qubit
    with pytest.raises(ConfigurationError, match="single-target"):
        Estimate(n_results=2, n_specs=2,
                 per_target={(0,): {}, (1,): {}}).values


def test_estimate_values_single_target():
    from repro.experiments.base import Estimate

    assert Estimate(n_results=0, n_specs=1).values is None
    single = Estimate(n_results=1, n_specs=1, per_target={(2,): {"x": 1.0}})
    assert single.values == {"x": 1.0}
    assert single.per_qubit == {2: {"x": 1.0}}


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


def test_no_internal_caller_trips_the_deprecation_gate():
    """Session runs of every experiment stay silent under the
    DeprecationWarning-as-error filter (nothing internal routes through
    the legacy run_* paths)."""
    delays = [4, 8, 16, 24, 32, 48]
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with Session(fast_config()) as session:
            session.run("rabi", amplitudes=AMPS, n_rounds=2)
            session.run("allxy", n_rounds=2)
            session.run("t1", delays_cycles=delays, n_rounds=2)
