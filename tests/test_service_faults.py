"""Fault-tolerant job execution: deadlines, retries, loss, and chaos.

The acceptance contract of the robustness layer (DESIGN.md "Failure
semantics"):

* a seeded :class:`FaultPlan` injects the *same* faults into the same
  jobs on every backend and every run — chaos you can replay;
* retries re-derive the identical job seed, so a sweep that recovers
  from injected transient failures lands bit-identical to a fault-free
  run on every backend (Rabi + Bell, the acceptance criterion);
* a SIGKILLed local worker never hangs ``drain()``: the loss handling
  resubmits the lost job (or resolves its future with a
  :class:`JobError`), and ``drain(timeout=...)`` bounds the wait;
* exhausted attempts quarantine — reported in ``stats()``, never
  blocking the stream of healthy jobs;
* the same faulty spec surfaces the same exception type and message on
  serial, process, and fleet.

Set ``REPRO_SERVICE_BACKEND=serial|process|fleet`` to pin the
parametrized backend (the CI matrix runs one backend per job).
"""

import itertools
import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.compiler import CompilerOptions, QuantumProgram
from repro.core import MachineConfig
from repro.obs import STAGE_ATTEMPT_FAILED
from repro.pulse import PulseCalibration
from repro.service import (
    ExecutorBackend,
    ExperimentService,
    FaultPlan,
    JobSpec,
    NO_RETRY,
    RetryPolicy,
    SweepResult,
)
from repro.service.faults import FAULT_SITES
from repro.session import Session
from repro.utils.errors import (
    ConfigurationError,
    FaultInjected,
    JobError,
    JobTimeout,
    TransientJobError,
    WorkerLost,
)

from conftest import BACKENDS_UNDER_TEST

CONCURRENT_UNDER_TEST = tuple(b for b in BACKENDS_UNDER_TEST
                              if b != "serial")

RETRY = RetryPolicy(max_attempts=6, backoff_s=0.001, max_backoff_s=0.01)


def fast_config(**kwargs):
    kwargs.setdefault("qubits", (2,))
    kwargs.setdefault("trace_enabled", False)
    kwargs.setdefault("calibration", PulseCalibration(kappa=0.7))
    return MachineConfig(**kwargs)


def flip_program():
    p = QuantumProgram("flip", qubits=(2,))
    p.new_kernel("k").prepz(2).x(2).measure(2)
    return p


def flip_spec(seed=None, retry=None, timeout=None, label=None, n_rounds=2):
    return JobSpec(config=fast_config(), program=flip_program(),
                   compiler_options=CompilerOptions(n_rounds=n_rounds),
                   seed=seed, retry=retry, timeout=timeout,
                   label=label if label is not None else f"flip s{seed}")


def bad_spec(seed=0):
    """A deterministically failing spec: unknown mnemonic at compile."""
    return JobSpec(config=fast_config(), asm="NOPE 1, 2\nhalt", seed=seed,
                   label="bad")


# -- FaultPlan: the deterministic chaos schedule ------------------------------


class TestFaultPlan:
    def test_schedule_is_deterministic_across_instances(self):
        a = FaultPlan(seed=7, rate=0.5, kinds=("transient", "crash"))
        b = FaultPlan(seed=7, rate=0.5, kinds=("transient", "crash"))
        decisions = [(site, job, attempt, a.fault_for(site, job, attempt))
                     for site in FAULT_SITES
                     for job in (0, 1234, 2**31)
                     for attempt in range(4)]
        assert decisions == [
            (site, job, attempt, b.fault_for(site, job, attempt))
            for site, job, attempt, _ in decisions]
        assert any(kind is not None for *_, kind in decisions)

    def test_different_seeds_differ(self):
        a, b = FaultPlan(seed=1, rate=0.5), FaultPlan(seed=2, rate=0.5)
        grid = [(site, job, attempt) for site in FAULT_SITES
                for job in range(20) for attempt in range(3)]
        assert [a.fault_for(*point) for point in grid] \
            != [b.fault_for(*point) for point in grid]

    def test_rate_zero_never_fires_and_rate_one_always_fires(self):
        off = FaultPlan(seed=3, rate=0.0)
        on = FaultPlan(seed=3, rate=1.0, max_faults_per_site=None)
        for job in range(10):
            assert off.fault_for("execute", job, 0) is None
            assert on.fault_for("execute", job, 0) == "transient"

    def test_unlisted_site_never_fires(self):
        plan = FaultPlan(seed=3, rate=1.0, sites=("compile",))
        assert plan.fault_for("execute", 0, 0) is None
        assert plan.fault_for("compile", 0, 0) == "transient"

    def test_per_site_cap_bounds_consecutive_attempts(self):
        plan = FaultPlan(seed=5, rate=1.0, max_faults_per_site=2)
        kinds = [plan.fault_for("execute", 42, a) for a in range(5)]
        assert kinds[:2] == ["transient", "transient"]
        assert kinds[2:] == [None, None, None]

    def test_plan_pickles_with_schedule_intact(self):
        plan = FaultPlan(seed=11, rate=0.4, kinds=("transient", "hang"))
        clone = pickle.loads(pickle.dumps(plan))
        grid = [(site, job, attempt) for site in FAULT_SITES
                for job in range(10) for attempt in range(3)]
        assert [plan.fault_for(*p) for p in grid] \
            == [clone.fault_for(*p) for p in grid]

    def test_check_raises_fault_injected_with_site_and_attempt(self):
        plan = FaultPlan(seed=3, rate=1.0)
        with pytest.raises(FaultInjected) as info:
            plan.check("execute", 0, 0, label="job0")
        assert info.value.site == "execute"
        assert info.value.attempt == 0
        assert "job0" in str(info.value)
        assert plan.stats() == {"execute.transient": 1}

    def test_crash_degrades_to_transient_in_process(self):
        plan = FaultPlan(seed=3, rate=1.0, kinds=("crash",))
        # allow_crash=False (the submitting process): must raise, never
        # SIGKILL — this very test process surviving is the assertion.
        with pytest.raises(FaultInjected):
            plan.check("execute", 0, 0, allow_crash=False)
        assert plan.stats() == {"execute.transient": 1}

    def test_from_env_is_opt_in_and_parses_fields(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({"REPRO_FAULT_SEED": ""}) is None
        plan = FaultPlan.from_env({
            "REPRO_FAULT_SEED": "42", "REPRO_FAULT_RATE": "0.25",
            "REPRO_FAULT_SITES": "compile,execute",
            "REPRO_FAULT_KINDS": "transient,crash",
            "REPRO_FAULT_HANG_S": "0.5",
            "REPRO_FAULT_MAX_PER_SITE": "3"})
        assert plan.seed == 42 and plan.rate == 0.25
        assert plan.sites == ("compile", "execute")
        assert plan.kinds == ("transient", "crash")
        assert plan.hang_s == 0.5 and plan.max_faults_per_site == 3
        unbounded = FaultPlan.from_env({"REPRO_FAULT_SEED": "1",
                                        "REPRO_FAULT_MAX_PER_SITE": "none"})
        assert unbounded.max_faults_per_site is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=1, rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=1, sites=("nope",))
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=1, kinds=("nope",))


# -- RetryPolicy: bounded deterministic re-execution --------------------------


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.is_retryable(FaultInjected("x"))
        assert policy.is_retryable(WorkerLost("x"))
        assert policy.is_retryable(JobTimeout("x"))
        assert not policy.is_retryable(ConfigurationError("x"))
        extended = RetryPolicy(max_attempts=3, retry_on=(OSError,))
        assert extended.is_retryable(OSError("x"))

    def test_should_retry_respects_attempt_budget(self):
        policy = RetryPolicy(max_attempts=3)
        exc = TransientJobError("x")
        assert policy.should_retry(exc, 0)
        assert policy.should_retry(exc, 1)
        assert not policy.should_retry(exc, 2)
        assert not NO_RETRY.should_retry(exc, 0)

    def test_backoff_is_deterministic_exponential_and_capped(self):
        policy = RetryPolicy(max_attempts=8, backoff_s=0.01,
                             backoff_factor=2.0, max_backoff_s=0.05,
                             jitter=0.1)
        first = [policy.backoff_for(a, seed=99) for a in range(1, 6)]
        again = [policy.backoff_for(a, seed=99) for a in range(1, 6)]
        assert first == again
        for attempt, backoff in enumerate(first, start=1):
            base = min(0.01 * 2.0 ** (attempt - 1), 0.05)
            assert base <= backoff <= base * 1.1
        assert policy.backoff_for(0, seed=99) == 0.0
        assert policy.backoff_for(3, seed=1) != policy.backoff_for(3, seed=2)

    def test_total_backoff_bounds_the_sum(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.01, jitter=0.0)
        total = policy.total_backoff_s()
        assert total == pytest.approx(0.01 + 0.02 + 0.04)
        assert policy.total_backoff_s(base_attempt=2) \
            == pytest.approx(0.02 + 0.04)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=2.0)


# -- acceptance: chaos sweeps land bit-identical ------------------------------


AMPS = [0.0, 0.2, 0.4, 0.6, 0.8]


def run_rabi_and_bell(session):
    rabi = session.submit_experiment("rabi", amplitudes=AMPS, n_rounds=2)
    rabi.result()
    bell = session.submit_experiment("bell", n_rounds=4, bases=("ZZ",))
    bell.result()
    return rabi, bell


@pytest.fixture(scope="module")
def clean_baseline():
    """Fault-free Rabi + Bell averages (serial), the chaos oracle."""
    with Session(backend="serial", seed=11) as session:
        rabi, bell = run_rabi_and_bell(session)
        return rabi.sweep.averages(), bell.sweep.averages()


class TestChaosDeterminism:
    @pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
    def test_transient_chaos_recovers_bit_identical(self, backend,
                                                    clean_baseline):
        """The acceptance criterion: >=10% injected transient failures
        into Rabi + Bell sweeps; retries recover every job and the
        averages are bit-identical to the fault-free run."""
        plan = FaultPlan(seed=77, rate=0.35)
        with Session(backend=backend, workers=2, seed=11,
                     faults=plan, retry=RETRY) as session:
            rabi, bell = run_rabi_and_bell(session)
            clean_rabi, clean_bell = clean_baseline
            assert np.array_equal(rabi.sweep.averages(), clean_rabi)
            assert np.array_equal(bell.sweep.averages(), clean_bell)
            retries = rabi.sweep.total_retries + bell.sweep.total_retries
            assert retries > 0  # the chaos actually bit
            stats = session.stats()
            assert stats["engine"]["failed"] == 0
            service = stats["metrics"]["service"]["counters"]
            assert service["service.retries"] == retries

    def test_replayed_register_job_retries_bit_identical(self):
        """A transient fault during a joint-replayed register job: the
        retry re-derives the same job seed, takes the same replay fast
        path, and every correlated observable lands bit-identical to the
        fault-free run."""
        def run(faults):
            with Session(backend="serial", seed=11, faults=faults,
                         retry=RETRY) as session:
                future = session.submit_experiment(
                    "ghz", targets=((0, 1, 2),), n_rounds=8, repeats=4)
                future.result()
                return [f.result() for f in future.futures]

        clean = run(None)
        chaos = run(FaultPlan(seed=77, rate=0.35))
        assert sum(j.attempts - 1 for j in chaos) > 0  # the chaos bit
        assert any(j.replayed_rounds > 0 for j in chaos)
        for a, b in zip(clean, chaos):
            assert np.asarray(a.averages).tobytes() \
                == np.asarray(b.averages).tobytes()
            assert np.asarray(a.joint_counts).tobytes() \
                == np.asarray(b.joint_counts).tobytes()
            assert a.s_grounds == b.s_grounds
            assert a.s_exciteds == b.s_exciteds

    def test_chaos_replays_identically(self):
        """Same plan seed, same retry schedule: two chaos runs agree on
        every attempt count, not just on the averages."""
        def run():
            svc = ExperimentService(backend="serial",
                                    faults=FaultPlan(seed=5, rate=0.4),
                                    retry=RETRY)
            with svc:
                sweep = svc.run_batch([flip_spec(seed=i) for i in range(4)])
            return [job.attempts for job in sweep.jobs]

        first, second = run(), run()
        assert first == second
        assert sum(first) > 4  # at least one retry happened

    def test_attempts_round_trip_through_sweep_artifact(self, tmp_path):
        svc = ExperimentService(backend="serial",
                                faults=FaultPlan(seed=5, rate=0.4),
                                retry=RETRY)
        with svc:
            sweep = svc.run_batch([flip_spec(seed=i) for i in range(4)])
        path = tmp_path / "sweep.json"
        sweep.save(str(path))
        loaded = SweepResult.load(str(path))
        assert [j.attempts for j in loaded.jobs] \
            == [j.attempts for j in sweep.jobs]
        assert loaded.total_retries == sweep.total_retries


# -- retry mechanics (serial: inline and observable) --------------------------


class TestRetryExecution:
    def test_retry_recovers_and_counts_attempts(self):
        clean = ExperimentService(backend="serial")
        with clean:
            baseline = clean.run_job(flip_spec(seed=3))
        chaotic = ExperimentService(backend="serial",
                                    faults=FaultPlan(seed=8, rate=0.9),
                                    retry=RETRY)
        with chaotic:
            job = chaotic.run_job(flip_spec(seed=3))
        assert job.attempts > 1
        assert np.array_equal(job.averages, baseline.averages)

    def test_exhausted_attempts_quarantine(self):
        plan = FaultPlan(seed=1, rate=1.0, max_faults_per_site=None)
        svc = ExperimentService(backend="serial", faults=plan,
                                retry=RetryPolicy(max_attempts=2,
                                                  backoff_s=0.0))
        with svc:
            future = svc.submit(flip_spec(seed=0, label="poison"))
            svc.drain()  # quarantined futures never block drain
            exc = future.exception()
            assert isinstance(exc, JobError)
            assert exc.quarantined and exc.attempts == 2
            assert exc.exc_type == "FaultInjected"
            assert "(after 2 attempts)" in str(exc)
            stats = svc.stats()["engine"]
            assert stats["failed"] == 1 and stats["quarantined"] == 1
            entry = stats["quarantine"][0]
            assert entry["label"] == "poison" and entry["exhausted"]

    def test_non_retryable_failure_fails_fast(self):
        svc = ExperimentService(backend="serial", retry=RETRY)
        with svc:
            future = svc.submit(bad_spec())
            svc.drain()
            exc = future.exception()
        assert isinstance(exc, JobError)
        assert exc.attempts == 1 and not exc.quarantined
        assert exc.exc_type == "AssemblyError"

    def test_spec_policy_overrides_service_default(self):
        plan = FaultPlan(seed=1, rate=1.0, max_faults_per_site=None)
        svc = ExperimentService(backend="serial", faults=plan, retry=RETRY)
        with svc:
            future = svc.submit(flip_spec(seed=0, retry=NO_RETRY))
            svc.drain()
            exc = future.exception()
        assert isinstance(exc, JobError) and exc.attempts == 1

    def test_recovered_attempts_become_spans(self):
        plan = FaultPlan(seed=8, rate=0.9)
        svc = ExperimentService(backend="serial", faults=plan, retry=RETRY)
        with svc:
            spec = flip_spec(seed=3)
            spec.telemetry = True
            job = svc.run_job(spec)
        assert job.attempts > 1
        failed = [s for s in job.telemetry.spans
                  if s.name == STAGE_ATTEMPT_FAILED]
        assert len(failed) == job.attempts - 1
        assert all(s.meta["attempt"] < job.attempts - 1 for s in failed)
        assert all("FaultInjected" in s.meta["error"] for s in failed)

    def test_deadline_enforced_at_stage_boundaries(self):
        plan = FaultPlan(seed=2, rate=1.0, kinds=("hang",), hang_s=0.05,
                         sites=("execute",))
        svc = ExperimentService(backend="serial", faults=plan)
        with svc:
            future = svc.submit(flip_spec(seed=0, timeout=0.01))
            svc.drain()
            exc = future.exception()
        assert isinstance(exc, JobError)
        assert exc.exc_type == "JobTimeout"


# -- worker loss: SIGKILL never hangs drain -----------------------------------


class TestWorkerLoss:
    @pytest.mark.skipif("process" not in BACKENDS_UNDER_TEST,
                        reason="process backend not under test")
    def test_crash_faults_recover_bit_identical(self):
        clean = ExperimentService(backend="serial")
        with clean:
            baseline = clean.run_batch([flip_spec(seed=i) for i in range(5)])
        plan = FaultPlan(seed=7, rate=0.3, kinds=("transient", "crash"))
        svc = ExperimentService(backend="process", workers=2, faults=plan,
                                retry=RetryPolicy(max_attempts=8,
                                                  backoff_s=0.001))
        with svc:
            sweep = svc.run_batch([flip_spec(seed=i) for i in range(5)])
            stats = svc.stats()["engine"]
        assert np.array_equal(sweep.averages(), baseline.averages())
        assert stats["worker_losses"] > 0  # workers really died
        assert stats["failed"] == 0

    @pytest.mark.skipif("process" not in BACKENDS_UNDER_TEST,
                        reason="process backend not under test")
    def test_sigkilled_worker_never_hangs_drain(self):
        """Kill a worker by hand while its job hangs: the loss handling
        recovers the in-flight job and drain(timeout) returns."""
        specs = [flip_spec(seed=i, n_rounds=32) for i in range(6)]
        clean = ExperimentService(backend="serial")
        with clean:
            baseline = clean.run_batch(specs)
        # A plan whose only fault hangs job 0's first attempt: the first
        # job lands on worker 0, so that worker is busy until killed and
        # the retry (attempt 1) runs clean.
        plan = next(
            plan for plan in (
                FaultPlan(seed=s, rate=0.3, kinds=("hang",), hang_s=60.0,
                          sites=("execute",), max_faults_per_site=1)
                for s in itertools.count())
            if [plan.fault_for("execute", spec.run_seed, 0)
                for spec in specs] == ["hang"] + [None] * 5)
        svc = ExperimentService(backend="process", workers=2, faults=plan,
                                retry=RetryPolicy(max_attempts=4,
                                                  backoff_s=0.001))
        with svc:
            futures = [svc.submit(spec, stream=False) for spec in specs]
            backend = svc.engine
            victim = backend.stats()["workers"][0]["pid"]
            os.kill(victim, signal.SIGKILL)
            svc.drain(timeout=60.0)  # must not hang — the satellite fix
            results = [f.result() for f in futures]
            stats = backend.stats()
        assert np.array_equal(np.stack([r.averages for r in results]),
                              baseline.averages())
        assert stats["worker_losses"] == 1
        assert results[0].attempts == 2

    @pytest.mark.skipif("process" not in BACKENDS_UNDER_TEST,
                        reason="process backend not under test")
    def test_exhausted_worker_loss_resolves_with_job_error(self):
        """Every attempt crashes the worker: the loss is terminal and the
        future resolves with a JobError instead of hanging."""
        plan = FaultPlan(seed=1, rate=1.0, kinds=("crash",),
                         sites=("execute",), max_faults_per_site=None)
        svc = ExperimentService(backend="process", workers=1, faults=plan,
                                retry=RetryPolicy(max_attempts=2,
                                                  backoff_s=0.0))
        with svc:
            future = svc.submit(flip_spec(seed=0, label="doomed"))
            svc.drain(timeout=60.0)
            exc = future.exception()
            stats = svc.stats()["engine"]
        assert isinstance(exc, JobError)
        assert exc.exc_type == "WorkerLost"
        assert stats["worker_losses"] >= 2

    @pytest.mark.skipif("process" not in BACKENDS_UNDER_TEST,
                        reason="process backend not under test")
    def test_hung_worker_is_killed_on_timeout_budget(self):
        plan = FaultPlan(seed=2, rate=1.0, kinds=("hang",), hang_s=30.0,
                         sites=("execute",))
        svc = ExperimentService(backend="process", workers=1, faults=plan)
        with svc:
            backend = svc.engine
            backend.KILL_GRACE_S = 0.1
            future = svc.submit(flip_spec(seed=0, timeout=0.2))
            svc.drain(timeout=30.0)
            exc = future.exception()
            stats = svc.stats()["engine"]
        assert isinstance(exc, JobError)
        assert stats["hang_kills"] >= 1

    @pytest.mark.skipif("process" not in BACKENDS_UNDER_TEST,
                        reason="process backend not under test")
    def test_cancelled_hung_job_is_still_killed(self):
        plan = FaultPlan(seed=2, rate=1.0, kinds=("hang",), hang_s=30.0,
                         sites=("execute",))
        svc = ExperimentService(backend="process", workers=1, faults=plan)
        with svc:
            backend = svc.engine
            backend.KILL_GRACE_S = 0.1
            future = svc.submit(flip_spec(seed=0, timeout=1.0))
            deadline = time.monotonic() + 30.0
            # Cancel once the job really hangs on the worker, not while
            # a CANCEL could still dequeue it.
            while backend.stats()["workers"][0]["remote"]["metrics"][
                    "counters"].get("faults.execute.hang", 0) < 1:
                assert time.monotonic() < deadline, "job never hung"
                time.sleep(0.01)
            assert future.cancel()
            while backend.hang_kills < 1:
                assert time.monotonic() < deadline, "hung job never killed"
                time.sleep(0.01)
            stats = svc.stats()["engine"]
        assert future.cancelled()
        assert stats["cancelled"] == 1 and stats["failed"] == 0

    def test_worker_error_carries_remote_traceback(self):
        for backend in CONCURRENT_UNDER_TEST:
            svc = ExperimentService(backend=backend, workers=1)
            with svc:
                future = svc.submit(bad_spec())
                svc.drain(timeout=60.0)
                exc = future.exception()
            assert isinstance(exc, JobError)
            assert "AssemblyError" in exc.remote_traceback
            assert "Traceback" in exc.remote_traceback


# -- drain timeout, close, cancel ---------------------------------------------


class TestDrainAndCancel:
    @pytest.mark.skipif("process" not in BACKENDS_UNDER_TEST,
                        reason="process backend not under test")
    def test_drain_timeout_raises_instead_of_hanging(self):
        plan = FaultPlan(seed=2, rate=1.0, kinds=("hang",), hang_s=2.0,
                         sites=("execute",))
        svc = ExperimentService(backend="process", workers=1, faults=plan)
        with svc:
            svc.submit(flip_spec(seed=0))
            t0 = time.monotonic()
            with pytest.raises(TimeoutError, match="drain timed out"):
                svc.drain(timeout=0.2)
            assert time.monotonic() - t0 < 1.5
            svc.drain(timeout=30.0)  # the hang ends; drain completes

    def test_close_resolves_outstanding_futures(self):
        for backend in CONCURRENT_UNDER_TEST:
            svc = ExperimentService(backend=backend, workers=1)
            futures = [svc.submit(flip_spec(seed=i), stream=False)
                       for i in range(3)]
            svc.close()  # no drain first: close must still resolve all
            assert all(f.done() for f in futures)

    def test_cancel_on_resolved_serial_future_is_refused(self):
        svc = ExperimentService(backend="serial")
        with svc:
            future = svc.submit(flip_spec(seed=0))
            assert future.done()
            assert not future.cancel()
            assert not future.cancelled()
            assert future.exception() is None


# -- failing-job parity across backends ---------------------------------------


class TestFailingJobParity:
    def test_same_faulty_spec_same_error_everywhere(self):
        """Registry-driven parity: the same deterministically faulty spec
        surfaces the same exception type and message on every backend,
        and the stream still yields the healthy jobs."""
        observed = {}
        for backend in dict.fromkeys(("serial",) + BACKENDS_UNDER_TEST):
            svc = ExperimentService(backend=backend, workers=2)
            with svc:
                futures = [svc.submit(spec, stream=False)
                           for spec in (flip_spec(seed=1), bad_spec(),
                                        flip_spec(seed=2))]
                healthy, errors = [], []
                for future in svc.iter_futures(futures, timeout=60.0):
                    exc = future.exception()
                    if exc is not None:
                        errors.append(exc)
                    else:
                        healthy.append(future.result())
            assert len(healthy) == 2  # the stream survived the failure
            assert len(errors) == 1
            observed[backend] = (type(errors[0]), str(errors[0]),
                                 sorted(j.seed for j in healthy))
        reference = observed["serial"]
        assert reference[0] is JobError
        for backend, got in observed.items():
            assert got == reference, f"{backend} diverged from serial"

    @pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
    def test_poison_job_does_not_block_healthy_stream(self, backend):
        plan = FaultPlan(seed=1, rate=1.0, sites=("compile",),
                         max_faults_per_site=None)
        svc = ExperimentService(backend=backend, workers=2, faults=plan,
                                retry=RetryPolicy(max_attempts=2,
                                                  backoff_s=0.0))
        with svc:
            # The plan poisons every QuMA job at compile; a baseline job
            # has no compile site, so it stays healthy on the same engine.
            from repro.baseline.jobs import baseline_job
            from repro.baseline.spec import synthetic_spec

            poisoned = svc.submit(flip_spec(seed=0), stream=False)
            healthy = [svc.submit(baseline_job(
                synthetic_spec(4, 3), label=f"base{i}"), stream=False)
                for i in range(2)]
            svc.drain(timeout=60.0)
            assert isinstance(poisoned.exception(), JobError)
            assert all(f.exception() is None for f in healthy)
            assert svc.stats()["engine"]["quarantined"] == 1


# -- CLI surface --------------------------------------------------------------


class TestCLI:
    def test_exp_retries_recover_under_ambient_chaos(self, monkeypatch,
                                                     capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_FAULT_SEED", "7")
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.3")
        code = main(["exp", "rabi", "--param", "n_rounds=2",
                     "--param", "amplitudes=[0.0, 0.4, 0.8]",
                     "--retries", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "retries recovered:" in out

    def test_exp_exhausted_retries_exit_nonzero_with_quarantine(
            self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_FAULT_SEED", "7")
        monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
        monkeypatch.setenv("REPRO_FAULT_MAX_PER_SITE", "none")
        code = main(["exp", "rabi", "--param", "n_rounds=2",
                     "--param", "amplitudes=[0.0, 0.4]",
                     "--retries", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "quarantined jobs" in err
        assert "FaultInjected" in err
        assert "Traceback" not in err  # one-line errors, not raw dumps


class TestQuarantineBound:
    """``ExecutorBackend.MAX_QUARANTINE``: a cap on retained failure reports.

    Failures beyond the cap evict the oldest entries (counted in
    ``quarantine_evicted``) so a pathological sweep cannot grow the
    stats payload without bound.
    """

    def _poison_service(self):
        plan = FaultPlan(seed=1, rate=1.0, max_faults_per_site=None)
        return ExperimentService(backend="serial", faults=plan,
                                 retry=RetryPolicy(max_attempts=2,
                                                   backoff_s=0.0))

    def test_cap_evicts_oldest_and_counts(self, monkeypatch):
        monkeypatch.setattr(ExecutorBackend, "MAX_QUARANTINE", 2)
        with self._poison_service() as svc:
            for i in range(5):
                svc.submit(flip_spec(seed=i, label=f"p{i}"))
            svc.drain()
            stats = svc.stats()["engine"]
        assert stats["failed"] == 5
        assert len(stats["quarantine"]) == 2
        assert stats["quarantine_evicted"] == 3
        # Newest entries are the ones retained.
        assert [e["label"] for e in stats["quarantine"]] == ["p3", "p4"]

    def test_default_cap_reports_zero_evictions(self):
        with self._poison_service() as svc:
            svc.submit(flip_spec(seed=0))
            svc.drain()
            stats = svc.stats()["engine"]
        assert stats["quarantined"] == 1
        assert stats["quarantine_evicted"] == 0
