"""``JobFuture.cancel()`` on still-queued jobs, across every backend.

The cancellation contract (satellite of the fleet PR, but backend
agnostic):

* cancelling a future that has not started resolves it with
  :class:`JobCancelled` — it counts as ``cancelled`` in ``stats()``,
  never as ``failed``, and never lands in quarantine;
* a cancelled future does not block ``drain()``;
* the *other* jobs of the sweep are untouched: their results stay
  bit-identical to a run that never cancelled anything;
* cancel() is a race the caller may lose — on a backend that resolves
  futures eagerly (serial) or a job that already started, it returns
  False and the job's real outcome stands.

Set ``REPRO_SERVICE_BACKEND`` to pin the parametrized backend (the CI
matrix runs one backend per job; the fleet job adds loopback daemons).
"""

import os

import numpy as np
import pytest

from repro.compiler import CompilerOptions, QuantumProgram
from repro.core import MachineConfig
from repro.pulse import PulseCalibration
from repro.service import ExperimentService, JobSpec
from repro.service.fleet import WorkerServer
from repro.utils.errors import JobCancelled

ALL_BACKENDS = ("serial", "process")
_PINNED = os.environ.get("REPRO_SERVICE_BACKEND")
BACKENDS_UNDER_TEST = (_PINNED,) if _PINNED else ALL_BACKENDS


def fast_config():
    return MachineConfig(qubits=(2,), trace_enabled=False,
                         calibration=PulseCalibration(kappa=0.7))


def flip_spec(seed, label="", n_rounds=2, replay=True):
    p = QuantumProgram("flip", qubits=(2,))
    p.new_kernel("k").prepz(2).x(2).measure(2)
    return JobSpec(config=fast_config(), program=p,
                   compiler_options=CompilerOptions(n_rounds=n_rounds),
                   seed=seed, label=label, replay=replay)


def slow_spec(seed, label=""):
    return flip_spec(seed, label=label, n_rounds=300, replay=False)


@pytest.fixture(params=BACKENDS_UNDER_TEST)
def service(request):
    """A one-lane service per backend, so submissions actually queue."""
    backend = request.param
    if backend == "fleet":
        worker = WorkerServer(slots=1).start()
        svc = ExperimentService(backend="fleet",
                                fleet_workers=["%s:%d" % worker.address])
        yield svc
        svc.close()
        worker.stop()
    else:
        svc = ExperimentService(backend=backend, workers=1)
        yield svc
        svc.close()


class TestCancelQueued:
    def test_cancelled_futures_are_not_failures(self, service):
        head = service.submit(slow_spec(1, "head"), stream=False)
        queued = [service.submit(slow_spec(i + 2, f"q{i}"), stream=False)
                  for i in range(3)]
        wins = [f.cancel() for f in queued]
        service.drain(timeout=120.0)
        stats = service.stats()["engine"]

        assert head.exception() is None  # the running job is untouched
        assert stats["failed"] == 0
        assert stats["cancelled"] == sum(wins)
        assert stats["quarantined"] == 0
        for future, won in zip(queued, wins):
            assert future.done()
            if won:
                assert future.cancelled()
                with pytest.raises(JobCancelled):
                    future.result()
            else:
                assert future.exception() is None  # lost race: job ran

    def test_survivors_stay_bit_identical(self, service):
        keep = [slow_spec(i + 1, f"keep{i}") for i in range(2)]
        with ExperimentService(backend="serial") as ref_svc:
            ref = [ref_svc.submit(s).result(timeout=120.0) for s in keep]

        victim = service.submit(slow_spec(100, "victim"), stream=False)
        futures = [service.submit(s, stream=False) for s in keep]
        service.submit(slow_spec(200, "casualty"), stream=False).cancel()
        service.drain(timeout=120.0)
        del victim  # first submission may have run: that's fine

        for expect, future in zip(ref, futures):
            got = future.result(timeout=120.0)
            assert got.seed == expect.seed
            np.testing.assert_array_equal(got.averages, expect.averages)

    def test_cancel_after_completion_is_refused(self, service):
        future = service.submit(flip_spec(7), stream=False)
        future.result(timeout=120.0)
        assert not future.cancel()
        assert not future.cancelled()
        assert future.exception() is None

    def test_drain_completes_with_only_cancelled_jobs(self, service):
        head = service.submit(slow_spec(1), stream=False)
        tail = [service.submit(slow_spec(i + 2), stream=False)
                for i in range(4)]
        for f in tail:
            f.cancel()
        service.drain(timeout=120.0)  # must not hang on cancelled futures
        assert head.done() and all(f.done() for f in tail)
        assert service.stats()["engine"]["pending"] == 0
