"""Experiment-orchestration service: batched execution of compiled programs.

The classical analogue of a lab-control stack driving a real processor:
jobs (:class:`JobSpec`) describe one compiled-program execution, and an
:class:`ExperimentService` runs every job on its one executor backend,
its engine — serial, local worker processes, or remote worker daemons —
with deterministic per-job seeding.  Wherever jobs run, an in-memory
compile cache there reuses codegen and assembly across sweep points and
a machine pool reuses :class:`~repro.core.quma.QuMA` control stacks
across jobs with compatible configs; the serial engine and each worker
own one of each.  The same engine runs ``baseline`` specs (APS2
cost-model jobs) next to QuMA sweeps.

Quick use::

    from repro.service import ExperimentService, JobSpec, grid

    with ExperimentService(backend="process", workers=4) as service:
        for spec in (make_job(p) for p in grid(amplitude=amps)):
            service.submit(spec)
        for result in service.iter_completed():   # completion order
            print(result.label, result.normalized[0])

        sweep = service.run_sweep(make_job, grid(amplitude=amps),
                                  seed_root=7)
        one = service.run_job(make_job({"amplitude": 0.5}))  # on a worker
"""

from repro.service.backends import (
    ExecutorBackend,
    FleetBackend,
    ProcessBackend,
    SerialBackend,
    execute_job,
    execute_with_retry,
)
from repro.service.cache import (
    CompileCache,
    ReplayCache,
    microprograms_fingerprint,
    program_fingerprint,
)
from repro.service.faults import FAULT_KINDS, FAULT_SITES, FaultPlan
from repro.service.job import (
    STAGE_FIELDS,
    JobFuture,
    JobResult,
    JobSpec,
    LUTUpload,
    SweepResult,
    derive_job_seed,
    stage_rollup,
)
from repro.service.policy import (
    DEFAULT_RETRYABLE,
    NO_RETRY,
    RetryPolicy,
    wrap_job_failure,
)
from repro.service.pool import MachinePool, pool_key
from repro.service.scheduler import ExperimentService, grid

__all__ = [
    "CompileCache",
    "DEFAULT_RETRYABLE",
    "ExecutorBackend",
    "ExperimentService",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultPlan",
    "FleetBackend",
    "JobFuture",
    "JobResult",
    "JobSpec",
    "LUTUpload",
    "MachinePool",
    "NO_RETRY",
    "ProcessBackend",
    "ReplayCache",
    "RetryPolicy",
    "STAGE_FIELDS",
    "SerialBackend",
    "SweepResult",
    "derive_job_seed",
    "execute_job",
    "execute_with_retry",
    "grid",
    "microprograms_fingerprint",
    "pool_key",
    "program_fingerprint",
    "stage_rollup",
    "wrap_job_failure",
]
