"""The four closed-loop sweep workloads and how one client drives them.

Each workload is one experiment sweep submitted through the public
:class:`~repro.session.Session` API by a single client that sends its
next sweep only after the previous one returned (a closed loop with one
client).  The workloads differ in which layer their time goes to; the
reasons are in ``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import threading
from dataclasses import dataclass, field

from repro.session import Session
from repro.utils.errors import JobError

#: Per-completion wait bound for a sweep; a sweep that stalls longer is
#: counted as failed and its service replaced.
SWEEP_TIMEOUT_S = 30.0
#: Warm-up stops once a sweep passes the gate, or fails after this many.
MAX_WARMUP_SWEEPS = 60
#: How long closing a stalled service may take before its workers are
#: killed instead.
CLOSE_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    params: dict = field(default_factory=dict)
    backend: str = "serial"
    workers: int | None = None
    #: Warm-up gate: per-job ratios that must all reach 1.0 in one sweep
    #: before timing starts (``JobResult`` attribute names).
    gate: tuple[str, ...] = ("cache_hit", "machine_reused", "replay_plan_hit")
    #: The sweep's time goes mostly to numpy passes over arrays larger
    #: than a core's caches, so its host reference streams too (see
    #: ``hostref``).
    streaming: bool = False


WORKLOADS = {w.name: w for w in (
    # Replay is off, so there is no plan to hit.
    Workload("allxy_full", "allxy",
             dict(qubits=(0,), n_rounds=8, replay=False),
             gate=("cache_hit", "machine_reused")),
    Workload("allxy_replay", "allxy", dict(qubits=(0,), n_rounds=128),
             streaming=True),
    Workload("rabi_warm", "rabi"),
    Workload("bell_mitigated_workers", "mitigated", dict(targets=((0, 1),)),
             backend="process", workers=2),
)}


def session_seed(workload: str, seed: int) -> int:
    """The machine seed a run uses; the program sees only this."""
    digest = hashlib.sha256(f"perfbench/{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2 ** 31)


def open_session(workload: Workload, seed: int) -> Session:
    return Session(seed=session_seed(workload.name, seed),
                   backend=workload.backend, workers=workload.workers)


def gate_passed(workload: Workload, jobs) -> bool:
    return all(getattr(job, attr) for job in jobs for attr in workload.gate)


class SweepFailed(Exception):
    """A sweep timed out or one of its jobs raised :class:`JobError`."""

    def __init__(self, n_jobs: int, cause: BaseException):
        super().__init__(f"{type(cause).__name__}: {cause}")
        self.n_jobs = n_jobs


def run_sweep(session: Session, workload: Workload):
    """Submit one sweep and block for it; returns the ``ExperimentFuture``.

    The whole sweep — spec building, execution and analysis — is what a
    caller of ``Session.run`` waits for.
    """
    future = session.submit_experiment(workload.experiment,
                                       **workload.params)
    try:
        future.result(timeout=SWEEP_TIMEOUT_S)
    except (TimeoutError, JobError) as exc:
        raise SweepFailed(len(future.futures), exc) from exc
    return future


def close_session(session: Session) -> None:
    """Close a session without letting a stuck worker pool hang the run.

    The close runs on a helper thread; if it has not finished in
    :data:`CLOSE_TIMEOUT_S` every child process is killed, which unblocks
    the pool join.
    """
    closer = threading.Thread(target=session.close, daemon=True)
    closer.start()
    closer.join(CLOSE_TIMEOUT_S)
    if closer.is_alive():
        kill_children()
        closer.join(CLOSE_TIMEOUT_S)


def kill_children() -> None:
    for child in multiprocessing.active_children():
        child.kill()
        child.join(CLOSE_TIMEOUT_S)
