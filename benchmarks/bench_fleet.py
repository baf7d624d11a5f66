"""Fleet throughput: loopback worker daemons vs local process workers.

Launches 1/2/4 ``repro worker`` daemons on loopback, drives the same
warm-cache sweep through ``backend="fleet"`` at each fleet size plus
the process backend, and records jobs/s for every configuration in
``BENCH_fleet.json``.  Every fleet sweep is asserted bit-identical to
the serial reference first — throughput numbers for wrong answers are
not throughput numbers.

The interesting ratio is ``scaling_2w`` (2-worker over 1-worker
throughput): on a multi-core box adding a daemon should approach 2x,
and ``guard_bench.py`` enforces a floor on it whenever the recording
machine had the cores to show it (``cpu_count >= 2`` in the artifact —
a single-core container time-slices the daemons and can prove
nothing about scaling).

Env knobs for CI: ``FLEET_BENCH_POINTS`` (jobs per sweep, default 12),
``FLEET_BENCH_ROUNDS`` (rounds per job, default 200).
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.compiler import CompilerOptions, QuantumProgram
from repro.core import MachineConfig
from repro.pulse import PulseCalibration
from repro.service import ExperimentService, JobSpec
from repro.service.fleet.launch import launch_worker, stop_worker

from conftest import emit

N_POINTS = int(os.environ.get("FLEET_BENCH_POINTS", "12"))
N_ROUNDS = int(os.environ.get("FLEET_BENCH_ROUNDS", "200"))
FLEET_SIZES = (1, 2, 4)

ARTIFACT = Path(__file__).resolve().parent / "BENCH_fleet.json"


def _specs():
    """Replay-disabled flips: every round runs the full event kernel, so
    a job is real work and distribution has something to distribute."""
    p = QuantumProgram("flip", qubits=(2,))
    p.new_kernel("k").prepz(2).x(2).measure(2)
    config = MachineConfig(qubits=(2,), trace_enabled=False,
                           calibration=PulseCalibration(kappa=0.7))
    return [JobSpec(config=config, program=p,
                    compiler_options=CompilerOptions(n_rounds=N_ROUNDS),
                    seed=i + 1, label=f"pt{i}", replay=False)
            for i in range(N_POINTS)]


def _timed_sweep(svc, specs):
    svc.run_batch(specs)  # warm: caches, pools, connections
    t0 = time.perf_counter()
    sweep = svc.run_batch(specs)
    return sweep, time.perf_counter() - t0


def _assert_parity(reference, sweep):
    for ref, got in zip(reference, sweep):
        assert ref.seed == got.seed
        np.testing.assert_array_equal(ref.averages, got.averages)


def test_fleet_scaling_vs_process():
    specs = _specs()
    with ExperimentService(backend="serial") as svc:
        reference, serial_s = _timed_sweep(svc, specs)

    with ExperimentService(backend="process", workers=2) as svc:
        process_sweep, process_s = _timed_sweep(svc, specs)
    _assert_parity(reference, process_sweep)

    fleet_rows = []
    for size in FLEET_SIZES:
        procs, addrs = [], []
        try:
            for _ in range(size):
                proc, addr = launch_worker()
                procs.append(proc)
                addrs.append(addr)
            with ExperimentService(backend="fleet",
                                   fleet_workers=addrs) as svc:
                sweep, elapsed = _timed_sweep(svc, specs)
            _assert_parity(reference, sweep)
            fleet_rows.append({"workers": size,
                               "elapsed_s": round(elapsed, 4),
                               "jobs_per_s": round(N_POINTS / elapsed, 3)})
        finally:
            for proc in procs:
                stop_worker(proc)

    one = next(r for r in fleet_rows if r["workers"] == 1)
    two = next(r for r in fleet_rows if r["workers"] == 2)
    artifact = {
        "n_jobs": N_POINTS,
        "n_rounds": N_ROUNDS,
        "cpu_count": os.cpu_count(),
        "serial_jobs_per_s": round(N_POINTS / serial_s, 3),
        "process": {"workers": 2,
                    "jobs_per_s": round(N_POINTS / process_s, 3)},
        "fleet": fleet_rows,
        "scaling_2w": round(two["jobs_per_s"] / one["jobs_per_s"], 3),
        "parity": "bitwise",
    }
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")

    lines = [f"{'config':<14} {'jobs/s':>8}",
             f"{'serial':<14} {artifact['serial_jobs_per_s']:>8.2f}",
             f"{'process x2':<14} {artifact['process']['jobs_per_s']:>8.2f}"]
    lines += [f"{'fleet x' + str(r['workers']):<14} {r['jobs_per_s']:>8.2f}"
              for r in fleet_rows]
    lines.append(f"2-worker scaling: {artifact['scaling_2w']:.2f}x "
                 f"(on {artifact['cpu_count']} cores)")
    emit("\n".join(lines) + f"\nartifact -> {ARTIFACT}")

    # On any machine: distributing must not corrupt results (asserted
    # above) and a 1-worker fleet must stay within sanity of serial
    # (protocol overhead, not collapse).
    assert one["jobs_per_s"] > 0.2 * artifact["serial_jobs_per_s"]
    if (os.cpu_count() or 1) >= 2:
        assert artifact["scaling_2w"] >= 1.1
