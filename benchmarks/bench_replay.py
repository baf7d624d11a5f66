"""E-replay — the round-replay fast path on the paper's averaging workload.

The headline experiments are pure averaging: AllXY runs N = 25600
identical rounds (Section 8).  The replay engine records rounds 1-2
through the full event-driven stack, verifies the schedule is
round-periodic bit-for-bit, then draws the remaining rounds as vectorized
numpy batches over the same RNG streams — reproducing the full
simulation's averages *exactly* while skipping the per-event Python cost.

This bench measures a trajectory of (full sim, cold replay, warm replay)
wall-clock times over increasing N through the orchestration service,
asserts exact replay-on/replay-off parity, asserts the scale-appropriate
speedup floor (>= 10x at the paper's N = 25600, where per-round event
cost is highest; recording amortizes more slowly at reduced N), and
writes the ``BENCH_replay.json`` trajectory artifact.

Reduced-size by default: ``REPLAY_ROUNDS`` (default 2560) sets the
largest N.  The committed paper-scale artifact comes from::

    REPLAY_ROUNDS=25600 PYTHONPATH=src python -m pytest -q -s \
        benchmarks/bench_replay.py --benchmark-disable \
        -o faulthandler_timeout=0

(~6-8 minutes in one test, so the override turns off ``pytest.ini``'s
120 s stack-dump watchdog, which can crash the run mid-dump).  Its
N = 25600 row records a 6.43x warm speedup (250.7 s full simulation,
39.0 s warm replay): below the 10x floor, so a paper-scale run fails
that assertion.  The ratio fell as full simulation got faster (the
one-qubit device's exact-state memo), not because replay slowed.  The ``paper_scale_reference`` block keeps an earlier
run's 10.3x.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core import MachineConfig
from repro.service import ExperimentService

from conftest import emit, run_experiment


def run_allxy(config, service=None, **params):
    return run_experiment("allxy", config, service=service, **params)


MAX_ROUNDS = int(os.environ.get("REPLAY_ROUNDS", "2560"))
ARTIFACT = Path(__file__).resolve().parent / "BENCH_replay.json"


def speedup_floor(n_rounds: int) -> float:
    """Honest expectation by scale: replay cost is ~per-sample numpy
    bandwidth, while the event-driven baseline's per-round cost *grows*
    with N (a million accumulated result objects); the 10x target is
    stated at the paper's N = 25600."""
    if n_rounds >= 25600:
        return 10.0
    if n_rounds >= 2560:
        return 6.0
    if n_rounds >= 256:
        return 3.0
    return 1.0


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_replay_speedup_and_parity():
    config = MachineConfig(qubits=(2,), trace_enabled=False)
    points = sorted({max(8, MAX_ROUNDS // 16), max(8, MAX_ROUNDS // 4),
                     MAX_ROUNDS})
    trajectory = []
    for n in points:
        svc_off = ExperimentService()
        svc_on = ExperimentService()
        off, t_off = timed(lambda: run_allxy(config, n_rounds=n,
                                             service=svc_off, replay=False))
        cold, t_cold = timed(lambda: run_allxy(config, n_rounds=n,
                                               service=svc_on))
        warm, t_warm = timed(lambda: run_allxy(config, n_rounds=n,
                                               service=svc_on))
        # The parity guarantee: replay on/off share the derived RNG
        # streams, so the averages are *identical*, not just statistically
        # compatible — cold (2 recorded + N-2 replayed) and warm (all N
        # replayed from the cached plan) included.
        assert np.array_equal(off.averages, cold.averages)
        assert np.array_equal(off.averages, warm.averages)
        assert cold.run.result.replayed_rounds == n - 2
        assert warm.run.result.replayed_rounds == n
        trajectory.append({
            "n_rounds": n,
            "t_full_s": round(t_off, 3),
            "t_cold_replay_s": round(t_cold, 3),
            "t_warm_replay_s": round(t_warm, 3),
            "speedup_cold": round(t_off / t_cold, 2),
            "speedup_warm": round(t_off / t_warm, 2),
            "per_round_full_ms": round(t_off / n * 1000, 3),
            "per_round_warm_ms": round(t_warm / n * 1000, 3),
            "parity": "bitwise",
        })
        emit(f"N={n:>6}: full {t_off:7.2f} s | cold replay {t_cold:6.2f} s "
             f"({t_off / t_cold:4.1f}x) | warm replay {t_warm:6.2f} s "
             f"({t_off / t_warm:4.1f}x) | averages bit-identical")

    final = trajectory[-1]
    floor = speedup_floor(MAX_ROUNDS)
    artifact = {
        "bench": "round-replay fast path (AllXY, Section 8 workload)",
        "max_rounds": MAX_ROUNDS,
        "speedup_floor": floor,
        "trajectory": trajectory,
        "paper_scale_reference": {
            "n_rounds": 25600,
            "t_full_s": 407.9,
            "t_cold_replay_s": 39.4,
            "t_warm_replay_s": 39.6,
            "speedup_cold": 10.35,
            "speedup_warm": 10.31,
            "parity": "bitwise",
        },
    }
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
    emit(f"trajectory written to {ARTIFACT.name} "
         f"(floor at N={MAX_ROUNDS}: {floor}x)")
    assert final["speedup_warm"] >= floor, (
        f"warm replay speedup {final['speedup_warm']}x below the "
        f"{floor}x floor for N={MAX_ROUNDS}")
