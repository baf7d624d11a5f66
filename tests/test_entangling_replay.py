"""Bitwise parity of the joint round-replay fast path (register jobs).

The contract under test: with ``replay=True`` (now the entangling
default) every correlated observable — per-qubit statistics, the
joint-outcome histogram and its derived probabilities/marginals, and the
fitted parity/fidelity estimates — is **bit-identical** to the same
experiment with replay off, on every service backend.  Replay must
therefore be a pure speedup, never a physics change.

Also covered: the ``ReplayCache`` serves one verified replay plan to
every repeat of a sweep (warm hits replay all rounds), and silent
fallbacks surface through ``JobResult.replay_fallback_reason``.

Set ``REPRO_SERVICE_BACKEND=serial|process|fleet`` to pin the
parametrized backend (the CI matrix runs one backend per job).
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.session import Session

ALL_BACKENDS = ("serial", "process")
_PINNED = os.environ.get("REPRO_SERVICE_BACKEND")
BACKENDS_UNDER_TEST = (_PINNED,) if _PINNED else ALL_BACKENDS

#: (experiment, targets, params) — widths 2-4 across the whole family.
CASES = (
    ("cz_calibration", ((0, 1),),
     dict(phases=[0.0, 1.5, 3.0, 4.5], n_rounds=6)),
    ("bell", ((0, 1),), dict(n_rounds=8)),
    ("ghz", ((0, 1),), dict(n_rounds=8, repeats=2)),
    ("ghz", ((0, 1, 2),), dict(n_rounds=8, repeats=2)),
    ("ghz", ((0, 1, 2, 3),), dict(n_rounds=6, repeats=1)),
)
CASE_IDS = [f"{name}-w{len(targets[0])}" for name, targets, _ in CASES]


def _normalize(value):
    """Recursively turn an analysis payload into comparable plain data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _normalize({f.name: getattr(value, f.name)
                           for f in dataclasses.fields(value)})
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in sorted(value.items(),
                                                    key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _run(backend, name, targets, params, replay):
    with Session(backend=backend, workers=2, seed=11) as session:
        future = session.submit_experiment(name, targets=targets,
                                           replay=replay, **params)
        analysis = future.result()
        jobs = [f.result() for f in future.futures]
    payload = [(job.label, job.seed,
                np.asarray(job.averages).tobytes(),
                np.asarray(job.joint_counts).tobytes(),
                np.asarray(job.joint_probabilities).tobytes(),
                np.asarray(job.register_normalized).tobytes(),
                job.s_grounds, job.s_exciteds)
               for job in jobs]
    return payload, _normalize(analysis), jobs


class TestReplayOnOffParity:
    @pytest.mark.parametrize(("name", "targets", "params"), CASES,
                             ids=CASE_IDS)
    def test_bitwise_parity_serial(self, name, targets, params):
        on_payload, on_analysis, on_jobs = _run("serial", name, targets,
                                                params, replay=True)
        off_payload, off_analysis, off_jobs = _run("serial", name, targets,
                                                   params, replay=False)
        assert on_payload == off_payload
        assert on_analysis == off_analysis
        # Replay genuinely engaged — and honestly reported either way.
        assert all(j.replayed_rounds > 0 for j in on_jobs)
        assert all(j.replay_fallback_reason is None for j in on_jobs)
        assert all(j.replayed_rounds == 0 for j in off_jobs)
        assert all(j.replay_fallback_reason == "replay disabled by spec"
                   for j in off_jobs)

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
    @pytest.mark.parametrize(("name", "targets", "params"), CASES,
                             ids=CASE_IDS)
    def test_bitwise_parity_across_backends(self, name, targets, params,
                                            backend):
        """Replay-on on any backend == replay-off on serial, byte for
        byte — so mixing backends and replay modes can never skew an
        estimate."""
        on_payload, on_analysis, _ = _run(backend, name, targets,
                                          params, replay=True)
        off_payload, off_analysis, _ = _run("serial", name, targets,
                                            params, replay=False)
        assert on_payload == off_payload
        assert on_analysis == off_analysis


class TestJointPlanCache:
    def test_repeats_share_one_verified_plan(self):
        """Repeat #0 pays the record+verify build; every later repeat of
        the same register sweep replays warm from the cache."""
        with Session(backend="serial", seed=11) as session:
            future = session.submit_experiment("ghz", targets=((0, 1, 2),),
                                               n_rounds=8, repeats=3)
            future.result()
            jobs = [f.result() for f in future.futures]
            stats = session.stats()
        assert not jobs[0].replay_plan_hit
        assert jobs[0].replayed_rounds == 6  # rounds 1-2 recorded
        for job in jobs[1:]:
            assert job.replay_plan_hit
            assert job.replayed_rounds == 8  # all rounds, no event kernel
        cache_stats = stats["replay_cache"]
        assert cache_stats["hits"] >= 2

    def test_fallback_reason_surfaces_on_jobs(self):
        """An ineligible program reports why it ran the event kernel."""
        with Session(backend="serial", seed=11) as session:
            # n_rounds=2 is below the three-round replay minimum.
            future = session.submit_experiment("ghz", targets=((0, 1),),
                                               n_rounds=2, repeats=1)
            future.result()
            jobs = [f.result() for f in future.futures]
        assert jobs[0].replayed_rounds == 0
        assert "three rounds" in jobs[0].replay_fallback_reason
