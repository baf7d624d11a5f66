"""Shared fixtures and helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures (see the
experiment index in DESIGN.md) and asserts the *shape* of the result —
who wins, by roughly what factor, where crossovers fall — rather than the
authors' absolute testbed numbers.

Run with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
paper-style tables each bench prints.
"""

import functools
import os

import pytest


def emit(text: str) -> None:
    """Print a paper-style artifact (visible with -s)."""
    print("\n" + text)


@functools.cache
def shared_service():
    """One serial service for every bench in the process.

    Successive runs share its machine pool and compile cache, the warm
    reuse the bench numbers have always measured across calls.
    """
    from repro.service import ExperimentService

    return ExperimentService(backend="serial")


def run_experiment(name: str, config, service=None, **params):
    """Run a registered experiment through the Session facade, on
    ``service`` or else the benches' :func:`shared_service`."""
    from repro import Session

    return Session(config, service=service if service is not None
                   else shared_service()).run(name, **params)


@pytest.fixture
def allxy_rounds() -> int:
    """Averaging rounds for the AllXY benches.

    The paper uses N = 25600; the default here keeps the bench under ten
    seconds while preserving the staircase and the deviation metric
    (statistical error scales as 1/sqrt(N)).  Override with the
    ALLXY_ROUNDS environment variable.
    """
    return int(os.environ.get("ALLXY_ROUNDS", "512"))
