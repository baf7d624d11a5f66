"""Tests for the curve-fitting utilities."""

import warnings

import numpy as np
import pytest

from repro.experiments import fit_damped_cosine, fit_exponential_decay, fit_rb_decay
from repro.experiments.rabi import _fit_oscillation
from repro.utils.errors import CalibrationError


def test_exponential_fit_recovers_parameters():
    t = np.linspace(0, 50000, 20)
    y = 0.9 * np.exp(-t / 18000.0) + 0.05
    fit = fit_exponential_decay(t, y)
    assert fit.tau == pytest.approx(18000.0, rel=1e-6)
    assert fit.amplitude == pytest.approx(0.9, rel=1e-6)
    assert fit.offset == pytest.approx(0.05, abs=1e-9)


def test_exponential_fit_with_noise():
    rng = np.random.default_rng(1)
    t = np.linspace(0, 60000, 30)
    y = np.exp(-t / 20000.0) + rng.normal(0, 0.01, len(t))
    fit = fit_exponential_decay(t, y)
    assert fit.tau == pytest.approx(20000.0, rel=0.1)


def test_exponential_fit_rising():
    t = np.linspace(0, 30000, 20)
    y = 0.5 - 0.5 * np.exp(-t / 12000.0)
    fit = fit_exponential_decay(t, y)
    assert fit.tau == pytest.approx(12000.0, rel=1e-6)
    assert fit.amplitude == pytest.approx(-0.5, rel=1e-6)


def test_exponential_fit_needs_points():
    with pytest.raises(CalibrationError):
        fit_exponential_decay(np.array([1, 2]), np.array([1, 2]))


def test_damped_cosine_recovers_parameters():
    t = np.linspace(0, 24000, 60)
    y = 0.5 * np.exp(-t / 12000.0) * np.cos(2 * np.pi * 4e-4 * t) + 0.5
    fit = fit_damped_cosine(t, y)
    assert fit.tau == pytest.approx(12000.0, rel=0.05)
    assert fit.frequency == pytest.approx(4e-4, rel=0.05)
    assert fit.offset == pytest.approx(0.5, abs=0.02)


def test_damped_cosine_with_frequency_guess():
    t = np.linspace(0, 20000, 50)
    y = 0.4 * np.exp(-t / 9000.0) * np.cos(2 * np.pi * 5e-4 * t + 0.3) + 0.5
    fit = fit_damped_cosine(t, y, freq_guess=5e-4)
    assert fit.tau == pytest.approx(9000.0, rel=0.05)
    assert fit.phase == pytest.approx(0.3, abs=0.05)


def test_damped_cosine_needs_points():
    with pytest.raises(CalibrationError):
        fit_damped_cosine(np.arange(4), np.arange(4))


def test_rb_fit_recovers_parameters():
    m = np.array([1, 2, 5, 10, 20, 50, 100])
    y = 0.5 * 0.98 ** m + 0.5
    fit = fit_rb_decay(m, y)
    assert fit.p == pytest.approx(0.98, rel=1e-4)
    assert fit.error_per_clifford == pytest.approx(0.01, rel=1e-2)
    assert fit.average_fidelity == pytest.approx(0.99, rel=1e-3)


def test_rb_fit_with_noise():
    rng = np.random.default_rng(2)
    m = np.array([1, 5, 10, 20, 40, 80, 160])
    y = 0.45 * 0.995 ** m + 0.5 + rng.normal(0, 0.005, len(m))
    fit = fit_rb_decay(m, y)
    assert fit.p == pytest.approx(0.995, abs=0.004)


def test_rb_fit_needs_points():
    with pytest.raises(CalibrationError):
        fit_rb_decay(np.array([1, 2]), np.array([1.0, 0.9]))


def test_three_point_fits_warn_nothing():
    """A fit with as many points as parameters has no covariance estimate;
    the fits discard it, so scipy's warning about it is not raised, and
    the fitted values are unchanged."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rabi = _fit_oscillation(np.array([0.0, 0.25, 0.5]),
                                np.array([0.05, 0.5, 0.95]), 0.5)
        decay = fit_exponential_decay(np.array([0.0, 1000.0, 2000.0]),
                                      np.array([0.9, 0.5, 0.3]))
        rb = fit_rb_decay(np.array([1, 10, 50]), np.array([0.95, 0.85, 0.6]))
    assert rabi["pi_amplitude"] == pytest.approx(0.5, rel=1e-9)
    assert rabi["visibility"] == pytest.approx(0.9, rel=1e-9)
    assert rabi["offset"] == pytest.approx(0.05, rel=1e-9)
    assert decay.amplitude == pytest.approx(0.8, rel=1e-9)
    assert decay.tau == pytest.approx(1000.0 / np.log(2.0), rel=1e-9)
    assert decay.offset == pytest.approx(0.1, rel=1e-9)
    assert rb.amplitude == pytest.approx(0.5071724234483841, rel=1e-9)
    assert rb.p == pytest.approx(0.9752150242300034, rel=1e-9)
    assert rb.offset == pytest.approx(0.4553978329286787, rel=1e-9)


def test_allxy_session_leaves_scipy_optimize_unloaded():
    """``import repro`` and an AllXY run never import scipy.optimize; the
    first fit does."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import sys\n"
        "import repro\n"
        "from repro.session import Session\n"
        "with Session(seed=1) as session:\n"
        "    session.run('allxy', qubits=(0,), n_rounds=4)\n"
        "print('scipy.optimize' in sys.modules)\n"
        "from repro.experiments import fit_exponential_decay\n"
        "fit_exponential_decay([0.0, 1.0, 2.0, 3.0], [1.0, 0.6, 0.4, 0.3])\n"
        "print('scipy.optimize' in sys.modules)\n")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]
