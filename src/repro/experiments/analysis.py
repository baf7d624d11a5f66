"""Curve fitting for the coherence and benchmarking experiments.

Each fit imports ``scipy.optimize`` when it runs: the import costs about
half a second, and most sessions (AllXY, mitigated Bell) never fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import CalibrationError


@dataclass(frozen=True)
class ExponentialFit:
    amplitude: float
    tau: float
    offset: float


@dataclass(frozen=True)
class DampedCosineFit:
    amplitude: float
    tau: float
    frequency: float  #: in units of 1/x
    phase: float
    offset: float


@dataclass(frozen=True)
class RBFit:
    amplitude: float
    p: float           #: depolarizing parameter per Clifford
    offset: float

    @property
    def error_per_clifford(self) -> float:
        """r = (1 - p) * (d - 1) / d with d = 2."""
        return (1.0 - self.p) / 2.0

    @property
    def average_fidelity(self) -> float:
        return 1.0 - self.error_per_clifford


def fit_exponential_decay(x: np.ndarray, y: np.ndarray) -> ExponentialFit:
    """Fit y = A * exp(-x / tau) + B (the T1 / echo model)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 3:
        raise CalibrationError("need at least 3 points for an exponential fit")
    from scipy.optimize import curve_fit

    a0 = y[0] - y[-1]
    b0 = y[-1]
    tau0 = max(x[-1] / 2.0, x[1] - x[0] if len(x) > 1 else 1.0)

    def model(t, a, tau, b):
        return a * np.exp(-t / tau) + b

    # Bound tau to a few sweep lengths: unbounded, a slow decay over a
    # short sweep degenerates into a straight line with tau -> infinity.
    tau_hi = 5.0 * float(np.max(x)) if np.max(x) > 0 else 1.0
    tau_lo = max(float(np.min(np.diff(np.sort(x)))) / 10.0, 1e-9)
    try:
        popt, _ = curve_fit(model, x, y,
                            p0=[a0 if a0 else 0.5, min(tau0, tau_hi / 2), b0],
                            bounds=([-2.0, tau_lo, -1.0], [2.0, tau_hi, 2.0]),
                            maxfev=10000)
    except RuntimeError as exc:
        raise CalibrationError(f"exponential fit failed: {exc}") from None
    return ExponentialFit(amplitude=float(popt[0]), tau=float(abs(popt[1])),
                          offset=float(popt[2]))


def fit_damped_cosine(x: np.ndarray, y: np.ndarray,
                      freq_guess: float | None = None) -> DampedCosineFit:
    """Fit y = A * exp(-x/tau) * cos(2*pi*f*x + phi) + B (Ramsey model)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 6:
        raise CalibrationError("need at least 6 points for a damped cosine fit")
    from scipy.optimize import curve_fit

    b0 = float(np.mean(y))
    a0 = float((np.max(y) - np.min(y)) / 2.0) or 0.5
    if freq_guess is None:
        # FFT-based initial guess on the uniform part of the grid.
        dx = np.median(np.diff(x))
        spectrum = np.fft.rfft(y - b0)
        freqs = np.fft.rfftfreq(len(y), d=dx)
        freq_guess = float(freqs[np.argmax(np.abs(spectrum[1:])) + 1]) if len(freqs) > 1 else 0.0
    tau0 = x[-1] / 2.0 if x[-1] > 0 else 1.0

    def model(t, a, tau, f, phi, b):
        return a * np.exp(-t / tau) * np.cos(2 * np.pi * f * t + phi) + b

    try:
        popt, _ = curve_fit(model, x, y, p0=[a0, tau0, freq_guess, 0.0, b0],
                            maxfev=20000)
    except RuntimeError as exc:
        raise CalibrationError(f"damped cosine fit failed: {exc}") from None
    return DampedCosineFit(amplitude=float(popt[0]), tau=float(abs(popt[1])),
                           frequency=float(abs(popt[2])), phase=float(popt[3]),
                           offset=float(popt[4]))


def fit_rb_decay(m: np.ndarray, y: np.ndarray,
                 fixed_offset: float | None = None) -> RBFit:
    """Fit y = A * p^m + B (zeroth-order randomized benchmarking model).

    With few sequence lengths the three-parameter fit is underdetermined;
    passing ``fixed_offset=0.5`` (the depolarized asymptote) pins B.
    """
    m = np.asarray(m, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(m) < 3:
        raise CalibrationError("need at least 3 sequence lengths")
    from scipy.optimize import curve_fit

    try:
        if fixed_offset is None:
            def model(mm, a, p, b):
                return a * np.power(p, mm) + b

            popt, _ = curve_fit(model, m, y, p0=[0.5, 0.99, 0.5], maxfev=20000,
                                bounds=([-1.5, 0.0, -0.5], [1.5, 1.0, 1.5]))
            a, p, b = popt
        else:
            def model(mm, a, p):
                return a * np.power(p, mm) + fixed_offset

            popt, _ = curve_fit(model, m, y, p0=[0.5, 0.99], maxfev=20000,
                                bounds=([-1.5, 0.0], [1.5, 1.0]))
            a, p = popt
            b = fixed_offset
    except RuntimeError as exc:
        raise CalibrationError(f"RB fit failed: {exc}") from None
    return RBFit(amplitude=float(a), p=float(p), offset=float(b))
