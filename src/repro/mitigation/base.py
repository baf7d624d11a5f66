"""The Mitigator protocol: one interface, two techniques.

A :class:`Mitigator` is a pure, parent-side transformation around job
execution — it never touches the machines.  Each technique hooks up to
three points of an experiment's life:

* :meth:`~Mitigator.expand_spec` — fan one of the wrapped experiment's
  specs into the variants to execute (ZNE emits one folded spec per
  noise scale; readout mitigation passes through).
* :meth:`~Mitigator.correct` — correct one executed job's joint-outcome
  histogram into a probability vector (readout mitigation inverts the
  confusion matrix; ZNE just normalizes).
* :meth:`~Mitigator.combine` — collapse the per-variant value blocks
  back to one estimate (ZNE extrapolates to zero noise; a single-variant
  technique returns its only block).

:class:`~repro.mitigation.experiment.MitigatedExperiment` composes any
subset of techniques through these hooks, so mitigated sweeps stay pure
functions of their specs — expansion and reduction both happen in the
submitting process with explicitly derived seeds, which is what keeps
them bit-identical across the serial/process/fleet backends.

The service-side scheduler counts mitigated jobs as results stream
back; confusion matrices are memoized per process (see
:class:`ReadoutMitigator`).
"""

from __future__ import annotations

import abc
import functools
from dataclasses import replace
from typing import ClassVar

import numpy as np

from repro.core.quma import calibration_key
from repro.mitigation.folding import fold_asm, fold_program, fold_rng
from repro.mitigation.readout import (DEFAULT_RIDGE, confusion_matrix,
                                      correct_counts)
from repro.mitigation.zne import (EXTRAPOLATORS, extrapolate_to_zero,
                                  noise_amplification)
from repro.service.job import JobSpec, derive_job_seed
from repro.utils.errors import CalibrationError, ConfigurationError


class Mitigator(abc.ABC):
    """One error-mitigation technique behind the three shared hooks."""

    #: Technique key (the ``--mitigation`` CLI spelling).
    name: ClassVar[str] = "?"

    def group_size(self) -> int:
        """How many executed variants one original spec becomes."""
        return 1

    def expand_spec(self, spec: JobSpec) -> list[JobSpec]:
        """The variants of one spec to execute, in group order."""
        return [spec]

    def correct(self, counts: np.ndarray,
                cal_targets: tuple[int, ...]) -> np.ndarray:
        """One job's corrected joint-outcome probability vector.

        The default just normalizes, guarding the zero-count histogram
        explicitly (a clear :class:`CalibrationError` instead of NaNs).
        """
        counts = np.asarray(counts, dtype=float)
        total = counts.sum()
        if total <= 0:
            raise CalibrationError(
                "joint-outcome histogram has zero total counts; cannot "
                "normalize probabilities")
        return counts / total

    def combine(self, values: np.ndarray) -> np.ndarray:
        """Collapse per-variant value blocks (axis 0) to one estimate."""
        values = np.asarray(values, dtype=float)
        if values.shape[0] != self.group_size():
            raise ConfigurationError(
                f"{self.name} combines {self.group_size()} variant blocks, "
                f"got {values.shape[0]}")
        return values[0]

    def amplification(self) -> float | None:
        """Shot-noise amplification of :meth:`combine` (1 = none)."""
        return 1.0


class ZNEMitigator(Mitigator):
    """Zero-noise extrapolation: folded spec variants per noise scale."""

    name = "zne"

    def __init__(self, scales=(1.0, 2.0, 3.0),
                 extrapolator: str = "richardson", fold_seed: int = 0):
        scales = tuple(float(s) for s in scales)
        if len(scales) < 2:
            raise ConfigurationError(
                "zero-noise extrapolation needs at least 2 noise scales")
        if scales[0] != 1.0:
            raise ConfigurationError(
                f"the first noise scale must be 1.0 (the unfolded circuit), "
                f"got {scales}")
        if list(scales) != sorted(set(scales)):
            raise ConfigurationError(
                f"noise scales must be strictly increasing, got {scales}")
        if extrapolator not in EXTRAPOLATORS:
            raise ConfigurationError(
                f"unknown extrapolator {extrapolator!r}; choose from "
                f"{sorted(EXTRAPOLATORS)}")
        if extrapolator == "exponential" and (
                len(scales) != 3
                or not np.isclose(scales[1] - scales[0],
                                  scales[2] - scales[1])):
            raise ConfigurationError(
                "the exponential extrapolator needs exactly 3 equally "
                f"spaced noise scales, got {scales}")
        self.scales = scales
        self.extrapolator = extrapolator
        self.fold_seed = int(fold_seed)

    def group_size(self) -> int:
        return len(self.scales)

    def expand_spec(self, spec: JobSpec) -> list[JobSpec]:
        return [self._fold_spec(spec, i) for i in range(len(self.scales))]

    def _fold_spec(self, spec: JobSpec, scale_index: int) -> JobSpec:
        """One noise-scaled variant; scale 1.0 is the spec itself.

        The scale-1 variant keeps the original seed and program text, so
        the unmitigated subset of a mitigated sweep is byte-identical to
        the unwrapped experiment's jobs.  Folded variants derive their
        run seed from ``(run_seed, scale_index)`` parent-side —
        bit-identical across every backend — and fold with the
        config-seeded stream (:func:`~repro.mitigation.folding.fold_rng`),
        so repeats share one folded program text per scale.
        """
        scale = self.scales[scale_index]
        params = {**spec.params, "zne_scale": scale,
                  "zne_index": scale_index}
        if scale == 1.0:
            return replace(spec, params=params)
        rng = fold_rng(self.fold_seed, scale_index)
        kwargs: dict = {
            "params": params,
            "seed": derive_job_seed(spec.run_seed, scale_index),
            "label": (f"{spec.label} | zne x{scale:g}" if spec.label
                      else f"zne x{scale:g}"),
        }
        if spec.asm is not None:
            kwargs["asm"] = fold_asm(spec.asm, scale, rng)
        else:
            kwargs["program"] = fold_program(spec.program, scale, rng)
        return replace(spec, **kwargs)

    def combine(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape[0] != len(self.scales):
            raise ConfigurationError(
                f"zne combines one value block per scale "
                f"({len(self.scales)}), got {values.shape[0]}")
        return extrapolate_to_zero(self.scales, values, self.extrapolator)

    def amplification(self) -> float | None:
        return noise_amplification(self.scales, self.extrapolator)


class _ContentKey(tuple):
    """A memo key that hashes as a plain tuple but carries a config."""


@functools.lru_cache(maxsize=16)
def cached_response(key: _ContentKey) -> np.ndarray:
    """:func:`confusion_matrix`, memoized read-only on ``key``'s content."""
    targets, shots, _ = key
    config, key.config = key.config, None  # the memo keeps content only
    response = confusion_matrix(config, targets, cal_shots=shots)
    response.setflags(write=False)
    return response


class ReadoutMitigator(Mitigator):
    """Confusion-matrix inversion over the register's joint outcomes.

    Response matrices live in one bounded, process-wide memo keyed on
    the register, the resolved ``cal_shots`` and each register qubit's
    :func:`~repro.core.quma.calibration_key`: all that
    :func:`~repro.mitigation.readout.confusion_matrix` reads from the
    config.  So a warm sweep never builds one again, whichever config
    object it carries.  Cached matrices are read-only.
    """

    name = "readout"

    def __init__(self, config, ridge: float = DEFAULT_RIDGE,
                 cal_shots: int | None = None):
        if ridge < 0:
            raise ConfigurationError(f"ridge must be >= 0 (got {ridge})")
        if cal_shots is not None and int(cal_shots) < 1:
            raise ConfigurationError(
                f"cal_shots must be at least 1 (got {cal_shots})")
        self.config = config
        self.ridge = float(ridge)
        self.cal_shots = None if cal_shots is None else int(cal_shots)

    def response_for(self, cal_targets: tuple[int, ...]) -> np.ndarray:
        targets = tuple(int(q) for q in cal_targets)
        shots = self.cal_shots or int(self.config.calibration_shots)
        key = _ContentKey((targets, shots, tuple(
            calibration_key(self.config, q) for q in targets)))
        key.config = self.config
        return cached_response(key)

    def correct(self, counts: np.ndarray,
                cal_targets: tuple[int, ...]) -> np.ndarray:
        return correct_counts(self.response_for(cal_targets), counts,
                              ridge=self.ridge)
