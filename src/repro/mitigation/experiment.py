"""The ``mitigated`` registry experiment: mitigation as a wrapper.

``MitigatedExperiment`` wraps any registered experiment and threads it
through the :class:`~repro.mitigation.base.Mitigator` hooks:

* **definition** — every inner spec fans out into one variant per
  noise scale (ZNE gate folding, deterministic seeded selection), each
  with a parent-derived run seed, so the expanded sweep remains a pure
  function of its specs and stays bit-identical across the
  serial/process/fleet backends;
* **analysis** — the per-scale jobs of each group are corrected
  (confusion-matrix inversion of the joint histogram), extrapolated to
  zero noise, and synthesized back into one *virtual*
  :class:`~repro.service.job.JobResult` carrying the mitigated joint
  distribution (as integer counts at :data:`VIRTUAL_SHOTS` resolution)
  and consistent per-qubit averages — which the wrapped experiment's
  own ``analyze_target``/``estimate_target`` then consume unchanged.

Because the wrapper registers as a first-class experiment
(``name="mitigated"``), every execution surface — ``Session.run``,
``repro exp bell --mitigation zne,readout``, the registry-driven
cross-backend parity suite — gets mitigation for free::

    session.run("mitigated", targets=((0, 1),), experiment="bell",
                mitigation=("zne", "readout"), scales=(1.0, 2.0, 3.0))
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.experiments.base import (REGISTRY, Experiment, Target,
                                    register_experiment)
from repro.mitigation.base import Mitigator, ReadoutMitigator, ZNEMitigator
from repro.mitigation.readout import DEFAULT_RIDGE
from repro.service.job import JobResult, JobSpec
from repro.utils.errors import CalibrationError, ConfigurationError

#: Resolution of a virtual (mitigated) job's joint-outcome histogram:
#: extrapolated probabilities are rounded onto this many integer counts
#: so the wrapped experiments' int64 count reductions run unchanged
#: (quantization error 1e-9 per outcome word).
VIRTUAL_SHOTS = 1_000_000_000

#: Spec params the wrapper adds during expansion (stripped again from
#: virtual results so inner analyzers see the original sweep params).
_EXPANSION_PARAMS = ("zne_scale", "zne_index", "mitigation")

#: Registered technique spellings, in application order.
TECHNIQUES = ("zne", "readout")


@register_experiment
class MitigatedExperiment(Experiment):
    """Error-mitigated wrapper around any registered experiment.

    Own parameters select the techniques; every other keyword passes
    through to the wrapped experiment unchanged (``n_rounds=64`` reaches
    the inner Bell experiment).  ``scales`` applies when ``"zne"`` is
    enabled (the first scale must be 1.0 — that variant is byte-
    identical to the unwrapped job, so the unmitigated estimate is
    always recoverable from the same sweep); ``ridge``/``cal_shots``
    tune the confusion-matrix inversion when ``"readout"`` is.
    """

    name = "mitigated"
    target_arity = None
    defaults = {
        "experiment": "bell",
        "mitigation": ("zne", "readout"),
        "scales": (1.0, 2.0, 3.0),
        "extrapolator": "richardson",
        "ridge": DEFAULT_RIDGE,
        "cal_shots": None,
    }

    def __init__(self, config=None, qubits=None, params=None, targets=None):
        params = dict(params or {})
        own = {key: params.pop(key) for key in list(params)
               if key in self.defaults}
        inner_name = str(own.get("experiment", self.defaults["experiment"]))
        inner_cls = REGISTRY.get(inner_name)
        if inner_cls is type(self):
            raise ConfigurationError(
                "the mitigated experiment cannot wrap itself")
        own["experiment"] = inner_name
        #: The wrapped experiment; validates targets/params its own way.
        self.inner = inner_cls(config=config, qubits=qubits, params=params,
                               targets=targets)
        super().__init__(config=self.inner.config, params=own,
                         targets=self.inner.targets)

    # -- definition ----------------------------------------------------------

    def resolve(self) -> None:
        techniques = self.params["mitigation"]
        if isinstance(techniques, str):
            techniques = tuple(t.strip() for t in techniques.split(",")
                               if t.strip())
        else:
            techniques = tuple(str(t) for t in techniques)
        unknown = set(techniques) - set(TECHNIQUES)
        if unknown:
            raise ConfigurationError(
                f"unknown mitigation technique(s) {sorted(unknown)}; "
                f"choose from {TECHNIQUES}")
        if not techniques:
            raise ConfigurationError(
                "name at least one mitigation technique "
                f"(choose from {TECHNIQUES})")
        if len(set(techniques)) != len(techniques):
            raise ConfigurationError(
                f"duplicate mitigation techniques in {techniques}")
        # Canonical application order: expansion first, correction second.
        self.params["mitigation"] = tuple(
            t for t in TECHNIQUES if t in techniques)
        self.params["scales"] = tuple(float(s)
                                      for s in self.params["scales"])
        self.params["ridge"] = float(self.params["ridge"])
        self.mitigators = self._build_mitigators()
        self.group = 1
        for mitigator in self.mitigators:
            self.group *= mitigator.group_size()

    def _build_mitigators(self) -> tuple[Mitigator, ...]:
        built: list[Mitigator] = []
        for name in self.params["mitigation"]:
            if name == "zne":
                built.append(ZNEMitigator(
                    scales=self.params["scales"],
                    extrapolator=str(self.params["extrapolator"]),
                    fold_seed=self.config.seed))
            else:
                built.append(ReadoutMitigator(
                    self.config, ridge=self.params["ridge"],
                    cal_shots=self.params["cal_shots"]))
        return tuple(built)

    @property
    def techniques(self) -> tuple[str, ...]:
        return self.params["mitigation"]

    def validate_target(self, target: Target) -> None:
        self.inner.validate_target(target)

    @classmethod
    def default_session_targets_for(cls, params=None):
        """Delegate the session's register default to the wrapped class."""
        name = str((params or {}).get("experiment",
                                      cls.defaults["experiment"]))
        return REGISTRY.get(name).default_session_targets_for(None)

    def build_target_specs(self, target: Target) -> list[JobSpec]:
        marker = ",".join(self.techniques)
        needs_register = "readout" in self.techniques
        specs: list[JobSpec] = []
        for inner_spec in self.inner.build_target_specs(target):
            if needs_register and inner_spec.cal_targets is None:
                raise ConfigurationError(
                    "readout mitigation inverts joint-outcome histograms, "
                    f"but experiment {self.params['experiment']!r} builds "
                    "jobs without cal_targets (no correlated readout); "
                    "drop 'readout' from mitigation= for this experiment")
            expanded = [inner_spec]
            for mitigator in self.mitigators:
                expanded = [variant for spec in expanded
                            for variant in mitigator.expand_spec(spec)]
            specs.extend(
                replace(variant,
                        params={**variant.params, "mitigation": marker})
                for variant in expanded)
        return specs

    # -- reduction -----------------------------------------------------------

    def _correct(self, job: JobResult) -> np.ndarray:
        vector = job.joint_counts
        for mitigator in self.mitigators:
            vector = mitigator.correct(vector, job.cal_targets)
        return np.asarray(vector, dtype=float)

    def _combine(self, values: np.ndarray) -> np.ndarray:
        for mitigator in self.mitigators:
            if mitigator.group_size() > 1:
                return mitigator.combine(values)
        return np.asarray(values, dtype=float)[0]

    def _reduce_group(self, jobs: list[JobResult]) -> JobResult:
        """One group's per-scale jobs -> one virtual mitigated result.

        The virtual result mirrors the scale-1 job everywhere the inner
        analyzers look — params (expansion keys stripped), label, seed,
        calibration points — with the mitigated joint distribution as
        integer counts and per-qubit averages recomputed from its
        marginals, so corrected histograms and averages tell one story.
        """
        if len(jobs) != self.group:
            raise ConfigurationError(
                f"a mitigated group holds {self.group} variant jobs, "
                f"got {len(jobs)}")
        base = jobs[0]
        params = {key: value for key, value in base.params.items()
                  if key not in _EXPANSION_PARAMS}
        if base.joint_counts is not None:
            corrected = np.stack([self._correct(job) for job in jobs])
            zero = np.clip(self._combine(corrected), 0.0, None)
            total = zero.sum()
            if total <= 0:
                raise CalibrationError(
                    "zero-noise extrapolation left no probability mass "
                    "in the joint distribution")
            zero = zero / total
            counts = np.rint(zero * VIRTUAL_SHOTS).astype(np.int64)
            width = len(base.cal_targets)
            words = np.arange(len(zero))
            marginals = np.asarray([zero[(words >> j) & 1 == 1].sum()
                                    for j in range(width)])
            grounds = np.asarray(base.s_grounds, dtype=float)
            exciteds = np.asarray(base.s_exciteds, dtype=float)
            averages = grounds + marginals * (exciteds - grounds)
            return replace(base, averages=averages, joint_counts=counts,
                           params=params)
        # Scalar path (single-qubit experiments, ZNE only): extrapolate
        # the calibration-normalized averages and map back to raw scale.
        normalized = np.stack([job.normalized for job in jobs])
        zero = self._combine(normalized)
        averages = base.s_ground + np.asarray(zero) * (base.s_excited
                                                       - base.s_ground)
        return replace(base, averages=averages, params=params)

    def _virtual_indexed(self, indexed_jobs) -> list[tuple[int, JobResult]]:
        """Complete groups among arrived jobs, as virtual (index, result).

        Incomplete groups (some scales still in flight) are skipped, so
        streaming estimates only ever fit fully mitigated points — and
        the final update sees exactly the virtual jobs ``analyze`` sees.
        """
        groups: dict[int, dict[int, JobResult]] = {}
        for local, job in indexed_jobs:
            groups.setdefault(local // self.group, {})[local % self.group] = job
        virtual = []
        for index in sorted(groups):
            by_variant = groups[index]
            if len(by_variant) == self.group:
                virtual.append((index, self._reduce_group(
                    [by_variant[i] for i in range(self.group)])))
        return virtual

    # -- analysis ------------------------------------------------------------

    def analyze_target(self, jobs: list[JobResult], target: Target):
        if len(jobs) % self.group:
            raise ConfigurationError(
                f"mitigated slice of {len(jobs)} jobs is not a whole "
                f"number of {self.group}-variant groups")
        virtual = [self._reduce_group(jobs[i:i + self.group])
                   for i in range(0, len(jobs), self.group)]
        return self.inner.analyze_target(virtual, target)

    def estimate_target(self, indexed_jobs, target: Target) -> dict | None:
        virtual = self._virtual_indexed(indexed_jobs)
        if not virtual:
            return None
        return self.inner.estimate_target(virtual, target)

    def stderr_target(self, indexed_jobs, target: Target) -> dict | None:
        """Error bars from the *physical* scale-1 shots, ZNE-amplified.

        Virtual counts are synthetic (:data:`VIRTUAL_SHOTS` resolution),
        so binomial errors must come from the raw jobs; linear
        extrapolators then scale them by their ``sqrt(Σ cᵢ²)`` noise
        amplification.  None when a technique exposes no fixed
        amplification (exponential extrapolation).
        """
        raw = [(local // self.group, job) for local, job in indexed_jobs
               if local % self.group == 0]
        if not raw:
            return None
        base = self.inner.stderr_target(raw, target)
        if not base:
            return None
        amplification = 1.0
        for mitigator in self.mitigators:
            factor = mitigator.amplification()
            if factor is None:
                return None
            amplification *= factor
        if amplification != 1.0:
            base = {key: value * amplification
                    for key, value in base.items()}
        return base

    # -- presentation --------------------------------------------------------

    def summarize_target(self, result, target: Target) -> str:
        return (f"[mitigated {'+'.join(self.techniques)}] "
                f"{self.inner.summarize_target(result, target)}")
